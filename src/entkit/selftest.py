"""Self-verification of the numeric kernels against straight-line references.

Every kernel is re-implemented here with explicit Python loops and scalar
math only, then compared with the vectorized implementation on randomized
small inputs. `run_selftest` returns the maximum absolute deviation per
kernel; the CLI exposes it as `kernels selftest`.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import kernels
from .kernels import GateTransform, ScoreSet, SpanVectors


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


# --------------------------------------------------------------------------
# Loop references


def ref_span_count(num_tokens: int, max_width: int) -> int:
    spans = 0
    for begin in range(num_tokens):
        for end in range(begin + 1, min(begin + max_width, num_tokens) + 1):
            spans += 1
    return spans


def ref_augment_mention(mention, pruner):
    return [[score + pruner[i] for score in row] for i, row in enumerate(mention)]


def ref_augment_pair(pair, pruner, indices):
    n = len(pair)
    return [[pair[i][j] + pruner[indices[i]] for j in range(n)] for i in range(n)]


def ref_bce_loss(scores, indicators) -> float:
    total = 0.0
    for s, i in zip(scores, indicators):
        p = _sigmoid(s)
        total -= i * math.log(p) + (1 - i) * math.log(1.0 - p)
    return total


def ref_coref_loss(scores, gold_sets) -> float:
    total = 0.0
    for j in range(len(scores)):
        numerator = sum(math.exp(scores[i][j]) for i in gold_sets[j])
        denominator = sum(math.exp(scores[i][j]) for i in range(j + 1))
        total -= math.log(numerator / denominator)
    return total


def ref_coref_confidence(scores, j):
    weights = [math.exp(scores[i][j]) for i in range(j + 1)]
    z = sum(weights)
    return [w / z for w in weights] + [0.0] * (len(scores) - j - 1)


def ref_coref_update(confidences, vectors, j):
    dim = len(vectors[0])
    out = [0.0] * dim
    for i in range(j + 1):
        for d in range(dim):
            out[d] += confidences[i] * vectors[i][d]
    return out


def ref_relation_update(rel_scores, projection, vectors, j):
    n = len(vectors)
    dim = len(vectors[0])
    n_types = len(rel_scores[0][0])
    out = [0.0] * dim
    for i in range(n):
        for d in range(dim):
            weight = 0.0
            for l in range(n_types):
                weight += projection[d][l] * max(rel_scores[i][j][l], 0.0)
            out[d] += weight * vectors[i][d]
    return out


def ref_attention_confidence(scores):
    n = len(scores)
    out = []
    for i in range(n):
        weights = [math.exp(scores[i][j]) for j in range(n)]
        z = sum(weights)
        out.append([w / z for w in weights])
    return out


def ref_attention_update(scores, vectors):
    conf = ref_attention_confidence(scores)
    n = len(vectors)
    dim = len(vectors[0])
    out = []
    for i in range(n):
        row = [0.0] * dim
        for j in range(n):
            for d in range(dim):
                row[d] += conf[i][j] * vectors[j][d]
        out.append(row)
    return out


def ref_gated_update(g, u, weight, bias):
    dim = len(g)
    concat = list(g) + list(u)
    out = []
    for d in range(dim):
        pre = bias[d]
        for k in range(2 * dim):
            pre += weight[d][k] * concat[k]
        f = _sigmoid(pre)
        out.append(f * g[d] + (1.0 - f) * u[d])
    return out


# --------------------------------------------------------------------------
# Randomized comparison harness


def _rand_matrix(rng, rows, cols, lo=-3.0, hi=3.0):
    return [[rng.uniform(lo, hi) for _ in range(cols)] for _ in range(rows)]


MAX_SPANS = 4   # spans per random trial, at most
MAX_DIM = 3     # span-vector width per random trial, at most


def run_selftest(trials: int = 200, seed: int = 20240) -> dict[str, float]:
    """Compare every kernel with its loop reference on random small inputs;
    returns the max absolute deviation per kernel. Fewer than one trial
    raises ValueError: only `span_count` would be compared."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    dev: dict[str, float] = {}

    def track(name: str, a, b):
        delta = float(np.max(np.abs(np.asarray(a, dtype=float)
                                    - np.asarray(b, dtype=float))))
        dev[name] = max(dev.get(name, 0.0), delta)

    for num_tokens in range(1, 51):
        for width in range(1, min(num_tokens, 5) + 1):
            track("span_count", kernels.span_count(num_tokens, width),
                  ref_span_count(num_tokens, width))

    for _ in range(trials):
        n = rng.randint(1, MAX_SPANS)
        dim = rng.randint(1, MAX_DIM)
        n_tags = rng.randint(1, 3)
        n_types = rng.randint(1, 3)

        mention = _rand_matrix(rng, n, n_tags)
        pruner = [rng.uniform(-3, 3) for _ in range(n)]
        pair = _rand_matrix(rng, n, n)
        relation = [[[rng.uniform(-3, 3) for _ in range(n_types)]
                     for _ in range(n)] for _ in range(n)]
        vectors = _rand_matrix(rng, n, dim)
        projection = _rand_matrix(rng, dim, n_types)
        weight = _rand_matrix(rng, dim, 2 * dim, -1.5, 1.5)
        bias = [rng.uniform(-1.5, 1.5) for _ in range(dim)]
        gate = GateTransform(np.array(weight), np.array(bias))
        spans = SpanVectors(np.array(vectors))

        scores = ScoreSet(mention=np.array(mention), coref=np.array(pair),
                          relation=np.array(relation), pruner=np.array(pruner),
                          attention=np.array(pair))
        augmented = kernels.augment_with_pruner(scores)
        track("augment_mention", augmented.mention,
              ref_augment_mention(mention, pruner))
        track("augment_coref", augmented.coref,
              ref_augment_pair(pair, pruner, list(range(n))))
        track("augment_relation",
              augmented.relation[:, :, 0],
              ref_augment_pair([[relation[i][j][0] for j in range(n)]
                                for i in range(n)], pruner, list(range(n))))

        indicators = [rng.randint(0, 1) for _ in range(n * n_tags)]
        flat = [mention[i][l] for i in range(n) for l in range(n_tags)]
        track("multilabel_bce_loss",
              kernels.multilabel_bce_loss(
                  np.array(mention),
                  np.array(indicators, dtype=float).reshape(n, n_tags)),
              ref_bce_loss(flat, indicators))

        gold_sets = [set(rng.sample(range(j + 1), rng.randint(1, j + 1)))
                     for j in range(n)]
        track("coref_marginal_loss",
              kernels.coref_marginal_loss(np.array(pair), gold_sets),
              ref_coref_loss(pair, [sorted(s) for s in gold_sets]))

        # every span j: column j of the confidences, row j of the updates
        conf = [ref_coref_confidence(pair, j) for j in range(n)]
        coref_u = [ref_coref_update(conf[j], vectors, j) for j in range(n)]
        relation_u = [ref_relation_update(relation, projection, vectors, j)
                      for j in range(n)]
        pair_a, relation_a, projection_a = (
            np.array(pair), np.array(relation), np.array(projection))
        track("coref_confidence", kernels.coref_confidence(pair_a).T, conf)
        track("coref_update_vector",
              kernels.coref_update_vectors(pair_a, spans), coref_u)
        track("relation_update_vector", kernels.relation_update_vectors(
            relation_a, projection_a, spans), relation_u)
        track("attention_confidence", kernels.attention_confidence(pair_a),
              ref_attention_confidence(pair))

        for name, stepped, updates in (
                ("attention_propagation", kernels.attention_propagation(
                    spans, pair_a, gate), ref_attention_update(pair, vectors)),
                ("coref_propagation",
                 kernels.coref_propagation(spans, pair_a, gate), coref_u),
                ("relation_propagation", kernels.relation_propagation(
                    spans, relation_a, projection_a, gate), relation_u)):
            track(name, stepped.vectors,
                  [ref_gated_update(vectors[i], updates[i], weight, bias)
                   for i in range(n)])

        g_vec = [rng.uniform(-3, 3) for _ in range(dim)]
        u_vec = [rng.uniform(-3, 3) for _ in range(dim)]
        track("gated_span_update",
              kernels.gated_span_update(np.array(g_vec), np.array(u_vec), gate),
              ref_gated_update(g_vec, u_vec, weight, bias))

    return dev
