"""Pure numeric kernels for span scoring, losses, and gated graph propagation.

All learned networks are treated as opaque: the kernels consume their score
outputs (mention, coreference, relation, pruner, attention) and the single
gate layer is an explicit weight/bias parameter. Nothing here trains.

Conventions: span-pair matrices are indexed [antecedent i, target j]; the
coreference support of span j is the prefix 0..j inclusive (the diagonal
entry encodes self-coreference, i.e. a singleton or invalid span), so column
j of the coreference confidences holds span j's distribution; attention rows
normalize over all spans. Update vectors come one row per span and every
propagation step updates all spans at once. Losses are non-negative.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _as_array(x, name: str, ndim: int | None = None) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


@dataclass
class SpanVectors:
    """Representations of the pruned spans: one row per span."""

    vectors: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        self.vectors = _as_array(self.vectors, "span vectors", ndim=2)


@dataclass
class ScoreSet:
    """Raw scorer outputs. Fields may be None when a component is unused;
    present fields must agree on the span counts.

    mention: (num_spans, num_tags); pruner: (num_spans,);
    coref/attention: (num_pruned, num_pruned);
    relation: (num_pruned, num_pruned, num_relation_types);
    pruned_indices: positions of the pruned spans inside the full span list,
    strictly increasing, so the pruned spans keep document order (defaults
    to the identity when the counts coincide).
    """

    mention: np.ndarray | None = None
    coref: np.ndarray | None = None
    relation: np.ndarray | None = None
    pruner: np.ndarray | None = None
    attention: np.ndarray | None = None
    pruned_indices: np.ndarray | None = None

    def __post_init__(self):
        for name in ("mention", "coref", "relation", "pruner", "attention"):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, _as_array(value, name))
        self._validate()

    def _validate(self):
        n_spans = None
        if self.mention is not None:
            if self.mention.ndim != 2:
                raise ValueError("mention scores must be (spans, tags)")
            n_spans = self.mention.shape[0]
        if self.pruner is not None:
            if self.pruner.ndim != 1:
                raise ValueError("pruner scores must be a vector")
            if n_spans is not None and self.pruner.shape[0] != n_spans:
                raise ValueError("pruner and mention disagree on the span count")
            n_spans = self.pruner.shape[0]

        n_pruned = None
        for name, want in (("coref", 2), ("attention", 2), ("relation", 3)):
            value = getattr(self, name)
            if value is None:
                continue
            if value.ndim != want or value.shape[0] != value.shape[1]:
                raise ValueError(f"{name} scores must be square over pruned spans")
            if n_pruned is not None and value.shape[0] != n_pruned:
                raise ValueError(f"{name} disagrees on the pruned span count")
            n_pruned = value.shape[0]

        if self.pruned_indices is not None:
            self.pruned_indices = _span_positions(self.pruned_indices, n_pruned,
                                                  n_spans)
        elif n_pruned is not None:
            if n_spans is not None and n_spans != n_pruned:
                raise ValueError(
                    "pruned_indices required when the pruned span count "
                    "differs from the full span count")
            self.pruned_indices = np.arange(n_pruned)

    @property
    def num_pruned(self) -> int | None:
        for value in (self.coref, self.attention, self.relation):
            if value is not None:
                return value.shape[0]
        return None


def _span_positions(given, n_pruned: int | None, n_spans: int | None) -> np.ndarray:
    """`given` as the positions of the pruned spans in the full span list:
    strictly increasing integers in [0, n_spans), one per pruned span."""
    positions = np.asarray(given)
    if positions.dtype.kind not in "iuf" or positions.ndim != 1:
        raise ValueError("pruned_indices must be a list of integers")
    if n_pruned is not None and positions.shape[0] != n_pruned:
        raise ValueError("pruned_indices must list one position per pruned span")
    if positions.dtype.kind == "f" and not (
            np.isfinite(positions).all() and (positions == np.round(positions)).all()):
        raise ValueError("pruned_indices must be integers")
    limit = np.iinfo(np.intp).max if n_spans is None else n_spans
    if positions.size and (positions.min() < 0 or positions.max() >= limit):
        raise ValueError("pruned_indices out of range")
    positions = positions.astype(np.intp)
    if np.any(np.diff(positions) <= 0):
        raise ValueError("pruned_indices must be strictly increasing")
    return positions


@dataclass
class GateTransform:
    """Single gate layer: f = sigmoid(weight @ [g; u] + bias), weight (n, 2n)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = _as_array(self.weight, "gate weight", ndim=2)
        self.bias = _as_array(self.bias, "gate bias", ndim=1)
        n = self.bias.shape[0]
        if self.weight.shape != (n, 2 * n):
            raise ValueError(f"gate weight must be ({n}, {2 * n}), "
                             f"got {self.weight.shape}")

    def gate(self, g: np.ndarray, u: np.ndarray) -> np.ndarray:
        concat = np.concatenate([g, u], axis=-1)
        return _sigmoid(concat @ self.weight.T + self.bias)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _prefix_mask(n: int) -> np.ndarray:
    """The (n, n) mask whose column j marks the antecedent candidates 0..j."""
    return np.tri(n, dtype=bool).T


def _column_exp(scores: np.ndarray, mask: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """exp(score - column max) where `mask` holds and 0 elsewhere, with the
    maxima of the masked columns; every column must hold a masked entry.
    Zero columns give an empty result."""
    masked = np.where(mask, scores, -np.inf)
    top = masked.max(axis=0, initial=-np.inf)
    masked -= top
    return np.exp(masked, out=masked), top


def _column_logsumexp(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """log of the summed exponentials of each column's masked scores."""
    shifted, top = _column_exp(scores, mask)
    return top + np.log(shifted.sum(axis=0))


# --------------------------------------------------------------------------
# Span counting and pruning


def span_count(num_tokens: int, max_width: int) -> int:
    """Number of token spans of width 1..max_width in a document:
    sum over k of (num_tokens - k + 1)."""
    if max_width < 1:
        raise ValueError("max_width must be at least 1")
    if max_width > num_tokens:
        raise ValueError(f"max_width {max_width} exceeds document length {num_tokens}")
    return sum(num_tokens - k + 1 for k in range(1, max_width + 1))


def select_top_spans(pruner_scores, keep: int) -> np.ndarray:
    """Positions of the `keep` highest-scoring spans, in document order;
    ties keep the earlier span."""
    scores = _as_array(pruner_scores, "pruner scores", ndim=1)
    if not 0 <= keep <= scores.shape[0]:
        raise ValueError(f"keep must be in [0, {scores.shape[0]}]")
    return np.sort(np.argsort(-scores, kind="stable")[:keep])


# --------------------------------------------------------------------------
# Pruner-augmented scoring


def augment_with_pruner(scores: ScoreSet) -> ScoreSet:
    """Fold the pruner score into the other scorers: each mention row gains
    its own pruner score, each span-pair entry gains the pruner score of the
    antecedent span (first index)."""
    if scores.pruner is None:
        raise ValueError("augmentation needs pruner scores")
    out = copy(scores)
    if scores.mention is not None:
        out.mention = scores.mention + scores.pruner[:, None]
    if scores.num_pruned is not None:
        pruned_pruner = scores.pruner[scores.pruned_indices]
        if scores.coref is not None:
            out.coref = scores.coref + pruned_pruner[:, None]
        if scores.relation is not None:
            out.relation = scores.relation + pruned_pruner[:, None, None]
    return out


# --------------------------------------------------------------------------
# Losses


def multilabel_bce_loss(scores, indicators) -> float:
    """Summed binary cross-entropy between sigmoid(score) and 0/1 indicators,
    over every (unit, label) cell. Also serves pair-wise relation indicators
    (3-d) and the single-label pruner case (1-d)."""
    s = _as_array(scores, "scores")
    i = np.asarray(indicators, dtype=float)
    if s.shape != i.shape:
        raise ValueError(f"scores {s.shape} and indicators {i.shape} differ")
    if not np.all((i == 0) | (i == 1)):
        raise ValueError("indicators must be 0 or 1")
    # cell loss = softplus(s) - i*s, the stable form of -[i log(sig) + ...],
    # with softplus(s) = max(s, 0) + log1p(exp(-|s|)) as whole-array ufuncs
    # into two buffers
    cells = np.abs(s, out=np.empty_like(s))
    np.negative(cells, out=cells)
    np.exp(cells, out=cells)
    np.log1p(cells, out=cells)
    scratch = np.maximum(s, 0.0, out=np.empty_like(s))
    cells += scratch
    np.multiply(i, s, out=scratch)
    cells -= scratch
    return float(cells.sum())


def _gold_mask(gold_antecedents: Sequence[set[int]], n: int) -> np.ndarray:
    """The (n, n) mask whose column j marks span j's gold antecedents. Raises
    ValueError for the first span whose set is empty, holds anything but
    integers (a bool or a float included) or leaves 0..j."""
    rows: list[int] = []
    cols: list[int] = []
    for j, gold in enumerate(gold_antecedents):
        if not gold:
            raise ValueError(f"span {j} has an empty gold antecedent set")
        kinds = sorted(kind.__name__ for kind in set(map(type, gold))
                       if kind is bool or not issubclass(kind, (int, np.integer)))
        if kinds:
            raise ValueError(f"span {j}: gold antecedents must be integers, "
                             f"got {', '.join(kinds)}")
        if min(gold) < 0 or max(gold) > j:
            raise ValueError(f"span {j}: gold antecedents {sorted(gold)} "
                             f"outside 0..{j}")
        rows.extend(gold)
        cols.extend([j] * len(gold))
    mask = np.zeros((n, n), dtype=bool)
    mask[rows, cols] = True
    return mask


def coref_marginal_loss(augmented_coref, gold_antecedents: Sequence[set[int]]
                        ) -> float:
    """Negative log marginal probability of the gold antecedents.

    For each span j the probability mass of its gold antecedent set (integer
    indices within 0..j, the diagonal meaning self) is normalized over all
    antecedent candidates 0..j. Empty gold sets, and booleans or floats
    used as indices, are invalid.
    """
    scores = _as_array(augmented_coref, "coreference scores", ndim=2)
    n = scores.shape[0]
    if scores.shape != (n, n):
        raise ValueError("coreference scores must be square")
    if len(gold_antecedents) != n:
        raise ValueError(f"need one gold set per span, got {len(gold_antecedents)}")
    if n == 0:
        return 0.0
    return float(np.sum(_column_logsumexp(scores, _prefix_mask(n))
                        - _column_logsumexp(scores, _gold_mask(gold_antecedents, n))))


def joint_loss(mention_loss: float, coref_loss: float, relation_loss: float,
               weight_mention: float, weight_coref: float, weight_relation: float
               ) -> float:
    """Weighted sum of the three task losses."""
    return (weight_mention * mention_loss + weight_coref * coref_loss
            + weight_relation * relation_loss)


# --------------------------------------------------------------------------
# Propagation updates


def _vectors(span_vectors) -> np.ndarray:
    return span_vectors.vectors if isinstance(span_vectors, SpanVectors) \
        else _as_array(span_vectors, "span vectors", ndim=2)


def coref_confidence(augmented_coref) -> np.ndarray:
    """Antecedent softmax of every span: column j normalizes span j's scores
    over the prefix 0..j (self included); entries below the diagonal are
    exactly zero."""
    scores = _as_array(augmented_coref, "coreference scores", ndim=2)
    n = scores.shape[0]
    if scores.shape != (n, n):
        raise ValueError("coreference scores must be square")
    shifted, _ = _column_exp(scores, _prefix_mask(n))
    return shifted / shifted.sum(axis=0)


def coref_update_vectors(augmented_coref, span_vectors) -> np.ndarray:
    """Confidence-weighted averages of the antecedent representations, one
    row per span; row j lands inside the convex hull of spans 0..j."""
    g = _vectors(span_vectors)
    conf = coref_confidence(augmented_coref)
    if conf.shape[0] != g.shape[0]:
        raise ValueError("coreference scores and span vectors disagree")
    return conf.T @ g


def relation_update_vectors(relation_scores, projection, span_vectors
                            ) -> np.ndarray:
    """Relation-driven updates, one row per span: row j sums every span i's
    representation gated elementwise by the projected, rectified relation
    scores of the pair (i, j)."""
    rel = _as_array(relation_scores, "relation scores", ndim=3)
    a = _as_array(projection, "projection", ndim=2)
    g = _vectors(span_vectors)
    n, n2, n_types = rel.shape
    if n != n2 or n != g.shape[0]:
        raise ValueError("relation scores and span vectors disagree")
    if a.shape != (g.shape[1], n_types):
        raise ValueError(f"projection must be ({g.shape[1]}, {n_types}), "
                         f"got {a.shape}")
    # (span j, type, dim) sums of rectified scores times representations
    per_type = np.einsum("ijl,id->jld", np.maximum(rel, 0.0), g, optimize=True)
    return np.einsum("jld,dl->jd", per_type, a)


def attention_confidence(attention_scores) -> np.ndarray:
    """Row-wise softmax over all spans: row i holds span i's attention
    distribution."""
    scores = _as_array(attention_scores, "attention scores", ndim=2)
    if scores.shape[0] != scores.shape[1]:
        raise ValueError("attention scores must be square")
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True, initial=-np.inf))
    return shifted / shifted.sum(axis=1, keepdims=True)


def attention_update_vectors(attention_scores, span_vectors) -> np.ndarray:
    """Attention-weighted sums of all span representations, one row per span."""
    g = _vectors(span_vectors)
    conf = attention_confidence(attention_scores)
    if conf.shape[0] != g.shape[0]:
        raise ValueError("attention scores and span vectors disagree")
    return conf @ g


def gated_span_update(g, u, gate: GateTransform) -> np.ndarray:
    """Convex per-component mix of current representation and update vector:
    g' = f*g + (1-f)*u with f = sigmoid(gate([g; u])). Works on single
    vectors and on (spans, dim) batches."""
    g_arr = _as_array(g, "current representation")
    u_arr = _as_array(u, "update vector")
    if g_arr.shape != u_arr.shape:
        raise ValueError(f"shapes differ: {g_arr.shape} vs {u_arr.shape}")
    if g_arr.shape[-1] != gate.bias.shape[0]:
        raise ValueError("gate dimension does not match the representations")
    f = gate.gate(g_arr, u_arr)
    return f * g_arr + (1.0 - f) * u_arr


def _step(span_vectors: SpanVectors, u, gate: GateTransform) -> SpanVectors:
    """The gated mix of every span with its update row; next iteration."""
    return SpanVectors(gated_span_update(span_vectors.vectors, u, gate),
                       span_vectors.iteration + 1)


def attention_propagation(span_vectors: SpanVectors, attention_scores,
                          gate: GateTransform) -> SpanVectors:
    """One attention propagation step: attention-weighted update vectors
    followed by the gated mix; returns the next-iteration span vectors."""
    return _step(span_vectors,
                 attention_update_vectors(attention_scores, span_vectors), gate)


def coref_propagation(span_vectors: SpanVectors, augmented_coref,
                      gate: GateTransform) -> SpanVectors:
    """One coreference propagation step over every span."""
    return _step(span_vectors,
                 coref_update_vectors(augmented_coref, span_vectors), gate)


def relation_propagation(span_vectors: SpanVectors, relation_scores, projection,
                         gate: GateTransform) -> SpanVectors:
    """One relation propagation step over every span."""
    return _step(span_vectors, relation_update_vectors(
        relation_scores, projection, span_vectors), gate)

