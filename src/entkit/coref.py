"""Coreference partition scoring with explicit singleton handling.

Three established metrics over a gold and a predicted partition of mention
universes that need not coincide (end-to-end setting: predicted spans may not
match gold spans):

  muc      - link-based: counts the cluster merges needed on one side to cover
             the other. Blind to singletons; degenerate denominators give 0.
  b_cubed  - per-mention overlap fractions averaged over each side's mentions;
             a mention absent from the other side contributes 0 there.
  ceaf_e   - maximum-weight one-to-one cluster alignment under the similarity
             phi(K, R) = 2|K n R| / (|K| + |R|), solved exactly.

`avg_coref_f1` is the arithmetic mean of the three F1 values. The 0/0 -> 0
convention applies throughout (never 0/0 -> 1), matching the behavior of the
standard reference scorer on degenerate partitions.

scipy is imported inside `ceaf_e`, the only scorer that needs it, so only
CEAF-e (`score --task coref|all`) loads it; every other entkit command
starts without it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Hashable, Iterable, Sequence

import numpy as np

from .corpus import Document
from .metrics import PRFReport

Cluster = frozenset
Partition = tuple[Cluster, ...]


def make_partition(clusters: Iterable[Iterable[Hashable]]) -> Partition:
    """Freeze and check a clustering: clusters non-empty and pairwise disjoint."""
    out = []
    seen: set = set()
    for cluster in clusters:
        c = frozenset(cluster)
        if not c:
            raise ValueError("empty cluster in partition")
        if seen & c:
            # ordered by repr: the keys need not be mutually comparable
            raise ValueError(f"clusters overlap on {sorted(seen & c, key=repr)[:3]}")
        seen |= c
        out.append(c)
    return tuple(out)


def corpus_partition(docs: Sequence[Document]) -> Partition:
    """Every document's clusters, each mention keyed by (doc id, begin, end);
    raises ValueError when two clusters share a key, as a repeated doc id does."""
    return make_partition([(d.id, *m) for m in c.mentions]
                          for d in docs for c in d.clusters)


def _overlaps(gold: Partition, pred: Partition) -> Counter:
    """(gold index, pred index) -> |K n R| for every pair of clusters that
    share a mention; pairs that share none are absent."""
    owner = {m: j for j, r in enumerate(pred) for m in r}
    return Counter((i, owner[m]) for i, k in enumerate(gold) for m in k
                   if m in owner)


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def muc(gold: Partition, pred: Partition) -> PRFReport:
    """Link-based score: recall numerator per gold cluster is
    |cluster| - (partitions of it induced by pred, counting each missing
    mention as its own part); precision swaps the roles. Summed over
    clusters, both numerators are the overlap total minus the number of
    overlapping cluster pairs."""
    cells = _overlaps(gold, pred)
    num = sum(cells.values()) - len(cells)
    p_den = sum(len(r) for r in pred) - len(pred)
    r_den = sum(len(k) for k in gold) - len(gold)
    return PRFReport.from_pr(_safe_div(num, p_den), _safe_div(num, r_den))


def b_cubed(gold: Partition, pred: Partition) -> PRFReport:
    cells = _overlaps(gold, pred)

    def side(a: Partition, axis: int) -> float:
        # one term n/|cluster| per shared mention; fsum keeps the score
        # independent of the order of the terms
        terms: list[float] = []
        for key, n in cells.items():
            terms.extend([n / len(a[key[axis]])] * n)
        return _safe_div(math.fsum(terms), sum(len(c) for c in a))

    return PRFReport.from_pr(side(pred, 1), side(gold, 0))


def ceaf_e(gold: Partition, pred: Partition) -> PRFReport:
    """Clusters that share no mention have similarity 0, so the optimal
    alignment is solved exactly on each connected component of the overlap
    graph; no similarity matrix is larger than one component."""
    # imported here, not at module load: scipy.optimize outweighs most commands
    # and no other scorer or command needs it
    from scipy.optimize import linear_sum_assignment
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    if not gold or not pred:
        return PRFReport.from_pr(0.0, 0.0)
    cells = _overlaps(gold, pred)
    keys = list(cells)
    n = len(gold) + len(pred)
    graph = coo_matrix((np.ones(len(keys)), ([i for i, _ in keys],
                        [len(gold) + j for _, j in keys])), shape=(n, n))
    component = connected_components(graph, directed=False)[1].tolist()
    by_component: dict[int, list[tuple[int, int]]] = {}
    for i, j in keys:
        by_component.setdefault(component[i], []).append((i, j))
    matched: list[float] = []
    for members in by_component.values():
        # indices in partition order, so each matrix is a block of |G| x |P|
        rows = {i: r for r, i in enumerate(sorted({i for i, _ in members}))}
        cols = {j: c for c, j in enumerate(sorted({j for _, j in members}))}
        sim = np.zeros((len(rows), len(cols)))
        for i, j in members:
            sim[rows[i], cols[j]] = 2 * cells[i, j] / (len(gold[i]) + len(pred[j]))
        r, c = linear_sum_assignment(sim, maximize=True)
        matched.extend(sim[r, c].tolist())
    total = math.fsum(matched)
    return PRFReport.from_pr(total / len(pred), total / len(gold))


def coref_report(gold: Partition, pred: Partition) -> dict:
    reports = {"muc": muc(gold, pred), "b3": b_cubed(gold, pred),
               "ceafe": ceaf_e(gold, pred)}
    out: dict = {name: r.to_json() for name, r in reports.items()}
    out["avg_f1"] = sum(r.f1 for r in reports.values()) / 3.0
    return out


def avg_coref_f1(gold: Partition, pred: Partition) -> float:
    """Arithmetic mean of the MUC, B-cubed, and aligned-cluster F1 values."""
    return coref_report(gold, pred)["avg_f1"]
