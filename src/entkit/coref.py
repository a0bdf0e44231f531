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

All three read `corpus.cluster_overlaps` tables in one pass: `coref_report`
takes one table per document pair, the partition functions one table of two
partitions. CEAF-e aligns in plain Python, one connected component of a
table at a time, so each assignment problem stays small.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from typing import Hashable, Iterable, Sequence

from .corpus import Document, overlap_cells
from .metrics import PRFReport

Cluster = frozenset
Partition = tuple[Cluster, ...]


def make_partition(clusters: Iterable[Iterable[Hashable]]) -> Partition:
    """Freeze and check a clustering: clusters non-empty and pairwise disjoint."""
    partition = tuple(map(frozenset, clusters))
    _owners(partition)
    return partition


def corpus_partition(docs: Sequence[Document]) -> Partition:
    """Every document's clusters, each mention keyed by (doc id, begin, end);
    raises ValueError when two clusters share a key, as a repeated doc id does."""
    return make_partition([(d.id, *m) for m in c.mentions]
                          for d in docs for c in d.clusters)


def _owners(partition: Partition) -> dict:
    """Mention -> index of its cluster. Raises ValueError unless the clusters
    are non-empty and pairwise disjoint, which holds exactly when the map
    has one entry per member of every cluster."""
    owner = {m: j for j, cluster in enumerate(partition) for m in cluster}
    if not all(partition):
        raise ValueError("empty cluster in partition")
    if len(owner) != sum(map(len, partition)):
        shared = {m for j, c in enumerate(partition) for m in c if owner[m] != j}
        # ordered by repr: the keys need not be mutually comparable
        raise ValueError(f"clusters overlap on {sorted(shared, key=repr)[:3]}")
    return owner


def _overlaps(gold: Partition, pred: Partition) -> Counter:
    """The `corpus.cluster_overlaps` table of two partitions, with cluster
    indices for positions, read from the `_owners` map of each side."""
    return overlap_cells(_owners(gold), _owners(pred))


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def muc(gold: Partition, pred: Partition) -> PRFReport:
    """Link-based score: recall numerator per gold cluster is
    |cluster| - (partitions of it induced by pred, counting each missing
    mention as its own part); precision swaps the roles. Summed over
    clusters, both numerators are the overlap total minus the number of
    overlapping cluster pairs."""
    return CorefFold([_overlaps(gold, pred)]).scores()["muc"]


def b_cubed(gold: Partition, pred: Partition) -> PRFReport:
    return CorefFold([_overlaps(gold, pred)]).scores()["b3"]


def _components(cells: Counter, n_gold: int, n_pred: int
                ) -> list[list[tuple[int, int]]]:
    """The (gold index, pred index) cells grouped by connected component of
    the bipartite overlap graph: union-find over gold i and pred n_gold + j."""
    parent = list(range(n_gold + n_pred))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for i, j in cells:
        a, b = root(i), root(n_gold + j)
        if a != b:
            parent[a] = b
    by_root: dict[int, list[tuple[int, int]]] = {}
    for i, j in cells:
        by_root.setdefault(root(i), []).append((i, j))
    return list(by_root.values())


def _max_weight_assignment(weights: list[list[float]]) -> list[tuple[int, int]]:
    """(row, column) pairs of a maximum-weight one-to-one matching that
    covers the shorter side of a rectangular matrix given as a list of rows.

    Kuhn-Munkres as shortest augmenting paths with row and column potentials
    on the costs -weights (Jonker-Volgenant; Crouse 2016, "On implementing
    2D rectangular assignment algorithms"), one row added per search. A
    search settles the nearest column, preferring an unmatched one on a tie,
    which keeps paths short when many weights are 0. A taller matrix is
    solved transposed, and a single row takes its maximum directly."""
    n, m = len(weights), len(weights[0]) if weights else 0
    if n > m:
        pairs = _max_weight_assignment([list(col) for col in zip(*weights)])
        return [(i, j) for j, i in pairs]
    if n == 1:
        return [(0, weights[0].index(max(weights[0])))]
    u, v = [0.0] * n, [0.0] * m
    col4row, row4col = [-1] * n, [-1] * m
    for start in range(n):
        dist, path = [math.inf] * m, [-1] * m
        unsettled = list(range(m - 1, -1, -1))
        rows, cols = [], []
        row, low, sink = start, 0.0, -1
        while sink == -1:
            rows.append(row)
            gains, u_row = weights[row], u[row]
            best, at = math.inf, -1
            for k, j in enumerate(unsettled):
                reduced = low - gains[j] - u_row - v[j]
                if reduced < dist[j]:
                    dist[j], path[j] = reduced, row
                if dist[j] < best or (dist[j] == best and row4col[j] == -1):
                    best, at = dist[j], k
            low, j = best, unsettled[at]
            unsettled[at] = unsettled[-1]
            unsettled.pop()
            cols.append(j)
            if row4col[j] == -1:
                sink = j
            else:
                row = row4col[j]
        u[start] += low
        for i in rows[1:]:
            u[i] += low - dist[col4row[i]]
        for j in cols:
            v[j] -= low - dist[j]
        j = sink
        while True:  # flip the matching along the path back to `start`
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return list(enumerate(col4row))


def ceaf_e(gold: Partition, pred: Partition) -> PRFReport:
    """Clusters that share no mention have similarity 0, so the optimal
    alignment is solved exactly on each connected component of the overlap
    graph; no similarity matrix is larger than one component."""
    return CorefFold([_overlaps(gold, pred)]).scores()["ceafe"]


class CorefFold:
    """MUC, B-cubed and CEAF-e over `corpus.cluster_overlaps` tables, scored
    as one table of all their clusters; each table is folded into counts as
    it is added. A cluster's size is the sum of its row (gold) or column
    (pred); a cell with no None key is shared."""

    def __init__(self, tables: Iterable[Counter] = ()):
        self.links = 0  # the MUC numerator of both sides
        self.mentions, self.clusters = [0, 0], [0, 0]  # gold, pred
        # term -> count: one B-cubed term n/|cluster| per shared mention and
        # side, the phi of every CEAF-e aligned pair; `_fsum` is order-free
        self.recall_terms, self.precision_terms = Counter(), Counter()
        self.matched = Counter()
        for table in tables:
            self.add(table)

    def add(self, table: Counter) -> None:
        gold_size, pred_size = Counter(), Counter()
        for (i, j), n in table.items():
            gold_size[i] += n
            pred_size[j] += n
        del gold_size[None], pred_size[None]
        for side, size in enumerate((gold_size, pred_size)):
            self.mentions[side] += sum(size.values())
            self.clusters[side] += len(size)
        cells = Counter({key: n for key, n in table.items() if None not in key})
        self.links += sum(cells.values()) - len(cells)
        for (i, j), n in cells.items():
            self.recall_terms[n / gold_size[i]] += n
            self.precision_terms[n / pred_size[j]] += n
        for members in _components(cells, len(gold_size), len(pred_size)):
            # indices in table order, so each matrix is a block of |G| x |P|
            rows = sorted({i for i, _ in members})
            cols = sorted({j for _, j in members})
            # a pair that shares no mention reads 0 from the Counter: phi is 0.0
            sim = [[2 * cells[i, j] / (gold_size[i] + pred_size[j]) for j in cols]
                   for i in rows]
            self.matched.update(sim[r][c] for r, c in _max_weight_assignment(sim))

    def merge(self, other: "CorefFold") -> None:
        """Add the counts of `other`."""
        self.links += other.links
        for mine, theirs in ((self.mentions, other.mentions),
                             (self.clusters, other.clusters)):
            mine[:] = map(sum, zip(mine, theirs))
        self.recall_terms.update(other.recall_terms)
        self.precision_terms.update(other.precision_terms)
        self.matched.update(other.matched)

    def scores(self) -> dict[str, PRFReport]:
        (n_gold, n_pred), (k_gold, k_pred) = self.mentions, self.clusters
        total = _fsum(self.matched)
        return {"muc": PRFReport.from_pr(_safe_div(self.links, n_pred - k_pred),
                                         _safe_div(self.links, n_gold - k_gold)),
                "b3": PRFReport.from_pr(_safe_div(_fsum(self.precision_terms), n_pred),
                                        _safe_div(_fsum(self.recall_terms), n_gold)),
                "ceafe": PRFReport.from_pr(_safe_div(total, k_pred),
                                           _safe_div(total, k_gold))}

    def report(self) -> dict:
        """`scores` as JSON, and their mean F1."""
        reports = self.scores()
        out: dict = {name: r.to_json() for name, r in reports.items()}
        out["avg_f1"] = sum(r.f1 for r in reports.values()) / 3.0
        return out


def _fsum(terms: Counter) -> float:
    """`math.fsum` of every term, repeated as often as it counts."""
    return math.fsum(chain.from_iterable(map(repeat, terms, terms.values())))


def coref_report(tables: Iterable[Counter]) -> dict:
    """`CorefFold.report` of one table per document pair."""
    return CorefFold(tables).report()


def avg_coref_f1(gold: Partition, pred: Partition) -> float:
    """Arithmetic mean of the MUC, B-cubed, and aligned-cluster F1 values."""
    return coref_report([_overlaps(gold, pred)])["avg_f1"]
