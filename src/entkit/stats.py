"""Descriptive statistics over entity-centric corpora.

Covers relation distance profiles (how far apart the mentions of related
entities sit, in tokens and in sentences), entity-type histograms with
hierarchy rollup, relation-type histograms, multi-label relation histograms,
a corpus summary, and a train-prior entity-linking baseline.

Distance convention: the token gap between two spans counts the tokens
strictly between them (0 for adjacent or overlapping spans); the sentence
distance is the absolute difference of the sentence indices containing the
spans' begin tokens. Per relation, the minimum is taken over the closest
cross mention pair and the maximum over the farthest.

The relation statistics find clusters through `corpus.relation_positions`,
so a relation to a missing cluster id raises ValueError naming the document.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import gt
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .corpus import (Document, EntityCluster, Mention, _content_lines,
                     _labelled_units, _resource_text, relation_positions)


# --------------------------------------------------------------------------
# Relation distance profiles


@dataclass(frozen=True)
class DistanceRecord:
    min_token_gap: int
    max_token_gap: int
    min_sentence_dist: int
    max_sentence_dist: int


@dataclass
class DistanceProfile:
    records: list[DistanceRecord] = field(default_factory=list)

    def coverage_table(self) -> list[tuple[int, float, float, float, float]]:
        """Rows (threshold, cdf_min_tokens, cdf_max_tokens, cdf_min_sent,
        cdf_max_sent) for thresholds 0..max observed value; each cdf is the
        fraction of records whose value is at most the threshold."""
        if not self.records:
            return []
        n = len(self.records)
        columns = [sorted(r.min_token_gap for r in self.records),
                   sorted(r.max_token_gap for r in self.records),
                   sorted(r.min_sentence_dist for r in self.records),
                   sorted(r.max_sentence_dist for r in self.records)]
        top = max(columns[1][-1], columns[3][-1])
        return [(d, *(bisect_right(column, d) / n for column in columns))
                for d in range(top + 1)]


def token_gap(a: Mention, b: Mention) -> int:
    """Tokens strictly between two spans; 0 when they touch or overlap."""
    if a > b:
        a, b = b, a
    return max(0, b.begin - a.end)


class _SortedSpans(NamedTuple):
    """Spans sorted by (begin, end), each with begin <= end, as columns."""

    begins: list[int]
    ends: list[int]
    max_ends: list[int]     # max_ends[k] = max(ends[:k + 1])
    min_end: int


def _cluster_columns(c: EntityCluster, sentence_begins: list[int], doc_id: str
                     ) -> tuple[_SortedSpans | None, _SortedSpans]:
    """The cluster's mention spans (None if one is reversed) and the
    sentence index of each mention's begin, as (s, s) spans."""
    if not c.mentions:
        raise ValueError(f"{doc_id}: cluster {c.id!r} has no mentions")
    begins, ends = map(list, zip(*c.mentions))
    sentences = [bisect_right(sentence_begins, b) - 1 for b in begins]
    points = _SortedSpans(sentences, sentences, sentences, sentences[0])
    if any(map(gt, begins, ends)):
        return None, points
    return _SortedSpans(begins, ends, list(accumulate(ends, max)), min(ends)), points


def _gap_range(a: _SortedSpans, b: _SortedSpans) -> tuple[int, int]:
    """Smallest and largest `token_gap` between a span of `a` and one of `b`.

    With begin <= end the gap is max(0, y.begin - x.end, x.begin - y.end),
    so the largest comes from the last begins and the smallest ends. For the
    smallest, each span of the shorter side meets two partners on the other:
    among the spans that begin no later, the one ending last, and the first
    span that begins later.
    """
    largest = max(0, b.begins[-1] - a.min_end, a.begins[-1] - b.min_end)
    if len(a.begins) > len(b.begins):
        a, b = b, a
    begins, max_ends = b.begins, b.max_ends
    smallest = largest
    for begin, end in zip(a.begins, a.ends):
        k = bisect_right(begins, begin)
        if k and begin - max_ends[k - 1] < smallest:
            smallest = max(0, begin - max_ends[k - 1])
        if k < len(begins) and begins[k] - end < smallest:
            smallest = max(0, begins[k] - end)
    return smallest, largest


def _distance_records(d: Document) -> Iterator[DistanceRecord]:
    """One record per distinct relation triple of `d`, min/max over cross
    mention pairs, read from sorted per-cluster columns without visiting each
    pair."""
    begins = [b for b, _ in d.sentences]
    columns: dict[int, tuple] = {}
    for i, rel_type, j in relation_positions(d):
        head, tail = d.clusters[i], d.clusters[j]
        if set(head.mentions) & set(tail.mentions):
            raise ValueError(
                f"{d.id}: relation {rel_type!r} connects clusters "
                f"{head.id!r} and {tail.id!r} that share a mention span")
        for k in (i, j):
            if k not in columns:
                columns[k] = _cluster_columns(d.clusters[k], begins, d.id)
        head_spans, head_points = columns[i]
        tail_spans, tail_points = columns[j]
        if head_spans is not None and tail_spans is not None:
            min_gap, max_gap = _gap_range(head_spans, tail_spans)
        else:
            gaps = [token_gap(hm, tm) for hm in head.mentions
                    for tm in tail.mentions]
            min_gap, max_gap = min(gaps), max(gaps)
        yield DistanceRecord(min_gap, max_gap, *_gap_range(head_points, tail_points))


def relation_distance_profile(docs: Iterable[Document]) -> DistanceProfile:
    """The records of every document (`_distance_records`), in corpus order."""
    return _fold(docs, CorpusFold.add_distances).profile


# --------------------------------------------------------------------------
# Entity type histogram with hierarchy rollup


def load_type_hierarchy() -> dict[str, str | None]:
    """Parse the indented hierarchy resource into a tag -> parent map
    (top-level tags map to None). Two spaces per level."""
    parents: dict[str, str | None] = {}
    stack: list[tuple[int, str]] = []
    for _, line in _content_lines(_resource_text("type_hierarchy.txt")):
        depth = (len(line) - len(line.lstrip(" "))) // 2
        tag = line.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parents[tag] = stack[-1][1] if stack else None
        stack.append((depth, tag))
    return parents


def ancestors(tag: str, hierarchy: dict[str, str | None]) -> list[str]:
    """Tag itself plus every ancestor up to the hierarchy root."""
    chain = [tag]
    seen = {tag}
    while True:
        parent = hierarchy.get(chain[-1])
        if parent is None or parent in seen:
            return chain
        chain.append(parent)
        seen.add(parent)


@dataclass
class TypeHistogram:
    direct: dict[str, tuple[int, int]]
    rollup: dict[str, tuple[int, int]]
    total_clusters: int
    total_mentions: int


def entity_type_histogram(docs: Iterable[Document]) -> TypeHistogram:
    """Cluster and mention counts per tag, plus counts rolled up to each
    ancestor in the shipped type hierarchy (a cluster counts once per
    ancestor node that covers any of its tags). Each distinct tag set is
    expanded once, with the clusters and mentions that carry it."""
    return _fold(docs, CorpusFold.add_types).type_histogram()


def _add_label_sets(totals: dict[frozenset[str], list[int]],
                    items: Iterable[tuple[frozenset[str], int]]) -> None:
    """Add (label set, weight) items to `totals`: label set -> [items,
    summed weight]."""
    for labels, weight in items:
        t = totals.setdefault(labels, [0, 0])
        t[0] += 1
        t[1] += weight


def _spread(totals: dict[frozenset[str], list[int]], keys: Callable
            ) -> dict[Hashable, tuple[int, int]]:
    """Key -> (items, weight) summed over the label sets whose `keys` hold it."""
    out: dict[Hashable, tuple[int, int]] = {}
    for labels, (n, weight) in totals.items():
        for key in keys(labels):
            items, summed = out.get(key, (0, 0))
            out[key] = items + n, summed + weight
    return out


# --------------------------------------------------------------------------
# Relation histograms


@dataclass
class RelationTypeHistogram:
    per_type: dict[str, tuple[int, int]]
    total_entity_pairs: int
    total_mention_pairs: int


def relation_histograms(docs: Iterable[Document]
                        ) -> tuple[RelationTypeHistogram, dict[int, tuple[int, int]]]:
    """`relation_type_histogram` and `multilabel_relation_histogram` from one
    fold of each document's unit table `corpus._labelled_units`: relation
    type set -> [related (head, tail) cluster pairs, mention pairs]."""
    return _fold(docs, CorpusFold.add_relations).relation_histograms()


def relation_type_histogram(docs: Iterable[Document]) -> RelationTypeHistogram:
    """Per type: distinct related cluster pairs and their summed mention-pair
    cross products. Totals count each distinct (head, tail) pair once,
    regardless of how many types connect it."""
    return relation_histograms(docs)[0]


def multilabel_relation_histogram(docs: Iterable[Document]
                                  ) -> dict[int, tuple[int, int]]:
    """Bucket related (head, tail) pairs by how many relation types connect
    them: bucket -> (entity pairs, mention pairs). Buckets 1..3 are exact,
    bucket 4 holds four or more."""
    return relation_histograms(docs)[1]


# --------------------------------------------------------------------------
# Corpus summary


@dataclass
class CorpusSummary:
    tokens: int = 0
    mentions: int = 0
    clusters: int = 0
    entity_types: int = 0
    relation_triples: int = 0
    relation_types: int = 0
    linked_mentions: int = 0
    linked_clusters: int = 0
    singleton_fraction: float = 0.0
    mean_labels_per_entity: float = 0.0

    def to_json(self) -> dict:
        return dict(self.__dict__)


def corpus_summary(docs: Iterable[Document]) -> CorpusSummary:
    return _fold(docs, CorpusFold.add_summary).summary()


class CorpusFold:
    """What `entkit stats` reports, folded in one document at a time and read
    out after the last: `add` feeds the summary and the entity and relation
    type histograms, `add_distances` the distance profile."""

    def __init__(self):
        self.counts = CorpusSummary()
        self.tags: set[str] = set()
        self.relation_types: set[str] = set()
        self.singletons = self.labels = 0
        # label set -> [items, summed weight], see `_add_label_sets`
        self.tag_sets: dict[frozenset[str], list[int]] = {}
        self.type_sets: dict[frozenset[str], list[int]] = {}
        self.profile = DistanceProfile()

    def add(self, d: Document) -> None:
        self.add_summary(d)
        self.add_types(d)
        self.add_relations(d)

    def add_summary(self, d: Document) -> None:
        s = self.counts
        s.tokens += len(d.tokens)
        s.relation_triples += len(set(d.relations))
        self.relation_types.update(r.type for r in d.relations)
        for c in d.clusters:
            s.clusters += 1
            s.mentions += len(c.mentions)
            self.tags |= c.tags
            self.labels += len(c.tags)
            self.singletons += c.is_singleton
            if c.is_linked:
                s.linked_clusters += 1
                s.linked_mentions += len(c.mentions)

    def add_types(self, d: Document) -> None:
        _add_label_sets(self.tag_sets, ((c.tags, len(c.mentions)) for c in d.clusters))

    def add_relations(self, d: Document) -> None:
        _add_label_sets(self.type_sets, (
            (types, len(d.clusters[head].mentions) * len(d.clusters[tail].mentions))
            for (head, tail), types in _labelled_units(d, "re").items()))

    def add_distances(self, d: Document) -> None:
        self.profile.records.extend(_distance_records(d))

    def summary(self) -> CorpusSummary:
        n = self.counts.clusters
        return replace(self.counts, entity_types=len(self.tags),
                       relation_types=len(self.relation_types),
                       singleton_fraction=self.singletons / n if n else 0.0,
                       mean_labels_per_entity=self.labels / n if n else 0.0)

    def type_histogram(self) -> TypeHistogram:
        hierarchy = load_type_hierarchy()
        tag_sets = self.tag_sets
        clusters, mentions = map(sum, zip(*tag_sets.values())) if tag_sets else (0, 0)
        return TypeHistogram(
            direct=_spread(tag_sets, lambda tags: tags),
            rollup=_spread(tag_sets, lambda tags: {
                node for tag in tags for node in ancestors(tag, hierarchy)}),
            total_clusters=clusters,
            total_mentions=mentions,
        )

    def relation_histograms(self) -> tuple[RelationTypeHistogram,
                                           dict[int, tuple[int, int]]]:
        type_sets = self.type_sets
        pairs, mention_pairs = map(sum, zip(*type_sets.values())) if type_sets else (0, 0)
        buckets = _spread(type_sets, lambda types: (min(len(types), 4),))
        return (RelationTypeHistogram(_spread(type_sets, lambda types: types),
                                      pairs, mention_pairs),
                dict(sorted(buckets.items())))


def _fold(docs: Iterable[Document], add: Callable) -> CorpusFold:
    """A CorpusFold with `add(fold, d)` applied to each document."""
    fold = CorpusFold()
    for d in docs:
        add(fold, d)
    return fold


# --------------------------------------------------------------------------
# Train-prior linking baseline


def prior_link_baseline(train_docs: Sequence[Document],
                        test_docs: Sequence[Document]) -> float:
    """Predict each test mention's link as the most frequent gold link its
    exact token surface received in training (ties broken by lexicographically
    smallest link id, unseen surfaces predict NIL); accuracy is measured over
    test mentions whose gold cluster is linked."""
    votes: dict[tuple[str, ...], Counter] = defaultdict(Counter)
    for d in train_docs:
        for c in d.clusters:
            if not c.is_linked:
                continue
            for m in c.mentions:
                votes[tuple(d.tokens[m.begin:m.end])][c.link] += 1

    best: dict[tuple[str, ...], str] = {}
    for surface, counter in votes.items():
        top = max(counter.values())
        best[surface] = min(l for l, n in counter.items() if n == top)

    correct = total = 0
    for d in test_docs:
        for c in d.clusters:
            if not c.is_linked:
                continue
            for m in c.mentions:
                total += 1
                predicted = best.get(tuple(d.tokens[m.begin:m.end]))
                if predicted == c.link:
                    correct += 1
    if total == 0:
        raise ValueError("test corpus has no mentions with a gold link")
    return correct / total
