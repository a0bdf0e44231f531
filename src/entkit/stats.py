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
from operator import itemgetter
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .corpus import (Document, Mention, _content_lines,
                     _labelled_units, _resource_text)

_RelationUnits = dict[tuple[int, ...], frozenset[str]]  # (head, tail) -> types


# --------------------------------------------------------------------------
# Relation distance profiles


class DistanceRecord(NamedTuple):
    min_token_gap: int
    max_token_gap: int
    min_sentence_dist: int
    max_sentence_dist: int


class DistanceProfile:
    def __init__(self, records: list[DistanceRecord] | None = None):
        self.records = [] if records is None else records

    def coverage_table(self) -> list[tuple[int, float, float, float, float]]:
        """Rows (threshold, cdf_min_tokens, cdf_max_tokens, cdf_min_sent,
        cdf_max_sent) for thresholds 0..max observed value; each cdf is the
        fraction of records whose value is at most the threshold."""
        if not self.records:
            return []
        n = len(self.records)
        columns = list(map(sorted, zip(*self.records)))  # in DistanceRecord's order
        top = max(columns[1][-1], columns[3][-1])
        return [(d, *(bisect_right(column, d) / n for column in columns))
                for d in range(top + 1)]


def token_gap(a: Mention, b: Mention) -> int:
    """Tokens strictly between two spans; 0 when they touch or overlap."""
    if a > b:
        a, b = b, a
    return max(0, b.begin - a.end)


def _distance_records(d: Document, units: _RelationUnits) -> list[DistanceRecord]:
    """One record per relation triple of `d`, in (head id, type, tail id)
    order: the min/max `token_gap` over every head x tail mention pair, and
    the min/max sentence distance over every pair of the two clusters'
    sentence indices, which are looked up once per cluster. Each pair of the
    unit table `units` (`corpus._labelled_units(d, "re")`) is measured once,
    in the order of its first triple, so the first pair to raise holds the
    first triple."""
    begins = [b for b, _ in d.sentences]
    sentences: dict[int, set[int]] = {}
    keyed = []
    for (i, j), types in units.items():
        head, tail = d.clusters[i], d.clusters[j]
        if set(head.mentions) & set(tail.mentions):
            raise ValueError(
                f"{d.id}: relation {min(types)!r} connects clusters "
                f"{head.id!r} and {tail.id!r} that share a mention span")
        for k, c in ((i, head), (j, tail)):
            if not c.mentions:
                raise ValueError(f"{d.id}: cluster {c.id!r} has no mentions")
            if k not in sentences:
                sentences[k] = {bisect_right(begins, m.begin) - 1 for m in c.mentions}
        gaps = [token_gap(hm, tm) for hm in head.mentions for tm in tail.mentions]
        dists = [abs(hs - ts) for hs in sentences[i] for ts in sentences[j]]
        record = DistanceRecord(min(gaps), max(gaps), min(dists), max(dists))
        keyed.extend(((head.id, rel_type, tail.id), record) for rel_type in types)
    return [record for _, record in sorted(keyed, key=itemgetter(0))]


def relation_distance_profile(docs: Iterable[Document]) -> DistanceProfile:
    """The records of every document (`_distance_records`), in corpus order."""
    return _fold(docs, lambda fold, d: fold.profile.records.extend(
        _distance_records(d, _labelled_units(d, "re")))).profile


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
    while (parent := hierarchy.get(chain[-1])) is not None and parent not in chain:
        chain.append(parent)
    return chain


class TypeHistogram(NamedTuple):
    direct: dict[str, tuple[int, int]]
    rollup: dict[str, tuple[int, int]]
    total_clusters: int
    total_mentions: int


def entity_type_histogram(docs: Iterable[Document]) -> TypeHistogram:
    """Cluster and mention counts per tag, plus counts rolled up to each
    ancestor in the shipped type hierarchy (a cluster counts once per
    ancestor node that covers any of its tags). Each distinct tag set is
    expanded once, with the clusters and mentions that carry it."""
    return _fold(docs, CorpusFold.add_clusters).type_histogram()


def _totals(totals: dict[frozenset[str], list[int]]) -> tuple[int, int]:
    """(items, summed weight) over every label set of `totals`."""
    return tuple(map(sum, zip(*totals.values()))) if totals else (0, 0)


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


class RelationTypeHistogram(NamedTuple):
    per_type: dict[str, tuple[int, int]]
    total_entity_pairs: int
    total_mention_pairs: int


def relation_type_histogram(docs: Iterable[Document]) -> RelationTypeHistogram:
    """Per type: distinct related cluster pairs and their summed mention-pair
    cross products. Totals count each distinct (head, tail) pair once,
    regardless of how many types connect it."""
    return _fold(docs, CorpusFold.add_relations).relation_histograms()[0]


def multilabel_relation_histogram(docs: Iterable[Document]
                                  ) -> dict[int, tuple[int, int]]:
    """Bucket related (head, tail) pairs by how many relation types connect
    them: bucket -> (entity pairs, mention pairs). Buckets 1..3 are exact,
    bucket 4 holds four or more."""
    return _fold(docs, CorpusFold.add_relations).relation_histograms()[1]


# --------------------------------------------------------------------------
# Corpus summary


class CorpusSummary(NamedTuple):
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
        return self._asdict()


def corpus_summary(docs: Iterable[Document]) -> CorpusSummary:
    return _fold(docs, CorpusFold.add_clusters).summary()


class CorpusFold:
    """What `entkit stats` reports, folded in one document at a time (`add`)
    and read out after the last; folds of consecutive parts of a corpus
    merge in corpus order (`merge`). `add` feeds the summary, the entity and
    relation type histograms and, if `distances`, the distance profile."""

    def __init__(self, distances: bool = False):
        self.distances = distances
        self.tokens = self.relation_triples = self.singletons = 0
        self.linked_clusters = self.linked_mentions = 0
        self.relation_types: set[str] = set()
        # label set -> [clusters, mentions] and [related pairs, mention pairs]
        self.tag_sets: dict[frozenset[str], list[int]] = {}
        self.type_sets: dict[frozenset[str], list[int]] = {}
        self.profile = DistanceProfile()

    def add(self, d: Document) -> None:
        self.add_clusters(d)
        units = self.add_relations(d)
        if self.distances:
            self.profile.records += _distance_records(d, units)

    def merge(self, other: "CorpusFold") -> None:
        """Add the counts of a fold of the documents after this one's."""
        for name, value in vars(other).items():
            if type(value) is int:  # the summary's counts
                setattr(self, name, getattr(self, name) + value)
        self.relation_types |= other.relation_types
        for mine, theirs in ((self.tag_sets, other.tag_sets),
                             (self.type_sets, other.type_sets)):
            for labels, (n, weight) in theirs.items():
                t = mine.setdefault(labels, [0, 0])
                t[0] += n
                t[1] += weight
        self.profile.records += other.profile.records

    def add_clusters(self, d: Document) -> None:
        # `summary` reads the cluster, mention and tag counts from tag_sets
        self.tokens += len(d.tokens)
        self.relation_triples += len(set(d.relations))
        self.relation_types.update(r.type for r in d.relations)
        for c in d.clusters:
            t = self.tag_sets.setdefault(c.tags, [0, 0])
            t[0] += 1
            t[1] += len(c.mentions)
            self.singletons += c.is_singleton
            if c.is_linked:
                self.linked_clusters += 1
                self.linked_mentions += len(c.mentions)

    def add_relations(self, d: Document) -> _RelationUnits:
        units = _labelled_units(d, "re")
        for (head, tail), types in units.items():
            t = self.type_sets.setdefault(types, [0, 0])
            t[0] += 1
            t[1] += len(d.clusters[head].mentions) * len(d.clusters[tail].mentions)
        return units

    def summary(self) -> CorpusSummary:
        tag_sets = self.tag_sets
        n, mentions = _totals(tag_sets)
        labels = sum(len(tags) * k for tags, (k, _) in tag_sets.items())
        return CorpusSummary(
            self.tokens, mentions, n, len(set().union(*tag_sets)),
            self.relation_triples, len(self.relation_types),
            self.linked_mentions, self.linked_clusters,
            self.singletons / n if n else 0.0, labels / n if n else 0.0)

    def type_histogram(self) -> TypeHistogram:
        hierarchy = load_type_hierarchy()
        return TypeHistogram(
            _spread(self.tag_sets, lambda tags: tags),
            _spread(self.tag_sets, lambda tags: {
                node for tag in tags for node in ancestors(tag, hierarchy)}),
            *_totals(self.tag_sets))

    def relation_histograms(self) -> tuple[RelationTypeHistogram,
                                           dict[int, tuple[int, int]]]:
        buckets = _spread(self.type_sets, lambda types: (min(len(types), 4),))
        return (RelationTypeHistogram(_spread(self.type_sets, lambda types: types),
                                      *_totals(self.type_sets)),
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
