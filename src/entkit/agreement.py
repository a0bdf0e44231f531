"""Chance-corrected agreement between two annotators.

Core quantities over the contingency counts of aligned (annotator-1 label,
annotator-2 label) decisions: observed agreement p_o (fraction of items with
identical labels), expected agreement p_e (probability of a chance match
given each annotator's label distribution), and kappa (p_o - p_e) /
(1 - p_e). Multi-label tasks are scored per label as binary
assigned/not-assigned decisions and combined by a support-weighted mean,
where a label's support is its assignment count across both annotators.

Corpus-level adapters align two annotation files item by item: mentions by
(document id, span), relations by (document id, head span, tail span) after
expanding entity-level relations to mention pairs, coreference by shared
mention pairs, and links by shared mentions. Items seen by only one annotator
enter as disagreements against an explicit absent marker, except in the
"conditioned" mode which restricts classification to jointly detected items.
Each adapter counts its contingency table directly; no item list is built.
Entity and relation agreement read the unit-overlap table of each document
pair (`corpus.unit_overlaps`, which the NER and RE scores read too), coref
and linking agreement the cluster-overlap table under it. All four take
any two iterables of documents and pair them lazily (`corpus.iter_pairs`),
holding one pair when both list their documents in one order. They refuse
what it refuses (a repeated or unmatched document id, a document the two
tokenize differently), a span in two clusters of one document
(MentionMultiClusterError) and an empty cluster (ValueError). Relation agreement alone reads relations, so it alone refuses
a relation to a cluster id the document lacks or two clusters carry
(ValueError, from `corpus.relation_positions`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .corpus import Document, cluster_overlaps, iter_pairs, unit_overlaps

ABSENT = "<absent>"


@dataclass(frozen=True)
class AnnotationPair:
    """Contingency counts of (annotator-1 label, annotator-2 label) decisions
    over N > 0 items. Built from the items themselves or from a mapping of
    label pair to a non-negative int count."""

    counts: Counter

    def __init__(self, items: Iterable[tuple[Hashable, Hashable]]
                 | Mapping[tuple[Hashable, Hashable], int]):
        object.__setattr__(self, "counts", Counter(items))
        if not all(type(n) is int and n >= 0 for n in self.counts.values()):
            raise ValueError("each count must be a non-negative int")
        if len(self) <= 0:
            raise ValueError("annotation pair needs at least one item")

    @classmethod
    def from_sequences(cls, a: Sequence[Hashable], b: Sequence[Hashable]
                       ) -> "AnnotationPair":
        if len(a) != len(b):
            raise ValueError(f"annotators labeled {len(a)} vs {len(b)} items")
        return cls(zip(a, b))

    def __len__(self) -> int:
        return sum(self.counts.values())


def observed_agreement(p: AnnotationPair) -> float:
    """Fraction of items with identical labels."""
    return sum(c for (a, b), c in p.counts.items() if a == b) / len(p)


def expected_agreement(p: AnnotationPair) -> float:
    """Chance agreement: sum over labels of the product of both annotators'
    usage fractions."""
    n = len(p)
    counts_a: Counter = Counter()
    counts_b: Counter = Counter()
    for (a, b), c in p.counts.items():
        counts_a[a] += c
        counts_b[b] += c
    return sum(counts_a[l] * counts_b.get(l, 0) for l in counts_a) / (n * n)


def cohen_kappa(p: AnnotationPair) -> float:
    """(p_o - p_e) / (1 - p_e); when p_e = 1 the value is 1.0 for perfect
    agreement and undefined (raises) otherwise."""
    p_o = observed_agreement(p)
    p_e = expected_agreement(p)
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise ValueError("kappa undefined: expected agreement is 1 "
                         "but observed agreement is not")
    return (p_o - p_e) / (1.0 - p_e)


def multilabel_kappa(pairs: Mapping[str, AnnotationPair]) -> float:
    """Support-weighted mean of per-label binary kappas.

    Each pair holds binary assigned/not-assigned decisions for one label; the
    weight is the label's positive count across both annotators. Labels with
    zero support carry no weight and are skipped.
    """
    if not pairs:
        raise ValueError("no labels to score")
    total_weight = 0
    weighted = 0.0
    for label in sorted(pairs):
        pair = pairs[label]
        support = sum(c * (bool(a) + bool(b))
                      for (a, b), c in pair.counts.items())
        if support == 0:
            continue
        weighted += support * cohen_kappa(pair)
        total_weight += support
    if total_weight == 0:
        raise ValueError("no label was ever assigned by either annotator")
    return weighted / total_weight


# --------------------------------------------------------------------------
# Corpus-level alignment


def entity_agreement(docs_a: Iterable[Document], docs_b: Iterable[Document],
                     conditioned: bool = False) -> dict:
    """Mention detection kappa plus multi-label tag classification kappa.

    Detection items are all (doc, span) keys either annotator marked.
    Classification items are the same universe, with undetected spans holding
    no tags; conditioned=True restricts classification to spans both
    annotators detected.
    """
    return _labelled_agreement(docs_a, docs_b, "ner", conditioned)


def relation_agreement(docs_a: Iterable[Document], docs_b: Iterable[Document],
                       conditioned: bool = False) -> dict:
    """Relation detection and type classification over mention pairs.

    Entity-level relations are expanded to all cross mention pairs so the two
    annotators' (possibly different) clusterings line up on shared spans.
    """
    return _labelled_agreement(docs_a, docs_b, "re", conditioned)


def _labelled_agreement(docs_a: Iterable[Document], docs_b: Iterable[Document],
                        task: str, conditioned: bool) -> dict:
    """Detection kappa over the items either annotator gave labels to, and
    per-label binary kappas over the classification items.

    The items of one document pair are the instances of the blocks of
    `corpus.unit_overlaps` for `task`: a block's items carry the labels of
    its unit of a and of its unit of b (None where there is no unit). Each
    label's table counts the items where both, only annotator a or only
    annotator b assigned it; every other classification item is a joint
    negative.
    """
    marker = "mention" if task == "ner" else "relation"
    detect: Counter = Counter()
    tables: defaultdict[str, Counter] = defaultdict(Counter)
    n_class_items = 0
    for da, db in iter_pairs(docs_a, docs_b):
        units_a, units_b, blocks = unit_overlaps(da, db, task)
        for (ua, ub), n in blocks.items():
            la, lb = units_a.get(ua), units_b.get(ub)
            detect[(ABSENT if la is None else marker,
                    ABSENT if lb is None else marker)] += n
            if la is None or lb is None:
                if conditioned:
                    continue
                la, lb = la or frozenset(), lb or frozenset()
            n_class_items += n
            for label in la | lb:
                tables[label][(label in la, label in lb)] += n
    if not detect:
        raise ValueError(f"neither annotator produced any {marker}")
    label_pairs = {}
    for label, table in tables.items():
        table[(False, False)] = n_class_items - sum(table.values())
        label_pairs[label] = AnnotationPair(table)
    return {
        "detection": _kappa_summary(AnnotationPair(detect)),
        "classification": multilabel_kappa(label_pairs) if label_pairs else None,
        "per_label": {l: cohen_kappa(p) for l, p in sorted(label_pairs.items())},
    }


def _shared_cells(da: Document, db: Document) -> dict[tuple[int, int], int]:
    """The overlap cells of one document pair whose spans both annotators
    marked: (cluster of a, cluster of b) -> shared spans."""
    return {(i, j): n for (i, j), n in cluster_overlaps(da, db).items()
            if i is not None and j is not None}


def _pairs_within(cluster_sizes: Iterable[int]) -> int:
    return sum(n * (n - 1) // 2 for n in cluster_sizes)


def coref_agreement(docs_a: Iterable[Document], docs_b: Iterable[Document]
                    ) -> dict:
    """Binary same-cluster agreement over pairs of jointly detected spans.

    The pair counts follow from the overlap cells of the shared spans: pairs
    inside one cell are same-cluster for both annotators, pairs inside one
    row (a cluster of a) for a, pairs inside one column for b.
    """
    counts: Counter = Counter()
    for da, db in iter_pairs(docs_a, docs_b):
        cells = _shared_cells(da, db)
        rows, cols = Counter(), Counter()
        for (i, j), n in cells.items():
            rows[i] += n
            cols[j] += n
        both = _pairs_within(cells.values())
        same_a = _pairs_within(rows.values())
        same_b = _pairs_within(cols.values())
        counts[(True, True)] += both
        counts[(True, False)] += same_a - both
        counts[(False, True)] += same_b - both
        counts[(False, False)] += (_pairs_within([sum(cells.values())])
                                   - same_a - same_b + both)
    if not sum(counts.values()):
        raise ValueError("no shared mention pairs to compare")
    return _kappa_summary(AnnotationPair(counts))


def linking_agreement(docs_a: Iterable[Document], docs_b: Iterable[Document]
                      ) -> dict:
    """Link-id agreement over jointly detected mentions; NIL and unannotated
    links are distinct labels."""

    def link_label(link) -> str:
        if isinstance(link, str):
            return link
        return "<nil>" if link is None else ABSENT

    counts: Counter = Counter()
    for da, db in iter_pairs(docs_a, docs_b):
        for (i, j), n in _shared_cells(da, db).items():
            counts[link_label(da.clusters[i].link),
                   link_label(db.clusters[j].link)] += n
    if not counts:
        raise ValueError("no shared mentions to compare links on")
    return _kappa_summary(AnnotationPair(counts))


def _kappa_summary(pair: AnnotationPair) -> dict:
    return {
        "n_items": len(pair),
        "p_o": observed_agreement(pair),
        "p_e": expected_agreement(pair),
        "kappa": cohen_kappa(pair),
    }
