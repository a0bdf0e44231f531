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
Each adapter folds one document pair at a time into its contingency counts
(`agreement_fold`), and no item list is built. Entity and relation
agreement read the unit-overlap table of each document pair
(`corpus.unit_overlaps`, which the NER and RE scores read too), coref and
linking agreement the cluster-overlap table under it. All four take
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

from .corpus import Document, cluster_overlaps, fold_documents, unit_overlaps

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
    return fold_documents(docs_a, docs_b, LabelledAgreement("ner", conditioned)).result()


def relation_agreement(docs_a: Iterable[Document], docs_b: Iterable[Document],
                       conditioned: bool = False) -> dict:
    """Relation detection and type classification over mention pairs.

    Entity-level relations are expanded to all cross mention pairs so the two
    annotators' (possibly different) clusterings line up on shared spans.
    """
    return fold_documents(docs_a, docs_b, LabelledAgreement("re", conditioned)).result()


def coref_agreement(docs_a: Iterable[Document], docs_b: Iterable[Document]) -> dict:
    """Binary same-cluster agreement over pairs of jointly detected spans."""
    return fold_documents(docs_a, docs_b, CorefAgreement()).result()


def linking_agreement(docs_a: Iterable[Document], docs_b: Iterable[Document]) -> dict:
    """Link-id agreement over jointly detected mentions; NIL and unannotated
    links are distinct labels."""
    return fold_documents(docs_a, docs_b, LinkingAgreement()).result()


def agreement_fold(task: str, conditioned: bool = False) -> "_Contingency":
    """The empty fold of `<task>_agreement`: `add` a document pair,
    `merge` another fold, and `result`."""
    if task in ("entity", "relation"):
        return LabelledAgreement("ner" if task == "entity" else "re", conditioned)
    return CorefAgreement() if task == "coref" else LinkingAgreement()


class _Contingency:
    """Contingency counts of one kappa task. Each count is an int, so no
    result depends on how the document pairs were split and merged."""

    empty = ""  # the error of a result with no items

    def __init__(self):
        self.counts: Counter = Counter()

    def merge(self, other: "_Contingency") -> None:
        self.counts.update(other.counts)

    def result(self) -> dict:
        if not sum(self.counts.values()):
            raise ValueError(self.empty)
        return _kappa_summary(AnnotationPair(self.counts))


class LabelledAgreement(_Contingency):
    """Detection kappa over the items either annotator gave labels to, and
    per-label binary kappas over the classification items.

    The items of one document pair are the instances of the blocks of
    `corpus.unit_overlaps` for `task`: a block's items carry the labels of
    its unit of a and of its unit of b (None where there is no unit). Each
    label's table counts the items where both, only annotator a or only
    annotator b assigned it; every other classification item is a joint
    negative.
    """

    def __init__(self, task: str, conditioned: bool = False):
        super().__init__()  # the detection counts
        self.task, self.conditioned = task, conditioned
        self.marker = "mention" if task == "ner" else "relation"
        self.empty = f"neither annotator produced any {self.marker}"
        self.tables: defaultdict[str, Counter] = defaultdict(Counter)
        self.n_class_items = 0

    def add(self, da: Document, db: Document) -> None:
        units_a, units_b, blocks = unit_overlaps(da, db, self.task)
        for (ua, ub), n in blocks.items():
            la, lb = units_a.get(ua), units_b.get(ub)
            self.counts[(ABSENT if la is None else self.marker,
                         ABSENT if lb is None else self.marker)] += n
            if la is None or lb is None:
                if self.conditioned:
                    continue
                la, lb = la or frozenset(), lb or frozenset()
            self.n_class_items += n
            for label in la | lb:
                self.tables[label][(label in la, label in lb)] += n

    def merge(self, other: "LabelledAgreement") -> None:
        super().merge(other)
        for label, table in other.tables.items():
            self.tables[label].update(table)
        self.n_class_items += other.n_class_items

    def result(self) -> dict:
        detection = super().result()
        label_pairs = {label: AnnotationPair({
            **table, (False, False): self.n_class_items - sum(table.values())})
            for label, table in self.tables.items()}
        return {
            "detection": detection,
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


class CorefAgreement(_Contingency):
    """The pair counts follow from the overlap cells of the shared spans:
    pairs inside one cell are same-cluster for both annotators, pairs
    inside one row (a cluster of a) for a, pairs inside one column for b."""

    empty = "no shared mention pairs to compare"

    def add(self, da: Document, db: Document) -> None:
        cells = _shared_cells(da, db)
        rows, cols = Counter(), Counter()
        for (i, j), n in cells.items():
            rows[i] += n
            cols[j] += n
        both = _pairs_within(cells.values())
        same_a = _pairs_within(rows.values())
        same_b = _pairs_within(cols.values())
        self.counts[(True, True)] += both
        self.counts[(True, False)] += same_a - both
        self.counts[(False, True)] += same_b - both
        self.counts[(False, False)] += (_pairs_within([sum(cells.values())])
                                        - same_a - same_b + both)


def _link_label(link) -> str:
    return link if isinstance(link, str) else "<nil>" if link is None else ABSENT


class LinkingAgreement(_Contingency):
    empty = "no shared mentions to compare links on"

    def add(self, da: Document, db: Document) -> None:
        for (i, j), n in _shared_cells(da, db).items():
            self.counts[_link_label(da.clusters[i].link),
                        _link_label(db.clusters[j].link)] += n


def _kappa_summary(pair: AnnotationPair) -> dict:
    return {
        "n_items": len(pair),
        "p_o": observed_agreement(pair),
        "p_e": expected_agreement(pair),
        "kappa": cohen_kappa(pair),
    }
