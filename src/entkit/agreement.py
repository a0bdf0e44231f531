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
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .corpus import Document, span_index

ABSENT = "<absent>"


@dataclass(frozen=True)
class AnnotationPair:
    """Contingency counts of (annotator-1 label, annotator-2 label) decisions
    over N > 0 items. Built from the items themselves or from a mapping of
    label pair to count."""

    counts: Counter

    def __init__(self, items: Iterable[tuple[Hashable, Hashable]]
                 | Mapping[tuple[Hashable, Hashable], int]):
        object.__setattr__(self, "counts", Counter(items))
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


def _pair_docs(docs_a: Sequence[Document], docs_b: Sequence[Document]
               ) -> list[tuple[Document, Document]]:
    by_id_a = {d.id: d for d in docs_a}
    by_id_b = {d.id: d for d in docs_b}
    if len(by_id_a) != len(docs_a) or len(by_id_b) != len(docs_b):
        raise ValueError("an annotator corpus repeats a document id")
    if set(by_id_a) != set(by_id_b):
        only_a = sorted(set(by_id_a) - set(by_id_b))[:3]
        only_b = sorted(set(by_id_b) - set(by_id_a))[:3]
        raise ValueError(f"annotator corpora cover different documents "
                         f"(only a: {only_a}, only b: {only_b})")
    return [(by_id_a[i], by_id_b[i]) for i in sorted(by_id_a)]


def _mention_tags(d: Document) -> dict[tuple[int, int], frozenset[str]]:
    out = {}
    for c in d.clusters:
        for m in c.mentions:
            out[(m.begin, m.end)] = c.tags
    return out


def entity_agreement(docs_a: Sequence[Document], docs_b: Sequence[Document],
                     conditioned: bool = False) -> dict:
    """Mention detection kappa plus multi-label tag classification kappa.

    Detection items are all (doc, span) keys either annotator marked.
    Classification items are the same universe, with undetected spans holding
    no tags; conditioned=True restricts classification to spans both
    annotators detected.
    """
    return _labelled_agreement(docs_a, docs_b, _mention_tags, "mention",
                               conditioned)


def _mention_pair_types(d: Document) -> dict[tuple, frozenset[str]]:
    by_id = d.cluster_by_id()
    out: dict[tuple, set[str]] = {}
    for r in d.relations:
        if r.head not in by_id or r.tail not in by_id:
            continue
        for hm in by_id[r.head].mentions:
            for tm in by_id[r.tail].mentions:
                key = ((hm.begin, hm.end), (tm.begin, tm.end))
                out.setdefault(key, set()).add(r.type)
    return {k: frozenset(v) for k, v in out.items()}


def relation_agreement(docs_a: Sequence[Document], docs_b: Sequence[Document],
                       conditioned: bool = False) -> dict:
    """Relation detection and type classification over mention pairs.

    Entity-level relations are expanded to all cross mention pairs so the two
    annotators' (possibly different) clusterings line up on shared spans.
    """
    return _labelled_agreement(docs_a, docs_b, _mention_pair_types,
                               "relation", conditioned)


def _labelled_agreement(docs_a: Sequence[Document], docs_b: Sequence[Document],
                        labels_of: Callable[[Document], Mapping],
                        marker: str, conditioned: bool) -> dict:
    """Detection kappa over the keys either annotator gave labels to, and
    per-label binary kappas over the classification items.

    Each label's table counts the items where both, only annotator a or only
    annotator b assigned it; every other classification item is a joint
    negative.
    """
    detect: Counter = Counter()
    tables: defaultdict[str, Counter] = defaultdict(Counter)
    n_class_items = 0
    for da, db in _pair_docs(docs_a, docs_b):
        labels_a, labels_b = labels_of(da), labels_of(db)
        for key in labels_a.keys() | labels_b.keys():
            in_a, in_b = key in labels_a, key in labels_b
            detect[(marker if in_a else ABSENT,
                    marker if in_b else ABSENT)] += 1
            if conditioned and not (in_a and in_b):
                continue
            n_class_items += 1
            la = labels_a.get(key, frozenset())
            lb = labels_b.get(key, frozenset())
            for label in la | lb:
                tables[label][(label in la, label in lb)] += 1
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


def _pairs_within(cluster_sizes: Iterable[int]) -> int:
    return sum(n * (n - 1) // 2 for n in cluster_sizes)


def coref_agreement(docs_a: Sequence[Document], docs_b: Sequence[Document]
                    ) -> dict:
    """Binary same-cluster agreement over pairs of jointly detected spans.

    The pair counts follow from cluster sizes restricted to the shared spans:
    pairs inside one (cluster a, cluster b) cell are same-cluster for both
    annotators, pairs inside one cluster of a only for a, and so on.
    """
    counts: Counter = Counter()
    for da, db in _pair_docs(docs_a, docs_b):
        idx_a = {(m.begin, m.end): cid for m, cid in span_index(da).items()}
        idx_b = {(m.begin, m.end): cid for m, cid in span_index(db).items()}
        shared = idx_a.keys() & idx_b.keys()
        both = _pairs_within(
            Counter((idx_a[s], idx_b[s]) for s in shared).values())
        same_a = _pairs_within(Counter(idx_a[s] for s in shared).values())
        same_b = _pairs_within(Counter(idx_b[s] for s in shared).values())
        counts[(True, True)] += both
        counts[(True, False)] += same_a - both
        counts[(False, True)] += same_b - both
        counts[(False, False)] += (_pairs_within([len(shared)])
                                   - same_a - same_b + both)
    if not sum(counts.values()):
        raise ValueError("no shared mention pairs to compare")
    return _kappa_summary(AnnotationPair(counts))


def linking_agreement(docs_a: Sequence[Document], docs_b: Sequence[Document]
                      ) -> dict:
    """Link-id agreement over jointly detected mentions; NIL and unannotated
    links are distinct labels."""

    def link_label(link) -> str:
        if isinstance(link, str):
            return link
        return "<nil>" if link is None else ABSENT

    counts: Counter = Counter()
    for da, db in _pair_docs(docs_a, docs_b):
        links_a = {(m.begin, m.end): link_label(c.link)
                   for c in da.clusters for m in c.mentions}
        links_b = {(m.begin, m.end): link_label(c.link)
                   for c in db.clusters for m in c.mentions}
        counts.update((links_a[span], links_b[span])
                      for span in links_a.keys() & links_b.keys())
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
