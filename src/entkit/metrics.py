"""Mention-level, hard entity-level, and soft entity-level precision/recall/F1.

All three levels share one labeled view of a (gold, predicted) document pair.
For NER the unit of labeling is the entity cluster and its instances are the
member mention spans. For relation extraction the unit is a directed, typed
cluster pair and its instances are all cross-product mention pairs of the two
clusters. Each unit is counted, never expanded: the instances of every unit
lie in blocks of the gold x pred unit-overlap table of the document
(`corpus.unit_overlaps`), the one table entity and relation kappa read too.

Levels:
  mention  - micro P/R/F1 over labeled instances, so frequently mentioned
             entities dominate.
  hard     - a labeled cluster counts only when some gold cluster carries the
             same label with the identical instance set (all-or-nothing).
  soft     - each labeled cluster earns the fraction of its instances that are
             correctly labeled on the other side; the per-label identities
             tp_p + fp = #predicted clusters with that label and
             tp_g + fn = #gold clusters with that label hold exactly.

Zero-denominator convention at every level: a side with an empty denominator
scores 1.0 when the other side is also empty (perfect on empty documents) and
0.0 otherwise. Micro-averaging across labels and documents throughout.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import truediv
from typing import Iterable, NamedTuple

from .corpus import Document, unit_overlaps

TASKS = ("ner", "re")
LEVELS = ("mention", "hard", "soft")


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class PRFReport:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "PRFReport":
        return cls(precision, recall, f1_score(precision, recall))

    def to_json(self) -> dict:
        return {"precision": self.precision, "recall": self.recall,
                "f1": self.f1}


class LabelCounts(NamedTuple):
    """One label's counts for one document pair. Instances are mention spans
    (NER) or head x tail mention pairs (RE); units are the labelled clusters
    (NER) or the labelled cluster pairs (RE)."""

    shared: int          # instances in both the predicted and the gold union
    pred_instances: int
    gold_instances: int
    matched: int         # predicted units whose instance set is a gold unit's
    pred_units: int
    gold_units: int
    soft_pred: float     # sum over predicted units of shared / size, in order
    soft_gold: float


_NO_COUNTS = LabelCounts(0, 0, 0, 0, 0, 0, 0, 0)


@dataclass
class EvalView:
    task: str
    labels: dict[str, LabelCounts] = field(default_factory=dict)


def _units(doc: Document, units: dict, task: str) -> list[tuple[str, tuple[int, ...]]]:
    """(label, cluster positions) for every labelled unit of `doc`, from its
    `unit_overlaps` table `units`: each cluster once per tag for NER, each
    distinct relation triple in `relation_positions` order (by head id,
    type, tail id) for RE. That order is a sort of the table's rows because
    `relation_positions`, which built them, refuses an id two clusters carry."""
    rows = [(label, unit) for unit, labels in units.items() for label in labels]
    if task == "ner":
        return rows
    ids = [c.id for c in doc.clusters]
    return sorted(rows, key=lambda row: (ids[row[1][0]], row[0], ids[row[1][1]]))


def _totals(units: list[tuple]) -> tuple:
    """(hits, sizes, matches, soft credit) summed over one side's units of
    one label; the soft credit sums hits / size in unit order."""
    if not units:
        return 0, 0, 0, 0
    hits, sizes, matched = zip(*units)
    return sum(hits), sum(sizes), sum(matched), sum(map(truediv, hits, sizes))


def build_eval_view(gold: Document, pred: Document, task: str) -> EvalView:
    """Count each label of a document pair from the blocks of
    `corpus.unit_overlaps`; gold and pred must share the token space, and
    each mention must lie in exactly one non-empty cluster of its document.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    if gold.tokens != pred.tokens:
        raise ValueError(f"token-space mismatch between gold {gold.id!r} "
                         f"and pred {pred.id!r}")
    return _eval_view(gold, pred, task)


def _eval_view(gold: Document, pred: Document, task: str) -> EvalView:
    """`build_eval_view` of a pair whose token spaces are already known to
    agree (`corpus.pair_documents` compares them).

    A unit's size is the sum of its blocks. Units of one label are disjoint,
    so a unit's hits for a label are its instances in blocks whose
    other-side unit carries the label too, and a predicted unit matches
    exactly when one such block is both units' size.
    """
    gold_units, pred_units, blocks = unit_overlaps(gold, pred, task)
    sizes: tuple[dict, dict] = ({}, {})     # per side: unit -> instances
    hits: tuple[dict, dict] = ({}, {})      # per side: (unit, label) -> hits
    for (g, p), n in blocks.items():
        sizes[0][g] = sizes[0].get(g, 0) + n
        sizes[1][p] = sizes[1].get(p, 0) + n
    matched = set()                         # (unit, label) of matched preds
    for (g, p), n in blocks.items():
        if g is not None and p is not None:
            for label in gold_units[g] & pred_units[p]:
                hits[0][g, label] = hits[0].get((g, label), 0) + n
                hits[1][p, label] = hits[1].get((p, label), 0) + n
                if n == sizes[0][g] == sizes[1][p]:
                    matched.add((p, label))
    by_label: defaultdict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    for side, (doc, units) in enumerate(((gold, gold_units), (pred, pred_units))):
        for label, unit in _units(doc, units, task):
            key = unit, label
            by_label[label][side].append((hits[side].get(key, 0), sizes[side][unit],
                                          side == 1 and key in matched))
    view = EvalView(task)
    for label, (g, p) in by_label.items():
        shared, pred_instances, matched_units, soft_pred = _totals(p)
        _, gold_instances, _, soft_gold = _totals(g)
        view.labels[label] = LabelCounts(shared, pred_instances, gold_instances,
                                         matched_units, len(p), len(g),
                                         soft_pred, soft_gold)
    return view


def _ratio(num: float, den: float, other_empty_den: float) -> float:
    """num/den with the empty-side convention for den == 0."""
    if den == 0:
        return 1.0 if other_empty_den == 0 else 0.0
    return num / den


@dataclass(frozen=True)
class SoftCounts:
    tp_p: float
    tp_g: float
    fp: float
    fn: float


def _soft_counts(lc: LabelCounts) -> SoftCounts:
    return SoftCounts(lc.soft_pred, lc.soft_gold,
                      lc.pred_units - lc.soft_pred,
                      lc.gold_units - lc.soft_gold)


def soft_entity_counts(view: EvalView, label: str) -> SoftCounts:
    """Size-weighted true positives for one label.

    tp_p sums, over predicted clusters with the label, the fraction of each
    cluster's instances found among the gold instances of that label; tp_g is
    the mirror image over gold clusters. fp and fn are the cluster counts
    minus the respective weighted true positives.
    """
    return _soft_counts(view.labels.get(label, _NO_COUNTS))


def _label_counts(lc: LabelCounts, level: str) -> tuple:
    """(pred-side hits, #pred units, gold-side hits, #gold units) for one label.

    mention: instances in both sides over the instance unions; hard:
    predicted units whose instance set equals a gold unit's, over the unit
    counts; soft: the size-weighted true positives of `soft_entity_counts`.
    """
    if level == "mention":
        return lc.shared, lc.pred_instances, lc.shared, lc.gold_instances
    if level == "hard":
        return lc.matched, lc.pred_units, lc.matched, lc.gold_units
    c = _soft_counts(lc)
    # tp_p + fp rather than the cluster count, which it equals up to rounding
    return c.tp_p, c.tp_p + c.fp, c.tp_g, c.tp_g + c.fn


def _label_rows(view_or_views: EvalView | Iterable[EvalView], level: str
                ) -> list[tuple[str, tuple]]:
    """One (label, counts) row per label of each view, in view order and
    then label order; the views must share one task."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    views = [view_or_views] if isinstance(view_or_views, EvalView) \
        else list(view_or_views)
    tasks = {v.task for v in views}
    if len(tasks) > 1:
        raise ValueError(f"cannot mix tasks {sorted(tasks)} in one score")
    return [(label, _label_counts(lv, level))
            for v in views for label, lv in v.labels.items()]


def _reduce(counts: Iterable[tuple]) -> PRFReport:
    """Micro-averaged P/R/F1 from summed per-label counts."""
    hits_p = n_pred = hits_g = n_gold = 0
    for label_hits_p, label_pred, label_hits_g, label_gold in counts:
        hits_p += label_hits_p
        n_pred += label_pred
        hits_g += label_hits_g
        n_gold += label_gold
    return PRFReport.from_pr(_ratio(hits_p, n_pred, n_gold),
                             _ratio(hits_g, n_gold, n_pred))


def score_level(view_or_views: EvalView | Iterable[EvalView], level: str) -> PRFReport:
    return _reduce(counts for _label, counts in _label_rows(view_or_views, level))


def mention_prf(view_or_views: EvalView | Iterable[EvalView]) -> PRFReport:
    return score_level(view_or_views, "mention")


def hard_entity_prf(view_or_views: EvalView | Iterable[EvalView]) -> PRFReport:
    return score_level(view_or_views, "hard")


def soft_entity_prf(view_or_views: EvalView | Iterable[EvalView]) -> PRFReport:
    return score_level(view_or_views, "soft")


def per_label_prf(view_or_views: EvalView | Iterable[EvalView],
                  level: str) -> dict[str, PRFReport]:
    """The chosen level restricted to each label separately."""
    by_label: dict[str, list[tuple]] = {}
    for label, counts in _label_rows(view_or_views, level):
        by_label.setdefault(label, []).append(counts)
    return {label: _reduce(by_label[label])
            for label in sorted(by_label)}
