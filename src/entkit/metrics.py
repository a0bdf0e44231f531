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

from math import fsum
from typing import Iterable, NamedTuple

from .corpus import Document, unit_overlaps

TASKS = ("ner", "re")
LEVELS = ("mention", "hard", "soft")


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


class PRFReport(NamedTuple):
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "PRFReport":
        return cls(precision, recall, f1_score(precision, recall))

    def to_json(self) -> dict:
        return self._asdict()


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
    soft_pred: float     # exact sum over predicted units of shared / size
    soft_gold: float


_NO_COUNTS = LabelCounts(0, 0, 0, 0, 0, 0, 0, 0)
_NO_SIDE = (0, 0, 0, ())


class EvalView(NamedTuple):
    task: str
    labels: dict[str, LabelCounts]


def build_eval_view(gold: Document, pred: Document, task: str,
                    cells: dict | None = None) -> EvalView:
    """Count each label of a document pair from `corpus.unit_overlaps`, which
    reads `cells` if given; gold and pred must share the token space, and
    each mention must lie in exactly one non-empty cluster of its document.

    A unit's size is the sum of its blocks. Units of one label are disjoint,
    so a unit's hits for a label are its instances in blocks whose
    other-side unit carries the label too, and a predicted unit matches
    exactly when one such block is both units' size.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    if gold.tokens != pred.tokens:
        raise ValueError(f"token-space mismatch between gold {gold.id!r} "
                         f"and pred {pred.id!r}")
    gold_units, pred_units, blocks = unit_overlaps(gold, pred, task, cells)
    sizes: tuple[dict, dict] = ({}, {})     # per side: unit -> instances
    hits: tuple[dict, dict] = ({}, {})      # per side: (unit, label) -> hits
    for (g, p), n in blocks.items():
        sizes[0][g] = sizes[0].get(g, 0) + n
        sizes[1][p] = sizes[1].get(p, 0) + n
    matched: dict[str, int] = {}            # label -> matched predicted units
    for (g, p), n in blocks.items():
        if g is not None and p is not None:
            for label in gold_units[g] & pred_units[p]:
                hits[0][g, label] = hits[0].get((g, label), 0) + n
                hits[1][p, label] = hits[1].get((p, label), 0) + n
                if n == sizes[0][g] == sizes[1][p]:
                    matched[label] = matched.get(label, 0) + 1
    # per side: label -> [instances, units, hits, soft-credit terms]
    totals: tuple[dict, dict] = ({}, {})
    for side, units in enumerate((gold_units, pred_units)):
        for unit, labels in units.items():
            for label in labels:
                t = totals[side].setdefault(label, [0, 0, 0, []])
                t[0] += sizes[side][unit]
                t[1] += 1
        for (unit, label), n in hits[side].items():
            t = totals[side][label]
            t[2] += n
            t[3].append(n / sizes[side][unit])
    view = EvalView(task, {})
    for label in totals[0] | totals[1]:
        gold_instances, gold_count, _, gold_terms = totals[0].get(label, _NO_SIDE)
        pred_instances, pred_count, shared, pred_terms = totals[1].get(label, _NO_SIDE)
        view.labels[label] = LabelCounts(
            shared, pred_instances, gold_instances, matched.get(label, 0),
            pred_count, gold_count, fsum(pred_terms), fsum(gold_terms))
    return view


def _ratio(num: float, den: float, other_empty_den: float) -> float:
    """num/den with the empty-side convention for den == 0."""
    if den == 0:
        return 1.0 if other_empty_den == 0 else 0.0
    return num / den


class SoftCounts(NamedTuple):
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


def _reduce(counts: Iterable[tuple]) -> PRFReport:
    """Micro-averaged P/R/F1 from the per-label counts, each column summed
    exactly, so that no score depends on the order of labels or documents."""
    columns = list(zip(*counts)) or [()] * 4
    hits_p, n_pred, hits_g, n_gold = map(fsum, columns)
    return PRFReport.from_pr(_ratio(hits_p, n_pred, n_gold),
                             _ratio(hits_g, n_gold, n_pred))


class ScoreFold:
    """The scores of one task at `levels`, folded one `EvalView` at a time:
    each label's `LabelCounts` become that label's counts at each level, once.
    `_reduce` sums them exactly, so their order is free."""

    def __init__(self, levels: Iterable[str],
                 views: EvalView | Iterable[EvalView] = ()):
        # level -> label -> its counts at that level, one row per view
        self.rows: dict[str, dict[str, list[tuple]]] = {level: {} for level in levels}
        if bad := [level for level in self.rows if level not in LEVELS]:
            raise ValueError(f"level must be one of {LEVELS}, got {bad[0]!r}")
        self.task: str | None = None
        for view in [views] if isinstance(views, EvalView) else views:
            self.add(view)

    def add(self, view: EvalView) -> None:
        self._join(view.task)
        for level, rows in self.rows.items():
            for label, counts in view.labels.items():
                rows.setdefault(label, []).append(_label_counts(counts, level))

    def merge(self, other: "ScoreFold") -> None:
        """Add the rows of `other`, a fold at the same levels."""
        self._join(other.task or self.task)
        for level, rows in self.rows.items():
            for label, more in other.rows[level].items():
                rows.setdefault(label, []).extend(more)

    def _join(self, task: str | None) -> None:
        if self.task not in (None, task):
            raise ValueError(f"cannot mix tasks {sorted((self.task, task))} "
                             f"in one score")
        self.task = task

    def score(self, level: str) -> PRFReport:
        return _reduce(row for rows in self.rows[level].values() for row in rows)

    def per_label(self, level: str) -> dict[str, PRFReport]:
        """The level restricted to each label separately."""
        rows = self.rows[level]
        return {label: _reduce(rows[label]) for label in sorted(rows)}

    def report(self, per_label: bool) -> dict:
        """Each level's score as JSON, with `per_label` each label's too."""
        out: dict = {level: self.score(level).to_json() for level in self.rows}
        if per_label:
            out["per_label"] = {level: {label: r.to_json() for label, r in
                                        self.per_label(level).items()}
                                for level in self.rows}
        return out


def score_level(view_or_views: EvalView | Iterable[EvalView], level: str) -> PRFReport:
    return ScoreFold([level], view_or_views).score(level)


def mention_prf(view_or_views: EvalView | Iterable[EvalView]) -> PRFReport:
    return score_level(view_or_views, "mention")


def hard_entity_prf(view_or_views: EvalView | Iterable[EvalView]) -> PRFReport:
    return score_level(view_or_views, "hard")


def soft_entity_prf(view_or_views: EvalView | Iterable[EvalView]) -> PRFReport:
    return score_level(view_or_views, "soft")


def per_label_prf(view_or_views: EvalView | Iterable[EvalView],
                  level: str) -> dict[str, PRFReport]:
    """The chosen level restricted to each label separately."""
    return ScoreFold([level], view_or_views).per_label(level)
