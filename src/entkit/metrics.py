"""Mention-level, hard entity-level, and soft entity-level precision/recall/F1.

All three levels share one labeled view of a (gold, predicted) document pair.
For NER the unit of labeling is the entity cluster and its instances are the
member mention spans. For relation extraction the unit is a directed, typed
cluster pair and its instances are all cross-product mention pairs of the two
clusters.

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

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator

from .corpus import Document

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
    level: str | None = None
    task: str | None = None

    @classmethod
    def from_pr(cls, precision: float, recall: float,
                level: str | None = None, task: str | None = None) -> "PRFReport":
        return cls(precision, recall, f1_score(precision, recall), level, task)

    def to_json(self) -> dict:
        return {"precision": self.precision, "recall": self.recall,
                "f1": self.f1}


@dataclass
class LabelView:
    """Per-label cluster units and instance sets for one document pair.

    Instances are mention spans for NER and ordered mention-pair tuples for
    relation extraction; each cluster unit is the frozen set of its instances.
    """

    pred_clusters: list[frozenset] = field(default_factory=list)
    gold_clusters: list[frozenset] = field(default_factory=list)

    @property
    def pred_instances(self) -> frozenset:
        return frozenset().union(*self.pred_clusters)

    @property
    def gold_instances(self) -> frozenset:
        return frozenset().union(*self.gold_clusters)


@dataclass
class EvalView:
    task: str
    labels: dict[str, LabelView] = field(default_factory=dict)


def _units(doc: Document, task: str) -> Iterator[tuple[str, frozenset]]:
    """(label, instance set) for every labelled cluster unit of `doc`."""
    if task == "ner":
        for c in doc.clusters:
            instances = frozenset(c.mentions)
            for label in c.tags:
                yield label, instances
        return
    by_id = doc.cluster_by_id()
    for head_id, label, tail_id in sorted(
            {(r.head, r.type, r.tail) for r in doc.relations}):
        if head_id not in by_id or tail_id not in by_id:
            raise ValueError(f"{doc.id}: relation {label!r} references "
                             f"a missing cluster id")
        head, tail = by_id[head_id], by_id[tail_id]
        yield label, frozenset(product(head.mentions, tail.mentions))


def build_eval_view(gold: Document, pred: Document, task: str) -> EvalView:
    """Index a document pair per label; gold and pred must share the token space."""
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    if gold.tokens != pred.tokens:
        raise ValueError(f"token-space mismatch between gold {gold.id!r} "
                         f"and pred {pred.id!r}")
    view = EvalView(task)
    for side, doc in (("gold_clusters", gold), ("pred_clusters", pred)):
        for label, instances in _units(doc, task):
            lv = view.labels.setdefault(label, LabelView())
            getattr(lv, side).append(instances)
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


def _soft_counts(lv: LabelView) -> SoftCounts:
    gold_instances = lv.gold_instances
    pred_instances = lv.pred_instances
    tp_p = sum(len(c & gold_instances) / len(c) for c in lv.pred_clusters)
    tp_g = sum(len(c & pred_instances) / len(c) for c in lv.gold_clusters)
    return SoftCounts(tp_p, tp_g,
                      len(lv.pred_clusters) - tp_p,
                      len(lv.gold_clusters) - tp_g)


def soft_entity_counts(view: EvalView, label: str) -> SoftCounts:
    """Size-weighted true positives for one label.

    tp_p sums, over predicted clusters with the label, the fraction of each
    cluster's instances found among the gold instances of that label; tp_g is
    the mirror image over gold clusters. fp and fn are the cluster counts
    minus the respective weighted true positives.
    """
    return _soft_counts(view.labels.get(label, LabelView()))


def _label_counts(lv: LabelView, level: str) -> tuple:
    """(pred-side hits, #pred units, gold-side hits, #gold units) for one label.

    mention: instances in both sides over the instance sets; hard: predicted
    clusters whose instance set equals a gold cluster's, over the cluster
    counts; soft: the size-weighted true positives of `soft_entity_counts`.
    """
    if level == "mention":
        p, g = lv.pred_instances, lv.gold_instances
        tp = len(p & g)
        return tp, len(p), tp, len(g)
    if level == "hard":
        gold_sets = set(lv.gold_clusters)
        tp = sum(1 for c in lv.pred_clusters if c in gold_sets)
        return tp, len(lv.pred_clusters), tp, len(lv.gold_clusters)
    c = _soft_counts(lv)
    # tp_p + fp rather than the cluster count, which it equals up to rounding
    return c.tp_p, c.tp_p + c.fp, c.tp_g, c.tp_g + c.fn


def _label_rows(view_or_views: EvalView | Iterable[EvalView], level: str
                ) -> tuple[str | None, list[tuple[str, tuple]]]:
    """The task and one (label, counts) row per label of each view, in view
    order and then label order."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    views = [view_or_views] if isinstance(view_or_views, EvalView) \
        else list(view_or_views)
    tasks = {v.task for v in views}
    if len(tasks) > 1:
        raise ValueError(f"cannot mix tasks {sorted(tasks)} in one score")
    rows = [(label, _label_counts(lv, level))
            for v in views for label, lv in v.labels.items()]
    return (views[0].task if views else None), rows


def _reduce(counts: Iterable[tuple], level: str, task: str | None) -> PRFReport:
    """Micro-averaged P/R/F1 from summed per-label counts."""
    hits_p = n_pred = hits_g = n_gold = 0
    for label_hits_p, label_pred, label_hits_g, label_gold in counts:
        hits_p += label_hits_p
        n_pred += label_pred
        hits_g += label_hits_g
        n_gold += label_gold
    return PRFReport.from_pr(_ratio(hits_p, n_pred, n_gold),
                             _ratio(hits_g, n_gold, n_pred), level, task)


def score_level(view_or_views: EvalView | Iterable[EvalView], level: str) -> PRFReport:
    task, rows = _label_rows(view_or_views, level)
    return _reduce((counts for _label, counts in rows), level, task)


def mention_prf(view_or_views: EvalView | Iterable[EvalView]) -> PRFReport:
    return score_level(view_or_views, "mention")


def hard_entity_prf(view_or_views: EvalView | Iterable[EvalView]) -> PRFReport:
    return score_level(view_or_views, "hard")


def soft_entity_prf(view_or_views: EvalView | Iterable[EvalView]) -> PRFReport:
    return score_level(view_or_views, "soft")


def per_label_prf(view_or_views: EvalView | Iterable[EvalView],
                  level: str) -> dict[str, PRFReport]:
    """The chosen level restricted to each label separately."""
    task, rows = _label_rows(view_or_views, level)
    by_label: dict[str, list[tuple]] = {}
    for label, counts in rows:
        by_label.setdefault(label, []).append(counts)
    return {label: _reduce(by_label[label], level, task)
            for label in sorted(by_label)}
