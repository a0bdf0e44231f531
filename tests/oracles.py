"""Independent brute-force reference implementations used by the test suite.

These deliberately re-derive every result with naive enumeration, separate
from the library's code paths, so that agreement between the two is evidence
rather than tautology.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np
from scipy.optimize import linear_sum_assignment

from entkit.corpus import (UNANNOTATED, Document, EntityCluster, Mention,
                           RelationTriple, builtin_relation_vocabulary,
                           builtin_tag_vocabulary)
from entkit.decoder import DecodeInput
from entkit.kernels import _as_array
from entkit.metrics import PRFReport, SoftCounts
from entkit.rules import Atom, FactBase, Rule, _ground_head, is_variable
from entkit.stats import (DistanceRecord, RelationTypeHistogram, TypeHistogram,
                          ancestors, load_type_hierarchy, token_gap)


# --------------------------------------------------------------------------
# Corpus loading


def _require(cond: bool, msg: str, *args) -> None:
    if not cond:
        raise ValueError(msg % args if args else msg)


def _spans(pairs: list, where: str, what: str) -> list[Mention]:
    _require(set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
             and set(map(type, itertools.chain.from_iterable(pairs))) <= {int},
             "%s: %s must be [begin, end] integer pairs", where, what)
    return list(map(Mention._make, pairs))


def _list_field(obj: dict, key: str, doc_id: str) -> list:
    value = obj.get(key, [])
    _require(isinstance(value, list), "%s: field %r must be a list", doc_id, key)
    return value


def per_item_document_from_json(obj: dict) -> Document:
    """The document loader that checks and builds one cluster and one
    relation at a time, in file order: the reference for which inputs are
    accepted, the Document built and the first schema error's message."""
    _require(isinstance(obj, dict), "document must be a JSON object")
    _require(isinstance(obj.get("id"), str), "field 'id' must be a string")
    doc_id = obj["id"]
    tokens = obj.get("tokens")
    _require(type(tokens) is list and set(map(type, tokens)) <= {str},
             "%s: field 'tokens' must be a list of strings", doc_id)
    sentences = obj.get("sentences")
    _require(isinstance(sentences, list), "%s: field 'sentences' must be a list", doc_id)
    sents = _spans(sentences, doc_id, "sentence entries")
    clusters = []
    for c in _list_field(obj, "clusters", doc_id):
        _require(isinstance(c, dict) and isinstance(c.get("id"), str),
                 "%s: cluster entries must be objects with a string 'id'", doc_id)
        mentions = _spans(_list_field(c, "mentions", doc_id), doc_id,
                          "mention entries")
        tags = c.get("tags", [])
        _require(type(tags) is list and set(map(type, tags)) <= {str},
                 "%s: cluster 'tags' must be a list of strings", doc_id)
        if "link" in c:
            link = c["link"]
            _require(link is None or isinstance(link, str),
                     "%s: cluster 'link' must be a string or null", doc_id)
        else:
            link = UNANNOTATED
        clusters.append(EntityCluster(c["id"], tuple(mentions), frozenset(tags), link))
    relations = []
    for r in _list_field(obj, "relations", doc_id):
        _require(isinstance(r, dict)
                 and all(isinstance(r.get(k), str) for k in ("head", "type", "tail")),
                 "%s: relation entries must be objects with string head/type/tail",
                 doc_id)
        relations.append(RelationTriple(r["head"], r["type"], r["tail"]))
    split = obj.get("split", "unsplit")
    _require(isinstance(split, str), "%s: field 'split' must be a string", doc_id)
    return Document(doc_id, tuple(tokens), tuple(sents), tuple(clusters),
                    tuple(relations), split)


def _one_span(pair, where: str) -> Mention:
    [span] = _spans([pair], where, "spans")
    return span


def _entries(obj: dict, key: str, size: int, shape: str) -> list:
    entries = obj.get(key, [])
    message = f"field {key!r} must be a list of {shape} entries"
    _require(isinstance(entries, list), message)
    for e in entries:
        _require(isinstance(e, list) and len(e) == size and isinstance(e[1], str),
                 message)
    return entries


def per_entry_decode_input_from_json(obj: dict) -> DecodeInput:
    """The `decode` input loader that checks and builds one entry and one
    span at a time: the reference for which inputs are accepted, the
    DecodeInput built and the first error's message. The fields' shapes are
    checked first (p_cl, p_men, p_rel), then their spans' types, then, in
    the same order, empty clusters and empty or reversed spans."""
    _require(isinstance(obj, dict), "predictions must be a JSON object")
    p_cl = obj.get("p_cl", {})
    _require(isinstance(p_cl, dict),
             "field 'p_cl' must map cluster ids to lists of spans")
    for spans in p_cl.values():
        _require(isinstance(spans, list),
                 "field 'p_cl' must map cluster ids to lists of spans")
    p_men = _entries(obj, "p_men", 2, "[[begin, end], tag]")
    p_rel = _entries(obj, "p_rel", 3, "[[begin, end], type, [begin, end]]")
    clusters = {cid: tuple(_one_span(s, f"p_cl[{cid!r}]") for s in spans)
                for cid, spans in p_cl.items()}
    tagged = [(_one_span(s, "p_men"), tag) for s, tag in p_men]
    related = [(_one_span(h, "p_rel"), t, _one_span(tl, "p_rel"))
               for h, t, tl in p_rel]
    for cid, spans in clusters.items():
        _require(spans, "cluster %r has no mention spans", cid)
        for b, e in spans:
            _require(b < e, "cluster %r: bad span [%d,%d)", cid, b, e)
    for (b, e), _tag in tagged:
        _require(b < e, "tagged span [%d,%d) is empty or reversed", b, e)
    for b, e in itertools.chain.from_iterable((h, tl) for h, _t, tl in related):
        _require(b < e, "relation span [%d,%d) is empty or reversed", b, e)
    return DecodeInput(clusters, tuple(tagged), tuple(related))


# --------------------------------------------------------------------------
# Validation findings, one check at a time


def validate_findings(docs: list[Document]) -> tuple[list[dict], list[dict]]:
    """The errors and warnings of `entkit validate`, as {"doc", "code",
    "message"} records. Each check walks the whole corpus alone and tags its
    findings with where they arise: repeated document ids before every
    document, then per document its split, its sentence cover, each cluster
    (its id, its emptiness, then each mention: order or bounds, then shared
    span; then its tags) and each relation (head, tail, self, type). The
    findings, sorted by those tags, come in the order the library reports."""
    tag_vocab, relation_vocab = builtin_tag_vocabulary(), builtin_relation_vocabulary()
    errors: list[tuple[tuple, str, str, str]] = []
    warnings: list[tuple[tuple, str, str, str]] = []

    ids = [d.id for d in docs]
    for doc_id in dict.fromkeys(ids):
        if ids.count(doc_id) > 1:
            errors.append(((-1, ids.index(doc_id)), doc_id, "DUPLICATE_DOC_ID",
                           f"document id {doc_id!r} appears {ids.count(doc_id)} times"))

    for p, d in enumerate(docs):
        if d.split not in ("train", "test", "unsplit"):
            errors.append(((p, 0), d.id, "BAD_SPLIT", "split must be one of "
                           f"('train', 'test', 'unsplit'), got {d.split!r}"))

    for p, d in enumerate(docs):
        ends = [0] + [e for _, e in d.sentences]
        broken = [k for k, (b, e) in enumerate(d.sentences)
                  if b != ends[k] or e <= b]
        if broken:
            b, e = d.sentences[broken[0]]
            errors.append(((p, 1), d.id, "SENTENCE_COVERAGE", f"sentence [{b},{e}) "
                           f"breaks the contiguous cover at {ends[broken[0]]}"))
        elif ends[-1] != len(d.tokens):
            errors.append(((p, 1), d.id, "SENTENCE_COVERAGE",
                           f"sentences cover [0,{ends[-1]}) but document has "
                           f"{len(d.tokens)} tokens"))

    def clusters():
        for p, d in enumerate(docs):
            for k, c in enumerate(d.clusters):
                yield p, d, k, c

    for p, d, k, c in clusters():
        if c.id in [other.id for other in d.clusters[:k]]:
            errors.append(((p, 2, k, 0), d.id, "DUPLICATE_CLUSTER_ID",
                           f"cluster id {c.id!r} appears twice"))

    for p, d, k, c in clusters():
        if len(c.mentions) == 0:
            errors.append(((p, 2, k, 1), d.id, "EMPTY_CLUSTER",
                           f"cluster {c.id!r} has no mentions"))

    for p, d, k, c in clusters():
        for i, (b, e) in enumerate(c.mentions):
            where = (p, 2, k, 2, i, 0)
            if e <= b:
                errors.append((where, d.id, "SPAN_ORDER", f"cluster {c.id!r}: "
                               f"span [{b},{e}) is empty or reversed"))
            elif not 0 <= b < e <= len(d.tokens):
                errors.append((where, d.id, "SPAN_BOUNDS", f"cluster {c.id!r}: "
                               f"span [{b},{e}) outside [0,{len(d.tokens)})"))

    for p, d, k, c in clusters():
        for i, m in enumerate(c.mentions):
            # the last earlier cluster to claim the span, unless it has this id
            earlier = [other.id for other in d.clusters[:k] if m in other.mentions]
            if earlier and earlier[-1] != c.id:
                errors.append(((p, 2, k, 2, i, 1), d.id, "MENTION_MULTI_CLUSTER",
                               f"span [{m.begin},{m.end}) belongs to clusters "
                               f"{earlier[-1]!r} and {c.id!r}"))

    for p, d, k, c in clusters():
        for tag in sorted(c.tags):
            if tag not in tag_vocab and tag.split("::")[-1] not in tag_vocab:
                warnings.append(((p, 2, k, 3, tag), d.id, "UNKNOWN_TAG",
                                 f"cluster {c.id!r}: tag {tag!r} not in vocabulary"))

    for p, d in enumerate(docs):
        cluster_ids = {c.id for c in d.clusters}
        for r_index, r in enumerate(d.relations):
            for rank, (role, cid) in enumerate((("head", r.head), ("tail", r.tail))):
                if cid not in cluster_ids:
                    errors.append(((p, 3, r_index, rank), d.id, "DANGLING_RELATION",
                                   f"relation {role} {cid!r} is not a cluster id"))
            if r.head == r.tail:
                errors.append(((p, 3, r_index, 2), d.id, "SELF_RELATION",
                               f"relation {r.type!r} connects {r.head!r} to itself"))
            if r.type not in relation_vocab:
                warnings.append(((p, 3, r_index, 3), d.id, "UNKNOWN_RELATION_TYPE",
                                 f"relation type {r.type!r} not in vocabulary"))

    def records(findings):
        return [{"doc": doc_id, "code": code, "message": message}
                for _, doc_id, code, message in sorted(findings)]

    return records(errors), records(warnings)


# --------------------------------------------------------------------------
# Labeled-cluster metrics (NER and RE share the same shape:
# each side is a list of (instance frozenset, label set) units)


def _ratio(num, den, other_den):
    if den == 0:
        return 1.0 if other_den == 0 else 0.0
    return num / den


def _f1(p, r):
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def brute_force_levels(gold_units, pred_units):
    """All three metric levels from naive per-label enumeration.

    Units are (frozenset of instances, set of labels) pairs; a unit counts
    once per label it carries.
    """
    labels = set()
    for _instances, ls in gold_units + pred_units:
        labels |= set(ls)

    m_tp = m_fp = m_fn = 0
    h_tp = h_np = h_ng = 0
    s_tpp = s_tpg = s_np = s_ng = 0.0

    for label in sorted(labels):
        gold_clusters = [inst for inst, ls in gold_units if label in ls]
        pred_clusters = [inst for inst, ls in pred_units if label in ls]
        gold_instances = set()
        for c in gold_clusters:
            for x in c:
                gold_instances.add(x)
        pred_instances = set()
        for c in pred_clusters:
            for x in c:
                pred_instances.add(x)

        for x in pred_instances:
            if x in gold_instances:
                m_tp += 1
            else:
                m_fp += 1
        for x in gold_instances:
            if x not in pred_instances:
                m_fn += 1

        for c in pred_clusters:
            if any(c == g for g in gold_clusters):
                h_tp += 1
        h_np += len(pred_clusters)
        h_ng += len(gold_clusters)

        for c in pred_clusters:
            hits = sum(1 for x in c if x in gold_instances)
            s_tpp += hits / len(c)
        for c in gold_clusters:
            hits = sum(1 for x in c if x in pred_instances)
            s_tpg += hits / len(c)
        s_np += len(pred_clusters)
        s_ng += len(gold_clusters)

    mention_p = _ratio(m_tp, m_tp + m_fp, m_tp + m_fn)
    mention_r = _ratio(m_tp, m_tp + m_fn, m_tp + m_fp)
    hard_p = _ratio(h_tp, h_np, h_ng)
    hard_r = _ratio(h_tp, h_ng, h_np)
    soft_p = _ratio(s_tpp, s_np, s_ng)
    soft_r = _ratio(s_tpg, s_ng, s_np)
    return {
        "mention": (mention_p, mention_r, _f1(mention_p, mention_r)),
        "hard": (hard_p, hard_r, _f1(hard_p, hard_r)),
        "soft": (soft_p, soft_r, _f1(soft_p, soft_r)),
    }


def ner_units(doc):
    return [(frozenset((m.begin, m.end) for m in c.mentions), set(c.tags))
            for c in doc.clusters]


def re_units(doc):
    by_id = {c.id: c for c in doc.clusters}
    units = []
    for head, rel_type, tail in sorted({(r.head, r.type, r.tail)
                                        for r in doc.relations}):
        pairs = frozenset(((hm.begin, hm.end), (tm.begin, tm.end))
                          for hm in by_id[head].mentions
                          for tm in by_id[tail].mentions)
        units.append((pairs, {rel_type}))
    return units


# --------------------------------------------------------------------------
# Unit overlaps by instance expansion


def unit_overlaps(a: Document, b: Document, task: str):
    """`entkit.corpus.unit_overlaps` with every instance written out: each
    mention (NER) or head x tail mention pair of a related cluster pair (RE)
    is grouped under (the unit of a holding it, the unit of b holding it)."""

    def units(d: Document) -> dict:
        if task == "ner":
            return {(i,): c.tags for i, c in enumerate(d.clusters)}
        position = {c.id: i for i, c in enumerate(d.clusters)}
        out: dict = {}
        for r in d.relations:
            out.setdefault((position[r.head], position[r.tail]), set()).add(r.type)
        return {pair: frozenset(types) for pair, types in out.items()}

    def holders(d: Document, units: dict) -> dict:
        return {instance: unit for unit in units
                for instance in itertools.product(
                    *(d.clusters[i].mentions for i in unit))}

    units_a, units_b = units(a), units(b)
    held_a, held_b = holders(a, units_a), holders(b, units_b)
    blocks = Counter((held_a.get(x), held_b.get(x))
                     for x in held_a.keys() | held_b.keys())
    return units_a, units_b, blocks


# --------------------------------------------------------------------------
# Labeled-cluster metrics over materialised instance sets: the per-unit
# frozensets (every mention, every head x tail mention pair) that
# `entkit.metrics` counts instead of building


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
    by_id = {c.id: c for c in doc.clusters}
    for head_id, label, tail_id in sorted(
            {(r.head, r.type, r.tail) for r in doc.relations}):
        if head_id not in by_id or tail_id not in by_id:
            raise ValueError(f"{doc.id}: relation {label!r} references "
                             f"a missing cluster id")
        head, tail = by_id[head_id], by_id[tail_id]
        yield label, frozenset(itertools.product(head.mentions, tail.mentions))


def build_eval_view(gold: Document, pred: Document, task: str) -> EvalView:
    """Index a document pair per label; gold and pred must share the token space."""
    if gold.tokens != pred.tokens:
        raise ValueError(f"token-space mismatch between gold {gold.id!r} "
                         f"and pred {pred.id!r}")
    view = EvalView(task)
    for side, doc in (("gold_clusters", gold), ("pred_clusters", pred)):
        for label, instances in _units(doc, task):
            lv = view.labels.setdefault(label, LabelView())
            getattr(lv, side).append(instances)
    return view


def _soft_counts(lv: LabelView) -> SoftCounts:
    gold_instances = lv.gold_instances
    pred_instances = lv.pred_instances
    tp_p = math.fsum(len(c & gold_instances) / len(c) for c in lv.pred_clusters)
    tp_g = math.fsum(len(c & pred_instances) / len(c) for c in lv.gold_clusters)
    return SoftCounts(tp_p, tp_g,
                      len(lv.pred_clusters) - tp_p,
                      len(lv.gold_clusters) - tp_g)


def _label_counts(lv: LabelView, level: str) -> tuple:
    """(pred-side hits, #pred units, gold-side hits, #gold units) for one label."""
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


def _label_rows(views: list[EvalView], level: str) -> list[tuple[str, tuple]]:
    return [(label, _label_counts(lv, level))
            for v in views for label, lv in v.labels.items()]


def _micro_prf(rows: list[tuple]) -> PRFReport:
    """P/R/F1 from (pred-side hits, #pred, gold-side hits, #gold) rows, each
    column summed by `math.fsum`. A side whose denominator is 0 scores 1.0
    when the other side's is 0 too, and 0.0 otherwise."""
    hits_p, n_pred, hits_g, n_gold = (math.fsum(row[k] for row in rows)
                                      for k in range(4))
    precision = hits_p / n_pred if n_pred else 1.0 if n_gold == 0 else 0.0
    recall = hits_g / n_gold if n_gold else 1.0 if n_pred == 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PRFReport(precision, recall, f1)


def item_list_score(views: list[EvalView], level: str) -> PRFReport:
    """`entkit.metrics.score_level` over item-list views."""
    return _micro_prf([counts for _label, counts in _label_rows(views, level)])


def item_list_per_label(views: list[EvalView], level: str) -> dict[str, PRFReport]:
    """`entkit.metrics.per_label_prf` over item-list views."""
    by_label: dict[str, list[tuple]] = {}
    for label, counts in _label_rows(views, level):
        by_label.setdefault(label, []).append(counts)
    return {label: _micro_prf(by_label[label])
            for label in sorted(by_label)}


# --------------------------------------------------------------------------
# Optimal cluster alignment by exhaustive enumeration


def brute_force_ceafe(gold, pred):
    """(precision, recall, f1) by trying every one-to-one cluster alignment."""

    def phi(a, b):
        return 2 * len(a & b) / (len(a) + len(b))

    if not gold or not pred:
        return 0.0, 0.0, 0.0
    best = 0.0
    if len(gold) <= len(pred):
        for chosen in itertools.permutations(range(len(pred)), len(gold)):
            best = max(best, sum(phi(gold[i], pred[j])
                                 for i, j in enumerate(chosen)))
    else:
        for chosen in itertools.permutations(range(len(gold)), len(pred)):
            best = max(best, sum(phi(gold[i], pred[j])
                                 for j, i in enumerate(chosen)))
    p, r = best / len(pred), best / len(gold)
    return p, r, _f1(p, r)


def best_assignment_total(weights, n_cols: int) -> float:
    """The largest total of a one-to-one row-column matching, by scipy's
    solver on the dense matrix (a list of rows with `n_cols` columns)."""
    sim = np.array(weights, dtype=float).reshape(len(weights), n_cols)
    rows, cols = linear_sum_assignment(sim, maximize=True)
    return math.fsum(sim[rows, cols].tolist())


def brute_force_assignment_total(weights, n_cols: int) -> float:
    """The same by trying every one-to-one matching of the shorter side."""
    if len(weights) > n_cols:
        weights, n_cols = [list(col) for col in zip(*weights)], len(weights)
    return max(sum(row[j] for row, j in zip(weights, chosen))
               for chosen in itertools.permutations(range(n_cols), len(weights)))


# --------------------------------------------------------------------------
# Coreference scorers over mention -> cluster maps and a dense |G| x |P|
# similarity matrix


def _mention_map(partition):
    return {m: c for c in partition for m in c}


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def muc(gold, pred) -> PRFReport:
    """Link-based score: recall numerator per gold cluster is
    |cluster| - (partitions of it induced by pred, counting each missing
    mention as its own part); precision swaps the roles."""

    def side(a, b_map: dict) -> tuple[int, int]:
        num = den = 0
        for cluster in a:
            parts = {b_map[m] for m in cluster if m in b_map}
            missing = sum(1 for m in cluster if m not in b_map)
            num += len(cluster) - len(parts) - missing
            den += len(cluster) - 1
        return num, den

    r_num, r_den = side(gold, _mention_map(pred))
    p_num, p_den = side(pred, _mention_map(gold))
    return PRFReport.from_pr(_safe_div(p_num, p_den), _safe_div(r_num, r_den))


def b_cubed(gold, pred) -> PRFReport:
    def side(a, b_map: dict) -> float:
        # fsum keeps the score independent of cluster iteration order
        terms = []
        count = 0
        for cluster in a:
            for m in cluster:
                count += 1
                other = b_map.get(m)
                if other is not None:
                    terms.append(len(cluster & other) / len(cluster))
        return _safe_div(math.fsum(terms), count)

    precision = side(pred, _mention_map(gold))
    recall = side(gold, _mention_map(pred))
    return PRFReport.from_pr(precision, recall)


def _phi4(a, b) -> float:
    return 2 * len(a & b) / (len(a) + len(b))


def ceaf_e(gold, pred) -> PRFReport:
    if not gold or not pred:
        return PRFReport.from_pr(0.0, 0.0)
    sim = np.zeros((len(gold), len(pred)))
    for i, g in enumerate(gold):
        for j, p in enumerate(pred):
            sim[i, j] = _phi4(g, p)
    rows, cols = linear_sum_assignment(sim, maximize=True)
    total = math.fsum(sim[r, c] for r, c in zip(rows, cols))
    return PRFReport.from_pr(total / len(pred), total / len(gold))


# --------------------------------------------------------------------------
# Straight-line decoder


def decode_oracle(p_cl, p_men, p_rel):
    """Literal dictionary-mutating version of the entity-centric decoder."""
    clusters = {cid: list(spans) for cid, spans in p_cl.items()}
    mapping = {}
    for cid, spans in clusters.items():
        for span in spans:
            mapping[span] = cid
    d_ent = {}
    fresh = 0
    for span, tag in p_men:
        if span not in mapping:
            mapping[span] = f"gen-{fresh}"
            fresh += 1
            clusters[mapping[span]] = [span]
        if mapping[span] not in d_ent:
            d_ent[mapping[span]] = set()
        d_ent[mapping[span]].add(tag)
    d_rel = {}
    for span_h, rel_type, span_t in p_rel:
        if span_h in mapping and span_t in mapping:
            key = (mapping[span_h], mapping[span_t])
            if key not in d_rel:
                d_rel[key] = set()
            d_rel[key].add(rel_type)
    return clusters, d_ent, d_rel


# --------------------------------------------------------------------------
# Naive rule closure by full re-scan


def _unify(args, values, binding):
    out = dict(binding)
    for a, v in zip(args, values):
        if a[0].isupper():
            if a in out and out[a] != v:
                return None
            out[a] = v
        elif a != v:
            return None
    return out


def naive_closure(binary, unary, rules):
    """Least fixpoint by re-scanning every rule against every fact
    combination until nothing changes."""
    binary = set(binary)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            atom_facts = []
            for atom in rule.body:
                if len(atom.args) == 2:
                    atom_facts.append([(h, t) for h, p, t in binary
                                       if p == atom.predicate])
                else:
                    atom_facts.append([(e,) for p, e in unary
                                       if p == atom.predicate])
            for combo in itertools.product(*atom_facts):
                binding = {}
                for atom, values in zip(rule.body, combo):
                    binding = _unify(atom.args, values, binding)
                    if binding is None:
                        break
                if binding is None:
                    continue
                h, t = (binding[a] if a[0].isupper() else a
                        for a in rule.head.args)
                fact = (h, rule.head.predicate, t)
                if fact not in binary:
                    binary.add(fact)
                    changed = True
    return binary


# --------------------------------------------------------------------------
# Agreement over explicit item lists


def brute_force_kappa(items):
    """Kappa summary of an explicit list of (label a, label b) items."""
    n = len(items)
    p_o = sum(1 for a, b in items if a == b) / n
    labels = {a for a, _ in items} | {b for _, b in items}
    p_e = sum(sum(1 for a, _ in items if a == label)
              * sum(1 for _, b in items if b == label)
              for label in labels) / (n * n)
    # p_e = 1 forces one shared label on every item, hence p_o = 1
    kappa = 1.0 if p_e == 1.0 else (p_o - p_e) / (1.0 - p_e)
    return {"n_items": n, "p_o": p_o, "p_e": p_e, "kappa": kappa}


def _span(m):
    return (m.begin, m.end)


def span_tags(doc):
    return {_span(m): c.tags for c in doc.clusters for m in c.mentions}


def span_pair_types(doc):
    by_id = {c.id: c for c in doc.clusters}
    out = {}
    for r in doc.relations:
        for hm in by_id[r.head].mentions:
            for tm in by_id[r.tail].mentions:
                out.setdefault((_span(hm), _span(tm)), set()).add(r.type)
    return out


def brute_force_labelled_agreement(docs_a, docs_b, labels_of, conditioned):
    """Detection and multi-label classification kappa with every label's
    decisions written out over the whole classification-item list, joint
    negatives included. Returns None when neither annotator marked an item."""
    by_id_b = {d.id: d for d in docs_b}
    detect, class_items = [], []
    for da in sorted(docs_a, key=lambda d: d.id):
        la, lb = labels_of(da), labels_of(by_id_b[da.id])
        for key in sorted(set(la) | set(lb)):
            detect.append((key in la, key in lb))
            if conditioned and not (key in la and key in lb):
                continue
            class_items.append((set(la.get(key, ())), set(lb.get(key, ()))))
    if not detect:
        return None
    labels = sorted(set().union(*(a | b for a, b in class_items)))
    per_label = {label: [(label in a, label in b) for a, b in class_items]
                 for label in labels}
    weighted, total = 0.0, 0
    for label in labels:
        support = sum(a + b for a, b in per_label[label])
        weighted += support * brute_force_kappa(per_label[label])["kappa"]
        total += support
    return {
        "detection": brute_force_kappa(detect),
        "classification": weighted / total if labels else None,
        "per_label": {label: brute_force_kappa(per_label[label])["kappa"]
                      for label in labels},
    }


def brute_force_coref_agreement(docs_a, docs_b):
    """Same-cluster decisions for every pair of spans both annotators marked;
    None when there is no such pair."""
    by_id_b = {d.id: d for d in docs_b}
    items = []
    for da in sorted(docs_a, key=lambda d: d.id):
        cid_a = {_span(m): c.id for c in da.clusters for m in c.mentions}
        cid_b = {_span(m): c.id for c in by_id_b[da.id].clusters
                 for m in c.mentions}
        shared = sorted(set(cid_a) & set(cid_b))
        for s1, s2 in itertools.combinations(shared, 2):
            items.append((cid_a[s1] == cid_a[s2], cid_b[s1] == cid_b[s2]))
    return brute_force_kappa(items) if items else None


def brute_force_linking_agreement(docs_a, docs_b):
    """Link labels of every span both annotators marked; None when none."""

    def label(link):
        if isinstance(link, str):
            return link
        return "<nil>" if link is None else "<absent>"

    by_id_b = {d.id: d for d in docs_b}
    items = []
    for da in sorted(docs_a, key=lambda d: d.id):
        la = {_span(m): label(c.link) for c in da.clusters for m in c.mentions}
        lb = {_span(m): label(c.link) for c in by_id_b[da.id].clusters
              for m in c.mentions}
        items.extend((la[s], lb[s]) for s in sorted(set(la) & set(lb)))
    return brute_force_kappa(items) if items else None


# --------------------------------------------------------------------------
# Relation distance coverage by per-threshold counting


def naive_coverage_table(records):
    """Rows (threshold, four cdfs) counting, for every threshold, the records
    whose min/max token gap and min/max sentence distance are within it."""
    if not records:
        return []
    n = len(records)
    top = max(max(r.max_token_gap, r.max_sentence_dist) for r in records)
    return [(d,
             sum(1 for r in records if r.min_token_gap <= d) / n,
             sum(1 for r in records if r.max_token_gap <= d) / n,
             sum(1 for r in records if r.min_sentence_dist <= d) / n,
             sum(1 for r in records if r.max_sentence_dist <= d) / n)
            for d in range(top + 1)]


# --------------------------------------------------------------------------
# Entity type histogram by visiting every cluster


def per_cluster_type_histogram(docs: Iterable[Document]) -> TypeHistogram:
    """`entity_type_histogram`, counted cluster by cluster: each cluster adds
    one cluster and its mentions to each of its tags, and to each hierarchy
    node that covers any of its tags."""
    hierarchy = load_type_hierarchy()
    direct: dict[str, tuple[int, int]] = {}
    rollup: dict[str, tuple[int, int]] = {}
    total_clusters = total_mentions = 0
    for d in docs:
        for c in d.clusters:
            total_clusters += 1
            total_mentions += len(c.mentions)
            covered: set[str] = set()
            for tag in c.tags:
                clusters, mentions = direct.get(tag, (0, 0))
                direct[tag] = (clusters + 1, mentions + len(c.mentions))
                covered.update(ancestors(tag, hierarchy))
            for node in covered:
                clusters, mentions = rollup.get(node, (0, 0))
                rollup[node] = (clusters + 1, mentions + len(c.mentions))
    return TypeHistogram(direct, rollup, total_clusters, total_mentions)


def per_cluster_summary(docs: Iterable[Document]) -> dict:
    """The `summary` block of `stats`, counted from one record per cluster:
    its mention count, its tags and whether it names a link (neither NIL
    nor unannotated); the relation fields count each document's distinct
    triples."""
    docs = list(docs)
    records = [(len(c.mentions), c.tags, c.link not in (None, UNANNOTATED))
               for d in docs for c in d.clusters]
    triples = [r for d in docs for r in set(d.relations)]
    n = len(records)
    return {
        "tokens": sum(len(d.tokens) for d in docs),
        "mentions": sum(size for size, _, _ in records),
        "clusters": n,
        "entity_types": len({tag for _, tags, _ in records for tag in tags}),
        "relation_triples": len(triples),
        "relation_types": len({r.type for r in triples}),
        "linked_mentions": sum(size for size, _, linked in records if linked),
        "linked_clusters": sum(1 for _, _, linked in records if linked),
        "singleton_fraction": (sum(1 for size, _, _ in records if size == 1) / n
                               if n else 0.0),
        "mean_labels_per_entity": (sum(len(tags) for _, tags, _ in records) / n
                                   if n else 0.0),
    }


# --------------------------------------------------------------------------
# Relation histograms by looping over each document's distinct triples


def relation_histograms(docs: Iterable[Document]
                        ) -> tuple[RelationTypeHistogram, dict[int, tuple[int, int]]]:
    """`relation_type_histogram` and `multilabel_relation_histogram`, counted
    triple by triple: each distinct (head, type, tail) of a document adds one
    entity pair and its mention-pair product to its type, and each distinct
    (head, tail) adds them to the totals and to the bucket of its type count."""
    per_type: dict[str, tuple[int, int]] = {}
    buckets: dict[int, tuple[int, int]] = {}
    total_pairs = total_mention_pairs = 0
    for d in docs:
        size = {c.id: len(c.mentions) for c in d.clusters}
        types_of: dict[tuple[str, str], list[str]] = {}
        for head, rel_type, tail in set(d.relations):
            entity_pairs, mention_pairs = per_type.get(rel_type, (0, 0))
            per_type[rel_type] = (entity_pairs + 1,
                                  mention_pairs + size[head] * size[tail])
            types_of.setdefault((head, tail), []).append(rel_type)
        for (head, tail), types in types_of.items():
            product = size[head] * size[tail]
            total_pairs += 1
            total_mention_pairs += product
            bucket = min(len(types), 4)
            entity_pairs, mention_pairs = buckets.get(bucket, (0, 0))
            buckets[bucket] = (entity_pairs + 1, mention_pairs + product)
    return (RelationTypeHistogram(per_type, total_pairs, total_mention_pairs),
            buckets)


# --------------------------------------------------------------------------
# Relation distances over every cross mention pair, bisecting per pair


def _sentence_of(sentence_begins: list[int], token: int) -> int:
    return bisect_right(sentence_begins, token) - 1


def pairwise_distance_records(docs: Iterable[Document]) -> list[DistanceRecord]:
    """One record per distinct relation triple, min/max over cross mention pairs."""
    records = []
    for d in docs:
        begins = [b for b, _ in d.sentences]
        by_id = {c.id: c for c in d.clusters}
        for head_id, rel_type, tail_id in sorted(
                {(r.head, r.type, r.tail) for r in d.relations}):
            head, tail = by_id[head_id], by_id[tail_id]
            if set(head.mentions) & set(tail.mentions):
                raise ValueError(
                    f"{d.id}: relation {rel_type!r} connects clusters "
                    f"{head_id!r} and {tail_id!r} that share a mention span")
            gaps, dists = [], []
            for hm in head.mentions:
                for tm in tail.mentions:
                    gaps.append(token_gap(hm, tm))
                    dists.append(abs(_sentence_of(begins, hm.begin)
                                     - _sentence_of(begins, tm.begin)))
            records.append(DistanceRecord(
                min(gaps), max(gaps), min(dists), max(dists)))
    return records


# --------------------------------------------------------------------------
# Release conversion by scanning every token

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_SENT_FINAL = {".", "!", "?"}


def tokenize_with_offsets(text: str) -> list[tuple[str, int, int]]:
    return [(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def sentence_intervals(text: str, tokens: list[tuple[str, int, int]]
                       ) -> list[tuple[int, int]]:
    """Break after sentence-final punctuation or a newline gap; always a
    contiguous cover of the token range."""
    if not tokens:
        return []
    boundaries = []
    for i, (tok, _b, e) in enumerate(tokens):
        last = i == len(tokens) - 1
        gap = "" if last else text[e:tokens[i + 1][1]]
        if last or tok in _SENT_FINAL or "\n" in gap:
            boundaries.append(i + 1)
    intervals = []
    begin = 0
    for end in boundaries:
        if end > begin:
            intervals.append((begin, end))
            begin = end
    if begin < len(tokens):
        intervals.append((begin, len(tokens)))
    return intervals


def char_span_to_token_span(tokens: list[tuple[str, int, int]],
                            begin: int, end: int) -> Mention | None:
    first = last = None
    for i, (_t, tb, te) in enumerate(tokens):
        if te > begin and tb < end:
            if first is None:
                first = i
            last = i
    if first is None:
        return None
    return Mention(first, last + 1)


def per_entry_records(obj: dict, key: str, kinds: dict[str, type]) -> list[dict]:
    """The release entries under `key`, each checked on its own."""
    entries = obj.get(key, [])
    _require(isinstance(entries, list), "field %r must be a list", key)
    shape = ", ".join(f"{kind.__name__} {name!r}" for name, kind in kinds.items())
    for e in entries:
        _require(isinstance(e, dict) and all(type(e.get(name)) is kind
                                             for name, kind in kinds.items()),
                 "%s entries must be objects with %s", key, shape)
    return entries


def convert_annotation(obj: dict) -> tuple[Document, dict]:
    """A well-formed release file with list tags, through the token scan;
    with the fields a `ConversionReport` of this one file holds."""
    doc_id = str(obj.get("id", "unknown"))
    text = obj.get("content") or ""
    tokens = tokenize_with_offsets(text)
    counts = dict(documents=1, dropped_concepts=0, dropped_relations=0,
                  unaligned_mentions=0, notes=[] if text else [
                      f"{doc_id}: no article content; run the release's "
                      "content-fetch step first"])
    spans: dict[int, list[Mention]] = {}
    for m in obj.get("mentions", []):
        span = char_span_to_token_span(tokens, m["begin"], m["end"])
        if span is None:
            counts["unaligned_mentions"] += 1
        else:
            spans.setdefault(m["concept"], []).append(span)
    clusters = []
    for c in obj.get("concepts", []):
        if c["concept"] not in spans:
            counts["dropped_concepts"] += 1
            continue
        clusters.append(EntityCluster(f"c{c['concept']}", tuple(spans[c["concept"]]),
                                      frozenset(c.get("tags", [])),
                                      c.get("link", UNANNOTATED)))
    relations = []
    for r in obj.get("relations", []):
        if r["s"] in spans and r["o"] in spans:
            relations.append(RelationTriple(f"c{r['s']}", r["p"], f"c{r['o']}"))
        else:
            counts["dropped_relations"] += 1
    tags = obj.get("tags", [])
    split = "train" if "train" in tags else "test" if "test" in tags else "unsplit"
    doc = Document(doc_id, tuple(t for t, _b, _e in tokens),
                   tuple(Mention(*s) for s in sentence_intervals(text, tokens)),
                   tuple(clusters), tuple(relations), split)
    return doc, counts


# --------------------------------------------------------------------------
# Losses cell by cell and span by span


def logaddexp_bce_loss(scores, indicators) -> float:
    """Summed binary cross-entropy with softplus as `np.logaddexp(0, s)`."""
    s = _as_array(scores, "scores")
    i = np.asarray(indicators, dtype=float)
    if s.shape != i.shape:
        raise ValueError(f"scores {s.shape} and indicators {i.shape} differ")
    if not np.all((i == 0) | (i == 1)):
        raise ValueError("indicators must be 0 or 1")
    return float(np.sum(np.logaddexp(0.0, s) - i * s))


def einsum_relation_update(relation_scores, projection, span_vectors
                           ) -> np.ndarray:
    """Relation update vectors as two whole-array einsums: the rectified
    (i, j, type) scores contracted over i with the representations, then
    each (j, type, dim) sum weighted by the projection and summed over type."""
    rel = np.maximum(np.asarray(relation_scores, dtype=float), 0.0)
    per_type = np.einsum("ijl,id->jld", rel, np.asarray(span_vectors, dtype=float),
                         optimize=True)
    return np.einsum("jld,dl->jd", per_type, np.asarray(projection, dtype=float))


def _log_sum_exp(scores: np.ndarray) -> float:
    m = scores.max()
    return m + np.log(np.exp(scores - m).sum())


def per_span_coref_loss(augmented_coref, gold_antecedents) -> float:
    """Negative log marginal probability of the gold antecedents, with two
    reductions over each span's column."""
    scores = _as_array(augmented_coref, "coreference scores", ndim=2)
    n = scores.shape[0]
    if scores.shape != (n, n):
        raise ValueError("coreference scores must be square")
    if len(gold_antecedents) != n:
        raise ValueError(f"need one gold set per span, got {len(gold_antecedents)}")
    total = 0.0
    for j in range(n):
        gold = sorted(gold_antecedents[j])
        if not gold:
            raise ValueError(f"span {j} has an empty gold antecedent set")
        if gold[0] < 0 or gold[-1] > j:
            raise ValueError(f"span {j}: gold antecedents {gold} outside 0..{j}")
        column = scores[: j + 1, j]
        total += _log_sum_exp(column) - _log_sum_exp(column[gold])
    return float(total)


# --------------------------------------------------------------------------
# Rule grounding by scanning every fact, with duplicate suppression


def _match_atom(atom: Atom, facts: FactBase,
                subst: dict[str, str]) -> Iterator[dict[str, str]]:
    """Yield extensions of `subst` that ground `atom` against `facts`."""

    def bind(terms: tuple[str, ...], values: tuple[str, ...],
             base: dict[str, str]) -> dict[str, str] | None:
        out = dict(base)
        for term, value in zip(terms, values):
            if is_variable(term):
                if out.get(term, value) != value:
                    return None
                out[term] = value
            elif term != value:
                return None
        return out

    if atom.is_binary:
        for h, p, t in facts.binary:
            if p != atom.predicate:
                continue
            ext = bind(atom.args, (h, t), subst)
            if ext is not None:
                yield ext
    else:
        for p, e in facts.unary:
            if p != atom.predicate:
                continue
            ext = bind(atom.args, (e,), subst)
            if ext is not None:
                yield ext


def iter_groundings(facts: FactBase, rules: Iterable[Rule]
                    ) -> Iterator[tuple[Rule, dict[str, str], tuple[str, str, str]]]:
    """Every satisfied rule body, with its substitution and grounded head.
    Duplicate (rule, substitution) firings are suppressed."""
    for rule in rules:
        seen: set[tuple] = set()
        for s1 in _match_atom(rule.body[0], facts, {}):
            if len(rule.body) == 1:
                candidates = [s1]
            else:
                candidates = _match_atom(rule.body[1], facts, s1)
            for subst in candidates:
                key = tuple(sorted(subst.items()))
                if key in seen:
                    continue
                seen.add(key)
                yield rule, subst, _ground_head(rule.head, subst)
