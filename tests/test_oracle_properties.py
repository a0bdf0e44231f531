"""Count-based scorers against the brute-force oracles.

The library computes kappa from contingency counts, coverage from sorted
columns, the coreference scores from one cluster-overlap table, the unit
overlaps from products of its cells, the metric levels from per-label count
rows and sentence distances from each related cluster's sentence indices,
looked up once; the oracles in `oracles.py` write every item out, count
every threshold, map every mention, fill the dense similarity matrix,
expand every unit into its instances, build every instance set and look up
both sentences of every mention pair. Kappa, coverage, the
coreference scores, the unit overlaps, the metric levels and the distance
records must give the same values exactly, not approximately, and the metric
levels must not change when clusters, relations or documents come in another
order. The coreference report over one overlap table per document pair must
equal the scores of the (doc id, begin, end) partition of each corpus.
Release alignment bisects and rule grounding reads a fact index, where the
oracles scan every token and every fact; both must give the same answers. The
corpus loader checks each field of a document's clusters and relations in
bulk, where the oracle checks one item at a time; both must accept the same
documents, build the same Document and give the same first schema error.
The release converter checks each field of a file's entries in bulk too,
and must accept and refuse the entries the per-entry check does. The
relation histograms read each document's (head, tail) -> types table, where
the oracle loops over its distinct triples; both must count alike. Every
per-label count field of the eval view must equal the one derived from the
oracle's instance sets, and the entity-type histogram, which expands each
distinct tag set once, must equal a loop over every cluster.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entkit.agreement import (AnnotationPair, cohen_kappa, coref_agreement,
                              entity_agreement, expected_agreement,
                              linking_agreement, observed_agreement,
                              relation_agreement)
from entkit import coref, dwie, rules
from entkit.corpus import (UNANNOTATED, cluster_overlaps, document_from_json,
                           unit_overlaps)
from entkit.decoder import decode_input_from_json
from entkit.metrics import (LEVELS, LabelCounts, build_eval_view, per_label_prf,
                            score_level, soft_entity_counts)
from entkit.stats import (DistanceProfile, DistanceRecord, entity_type_histogram,
                          multilabel_relation_histogram,
                          relation_distance_profile, relation_type_histogram)
import oracles
from conftest import make_doc
from oracles import (brute_force_ceafe, brute_force_coref_agreement,
                     brute_force_kappa, brute_force_labelled_agreement,
                     brute_force_levels, brute_force_linking_agreement,
                     naive_coverage_table, ner_units, re_units,
                     span_pair_types, span_tags)
from test_metrics import TOL

SPAN_POOL = [(b, b + w) for b in range(9) for w in (1, 2)]
SENTENCES = ((0, 4), (4, 7), (7, 10))


@st.composite
def documents(draw, doc_id, tags=("L1", "L2", "L3")):
    """A 10-token, 3-sentence document whose spans come from a small shared
    pool, so two independent draws overlap, split and merge clusters; each
    cluster carries a set of `tags`."""
    spans = draw(st.lists(st.sampled_from(SPAN_POOL), unique=True, max_size=8))
    owners = [draw(st.integers(0, 3)) for _ in spans]
    clusters = []
    for k in sorted(set(owners)):
        clusters.append((
            f"c{k}", [s for s, o in zip(spans, owners) if o == k],
            draw(st.sets(st.sampled_from(tags))),
            draw(st.sampled_from([UNANNOTATED, None, "K1", "K2"]))))
    relations = []
    if len(clusters) >= 2:
        ids = [c[0] for c in clusters]
        for head, tail, rel_type in draw(st.lists(st.tuples(
                st.sampled_from(ids), st.sampled_from(ids),
                st.sampled_from(["R1", "R2"])), max_size=5)):
            if head != tail and (head, rel_type, tail) not in relations:
                relations.append((head, rel_type, tail))
    return make_doc(doc_id, n_tokens=10, sentences=SENTENCES,
                    clusters=clusters, relations=relations)


@st.composite
def corpus_pairs(draw, tags=("L1", "L2", "L3")):
    ids = [f"d{i}" for i in range(draw(st.integers(1, 3)))]
    return ([draw(documents(i, tags)) for i in ids],
            [draw(documents(i, tags)) for i in ids])


def _check(adapter, expected, *args, **kwargs):
    if expected is None:
        with pytest.raises(ValueError):
            adapter(*args, **kwargs)
    else:
        assert adapter(*args, **kwargs) == expected


@settings(max_examples=150, deadline=None)
@given(corpus_pairs(), st.booleans())
def test_adapters_equal_item_list_oracles(pair, conditioned):
    a, b = pair
    _check(entity_agreement,
           brute_force_labelled_agreement(a, b, span_tags, conditioned),
           a, b, conditioned=conditioned)
    _check(relation_agreement,
           brute_force_labelled_agreement(a, b, span_pair_types, conditioned),
           a, b, conditioned=conditioned)
    _check(coref_agreement, brute_force_coref_agreement(a, b), a, b)
    _check(linking_agreement, brute_force_linking_agreement(a, b), a, b)
    records = relation_distance_profile(a).records
    assert DistanceProfile(records).coverage_table() \
        == naive_coverage_table(records)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")),
                min_size=1, max_size=20))
def test_pair_from_items_or_counts_equals_oracle(items):
    expected = brute_force_kappa(items)
    for p in (AnnotationPair(tuple(items)), AnnotationPair(Counter(items))):
        assert {"n_items": len(p), "p_o": observed_agreement(p),
                "p_e": expected_agreement(p), "kappa": cohen_kappa(p)} \
            == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(DistanceRecord, *[st.integers(0, 6)] * 4),
                max_size=12))
@example([])
@example([DistanceRecord(0, 0, 0, 0)] * 3)
def test_coverage_table_equals_per_threshold_counts(records):
    assert DistanceProfile(records).coverage_table() \
        == naive_coverage_table(records)


@st.composite
def partitions(draw, pool):
    """Up to five clusters over a subset of `pool`, in any order."""
    mentions = draw(st.lists(st.sampled_from(pool), unique=True))
    owners = draw(st.lists(st.integers(0, 4), min_size=len(mentions),
                           max_size=len(mentions)))
    return coref.make_partition(
        [m for m, o in zip(mentions, owners) if o == k]
        for k in draw(st.permutations(sorted(set(owners)))))


@st.composite
def partition_pairs(draw):
    """Gold over mentions 0-9; pred over the same, an overlapping or a
    disjoint mention universe."""
    shift = draw(st.sampled_from([0, 5, 10]))
    return (draw(partitions(list(range(10)))),
            draw(partitions(list(range(shift, shift + 10)))))


SINGLETONS = coref.make_partition([m] for m in range(4))


@settings(max_examples=300, deadline=None)
@given(partition_pairs())
@example(((), ()))
@example((SINGLETONS, ()))
@example(((), SINGLETONS))
@example((SINGLETONS, SINGLETONS))
@example((SINGLETONS, coref.make_partition([m] for m in range(2, 6))))
@example((SINGLETONS, coref.make_partition([m] for m in range(10, 14))))
@example((coref.make_partition([range(4)]), SINGLETONS))
def test_coref_scorers_equal_dense_references(pair):
    gold, pred = pair
    for name in ("muc", "b_cubed", "ceaf_e"):
        assert getattr(coref, name)(gold, pred) \
            == getattr(oracles, name)(gold, pred), name
    got = coref.ceaf_e(gold, pred)
    for value, expected in zip((got.precision, got.recall, got.f1),
                               brute_force_ceafe(gold, pred)):
        assert abs(value - expected) < TOL


@st.composite
def weight_matrices(draw):
    """A non-negative matrix of any shape up to 8 x 8, as a list of rows and
    its column count; zeros and repeated values are drawn often."""
    n_rows, n_cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    value = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2 / 3]) | st.floats(0, 4)
    return [[draw(value) for _ in range(n_cols)] for _ in range(n_rows)], n_cols


@settings(max_examples=300, deadline=None)
@given(weight_matrices())
@example(([], 0))
@example(([], 3))
@example(([[], [], []], 0))
@example(([[0.0, 2.0, 2.0, 1.0]], 4))
@example(([[1.0], [3.0], [3.0]], 1))
@example(([[0.0] * 5] * 5, 5))
@example(([[1.0] * 4] * 6, 4))
def test_max_weight_assignment_equals_scipy(matrix):
    weights, n_cols = matrix
    pairs = coref._max_weight_assignment(weights)
    assert len(pairs) == min(len(weights), n_cols)
    assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
    assert all(0 <= i < len(weights) and 0 <= j < n_cols for i, j in pairs)
    total = math.fsum(weights[i][j] for i, j in pairs)
    assert abs(total - oracles.best_assignment_total(weights, n_cols)) < TOL

def _one_label(units, label, doc_id):
    """The units that carry `label`, with instances scoped by document."""
    return [(frozenset((doc_id, x) for x in instances), {label})
            for instances, labels in units if label in labels]


@settings(max_examples=150, deadline=None)
@given(corpus_pairs(), st.sampled_from(["ner", "re"]))
def test_per_label_equals_brute_force_on_one_label(pair, task):
    golds, preds = pair
    views = [build_eval_view(g, p, task) for g, p in zip(golds, preds)]
    units_of = ner_units if task == "ner" else re_units
    for level in LEVELS:
        table = per_label_prf(views, level)
        assert set(table) == {label for v in views for label in v.labels}
        for label, report in table.items():
            gold_units, pred_units = [], []
            for g, p in zip(golds, preds):
                gold_units += _one_label(units_of(g), label, g.id)
                pred_units += _one_label(units_of(p), label, p.id)
            expected = brute_force_levels(gold_units, pred_units)[level]
            got = (report.precision, report.recall, report.f1)
            assert all(abs(a - b) < TOL for a, b in zip(got, expected)), \
                (level, label)


# Duplicate cluster ids that share no span, and a relation from a cluster to
# itself: the counted view must follow the item lists there too. A relation
# may not name an id two clusters carry, so for RE the first of the two
# clusters is renamed, which leaves every relation on the cluster it names.
ODD_GOLD = make_doc("d0", n_tokens=10, sentences=SENTENCES, clusters=[
    ("c0", [(0, 1), (2, 4)], ["L1"]), ("c0", [(5, 6)], ["L1", "L2"]),
    ("c1", [(7, 9)], ["L2"])],
    relations=[("c0", "R1", "c0"), ("c0", "R1", "c1"), ("c1", "R2", "c0")])
ODD_GOLD_RE = make_doc("d0", n_tokens=10, sentences=SENTENCES, clusters=[
    ("c3", [(0, 1), (2, 4)], ["L1"]), ("c0", [(5, 6)], ["L1", "L2"]),
    ("c1", [(7, 9)], ["L2"])],
    relations=[("c0", "R1", "c0"), ("c0", "R1", "c1"), ("c1", "R2", "c0")])
ODD_PRED = make_doc("d0", n_tokens=10, sentences=SENTENCES, clusters=[
    ("c0", [(5, 6), (7, 9)], ["L1"]), ("c1", [(0, 1)], ["L2"]),
    ("c2", [(2, 4)], ["L1"])],
    relations=[("c0", "R1", "c0"), ("c1", "R1", "c0"), ("c2", "R2", "c1")])


@settings(max_examples=200, deadline=None)
@given(corpus_pairs(), st.sampled_from(["ner", "re"]))
@example(([], []), "ner")
@example(([], []), "re")
@example(([make_doc("d0", n_tokens=10)], [make_doc("d0", n_tokens=10)]), "re")
@example(([ODD_GOLD], [ODD_PRED]), "ner")
@example(([ODD_GOLD_RE], [ODD_PRED]), "re")
def test_levels_equal_item_list_oracle_exactly(pair, task):
    golds, preds = pair
    views = [build_eval_view(g, p, task) for g, p in zip(golds, preds)]
    item_views = [oracles.build_eval_view(g, p, task)
                  for g, p in zip(golds, preds)]
    for level in LEVELS:
        assert score_level(views, level) \
            == oracles.item_list_score(item_views, level), level
        assert per_label_prf(views, level) \
            == oracles.item_list_per_label(item_views, level), level


def _shuffled(doc, rng):
    """`doc` with its clusters and its relations in a random order."""
    clusters, relations = list(doc.clusters), list(doc.relations)
    rng.shuffle(clusters)
    rng.shuffle(relations)
    return doc._replace(clusters=tuple(clusters), relations=tuple(relations))


# Soft credits 1, 1 and 1/3 of one label: 1 + 1 + 1/3 and 1/3 + 1 + 1 are
# different floats when added left to right.
THIRDS_GOLD = make_doc("d0", n_tokens=10, sentences=SENTENCES, clusters=[
    ("c0", [(0, 1), (2, 3), (4, 5)], ["L1"])])
THIRDS_PRED = make_doc("d0", n_tokens=10, sentences=SENTENCES, clusters=[
    ("c0", [(0, 1)], ["L1"]), ("c1", [(2, 3)], ["L1"]),
    ("c2", [(4, 5), (5, 6), (6, 7)], ["L1"])])


@settings(max_examples=200, deadline=None)
@given(corpus_pairs(), st.sampled_from(["ner", "re"]),
       st.randoms(use_true_random=False))
@example(([THIRDS_GOLD], [THIRDS_PRED]), "ner", random.Random(0))
def test_scores_ignore_cluster_relation_and_document_order(pair, task, rng):
    views = [build_eval_view(g, p, task) for g, p in zip(*pair)]
    shuffled = [build_eval_view(_shuffled(g, rng), _shuffled(p, rng), task)
                for g, p in zip(*pair)]
    rng.shuffle(shuffled)
    for level in LEVELS:
        assert score_level(shuffled, level) == score_level(views, level), level
        assert per_label_prf(shuffled, level) == per_label_prf(views, level), level


# A pair whose related cluster pairs differ, including pairs only one side
# relates and spans only one side marks.
ONE_SIDED_A = make_doc("d0", n_tokens=10, sentences=SENTENCES, clusters=[
    ("c0", [(0, 1), (2, 3)], ["L1"]), ("c1", [(4, 5)], ["L2"]),
    ("c2", [(8, 9)], [])],
    relations=[("c0", "R1", "c1"), ("c2", "R2", "c0"), ("c2", "R1", "c0")])
ONE_SIDED_B = make_doc("d0", n_tokens=10, sentences=SENTENCES, clusters=[
    ("c0", [(0, 1)], ["L1"]), ("c1", [(2, 3), (4, 5)], ["L2", "L3"]),
    ("c3", [(6, 7)], ["L3"])],
    relations=[("c1", "R1", "c0"), ("c3", "R2", "c1"), ("c0", "R1", "c1")])
EMPTY_DOC = make_doc("d0", n_tokens=10, sentences=SENTENCES)
# Pred relations that gold relations cover only in part: c0 -> c1 has a
# pair in a gold relation, a pair gold marks but does not relate and a pair
# with a span gold does not mark; the self-relation c0 -> c0 is covered in
# part; the head of c2 -> c1 is a span gold does not mark.
PARTLY_GOLD = make_doc("d0", n_tokens=10, sentences=SENTENCES, clusters=[
    ("c0", [(0, 1)], ["L1"]), ("c1", [(4, 5)], ["L2"]), ("c2", [(6, 7)], [])],
    relations=[("c0", "R1", "c1"), ("c0", "R1", "c0")])
PARTLY_PRED = make_doc("d0", n_tokens=10, sentences=SENTENCES, clusters=[
    ("c0", [(0, 1), (2, 3), (6, 7)], ["L1"]), ("c1", [(4, 5)], ["L2"]),
    ("c2", [(8, 9)], [])],
    relations=[("c0", "R1", "c1"), ("c0", "R1", "c0"), ("c2", "R2", "c1")])


@settings(max_examples=200, deadline=None)
@given(corpus_pairs(), st.sampled_from(["ner", "re"]))
@example(([ODD_GOLD_RE], [ODD_PRED]), "re")
@example(([ODD_PRED], [ODD_GOLD_RE]), "re")
@example(([ONE_SIDED_A], [ONE_SIDED_B]), "ner")
@example(([ONE_SIDED_A], [ONE_SIDED_B]), "re")
@example(([ONE_SIDED_A], [EMPTY_DOC]), "re")
@example(([EMPTY_DOC], [ONE_SIDED_B]), "ner")
@example(([EMPTY_DOC], [EMPTY_DOC]), "ner")
@example(([EMPTY_DOC], [EMPTY_DOC]), "re")
@example(([PARTLY_GOLD], [PARTLY_PRED]), "re")
@example(([PARTLY_PRED], [PARTLY_GOLD]), "re")
def test_unit_overlaps_equals_instance_expansion(pair, task):
    for a, b in zip(*pair):
        assert unit_overlaps(a, b, task) == oracles.unit_overlaps(a, b, task)


@settings(max_examples=200, deadline=None)
@given(corpus_pairs(), st.randoms(use_true_random=False))
@example(([ONE_SIDED_A], [ONE_SIDED_B]), random.Random(0))
@example(([ONE_SIDED_A, THIRDS_GOLD._replace(id="d1")],
          [ONE_SIDED_B, THIRDS_PRED._replace(id="d1")]), random.Random(0))
@example(([ONE_SIDED_A], [EMPTY_DOC]), random.Random(0))
@example(([EMPTY_DOC], [EMPTY_DOC]), random.Random(0))
def test_coref_report_over_tables_equals_corpus_partition_scores(pair, rng):
    """One `cluster_overlaps` table per document pair scores like the
    (doc id, begin, end) partition of each whole corpus, whatever the order
    of the tables."""
    golds, preds = pair
    gold, pred = coref.corpus_partition(golds), coref.corpus_partition(preds)
    reports = {"muc": coref.muc(gold, pred), "b3": coref.b_cubed(gold, pred),
               "ceafe": coref.ceaf_e(gold, pred)}
    want = {name: r.to_json() for name, r in reports.items()}
    want["avg_f1"] = sum(r.f1 for r in reports.values()) / 3.0
    tables = [cluster_overlaps(g, p) for g, p in zip(golds, preds)]
    assert coref.coref_report(iter(tables)) == want
    assert coref.coref_report(rng.sample(tables, len(tables))) == want


def _label_counts_oracle(lv: oracles.LabelView) -> LabelCounts:
    """One label's `LabelCounts` from its item lists: instance-set sizes and
    their intersection, the predicted units equal to a gold unit, the unit
    counts and the soft credits of `oracles._soft_counts`."""
    gold_sets = set(lv.gold_clusters)
    soft = oracles._soft_counts(lv)
    return LabelCounts(
        shared=len(lv.pred_instances & lv.gold_instances),
        pred_instances=len(lv.pred_instances),
        gold_instances=len(lv.gold_instances),
        matched=sum(c in gold_sets for c in lv.pred_clusters),
        pred_units=len(lv.pred_clusters), gold_units=len(lv.gold_clusters),
        soft_pred=soft.tp_p, soft_gold=soft.tp_g)


@settings(max_examples=200, deadline=None)
@given(corpus_pairs(), st.sampled_from(["ner", "re"]))
@example(([ODD_GOLD], [ODD_PRED]), "ner")
@example(([ODD_GOLD_RE], [ODD_PRED]), "re")
@example(([THIRDS_GOLD], [THIRDS_PRED]), "ner")
@example(([ONE_SIDED_A], [ONE_SIDED_B]), "ner")
@example(([ONE_SIDED_A], [ONE_SIDED_B]), "re")
@example(([ONE_SIDED_A], [EMPTY_DOC]), "re")
@example(([EMPTY_DOC], [ONE_SIDED_B]), "ner")
def test_eval_view_fields_equal_label_view_oracle(pair, task):
    for g, p in zip(*pair):
        view = build_eval_view(g, p, task)
        item_view = oracles.build_eval_view(g, p, task)
        assert view.labels == {label: _label_counts_oracle(lv)
                               for label, lv in item_view.labels.items()}
        for label, lv in item_view.labels.items():
            assert soft_entity_counts(view, label) == oracles._soft_counts(lv), label


@st.composite
def distance_documents(draw):
    """A 10-token document whose clusters hold arbitrary spans: overlapping,
    nested, empty, reversed or out of range, over any sentence split."""
    bound = st.integers(-2, 12)
    spans = draw(st.lists(st.tuples(bound, bound), unique=True, max_size=10))
    owners = [draw(st.integers(0, 3)) for _ in spans]
    ids = [f"c{k}" for k in sorted(set(owners))]
    cuts = sorted(draw(st.sets(st.integers(1, 9))))
    relations = draw(st.lists(st.tuples(
        st.sampled_from(ids), st.sampled_from(["R1", "R2"]),
        st.sampled_from(ids)), max_size=6)) if ids else []
    return make_doc(
        "d", n_tokens=10, sentences=list(zip([0] + cuts, cuts + [10])),
        clusters=[(f"c{k}", [s for s, o in zip(spans, owners) if o == k], [])
                  for k in sorted(set(owners))],
        relations=relations)


@settings(max_examples=300, deadline=None)
@given(distance_documents())
@example(make_doc("d", n_tokens=10, sentences=[(0, 3), (3, 10)], clusters=[
    ("c0", [(0, 9), (4, 5)], []), ("c1", [(2, 6), (3, 4), (8, 8)], [])],
    relations=[("c0", "R1", "c1"), ("c1", "R1", "c0")]))
@example(make_doc("d", n_tokens=10, clusters=[
    ("c0", [(6, 2)], []), ("c1", [(3, 4), (0, 1)], [])],
    relations=[("c0", "R1", "c1")]))
# a pair with two types and a pair whose one triple sorts between them
@example(make_doc("d", n_tokens=10, sentences=[(0, 3), (3, 10)], clusters=[
    ("c0", [(0, 1)], []), ("c1", [(2, 3)], []), ("c2", [(8, 9)], [])],
    relations=[("c0", "R3", "c2"), ("c0", "R2", "c1"), ("c0", "R1", "c2")]))
# a pair with two types sharing a span: the error names the first triple's type
@example(make_doc("d", n_tokens=10, clusters=[
    ("c0", [(0, 1), (4, 5)], []), ("c1", [(4, 5)], [])],
    relations=[("c0", "R2", "c1"), ("c0", "R1", "c1"), ("c1", "R1", "c0")]))
def test_distance_records_equal_pairwise_oracle(doc):
    try:
        expected = oracles.pairwise_distance_records([doc])
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            relation_distance_profile([doc])
        assert str(raised.value) == str(error)
        return
    assert relation_distance_profile([doc]).records == expected


@st.composite
def related_documents(draw, doc_id):
    """A document of one to four clusters of one to three mentions whose
    relations repeat triples and give pairs up to five types."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    ids = [f"c{i}" for i in range(len(sizes))]
    triples = draw(st.lists(st.tuples(
        st.sampled_from(ids), st.sampled_from(["R1", "R2", "R3", "R4", "R5"]),
        st.sampled_from(ids)), max_size=12))
    repeats = draw(st.lists(st.sampled_from(triples), max_size=4)) if triples else []
    return make_doc(doc_id, n_tokens=12, clusters=[
        (cid, [(3 * i + k, 3 * i + k + 1) for k in range(n)], [])
        for i, (cid, n) in enumerate(zip(ids, sizes))],
        relations=triples + repeats)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["d0", "d1"]).flatmap(related_documents),
                max_size=3))
@example([make_doc("d0", n_tokens=12, clusters=[
    ("c0", [(0, 1)], []), ("c1", [(3, 4), (4, 5)], [])],
    relations=[("c0", "R1", "c1"), ("c0", "R1", "c1"), ("c0", "R2", "c1"),
               ("c1", "R1", "c0")] + [("c1", f"R{k}", "c0") for k in range(2, 6)])])
def test_relation_histograms_equal_distinct_triple_oracle(docs):
    assert (relation_type_histogram(docs), multilabel_relation_histogram(docs)) \
        == oracles.relation_histograms(docs)


# Several tags per cluster: siblings and a chain in the type hierarchy,
# `category::value` tags and a tag outside it.
TYPE_TAGS = ("gpe0", "gpe2", "person", "politician", "head_of_state",
             "type::gpe0", "topic::sport", "L1")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["d0", "d1"]).flatmap(
    lambda doc_id: documents(doc_id, TYPE_TAGS)), max_size=3))
@example([])
@example([make_doc("d0", clusters=[
    ("c0", [(0, 1), (2, 3)], ["gpe0", "gpe2", "type::gpe0"]),
    ("c1", [(4, 5)], ["head_of_state", "person"]), ("c2", [(6, 7)], []),
    ("c3", [(8, 9)], ["gpe2", "gpe0", "type::gpe0"])])])
def test_entity_type_histogram_equals_per_cluster_oracle(docs):
    assert entity_type_histogram(docs) == oracles.per_cluster_type_histogram(docs)


# --------------------------------------------------------------------------
# Release conversion: regex split and bisection against the token scan

PIECES = ["Anna", "Köln", "x", "42", "naïve", "€", ".", "!", "?", ",", "-",
          "(", "_", "e\u0301", "\u0663", " ", "  ", "\u00a0", "\u2028", "\n",
          "\n\n", "\r\n", "\t"]


@st.composite
def texts_and_spans(draw):
    """Texts of words, punctuation, spaces, newlines and non-ASCII
    characters, with character spans that may be reversed, empty, negative
    or past the end."""
    text = "".join(draw(st.lists(st.sampled_from(PIECES), max_size=25)))
    offsets = st.integers(-3, len(text) + 3)
    return text, draw(st.lists(st.tuples(offsets, offsets), max_size=10))


@settings(max_examples=300, deadline=None)
@given(texts_and_spans())
@example(("", [(0, 0), (-1, 1)]))
@example(("One two. Three!", [(0, 15), (5, 2), (7, 7), (-2, 3), (14, 18)]))
@example(("\nA_b e\u0301 \u0663\u00a0\u20ac...\r\nC!?\u2028d\n", [(0, 3), (5, 7)]))
def test_alignment_equals_token_scan(case):
    text, spans = case
    # the whole conversion pins the tokens, the sentence breaks, every
    # snapped span and the unaligned count; concept 3 has no mention, and a
    # relation to it is dropped with it
    release = {
        "id": "D", "content": text, "tags": ["test"],
        "mentions": [{"begin": b, "end": e, "concept": i % 3}
                     for i, (b, e) in enumerate(spans)],
        "concepts": [{"concept": 0, "tags": ["person"], "link": "P"},
                     {"concept": 1, "link": None}, {"concept": 2, "tags": []},
                     {"concept": 3}],
        "relations": [{"s": 0, "p": "r", "o": 1}, {"s": 2, "p": "r", "o": 3}]}
    report = dwie.ConversionReport()
    doc = dwie.convert_annotation(release, report)
    want, counts = oracles.convert_annotation(release)
    assert doc == want
    assert {k: getattr(report, k) for k in counts} == counts


RELEASE_FIELD = st.one_of(st.integers(-2, 3), st.booleans(), st.none(),
                          st.sampled_from(["r", 1.0]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.one_of(
           st.dictionaries(st.sampled_from(["s", "p", "o", "x"]), RELEASE_FIELD,
                           max_size=4),
           RELEASE_FIELD), max_size=4), RELEASE_FIELD))
def test_release_records_checked_in_bulk_like_each_entry(entries):
    obj = {"relations": entries}
    kinds = {"s": int, "p": str, "o": int}

    def outcome(records):
        try:
            return records(obj, "relations", kinds)
        except ValueError as e:
            return str(e)

    assert outcome(dwie._records) == outcome(oracles.per_entry_records)


# --------------------------------------------------------------------------
# Rule grounding: fact index against the fact scan

ENTITIES = ["a", "b", "c"]
RELATION_TYPES = ["r", "s", "gpe0"]     # "gpe0" is also a tag
TAGS = ["gpe0", "t"]
TERMS = ["X", "Y", "Z", "a", "b"]       # variables and constants


@st.composite
def rule_lists(draw):
    out = []
    for i in range(draw(st.integers(1, 4))):
        body = []
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.booleans()):
                body.append(rules.Atom(draw(st.sampled_from(RELATION_TYPES)),
                                       (draw(st.sampled_from(TERMS)),
                                        draw(st.sampled_from(TERMS)))))
            else:
                body.append(rules.Atom(draw(st.sampled_from(TAGS)),
                                       (draw(st.sampled_from(TERMS)),)))
        bound = sorted({t for a in body for t in a.args
                        if rules.is_variable(t)}) + ["a", "b"]
        head = rules.Atom(draw(st.sampled_from(RELATION_TYPES)),
                          (draw(st.sampled_from(bound)),
                           draw(st.sampled_from(bound))))
        out.append(rules.Rule(f"R{i}", tuple(body), head))
    return out


FACT_BASES = st.builds(
    rules.FactBase,
    st.sets(st.tuples(st.sampled_from(ENTITIES), st.sampled_from(RELATION_TYPES),
                      st.sampled_from(ENTITIES)), max_size=10),
    st.sets(st.tuples(st.sampled_from(TAGS), st.sampled_from(ENTITIES)),
            max_size=5))


def _firings(groundings):
    return Counter((rule.id, tuple(sorted(subst.items())), head)
                   for rule, subst, head in groundings)


TAG_AND_RELATION = [rules.parse_rule("R0: gpe0(X, X) & gpe0(X) => r(X, a)"),
                    rules.parse_rule("R1: gpe0(X, Y) & t(b) => gpe0(Y, X)")]


@settings(max_examples=300, deadline=None)
@given(FACT_BASES, rule_lists())
@example(rules.FactBase({("a", "gpe0", "a"), ("a", "gpe0", "b")},
                        {("gpe0", "a"), ("t", "b")}), TAG_AND_RELATION)
@example(rules.FactBase(), TAG_AND_RELATION)
def test_groundings_equal_fact_scan(facts, rule_list):
    got = list(rules.iter_groundings(facts, rule_list))
    assert _firings(got) == _firings(oracles.iter_groundings(facts, rule_list))
    # the order depends on the facts, not on how their sets were built
    rebuilt = rules.FactBase(set(sorted(facts.binary, reverse=True)),
                             set(sorted(facts.unary, reverse=True)))
    assert list(rules.iter_groundings(rebuilt, rule_list)) == got


@settings(max_examples=300, deadline=None)
@given(FACT_BASES, rule_lists())
@example(rules.FactBase({("a", "gpe0", "a"), ("a", "gpe0", "b")},
                        {("gpe0", "a"), ("t", "b")}), TAG_AND_RELATION)
@example(rules.FactBase({("a", "r", "b"), ("b", "r", "c")}),
         [rules.parse_rule("R0: r(X, Y) & r(Y, Z) => r(X, Z)"),
          rules.parse_rule("R1: s(X, Y) => r(Y, X)")])
def test_one_grounding_pass_equals_oracles(facts, rule_list):
    firings, violations = rules.ground(facts, rule_list)
    oracle = list(oracles.iter_groundings(facts, rule_list))
    assert firings == len(oracle)
    assert Counter((v.rule_id, v.substitution, v.head) for v in violations) \
        == _firings(g for g in oracle if g[2] not in facts.binary)
    expected = oracles.naive_closure(facts.binary, facts.unary, rule_list)
    assert rules.closure(facts, rule_list).binary == expected
    delta = {v.head for v in violations}
    assert rules.closure(facts, rule_list, delta).binary == expected


# --------------------------------------------------------------------------
# Corpus loading


class DictSub(dict):
    pass


class StrSub(str):
    pass


# arbitrary JSON, plus the replacements a schema check must catch: booleans
# and floats as span bounds, 1- and 3-element spans, non-lists and non-strings
ODD_VALUES = st.sampled_from([True, False, 1.0, 0.5, -1, [0], [0, 1, 2], [True, 1],
                              "x", None, {}, [], [[0, 1]], ["a"]])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(-2, 8) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "mentions", "tags", "link", "head", "type", "tail"]),
        inner, max_size=3),
    max_leaves=5)


@st.composite
def well_formed_documents(draw):
    n_clusters = draw(st.integers(0, 4))
    clusters = []
    for k in range(n_clusters):
        cluster = {"id": f"c{k}",
                   "mentions": [[b, b + 1] for b in draw(st.sets(st.integers(0, 5), max_size=3))],
                   "tags": sorted(draw(st.sets(st.sampled_from(["L1", "L2"]))))}
        link = draw(st.sampled_from([UNANNOTATED, None, "K1"]))
        if link is not UNANNOTATED:
            cluster["link"] = link
        clusters.append(cluster)
    ids = [c["id"] for c in clusters] or ["c0"]
    relations = [{"head": h, "type": t, "tail": tl} for h, t, tl in draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(["R1", "R2"]),
                  st.sampled_from(ids)), max_size=3))]
    return {"id": "d", "split": "train", "tokens": list("abcdef"),
            "sentences": [[0, 3], [3, 6]], "clusters": clusters,
            "relations": relations}


def _paths(value, path=()):
    """Every position inside a decoded JSON value, the value itself first."""
    yield path
    children = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


DROP = object()  # marker: remove the item instead of replacing it


def _replace(value, path, new):
    """A copy of `value` with the item at `path` replaced by `new`, or
    removed from its object or list when `new` is DROP."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    out = type(value)(value) if isinstance(value, dict) else list(value)
    if rest or new is not DROP:
        out[key] = _replace(value[key], rest, new)
    else:
        del out[key]
    return out


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def mutated_documents(draw):
    """A well-formed document with up to three items replaced by arbitrary
    JSON, dropped from their object, or wrapped in a dict or str subclass."""
    doc = draw(well_formed_documents())
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if draw(st.integers(0, 3)):  # mostly inside the clusters and relations
            paths = [p for p in paths if p[:1] in (("clusters",), ("relations",))] or paths
        doc = _mutated(draw, doc, draw(st.sampled_from(paths)))
    return doc


def _mutated(draw, value, path):
    """`value` with the item at `path` replaced by arbitrary JSON, dropped
    from its object or list, or wrapped in a dict or str subclass."""
    old = _at(value, path)
    options = [ODD_VALUES, JSON_VALUES, st.just(DROP)]
    if isinstance(old, dict):
        options.append(st.just(DictSub(old)))
    if isinstance(old, str):
        options.append(st.just(StrSub(old)))
    return _replace(value, path, draw(st.one_of(options)))


@settings(max_examples=600, deadline=None)
@given(mutated_documents())
@example({"id": "d", "tokens": ["a", "b"], "sentences": [[0, 2]],
          "clusters": [{"id": "c0", "mentions": [[0, 1]]},
                       {"id": "c1", "mentions": [[1, 2], [True, 2]]}]})
@example(DictSub(id=StrSub("d"), tokens=["a"], sentences=[[0, 1]],
                 clusters=[DictSub(id=StrSub("c"), mentions=[[0, 1]],
                                   link=StrSub("K"))],
                 relations=[DictSub(head=StrSub("c"), type="R1", tail="c")]))
@example({"id": "d", "tokens": [], "sentences": [],
          "clusters": [{"id": "c", "tags": ["L1"], "link": UNANNOTATED}]})
@example({"id": "d", "tokens": [], "sentences": [], "clusters": [{"id": 1}],
          "relations": 5})
def test_bulk_loader_equals_per_item_oracle(obj):
    try:
        want = oracles.per_item_document_from_json(obj)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            document_from_json(obj)
        assert str(got.value) == str(e)
    else:
        assert document_from_json(obj) == want


# mostly well-formed, but also empty and reversed
SPAN = st.integers(0, 5).flatmap(
    lambda b: st.sampled_from([[b, b + 1], [b, b + 2], [b, b], [b + 1, b]]))


@st.composite
def mutated_predictions(draw):
    """Well-formed `decode` input with up to three items replaced, dropped or
    wrapped as in `mutated_documents`."""
    tagged = st.tuples(SPAN, st.sampled_from(["L1", "L2"])).map(list)
    related = st.tuples(SPAN, st.sampled_from(["R1", "R2"]), SPAN).map(list)
    value = {"p_cl": draw(st.dictionaries(st.sampled_from(["c0", "c1"]),
                                          st.lists(SPAN, min_size=1, max_size=3),
                                          max_size=2)),
             "p_men": draw(st.lists(tagged, max_size=3)),
             "p_rel": draw(st.lists(related, max_size=3))}
    for _ in range(draw(st.integers(0, 3))):
        value = _mutated(draw, value, draw(st.sampled_from(list(_paths(value)))))
    return value


@settings(max_examples=600, deadline=None)
@given(mutated_predictions())
@example({"p_cl": {"c": [[0, 1], [1, True]]}, "p_men": [[[0, 1], "L1"]]})
@example(DictSub(p_cl=DictSub(c=[[0, 1]]), p_men=[[[0, 1], StrSub("L1")]],
                 p_rel=[[[0, 1], StrSub("R1"), [2, 3]]]))
@example({"p_men": [[[0, 1], "L1"], [[0, 1.0], "L2"]], "p_rel": [[[0], "R1"]]})
@example({"p_men": [[[0, 1], "L1", [2, 3]]], "p_rel": [[[0, 1], "R1"]]})
@example({"p_cl": {"c0": [[0, 1]], "c1": []}, "p_men": [[[2, 2], "L1"]]})
@example({"p_cl": {"c0": [[0, 1], [3, 2]], "c1": []}})
@example({"p_men": [[[0, 1], "L1"]], "p_rel": [[[0, 1], "R1", [2, 1]]]})
@example({"p_men": [[[1, 0], "L1"]], "p_rel": [[[0, 1], "R1", [2, 1]]]})
def test_decode_input_loader_equals_per_entry_oracle(obj):
    try:
        want = oracles.per_entry_decode_input_from_json(obj)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            decode_input_from_json(obj)
        assert str(got.value) == str(e)
    else:
        got = decode_input_from_json(obj)
        assert got == want and repr(got) == repr(want)
