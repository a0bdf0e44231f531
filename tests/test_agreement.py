import random

import pytest

from entkit.agreement import (AnnotationPair, cohen_kappa,
                              coref_agreement, entity_agreement,
                              expected_agreement, linking_agreement,
                              multilabel_kappa, observed_agreement,
                              relation_agreement)
from entkit.corpus import MentionMultiClusterError
from conftest import make_doc


def pair(a, b):
    return AnnotationPair.from_sequences(a, b)


def test_empty_pair_rejected():
    with pytest.raises(ValueError):
        AnnotationPair(())
    with pytest.raises(ValueError):
        AnnotationPair.from_sequences(["x"], [])


@pytest.mark.parametrize("counts", [
    {("a", "a"): 5, ("a", "b"): -1},
    {("a", "a"): 2.0},
    {("a", "a"): 1, ("a", "b"): 0.5},
    {("a", "a"): True},
])
def test_malformed_counts_rejected(counts):
    """A negative, fractional or boolean count is no count of items: no
    kappa is read from it."""
    with pytest.raises(ValueError, match="non-negative int"):
        AnnotationPair(counts)


def test_observed_agreement():
    assert observed_agreement(pair("aabb", "aabb")) == 1.0
    assert observed_agreement(pair("aaaabbbbcc", "aaaabbbbdd")) == 0.8
    assert observed_agreement(pair("aaa", "bbb")) == 0.0


def test_expected_agreement_formula():
    # annotator 1 uses x 6 / y 4, annotator 2 uses x 5 / y 5
    a = ["x"] * 6 + ["y"] * 4
    b = ["x"] * 5 + ["y"] * 5
    assert expected_agreement(pair(a, b)) == pytest.approx(0.5)


def test_expected_agreement_single_label():
    assert expected_agreement(pair("aaa", "aaa")) == 1.0


def test_expected_agreement_uniform_labels():
    labels = ["a", "b", "c", "d"]
    a = labels * 3
    b = labels[1:] * 3 + ["a"] * 3
    assert expected_agreement(pair(a, a)) == pytest.approx(1 / 4)
    assert expected_agreement(pair(b, b)) == pytest.approx(
        (3 / 12) ** 2 * 4, abs=1e-12)


def test_kappa_fixture():
    # 20 items, marginals (12, 8) vs (10, 10), 16 agreements:
    # p_o = 0.8 and p_e = 0.6*0.5 + 0.4*0.5 = 0.5, hence kappa 0.6
    items = [("x", "x")] * 9 + [("y", "y")] * 7 \
        + [("x", "y")] * 3 + [("y", "x")]
    p = AnnotationPair(tuple(items))
    assert observed_agreement(p) == pytest.approx(0.8)
    assert expected_agreement(p) == pytest.approx(0.5)
    assert cohen_kappa(p) == pytest.approx(0.6)


def test_kappa_perfect_agreement():
    p = pair("aab", "aab")
    assert cohen_kappa(p) == 1.0


def test_kappa_chance_level_is_zero():
    items = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    p = AnnotationPair(tuple(items))
    assert observed_agreement(p) == expected_agreement(p) == 0.5
    assert cohen_kappa(p) == 0.0


def test_kappa_degenerate_expected_one():
    # p_e = 1 forces both annotators onto one shared label, so p_o = 1 and
    # the documented convention yields kappa = 1
    assert cohen_kappa(pair("aaa", "aaa")) == 1.0


def test_kappa_never_exceeds_observed():
    rng = random.Random(41)
    for _ in range(200):
        items = tuple((rng.choice("abc"), rng.choice("abc")) for _ in range(12))
        p = AnnotationPair(items)
        if expected_agreement(p) == 1.0:
            continue
        assert cohen_kappa(p) <= observed_agreement(p) + 1e-12


def test_kappa_label_renaming_invariance():
    items = tuple((a, b) for a, b in zip("aabbc", "ababc"))
    renamed = tuple((a.upper(), b.upper()) for a, b in items)
    assert cohen_kappa(AnnotationPair(items)) == pytest.approx(
        cohen_kappa(AnnotationPair(renamed)))


def test_permutation_invariance_is_exact():
    rng = random.Random(42)
    items = [(rng.choice("abcd"), rng.choice("abcd")) for _ in range(30)]
    p0 = AnnotationPair(tuple(items))
    base = (observed_agreement(p0), expected_agreement(p0), cohen_kappa(p0))
    for _ in range(100):
        rng.shuffle(items)
        p = AnnotationPair(tuple(items))
        assert (observed_agreement(p), expected_agreement(p),
                cohen_kappa(p)) == base


def test_multilabel_single_label_reduces_to_plain_kappa():
    items = ((True, True), (True, False), (False, False), (False, False))
    p = AnnotationPair(items)
    assert multilabel_kappa({"only": p}) == pytest.approx(cohen_kappa(p))


def test_multilabel_support_weighting():
    perfect = AnnotationPair(((True, True), (False, False),
                              (False, False), (True, True)))   # kappa 1
    chance = AnnotationPair(((True, True), (True, False),
                             (False, True), (False, False)))   # kappa 0
    # supports: perfect 4, chance 4 -> equal weights
    assert multilabel_kappa({"a": perfect, "b": chance}) == pytest.approx(0.5)
    # make supports 3:1 via smaller positive counts
    k1 = AnnotationPair(((True, True), (True, True), (True, True),
                         (False, False)))  # kappa 1, support 6
    k0 = AnnotationPair(((True, False), (False, True),
                         (True, True), (False, False)))  # support 4
    kappa_k0 = cohen_kappa(k0)
    expected = (6 * 1.0 + 4 * kappa_k0) / 10
    assert multilabel_kappa({"a": k1, "b": k0}) == pytest.approx(expected)


def test_multilabel_all_perfect():
    p = AnnotationPair(((True, True), (False, False)))
    assert multilabel_kappa({"a": p, "b": p}) == 1.0


def test_multilabel_empty_rejected():
    with pytest.raises(ValueError):
        multilabel_kappa({})
    never = AnnotationPair(((False, False), (False, False)))
    with pytest.raises(ValueError):
        multilabel_kappa({"a": never})


# --------------------------------------------------------------------------
# Corpus adapters


def _annotator_docs(tag_b="person"):
    a = [make_doc("d1", clusters=[("c1", [(0, 1), (2, 3)], ["person"], "KB1"),
                                  ("c2", [(5, 6)], ["gpe0"], "KB2")],
                  relations=[("c1", "citizen_of", "c2")])]
    b = [make_doc("d1", clusters=[("x1", [(0, 1)], [tag_b], "KB1"),
                                  ("x2", [(2, 3)], [tag_b], "KB1"),
                                  ("x3", [(5, 6)], ["gpe0"], "KB2")],
                  relations=[("x1", "citizen_of", "x3")])]
    return a, b


def test_entity_agreement_detection_and_labels():
    a, b = _annotator_docs()
    result = entity_agreement(a, b)
    assert result["detection"]["p_o"] == 1.0  # same spans detected
    assert result["classification"] == 1.0    # identical tag decisions


def test_entity_agreement_sees_label_disagreement():
    a, b = _annotator_docs(tag_b="politician")
    result = entity_agreement(a, b)
    assert result["classification"] < 1.0


def test_relation_agreement_mention_pair_expansion():
    a, b = _annotator_docs()
    result = relation_agreement(a, b)
    # annotator a relates both c1 mentions to c2; annotator b only one pair
    assert result["detection"]["p_o"] == 0.5
    assert result["detection"]["n_items"] == 2


def test_coref_agreement_on_shared_pairs():
    a, b = _annotator_docs()
    result = coref_agreement(a, b)
    # pairs among spans (0,1),(2,3),(5,6): a says (0,1)~(2,3), b splits them
    assert result["n_items"] == 3
    assert result["p_o"] == pytest.approx(2 / 3)


def test_linking_agreement_labels():
    a, b = _annotator_docs()
    result = linking_agreement(a, b)
    # span (2,3): a links KB1, b links KB1 -> agree; all three spans agree
    assert result["p_o"] == 1.0


def test_mismatched_documents_rejected():
    a = [make_doc("d1")]
    b = [make_doc("d2")]
    with pytest.raises(ValueError):
        entity_agreement(a, b)


def test_conditioned_mode_ignores_one_sided_spans():
    a = [make_doc("d1", clusters=[("c1", [(0, 1)], ["person"]),
                                  ("c2", [(4, 5)], ["gpe0"])])]
    b = [make_doc("d1", clusters=[("x1", [(0, 1)], ["person"])])]
    unconditioned = entity_agreement(a, b)
    conditioned = entity_agreement(a, b, conditioned=True)
    # span (4,5) exists only for annotator a: it hurts the unconditioned
    # classification but is excluded from the conditioned one
    assert conditioned["classification"] == 1.0
    assert unconditioned["classification"] < 1.0
    # detection agreement is unaffected by conditioning
    assert conditioned["detection"] == unconditioned["detection"]


ADAPTERS = [entity_agreement, relation_agreement, coref_agreement,
            linking_agreement]


@pytest.mark.parametrize("agreement", ADAPTERS)
def test_agreement_refuses_repeated_document_ids(agreement):
    doc = make_doc("d1", clusters=[("c", [(0, 1)], ["person"], "KB")])
    with pytest.raises(ValueError, match="repeats a document id"):
        agreement([doc, doc], [doc])


def _assert_refuses_span_in_two_clusters(agreement, bad):
    ok, _ = _annotator_docs()
    for a, b in ((bad, ok), (ok, bad)):
        with pytest.raises(MentionMultiClusterError, match="d1: span"):
            agreement(a, b)


@pytest.mark.parametrize("agreement", ADAPTERS)
def test_span_in_two_clusters_is_refused(agreement):
    bad = [make_doc("d1", clusters=[("c1", [(0, 1), (2, 3)], ["person"]),
                                    ("c2", [(2, 3)], ["gpe0"])],
                    relations=[("c1", "in0", "c2")])]
    _assert_refuses_span_in_two_clusters(agreement, bad)


@pytest.mark.parametrize("agreement", ADAPTERS)
def test_span_in_two_clusters_with_one_id_is_refused(agreement):
    bad = [make_doc("d1", clusters=[("c", [(0, 1)], ["person"]),
                                    ("c", [(0, 1), (2, 3)], ["person"])])]
    _assert_refuses_span_in_two_clusters(agreement, bad)


@pytest.mark.parametrize("agreement", ADAPTERS)
def test_empty_cluster_is_refused(agreement):
    bad = [make_doc("d1", clusters=[("c1", [(0, 1)], ["person"]),
                                    ("c2", [], ["gpe0"])],
                    relations=[("c1", "in0", "c2")])]
    ok, _ = _annotator_docs()
    for a, b in ((bad, ok), (ok, bad)):
        with pytest.raises(ValueError, match="d1: cluster 'c2' has no mentions"):
            agreement(a, b)
