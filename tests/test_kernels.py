import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entkit.kernels import _BLOCK_CELLS as BLOCK
from entkit.kernels import (GateTransform, ScoreSet, SpanVectors,
                            attention_confidence, attention_propagation,
                            attention_update_vectors, augment_with_pruner,
                            coref_confidence, coref_marginal_loss,
                            coref_propagation, coref_update_vectors,
                            gated_span_update, joint_loss,
                            multilabel_bce_loss, relation_propagation,
                            relation_update_vectors, select_top_spans,
                            span_count)
from entkit.selftest import (ref_augment_mention, ref_augment_pair,
                             ref_coref_confidence, ref_coref_update,
                             ref_gated_update, ref_relation_update,
                             run_selftest)
from oracles import (einsum_relation_update, logaddexp_bce_loss,
                     per_span_coref_loss)

TOL = 1e-9


def zero_gate(n):
    return GateTransform(np.zeros((n, 2 * n)), np.zeros(n))


def column_scores(conf, j):
    """Coreference scores whose column j softmaxes to `conf`; a zero
    confidence becomes a score of -1000, whose exponential underflows to 0."""
    scores = np.zeros((len(conf), len(conf)))
    scores[: j + 1, j] = [math.log(c) if c > 0 else -1000.0
                          for c in conf[: j + 1]]
    return scores


# --------------------------------------------------------------------------
# span_count


def test_span_count_unigrams():
    assert span_count(10, 1) == 10


def test_span_count_small_case():
    assert span_count(4, 3) == 9  # 4 + 3 + 2


def test_span_count_reference_setting():
    assert span_count(100, 5) == 490


def test_span_count_matches_enumeration_exhaustively():
    for n in range(1, 51):
        for w in range(1, min(n, 5) + 1):
            spans = [(b, b + k) for k in range(1, w + 1)
                     for b in range(n - k + 1)]
            assert span_count(n, w) == len(spans)


def test_span_count_rejects_bad_width():
    with pytest.raises(ValueError):
        span_count(3, 4)
    with pytest.raises(ValueError):
        span_count(3, 0)


# --------------------------------------------------------------------------
# Pruner augmentation


def test_augment_zero_pruner_is_identity():
    scores = ScoreSet(mention=[[1.0, -2.0], [0.5, 0.0]],
                      coref=[[0.1, 0.2], [0.3, 0.4]],
                      pruner=[0.0, 0.0])
    out = augment_with_pruner(scores)
    assert np.array_equal(out.mention, scores.mention)
    assert np.array_equal(out.coref, scores.coref)


def test_augment_constant_pruner_preserves_antecedent_argmax():
    rng = np.random.default_rng(0)
    coref = rng.normal(size=(5, 5))
    scores = ScoreSet(coref=coref, pruner=np.full(5, 2.5))
    out = augment_with_pruner(scores)
    for j in range(5):
        assert np.argmax(out.coref[: j + 1, j]) == np.argmax(coref[: j + 1, j])


def test_augment_single_span_arithmetic():
    scores = ScoreSet(mention=[[-1.0]], pruner=[2.0])
    assert augment_with_pruner(scores).mention[0, 0] == pytest.approx(1.0)


def test_augment_is_broadcast_of_pruner_exactly():
    rng = np.random.default_rng(1)
    pruner = rng.normal(size=4)
    scores = ScoreSet(mention=rng.normal(size=(4, 3)),
                      coref=rng.normal(size=(4, 4)),
                      relation=rng.normal(size=(4, 4, 2)),
                      pruner=pruner)
    out = augment_with_pruner(scores)
    assert np.allclose(out.mention - scores.mention, pruner[:, None])
    assert np.allclose(out.coref - scores.coref, pruner[:, None])
    assert np.allclose(out.relation - scores.relation, pruner[:, None, None])


def test_augment_leaves_its_input_unchanged():
    rng = np.random.default_rng(5)
    scores = ScoreSet(mention=rng.normal(size=(4, 2)), pruner=rng.normal(size=4),
                      coref=rng.normal(size=(2, 2)), relation=rng.normal(size=(2, 2, 3)),
                      attention=rng.normal(size=(2, 2)), pruned_indices=[1, 3])
    fields = ("mention", "pruner", "coref", "relation", "attention", "pruned_indices")
    before = {name: getattr(scores, name) for name in fields}
    values = {name: value.copy() for name, value in before.items()}
    out = augment_with_pruner(scores)
    assert out is not scores
    for name in fields:
        assert getattr(scores, name) is before[name]
        assert np.array_equal(before[name], values[name])
    assert out.attention is scores.attention
    assert out.pruned_indices is scores.pruned_indices


def test_augment_with_pruned_subset():
    pruner = np.array([1.0, 2.0, 3.0, 4.0])
    scores = ScoreSet(coref=np.zeros((2, 2)), pruner=pruner,
                      pruned_indices=[1, 3])
    out = augment_with_pruner(scores)
    assert np.allclose(out.coref, [[2.0, 2.0], [4.0, 4.0]])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ScoreSet(coref=np.zeros((3, 3)), pruner=np.zeros(2),
                 pruned_indices=None, mention=np.zeros((2, 1)))


@pytest.mark.parametrize("indices", [[-1], [0.9]])
def test_pruned_indices_must_be_non_negative_integers(indices):
    # -1 would wrap around to the last span's pruner score; 0.9 would
    # truncate to span 0
    with pytest.raises(ValueError):
        ScoreSet(pruner=[1.0, 2.0, 3.0], coref=np.zeros((1, 1)),
                 pruned_indices=indices)


@pytest.mark.parametrize("indices", [[1, 1], [2, 0]])
def test_pruned_indices_must_be_strictly_increasing(indices):
    # [1, 1] would give both pruned spans span 1's pruner score; [2, 0]
    # would put span 2 before span 0 in the antecedent order
    with pytest.raises(ValueError):
        ScoreSet(pruner=[1.0, 2.0, 3.0], coref=np.zeros((2, 2)),
                 pruned_indices=indices)


def test_pruned_indices_checked_without_pair_scores():
    with pytest.raises(ValueError):
        ScoreSet(pruner=[1.0, 2.0, 3.0], pruned_indices=[-7, 0.5])
    with pytest.raises(ValueError):  # a mask is not a list of positions
        ScoreSet(pruner=[1.0, 2.0, 3.0], pruned_indices=[False, True])
    assert ScoreSet(pruner=[1.0, 2.0, 3.0], pruned_indices=[0, 2]
                    ).pruned_indices.tolist() == [0, 2]


INDEX_ITEMS = st.one_of(st.integers(-2, 5), st.floats(-2, 5), st.booleans(),
                        st.none(), st.text(max_size=1),
                        st.just(2 ** 64), st.lists(st.integers(0, 3), max_size=2))


@settings(max_examples=400, deadline=None)
@given(n_spans=st.integers(0, 4), n_pruned=st.integers(0, 4),
       parts=st.sets(st.sampled_from(["mention", "pruner", "coref", "relation",
                                      "attention"])),
       indices=st.none() | st.lists(INDEX_ITEMS, max_size=5) | INDEX_ITEMS,
       seed=st.integers(0, 2 ** 16))
def test_score_set_raises_value_error_or_augments_like_loop(n_spans, n_pruned, parts,
                                                           indices, seed):
    rng = np.random.default_rng(seed)
    shapes = {"mention": (n_spans, 2), "pruner": (n_spans,),
              "coref": (n_pruned, n_pruned), "relation": (n_pruned, n_pruned, 2),
              "attention": (n_pruned, n_pruned)}
    arrays = {name: rng.normal(size=shapes[name]) for name in parts}
    try:
        scores = ScoreSet(pruned_indices=indices, **arrays)
        out = augment_with_pruner(scores)
    except ValueError:
        return
    pruner = arrays["pruner"].tolist()
    if "mention" in arrays:
        assert out.mention.tolist() == ref_augment_mention(
            arrays["mention"].tolist(), pruner)
    if scores.pruned_indices is None:
        return
    positions = scores.pruned_indices.tolist()
    assert positions == sorted(set(positions))
    assert all(0 <= i < n_spans for i in positions)
    if indices is not None:
        assert positions == [float(i) for i in indices]
    for name in ("coref", "relation"):
        if name in arrays:
            for t in range(2 if name == "relation" else 1):
                pair = arrays[name].tolist() if name == "coref" else \
                    arrays[name][:, :, t].tolist()
                got = out.coref if name == "coref" else out.relation[:, :, t]
                assert got.tolist() == ref_augment_pair(pair, pruner, positions)


# --------------------------------------------------------------------------
# Losses


def test_bce_all_zero_scores():
    scores = np.zeros((3, 4))
    indicators = np.zeros((3, 4))
    assert multilabel_bce_loss(scores, indicators) \
        == pytest.approx(12 * math.log(2), abs=TOL)


def test_bce_hand_value():
    # sigmoid(ln 3) = 0.75, positive cell loss = -ln 0.75
    loss = multilabel_bce_loss([[math.log(3)]], [[1.0]])
    assert loss == pytest.approx(-math.log(0.75), abs=TOL)


def test_bce_saturated_positive_goes_to_zero():
    assert multilabel_bce_loss([[40.0]], [[1.0]]) == pytest.approx(0.0, abs=1e-12)


def test_bce_rejects_bad_inputs():
    with pytest.raises(ValueError):
        multilabel_bce_loss([[float("nan")]], [[1.0]])
    with pytest.raises(ValueError):
        multilabel_bce_loss([[0.0]], [[0.5]])
    with pytest.raises(ValueError):
        multilabel_bce_loss([[0.0, 1.0]], [[1.0]])


def test_coref_loss_single_span_self_gold():
    assert coref_marginal_loss(np.zeros((1, 1)), [{0}]) == pytest.approx(0.0)


def test_coref_loss_two_spans_uniform():
    loss = coref_marginal_loss(np.zeros((2, 2)), [{0}, {0}])
    assert loss == pytest.approx(math.log(2), abs=TOL)


def test_coref_loss_full_gold_mass_is_zero():
    loss = coref_marginal_loss(np.zeros((2, 2)), [{0}, {0, 1}])
    assert loss == pytest.approx(0.0, abs=TOL)


def test_coref_loss_rejects_empty_or_future_gold():
    with pytest.raises(ValueError):
        coref_marginal_loss(np.zeros((2, 2)), [{0}, set()])
    with pytest.raises(ValueError):
        coref_marginal_loss(np.zeros((2, 2)), [{1}, {0}])


def test_coref_loss_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(1, 5)
        scores = rng.normal(size=(n, n)) * 3
        gold = [set(rng.choice(j + 1, size=rng.integers(1, j + 2),
                               replace=False).tolist()) for j in range(n)]
        assert coref_marginal_loss(scores, gold) >= -1e-12


def test_coref_loss_counts_a_repeated_antecedent_once():
    # a list with a repeat is the set it holds, so the loss stays non-negative
    assert coref_marginal_loss(np.zeros((2, 2)), [[0, 0], [0, 0, 1]]) \
        == coref_marginal_loss(np.zeros((2, 2)), [{0}, {0, 1}]) == 0.0


def test_coref_loss_refuses_bool_and_float_antecedents():
    scores = np.zeros((3, 3))
    for bad, kind in (({True}, "bool"), ({False}, "bool"), ({1.0}, "float"),
                      ({0, np.float64(1.0)}, "float64"), ({np.bool_(True)}, "bool")):
        with pytest.raises(ValueError, match=rf"^span 1: gold antecedents must "
                                             rf"be integers, got {kind}$"):
            coref_marginal_loss(scores, [{0}, bad, {0}])
    # Python and numpy integers stay indices
    assert coref_marginal_loss(scores, [{0}, {np.int32(1)}, {np.int64(0), 2}]) \
        == pytest.approx(coref_marginal_loss(scores, [{0}, {1}, {0, 2}]))


# Scores at the ends of the float range, both zeros and ordinary values.
LOSS_SCORES = st.one_of(st.sampled_from([700.0, -700.0, 0.0, -0.0, 1e300, -1e300]),
                        st.floats(-50, 50))


@st.composite
def bce_cases(draw):
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    return (draw(hnp.arrays(float, shape, elements=LOSS_SCORES)),
            draw(hnp.arrays(float, shape, elements=st.sampled_from([0.0, 1.0]))))


def _bce_matches_oracle(scores, indicators):
    before = scores.copy(), indicators.copy()
    got = multilabel_bce_loss(scores, indicators)
    assert math.isclose(got, logaddexp_bce_loss(scores, indicators),
                        rel_tol=1e-12, abs_tol=1e-12)
    assert np.array_equal(scores, before[0]) and np.array_equal(indicators, before[1])


@settings(max_examples=400, deadline=None)
@given(bce_cases())
@example((np.array(700.0), np.array(1.0)))
@example((np.array(-700.0), np.array(-0.0)))
@example((np.array([1e300, -1e300, -0.0]), np.array([1.0, 0.0, 1.0])))
@example((np.zeros((2, 0, 3)), np.zeros((2, 0, 3))))
@example((np.zeros(0), np.zeros(0)))
def test_bce_equals_logaddexp_oracle(case):
    _bce_matches_oracle(*case)


def _shape3(cells):
    """A 3-d shape of `cells` cells, each side a divisor (1 for a prime)."""
    a = max(k for k in range(1, round(cells ** (1 / 3)) + 1) if cells % k == 0)
    rest = cells // a
    b = max(k for k in range(1, math.isqrt(rest) + 1) if rest % k == 0)
    return a, b, rest // b


def _bce_inputs(shape, seed):
    """Scores that mix the ends of the float range and both zeros into
    normal draws, and indicators holding 0, -0.0 and 1."""
    rng = np.random.default_rng(seed)
    scores = 10 * rng.standard_normal(shape)
    ends = rng.random(shape) < 0.05
    scores[ends] = rng.choice([1e300, -1e300, 700.0, -700.0, 0.0, -0.0],
                              size=np.count_nonzero(ends))
    indicators = rng.choice([0.0, -0.0, 1.0], size=shape, p=[0.45, 0.05, 0.5])
    return scores, indicators


@pytest.mark.parametrize("cells", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("three_d", [False, True])
def test_bce_equals_oracle_across_block_boundaries(cells, three_d):
    _bce_matches_oracle(*_bce_inputs(_shape3(cells) if three_d else (cells,), cells))


def test_bce_equals_oracle_on_transposed_and_strided_inputs():
    scores, indicators = _bce_inputs((40, 30, 60), 1)  # over two blocks
    _bce_matches_oracle(scores.T, indicators.T)
    _bce_matches_oracle(scores[:, ::2, 1::3], indicators[:, ::2, 1::3])


def test_bce_errors_keep_their_order_across_blocks():
    """The first failure in the order finite scores, shape, indicators is
    reported, wherever in the array each failure lies."""
    scores, indicators = _bce_inputs(2 * BLOCK + 3, 2)
    scores[-1], indicators[0] = np.nan, 0.5
    with pytest.raises(ValueError, match=r"^scores contains non-finite entries$"):
        multilabel_bce_loss(scores, indicators)
    with pytest.raises(ValueError, match=r"^scores contains non-finite entries$"):
        multilabel_bce_loss(scores, indicators[:-1])
    scores[-1] = 0.0
    with pytest.raises(ValueError, match=r"^scores \(\d+,\) and indicators "
                                         r"\(\d+,\) differ$"):
        multilabel_bce_loss(scores, indicators[:-1])
    indicators[0] = 1.0
    for bad in (0.5, 2.0, -1.0, np.nan):
        late = indicators.copy()
        late[2 * BLOCK + 1] = bad
        with pytest.raises(ValueError, match=r"^indicators must be 0 or 1$"):
            multilabel_bce_loss(scores, late)
    scores[BLOCK] = -np.inf
    with pytest.raises(ValueError, match=r"^scores contains non-finite entries$"):
        multilabel_bce_loss(scores, indicators)


@st.composite
def coref_cases(draw, max_spans=6):
    n = draw(st.integers(0, max_spans))
    scores = draw(hnp.arrays(float, (n, n), elements=LOSS_SCORES))
    gold = [draw(st.sets(st.integers(0, j), min_size=1)) for j in range(n)]
    return scores, gold


@settings(max_examples=400, deadline=None)
@given(coref_cases())
@example((np.array([[1e300, -1e300], [-1e300, 1e300]]), [{0}, {0}]))
@example((np.array([[-700.0, 700.0], [700.0, -0.0]]), [{0}, {1}]))
def test_coref_loss_equals_per_span_oracle(case):
    scores, gold = case
    got = coref_marginal_loss(scores, gold)
    assert math.isclose(got, per_span_coref_loss(scores, gold),
                        rel_tol=1e-12, abs_tol=1e-12)


def test_coref_loss_equals_per_span_oracle_on_long_documents():
    rng = np.random.default_rng(11)
    for n in (8, 40, 171):
        scores = 5 * rng.standard_normal((n, n))
        gold = [set(rng.choice(j + 1, size=rng.integers(1, min(j, 4) + 2),
                               replace=False).tolist()) for j in range(n)]
        assert math.isclose(coref_marginal_loss(scores, gold),
                            per_span_coref_loss(scores, gold), rel_tol=1e-12)


def _error(fn, *args):
    try:
        fn(*args)
    except ValueError as e:
        return str(e)
    return None


@settings(max_examples=400, deadline=None)
@given(n=st.integers(0, 5), data=st.data())
def test_coref_loss_errors_equal_per_span_oracle(n, data):
    gold = [data.draw(st.sets(st.integers(-2, n + 1), max_size=3)) for _ in range(n)]
    scores = np.zeros((n, n))
    want = _error(per_span_coref_loss, scores, gold)
    assert _error(coref_marginal_loss, scores, gold) == want


@pytest.mark.parametrize("gold", [
    [{0}, {2}, set()],              # the earlier span's error comes first
    [{0}, set(), {5}],
    [{0}, {-1, 1}, {0}],
    [{0}, {0}, {np.int64(3)}],
    [{2 ** 70}, {0}, {0}],
])
def test_coref_loss_reports_the_first_bad_span_like_the_oracle(gold):
    scores = np.zeros((3, 3))
    want = _error(per_span_coref_loss, scores, gold)
    assert want is not None and _error(coref_marginal_loss, scores, gold) == want


def test_joint_loss_weighted_sum():
    assert joint_loss(1.0, 2.0, 3.0, 1.0, 1.0, 1.0) == 6.0
    assert joint_loss(1.0, 2.0, 3.0, 0.0, 1.0, 1.0) == 5.0
    assert joint_loss(2.0, 2.0, 2.0, 0.5, 1.0, 2.0) == 7.0


# --------------------------------------------------------------------------
# Confidences and update vectors


def test_coref_confidence_uniform():
    conf = coref_confidence(np.zeros((4, 4)))[:, 2]
    assert np.allclose(conf[:3], 1 / 3)
    assert conf[3] == 0.0


def test_coref_confidence_hand_softmax():
    scores = np.zeros((2, 2))
    scores[0, 1] = math.log(3)
    conf = coref_confidence(scores)[:, 1]
    assert np.allclose(conf, [0.75, 0.25], atol=TOL)


def test_coref_confidence_first_span():
    assert np.allclose(coref_confidence(np.zeros((3, 3)))[:, 0],
                       [1.0, 0.0, 0.0])


def test_coref_confidence_rows_sum_to_one():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(6, 6)) * 4
    for j in range(6):
        conf = coref_confidence(scores)[:, j]
        assert abs(conf.sum() - 1.0) < TOL
        assert np.all(conf[: j + 1] > 0)
        assert np.all(conf[j + 1:] == 0.0)


def test_coref_confidence_rejects_non_square():
    with pytest.raises(ValueError):
        coref_confidence(np.zeros((2, 3)))


def test_coref_update_all_mass_on_self():
    g = np.array([[1.0, 0.0], [3.0, 4.0]])
    conf = np.array([0.0, 1.0])
    assert np.allclose(coref_update_vectors(column_scores(conf, 1), g)[1],
                       [3.0, 4.0])


def test_coref_update_convex_combination():
    g = np.array([[1.0, 0.0], [0.0, 1.0]])
    conf = np.array([0.5, 0.5])
    assert np.allclose(coref_update_vectors(column_scores(conf, 1), g)[1],
                       [0.5, 0.5])


def test_coref_update_identical_vectors_invariant():
    g = np.tile([2.0, -1.0], (3, 1))
    conf = np.array([0.2, 0.5, 0.3])
    assert np.allclose(coref_update_vectors(column_scores(conf, 2), g)[2],
                       [2.0, -1.0])


def test_relation_update_zero_projection():
    rel = np.ones((2, 2, 3))
    g = np.ones((2, 2))
    assert np.allclose(
        relation_update_vectors(rel, np.zeros((2, 3)), g)[0], 0.0)


def test_relation_update_negative_scores_die():
    rel = -np.ones((2, 2, 3))
    g = np.random.default_rng(5).normal(size=(2, 2))
    proj = np.ones((2, 3))
    assert np.allclose(relation_update_vectors(rel, proj, g)[1], 0.0)


def test_relation_update_hand_value():
    rel = np.full((1, 1, 1), 2.0)
    proj = np.ones((2, 1))
    g = np.array([[1.0, 2.0]])
    assert np.allclose(relation_update_vectors(rel, proj, g)[0], [2.0, 4.0])


# A target span holds n * n_types cells. The cases: one span a block, with
# a span of fewer cells than BLOCK, of BLOCK cells and of more; 2 spans a
# block; 3 and 2 spans a block with a short last block; all spans in one
# block; no spans; no relation types.
@pytest.mark.parametrize("n, n_types", [
    (8, BLOCK // 8 - 1), (8, BLOCK // 8), (8, BLOCK // 8 + 1),
    (8, BLOCK // 16), (8, BLOCK // 24), (7, BLOCK // 14),
    (5, 3), (0, 4), (6, 0)])
def test_relation_update_equals_einsum_oracle(n, n_types):
    rng = np.random.default_rng(n * 1000 + n_types)
    rel = 3 * rng.standard_normal((n, n, n_types))
    projection = rng.standard_normal((3, n_types))
    vectors = rng.standard_normal((n, 3))
    before = rel.copy(), projection.copy(), vectors.copy()
    got = relation_update_vectors(rel, projection, vectors)
    assert got.shape == (n, 3)
    assert np.allclose(got, einsum_relation_update(rel, projection, vectors),
                       atol=1e-9, rtol=0)
    assert all(np.array_equal(x, y) for x, y in zip((rel, projection, vectors),
                                                   before))


def test_relation_update_refuses_non_finite_scores():
    rel = np.zeros((8, 8, BLOCK // 8))
    rel[7, 7, -1] = np.inf
    with pytest.raises(ValueError,
                       match=r"^relation scores contains non-finite entries$"):
        relation_update_vectors(rel, np.zeros((2, BLOCK // 8)), np.zeros((8, 2)))


def test_attention_uniform_scores_average():
    g = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    u = attention_update_vectors(np.zeros((3, 3)), g)
    assert np.allclose(u, np.tile([1.0, 1.0], (3, 1)))


def test_attention_hand_softmax_row():
    scores = np.zeros((2, 2))
    scores[0, 0] = math.log(3)
    g = np.array([[1.0, 0.0], [0.0, 1.0]])
    u = attention_update_vectors(scores, g)
    assert np.allclose(u[0], [0.75, 0.25], atol=TOL)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(6)
    conf = attention_confidence(rng.normal(size=(7, 7)) * 5)
    assert np.allclose(conf.sum(axis=1), 1.0, atol=TOL)
    assert np.all(conf > 0)


# --------------------------------------------------------------------------
# Gated update and propagation


def test_gated_update_fixed_point():
    g = np.array([1.5, -2.0])
    out = gated_span_update(g, g, zero_gate(2))
    assert np.allclose(out, g)


def test_gated_update_saturated_gate_keeps_current():
    gate = GateTransform(np.zeros((2, 4)), np.full(2, 50.0))
    g, u = np.array([2.0, 0.0]), np.array([0.0, 2.0])
    assert np.allclose(gated_span_update(g, u, gate), g, atol=1e-9)


def test_gated_update_open_gate_takes_update():
    gate = GateTransform(np.zeros((2, 4)), np.full(2, -50.0))
    g, u = np.array([2.0, 0.0]), np.array([0.0, 2.0])
    assert np.allclose(gated_span_update(g, u, gate), u, atol=1e-9)


def test_gated_update_half_mix():
    out = gated_span_update(np.array([2.0, 0.0]), np.array([0.0, 2.0]),
                            zero_gate(2))
    assert np.allclose(out, [1.0, 1.0])


def test_gated_update_stays_in_componentwise_interval():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = rng.integers(1, 5)
        g = rng.normal(size=n) * 3
        u = rng.normal(size=n) * 3
        gate = GateTransform(rng.normal(size=(n, 2 * n)), rng.normal(size=n))
        out = gated_span_update(g, u, gate)
        lo, hi = np.minimum(g, u), np.maximum(g, u)
        assert np.all(out >= lo - 1e-12)
        assert np.all(out <= hi + 1e-12)


@pytest.mark.parametrize("trials", [0, -1])
def test_run_selftest_refuses_no_trials(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_selftest(trials=trials)


def test_attention_propagation_increments_iteration():
    spans = SpanVectors(np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = attention_propagation(spans, np.zeros((2, 2)), zero_gate(2))
    assert out.iteration == 1
    assert np.allclose(out.vectors, [[0.75, 0.25], [0.25, 0.75]])


def test_coref_and_relation_propagation_shapes():
    rng = np.random.default_rng(8)
    spans = SpanVectors(rng.normal(size=(3, 2)))
    gate = zero_gate(2)
    out_c = coref_propagation(spans, rng.normal(size=(3, 3)), gate)
    out_r = relation_propagation(spans, rng.normal(size=(3, 3, 2)),
                                 rng.normal(size=(2, 2)), gate)
    assert out_c.vectors.shape == (3, 2) and out_c.iteration == 1
    assert out_r.vectors.shape == (3, 2) and out_r.iteration == 1


def test_coref_and_relation_propagation_values():
    rng = np.random.default_rng(9)
    dim, n_types = 3, 2
    for n in range(1, 7):
        vectors = rng.normal(size=(n, dim))
        pair = rng.normal(size=(n, n)) * 3
        relation = rng.normal(size=(n, n, n_types)) * 3
        projection = rng.normal(size=(dim, n_types))
        weight, bias = rng.normal(size=(dim, 2 * dim)), rng.normal(size=dim)
        gate = GateTransform(weight, bias)
        spans = SpanVectors(vectors)
        g = vectors.tolist()

        def expected(updates):
            return [ref_gated_update(g[j], updates[j], weight.tolist(),
                                     bias.tolist()) for j in range(n)]

        out = coref_propagation(spans, pair, gate)
        assert out.iteration == 1
        assert np.allclose(out.vectors, expected(
            [ref_coref_update(ref_coref_confidence(pair.tolist(), j), g, j)
             for j in range(n)]), atol=TOL, rtol=0)
        out = relation_propagation(spans, relation, projection, gate)
        assert out.iteration == 1
        assert np.allclose(out.vectors, expected(
            [ref_relation_update(relation.tolist(), projection.tolist(), g, j)
             for j in range(n)]), atol=TOL, rtol=0)

        with pytest.raises(ValueError):  # scores of the wrong size
            coref_propagation(spans, np.zeros((n + 1, n)), gate)
        with pytest.raises(ValueError):
            relation_propagation(spans, np.zeros((n, n + 1, n_types)),
                                 projection, gate)
        with pytest.raises(ValueError):  # projection of the wrong shape
            relation_propagation(spans, relation,
                                 np.zeros((dim, n_types + 1)), gate)
        with pytest.raises(ValueError):  # scores over another span count
            coref_propagation(spans, np.zeros((n + 1, n + 1)), gate)
        with pytest.raises(ValueError):
            relation_propagation(spans, np.zeros((n + 1, n + 1, n_types)),
                                 projection, gate)


def test_confidences_of_zero_pruned_spans_are_empty():
    kept = select_top_spans(np.zeros(4), 0)
    pair = np.zeros((4, 4))[np.ix_(kept, kept)]
    assert coref_confidence(pair).shape == (0, 0)
    assert attention_confidence(pair).shape == (0, 0)


def test_propagation_over_zero_pruned_spans_keeps_the_width():
    dim = 3
    spans = SpanVectors(np.zeros((0, dim)))
    gate = GateTransform(np.ones((dim, 2 * dim)), np.ones(dim))
    outs = [coref_propagation(spans, np.zeros((0, 0)), gate),
            attention_propagation(spans, np.zeros((0, 0)), gate),
            relation_propagation(spans, np.zeros((0, 0, 2)),
                                 np.ones((dim, 2)), gate)]
    for out in outs:
        assert out.vectors.shape == (0, dim) and out.iteration == 1
    assert coref_update_vectors(np.zeros((0, 0)), spans).shape == (0, dim)
    assert attention_update_vectors(np.zeros((0, 0)), spans).shape == (0, dim)
    with pytest.raises(ValueError):  # scores over one span, vectors over none
        coref_propagation(spans, np.zeros((1, 1)), gate)


def test_select_top_spans():
    scores = [0.1, 5.0, 3.0, 5.0]
    assert select_top_spans(scores, 2).tolist() == [1, 3]
    assert select_top_spans(scores, 0).tolist() == []
    assert select_top_spans([2.0, 1.0, 2.0, 2.0, 1.0], 2).tolist() == [0, 2]
    assert select_top_spans([1.0, 1.0, 3.0, 1.0], 3).tolist() == [0, 1, 2]
    assert select_top_spans([0.0, -0.0, 0.0], 2).tolist() == [0, 1]
    assert select_top_spans([-0.0, 0.0, -1.0], 1).tolist() == [0]
    with pytest.raises(ValueError):
        select_top_spans(scores, 9)


def test_non_finite_vectors_rejected():
    with pytest.raises(ValueError):
        SpanVectors(np.array([[1.0, float("inf")]]))


# --------------------------------------------------------------------------
# Memory: the relation-sized kernels stream their tensor through blocks


def assert_kernels_stream(shape=(171, 171, 50), dim=64):
    """Neither kernel that reads a whole (spans, spans, types) tensor
    allocates more than 1 byte per cell (the finiteness mask of the relation
    scores) plus 4 MiB on top of its inputs, whatever the tensor's size.
    The CI workflow also runs it on a (400, 400, 50) tensor, 64 MB."""
    rng = np.random.default_rng(0)
    n, _, n_types = shape
    rel = rng.standard_normal(shape)
    indicators = (rng.random(shape) < 0.01).astype(float)
    projection = rng.standard_normal((dim, n_types))
    vectors = rng.standard_normal((n, dim))
    budget = rel.size + 4 * 2 ** 20
    for name, call in (
            ("multilabel_bce_loss", lambda: multilabel_bce_loss(rel, indicators)),
            ("relation_update_vectors",
             lambda: relation_update_vectors(rel, projection, vectors))):
        tracemalloc.start()
        try:
            call()
            extra = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert extra <= budget, f"{name}: {extra} bytes on a {shape} tensor, " \
                                f"budget {budget}"


def test_relation_sized_kernels_stream_their_tensor():
    assert_kernels_stream()
