import random
from pathlib import Path

import pytest

from entkit import cli, coref
from entkit.corpus import cluster_overlaps, load_corpus
from entkit.coref import (_components, _max_weight_assignment, _overlaps,
                          avg_coref_f1, b_cubed, ceaf_e, coref_report,
                          corpus_partition, make_partition, muc)
import oracles
from conftest import make_doc
from oracles import brute_force_assignment_total, brute_force_ceafe

FIXTURES = Path(__file__).parent / "fixtures"
GOLD = make_partition([{"a", "b", "c"}])
PRED = make_partition([{"a", "b"}, {"c"}])


def test_partition_rejects_overlap():
    with pytest.raises(ValueError):
        make_partition([{"a", "b"}, {"b", "c"}])


def test_partition_overlap_names_keys_of_mixed_types():
    with pytest.raises(ValueError, match=r"clusters overlap on \['a', 1\]"):
        make_partition([{1, "a"}, {1, "a"}])


def test_partition_rejects_empty_cluster():
    with pytest.raises(ValueError):
        make_partition([set()])


K = frozenset({("d", 0, 1), ("d", 2, 3)})


@pytest.mark.parametrize("gold, pred", [
    ((K, K), (K,)), ((K,), (K, K)), ((K,), (K, frozenset())),
    ((K, frozenset()), (K,)), ((), (K, K)), ((K, frozenset()), ())])
@pytest.mark.parametrize("scorer", [
    muc, b_cubed, ceaf_e,
    pytest.param(lambda gold, pred: coref_report([_overlaps(gold, pred)]),
                 id="coref_report")])
def test_scorers_refuse_overlapping_or_empty_clusters(scorer, gold, pred):
    """Unchecked, a repeated cluster scores MUC and B-cubed precision 2.0
    and an empty one CEAF-e precision 0.5; an empty side must not skip the
    check. `coref_report` reads tables, so its partitions go through the
    `_overlaps` table that carries the check."""
    with pytest.raises(ValueError, match="overlap|empty cluster"):
        scorer(gold, pred)


def test_identical_partitions_score_one():
    p = make_partition([{"a", "b"}, {"c"}, {"d"}])
    for metric in (muc, b_cubed, ceaf_e):
        r = metric(p, p)
        if metric is muc:
            # links exist (one non-singleton cluster), so MUC is defined
            assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)
        else:
            assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)
    assert avg_coref_f1(p, p) == 1.0


def test_muc_split():
    r = muc(GOLD, PRED)
    assert r.precision == 1.0
    assert r.recall == 0.5
    assert r.f1 == pytest.approx(2 / 3, abs=1e-9)


def test_muc_all_singletons_degenerates_to_zero():
    p = make_partition([{"a"}, {"b"}])
    r = muc(p, p)
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)


def test_b_cubed_split():
    r = b_cubed(GOLD, PRED)
    assert r.precision == 1.0
    assert r.recall == pytest.approx(5 / 9, abs=1e-9)
    assert r.f1 == pytest.approx(10 / 14, abs=1e-9)


def test_b_cubed_merge():
    gold = make_partition([{"a"}, {"b"}])
    pred = make_partition([{"a", "b"}])
    r = b_cubed(gold, pred)
    assert r.precision == 0.5
    assert r.recall == 1.0


def test_ceaf_e_split():
    r = ceaf_e(GOLD, PRED)
    assert r.precision == pytest.approx(0.4, abs=1e-9)
    assert r.recall == pytest.approx(0.8, abs=1e-9)
    assert r.f1 == pytest.approx(8 / 15, abs=1e-9)


def test_ceaf_e_disjoint_universes():
    gold = make_partition([{"a"}, {"b"}])
    pred = make_partition([{"x"}, {"y"}])
    r = ceaf_e(gold, pred)
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)


def test_avg_of_the_three():
    assert avg_coref_f1(GOLD, PRED) == pytest.approx(
        (2 / 3 + 10 / 14 + 8 / 15) / 3, abs=1e-9)
    report = coref_report([_overlaps(GOLD, PRED)])
    assert report["avg_f1"] == pytest.approx(0.638, abs=1e-3)


def test_avg_with_one_degenerate_metric():
    # identical all-singleton partitions: MUC degenerates to 0, the other two
    # score 1, so the average lands at 2/3
    p = make_partition([{"a"}, {"b"}])
    assert avg_coref_f1(p, p) == pytest.approx(2 / 3, abs=1e-12)


def test_mentions_on_one_side_only_are_retained():
    gold = make_partition([{"a", "b", "z"}])
    pred = make_partition([{"a", "b", "q"}])
    r = b_cubed(gold, pred)
    # the stray mention contributes 0 to its own side's average
    assert r.precision == pytest.approx((2 / 3 + 2 / 3 + 0) / 3)
    assert r.recall == pytest.approx((2 / 3 + 2 / 3 + 0) / 3)


def _random_partition(rng, universe, max_clusters=6):
    mentions = [m for m in universe if rng.random() < 0.8]
    rng.shuffle(mentions)
    n = rng.randint(1, max_clusters)
    clusters = [set() for _ in range(n)]
    for i, m in enumerate(mentions):
        clusters[rng.randrange(n)].add(m)
    return make_partition([c for c in clusters if c])


def test_relabeling_and_reordering_invariance():
    rng = random.Random(11)
    universe = list("abcdefghij")
    for _ in range(100):
        gold = _random_partition(rng, universe)
        pred = _random_partition(rng, universe)
        shuffled = list(pred)
        rng.shuffle(shuffled)
        for metric in (muc, b_cubed):
            a, b = metric(gold, pred), metric(gold, tuple(shuffled))
            assert (a.precision, a.recall, a.f1) == (b.precision, b.recall, b.f1)
        # equally optimal alignments may pick different phi multisets, so the
        # aligned-cluster score is order-independent only up to rounding
        a, b = ceaf_e(gold, pred), ceaf_e(gold, tuple(shuffled))
        assert a.precision == pytest.approx(b.precision, abs=1e-12)
        assert a.recall == pytest.approx(b.recall, abs=1e-12)
        assert a.f1 == pytest.approx(b.f1, abs=1e-12)


def test_strict_refinement_gives_muc_precision_one():
    rng = random.Random(12)
    for _ in range(50):
        universe = [f"m{i}" for i in range(8)]
        gold = _random_partition(rng, universe, max_clusters=3)
        if all(len(c) == 1 for c in gold):
            continue
        pred = []
        split_done = False
        for c in gold:
            members = sorted(c)
            if len(members) >= 2 and not split_done:
                pred.append(set(members[:1]))
                pred.append(set(members[1:]))
                split_done = True
            else:
                pred.append(set(members))
        if not split_done or all(len(c) == 1 for c in pred):
            # an all-singleton refinement has no links left, so precision
            # degenerates to 0/0 -> 0 by the scorer convention
            continue
        r = muc(gold, make_partition(pred))
        assert r.precision == 1.0
        assert r.recall < 1.0


def test_ceaf_e_equals_brute_force_alignment():
    rng = random.Random(13)
    universe = list("abcdefghijkl")
    for _ in range(500):
        gold = _random_partition(rng, universe)
        pred = _random_partition(rng, universe)
        got = ceaf_e(gold, pred)
        p, r, f = brute_force_ceafe(list(gold), list(pred))
        assert got.precision == pytest.approx(p, abs=1e-12)
        assert got.recall == pytest.approx(r, abs=1e-12)
        assert got.f1 == pytest.approx(f, abs=1e-12)


def test_max_weight_assignment_equals_brute_force_up_to_six():
    """Small integer weights, many of them 0 or tied, so every total is
    exact and many matchings are equally good."""
    rng = random.Random(14)
    for _ in range(400):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        weights = [[float(rng.choice([0, 0, 1, 2, 3])) for _ in range(n_cols)]
                   for _ in range(n_rows)]
        pairs = _max_weight_assignment(weights)
        assert len(pairs) == min(n_rows, n_cols)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
        assert sum(weights[i][j] for i, j in pairs) \
            == brute_force_assignment_total(weights, n_cols)


def _interval_partition(cuts, n):
    bounds = [0, *sorted(cuts), n]
    return make_partition(range(a, b) for a, b in zip(bounds, bounds[1:]))


def test_ceaf_e_on_one_component_of_300_clusters_equals_dense_reference():
    """Runs of mentions cut at disjoint points: every gold cluster overlaps
    the pred clusters on both of its ends, so the overlap graph is one
    321 x 321 component that the solver takes whole."""
    rng = random.Random(15)
    cuts = rng.sample(range(1, 1000), 640)
    gold = _interval_partition(cuts[:320], 1000)
    pred = _interval_partition(cuts[320:], 1000)
    assert len(_components(_overlaps(gold, pred), len(gold), len(pred))) == 1
    assert ceaf_e(gold, pred) == oracles.ceaf_e(gold, pred)


def test_corpus_partition_scopes_mentions_by_doc_id():
    d1 = make_doc("d1", clusters=[("c1", [(0, 1), (2, 3)], [])])
    d2 = make_doc("d2", clusters=[("c1", [(0, 1)], [])])
    assert corpus_partition([d1, d2]) == (
        frozenset({("d1", 0, 1), ("d1", 2, 3)}), frozenset({("d2", 0, 1)}))


def test_corpus_partition_refuses_a_repeated_doc_id():
    d = make_doc("d1", clusters=[("c1", [(0, 1), (2, 3)], [])])
    with pytest.raises(ValueError, match="clusters overlap"):
        corpus_partition([d, d])


def test_score_command_builds_one_overlap_table_per_pair(monkeypatch, capsys):
    """`score --task coref` scores the `cluster_overlaps` table of each
    document pair, built once, and maps no mention through `_owners`, so
    it builds no corpus-wide partition either."""
    gold, pred = FIXTURES / "annotator_a.jsonl", FIXTURES / "annotator_b.jsonl"
    tables, owners = [], []

    def counted_overlaps(a, b):
        tables.append((a.id, b.id))
        return cluster_overlaps(a, b)

    def counted_owners(partition):
        owners.append(partition)
        return owner_map(partition)

    owner_map = coref._owners
    monkeypatch.setattr(cli, "cluster_overlaps", counted_overlaps)
    monkeypatch.setattr(coref, "_owners", counted_owners)
    assert cli.run(["score", "--task", "coref", "--gold", str(gold),
                    "--pred", str(pred)]) == 0
    capsys.readouterr()
    ids = sorted(d.id for d in load_corpus(gold))
    assert len(ids) > 1 and tables == [(i, i) for i in ids]
    assert owners == []
