"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen. The two dataset-dependent criteria first verify the machinery on
bundled synthetic fixtures and then skip unless ENTKIT_DWIE_CORPUS points to
the full corpus in canonical JSONL form.
"""

import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from entkit.agreement import (AnnotationPair, cohen_kappa, expected_agreement,
                              observed_agreement)
from entkit.coref import avg_coref_f1, b_cubed, ceaf_e, make_partition, muc
from entkit.corpus import load_corpus, parse_corpus
from entkit.kernels import (GateTransform, attention_confidence,
                            coref_confidence, gated_span_update, span_count)
from entkit.metrics import (build_eval_view, hard_entity_prf, mention_prf,
                            per_label_prf, soft_entity_counts, soft_entity_prf)
from entkit.rules import (FactBase, builtin_ruleset, check_violations, closure,
                          count_firings)
from entkit.selftest import run_selftest
from entkit.stats import (corpus_summary, entity_type_histogram,
                          multilabel_relation_histogram, prior_link_baseline,
                          relation_type_histogram)
from conftest import make_doc, random_labeled_doc
from oracles import (brute_force_ceafe, brute_force_levels, naive_closure,
                     ner_units, re_units)

TOL = 1e-9
FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_ENV = "ENTKIT_DWIE_CORPUS"


def _report(name: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def _rebase(doc, doc_id):
    return make_doc(doc_id, n_tokens=30,
                    clusters=[(c.id, [(m.begin, m.end) for m in c.mentions],
                               sorted(c.tags)) for c in doc.clusters],
                    relations=[(r.head, r.type, r.tail) for r in doc.relations])


def test_criterion_metric_oracle():
    def body():
        rng = random.Random(101)
        start = time.perf_counter()
        for trial in range(1000):
            task = "ner" if trial % 2 == 0 else "re"
            gold = random_labeled_doc(rng, "g", with_relations=(task == "re"))
            pred = _rebase(random_labeled_doc(rng, "p",
                                              with_relations=(task == "re")), "g")
            view = build_eval_view(gold, pred, task)
            units = ner_units if task == "ner" else re_units
            expected = brute_force_levels(units(gold), units(pred))
            got = {"mention": mention_prf(view), "hard": hard_entity_prf(view),
                   "soft": soft_entity_prf(view)}
            for level, (p, r, f) in expected.items():
                assert abs(got[level].precision - p) < TOL
                assert abs(got[level].recall - r) < TOL
                assert abs(got[level].f1 - f) < TOL
            for label, lv in view.labels.items():
                counts = soft_entity_counts(view, label)
                assert counts.tp_p + counts.fp == lv.pred_units
                assert counts.tp_g + counts.fn == lv.gold_units
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"

    _report("metric oracle (1000 instances, exact identities, <10s)", body)


def test_criterion_metric_ordering_law():
    def body():
        rng = random.Random(102)
        refined_checked = exact_checked = 0
        for _ in range(5000):
            if refined_checked >= 100 and exact_checked >= 100:
                break
            gold = random_labeled_doc(rng, "g")

            # strict refinement with labels copied: soft forgives, hard cannot
            if any(len(c.mentions) >= 2 and c.tags for c in gold.clusters):
                pred_clusters = []
                for c in gold.clusters:
                    ms = [(m.begin, m.end) for m in c.mentions]
                    if len(ms) >= 2:
                        cut = rng.randint(1, len(ms) - 1)
                        pred_clusters.append((c.id + "-a", ms[:cut],
                                              sorted(c.tags)))
                        pred_clusters.append((c.id + "-b", ms[cut:],
                                              sorted(c.tags)))
                    else:
                        pred_clusters.append((c.id, ms, sorted(c.tags)))
                pred = make_doc("g", n_tokens=30, clusters=pred_clusters)
                view = build_eval_view(gold, pred, "ner")
                assert soft_entity_prf(view).f1 == 1.0
                assert hard_entity_prf(view).f1 < 1.0
                refined_checked += 1

            # exact clustering, labels perturbed: soft == hard per label
            relabeled = [(c.id, [(m.begin, m.end) for m in c.mentions],
                          rng.sample(["L1", "L2", "L3", "L4"],
                                     rng.randint(0, 4)))
                         for c in gold.clusters]
            pred = make_doc("g", n_tokens=30, clusters=relabeled)
            view = build_eval_view(gold, pred, "ner")
            soft_table = per_label_prf(view, "soft")
            hard_table = per_label_prf(view, "hard")
            assert set(soft_table) == set(hard_table)
            for label in soft_table:
                s, h = soft_table[label], hard_table[label]
                assert (s.precision, s.recall, s.f1) \
                    == (h.precision, h.recall, h.f1), label
            exact_checked += 1
        assert refined_checked >= 100 and exact_checked >= 100

    _report("metric ordering law (refinement and exact-clustering)", body)


def test_criterion_coref_scorers():
    def body():
        gold = make_partition([{"a", "b", "c"}])
        pred = make_partition([{"a", "b"}, {"c"}])
        assert abs(muc(gold, pred).f1 - 0.667) < 1e-3
        assert abs(b_cubed(gold, pred).f1 - 0.714) < 1e-3
        assert abs(ceaf_e(gold, pred).f1 - 0.533) < 1e-3
        assert abs(avg_coref_f1(gold, pred) - 0.638) < 1e-3

        rng = random.Random(103)
        universe = list("abcdefghijkl")
        for _ in range(500):
            def draw():
                mentions = [m for m in universe if rng.random() < 0.8]
                rng.shuffle(mentions)
                n = rng.randint(1, 6)
                clusters = [set() for _ in range(n)]
                for m in mentions:
                    clusters[rng.randrange(n)].add(m)
                return make_partition([c for c in clusters if c])

            g, p = draw(), draw()
            got = ceaf_e(g, p)
            bp, br, bf = brute_force_ceafe(list(g), list(p))
            assert abs(got.precision - bp) < TOL
            assert abs(got.recall - br) < TOL
            assert abs(got.f1 - bf) < TOL

    _report("coreference scorers (fixture values, exact optimal alignment)",
            body)


def test_criterion_rule_engine():
    def body():
        rules = builtin_ruleset()
        assert len(rules) == 41

        # the organization/city/country chain derives the country relation
        facts = FactBase(binary={("org", "based_in2", "city"),
                                 ("city", "in0", "country")})
        closed = closure(facts, rules)
        assert ("org", "based_in0", "country") in closed.binary

        rng = random.Random(104)
        predicates = ["in0", "in2", "in1", "based_in2", "based_in0",
                      "spouse_of", "member_of", "gpe0"]
        entities = [f"e{i}" for i in range(6)]
        for _ in range(1000):
            base = FactBase(
                binary={(rng.choice(entities), rng.choice(predicates),
                         rng.choice(entities))
                        for _ in range(rng.randint(0, 10))},
                unary={(rng.choice(["gpe0", "sport_player"]),
                        rng.choice(entities))
                       for _ in range(rng.randint(0, 4))})
            closed = closure(base, rules)
            assert closed.binary == naive_closure(base.binary, base.unary,
                                                  rules)
            assert base.binary <= closed.binary
            assert closure(closed, rules).binary == closed.binary

    _report("rule engine (41 rules, chain fixture, closure oracle x1000)",
            body)


def test_criterion_kappa():
    def body():
        # marginals (12, 8) vs (10, 10) over 20 items with 16 agreements
        items = [("x", "x")] * 9 + [("y", "y")] * 7 \
            + [("x", "y")] * 3 + [("y", "x")]
        fixture = AnnotationPair(tuple(items))
        assert observed_agreement(fixture) == 0.8
        assert expected_agreement(fixture) == 0.5
        assert abs(cohen_kappa(fixture) - 0.6) < TOL

        perfect = AnnotationPair(tuple([("a", "a")] * 4 + [("b", "b")] * 2))
        assert cohen_kappa(perfect) == 1.0

        rng = random.Random(105)
        base_items = [(rng.choice("abcd"), rng.choice("abcd"))
                      for _ in range(40)]
        reference = (observed_agreement(AnnotationPair(tuple(base_items))),
                     expected_agreement(AnnotationPair(tuple(base_items))),
                     cohen_kappa(AnnotationPair(tuple(base_items))))
        for _ in range(100):
            rng.shuffle(base_items)
            p = AnnotationPair(tuple(base_items))
            assert (observed_agreement(p), expected_agreement(p),
                    cohen_kappa(p)) == reference

    _report("kappa (0.6 fixture, perfect agreement, permutation invariance)",
            body)


def test_criterion_kernels():
    def body():
        rng = np.random.default_rng(106)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            att = attention_confidence(rng.normal(size=(n, n)) * 4)
            assert np.all(np.abs(att.sum(axis=1) - 1.0) < TOL)
            scores = rng.normal(size=(n, n)) * 4
            for j in range(n):
                conf = coref_confidence(scores)[:, j]
                assert abs(conf.sum() - 1.0) < TOL
                assert np.all(conf[j + 1:] == 0.0)

        for _ in range(1000):
            n = int(rng.integers(1, 5))
            g = rng.normal(size=n) * 3
            u = rng.normal(size=n) * 3
            gate = GateTransform(rng.normal(size=(n, 2 * n)),
                                 rng.normal(size=n))
            out = gated_span_update(g, u, gate)
            assert np.all(out >= np.minimum(g, u) - 1e-12)
            assert np.all(out <= np.maximum(g, u) + 1e-12)

        deviations = run_selftest(trials=250, seed=106)
        worst = max(deviations.values())
        assert worst < TOL, f"worst kernel deviation {worst}"

        for n_tokens in range(1, 51):
            for width in range(1, min(n_tokens, 5) + 1):
                enumerated = sum(1 for k in range(1, width + 1)
                                 for _b in range(n_tokens - k + 1))
                assert span_count(n_tokens, width) == enumerated
        assert span_count(100, 5) == 490

    _report("kernels (softmax rows, convex gate, loop oracles, span counts)",
            body)


# --------------------------------------------------------------------------
# Dataset-dependent criteria


def _load_full_corpus():
    path = os.environ.get(CORPUS_ENV)
    if not path or not Path(path).exists():
        return None
    return load_corpus(path)


def test_criterion_corpus_statistics():
    def synthetic_body():
        docs = parse_corpus(FIXTURES / "ok.jsonl")
        s = corpus_summary(docs)
        hist = entity_type_histogram(docs)
        rel = relation_type_histogram(docs)
        assert hist.total_clusters == s.clusters
        assert hist.total_mentions == s.mentions
        assert rel.total_entity_pairs <= s.relation_triples
        multilabel = multilabel_relation_histogram(docs)
        assert sum(e for e, _m in multilabel.values()) == rel.total_entity_pairs

    _report("corpus statistics machinery (synthetic fixtures)", synthetic_body)

    docs = _load_full_corpus()
    if docs is None:
        print("[ACCEPTANCE] corpus statistics (full corpus): SKIP "
              f"(set {CORPUS_ENV} to the canonical JSONL)")
        pytest.skip("full corpus not available")

    def full_body():
        start = time.perf_counter()
        s = corpus_summary(docs)
        hist = entity_type_histogram(docs)
        rel = relation_type_histogram(docs)
        buckets = multilabel_relation_histogram(docs)
        train = [d for d in docs if d.split == "train"]
        test = [d for d in docs if d.split == "test"]
        accuracy = prior_link_baseline(train, test)
        elapsed = time.perf_counter() - start
        assert s.tokens == 501095
        assert s.mentions == 43373
        assert s.clusters == 23130
        assert s.linked_clusters == 13086
        assert hist.total_clusters == 23130
        assert hist.total_mentions == 43373
        assert rel.total_entity_pairs == 16844
        assert rel.total_mention_pairs == 162406
        assert buckets[1][0] == 12856
        assert abs(s.singleton_fraction - 0.664) <= 0.002
        assert abs(s.mean_labels_per_entity - 4.0) <= 0.05
        assert abs(accuracy - 0.700) <= 0.02
        assert elapsed < 60.0

    _report("corpus statistics (full corpus reproduction)", full_body)


def test_criterion_rules_on_gold_annotations():
    def synthetic_body():
        docs = load_corpus(FIXTURES / "missing_head.jsonl")
        violations = []
        firings = 0
        for d in docs:
            firings += count_firings(d)
            violations.extend(check_violations(d))
        assert firings == 1
        assert [v.rule_id for v in violations] == ["C.27"]

    _report("rule check machinery (synthetic fixture)", synthetic_body)

    docs = _load_full_corpus()
    if docs is None:
        print("[ACCEPTANCE] rule check (full corpus): SKIP "
              f"(set {CORPUS_ENV} to the canonical JSONL)")
        pytest.skip("full corpus not available")

    def full_body():
        rules = builtin_ruleset()
        firings = 0
        violations = []
        for d in docs:
            firings += count_firings(d, rules)
            for v in check_violations(d, rules):
                violations.append((d.id, v.rule_id, v.head))
        rate = len(violations) / firings if firings else 0.0
        for doc_id, rule_id, head in violations[:50]:
            print(f"residual violation {doc_id} {rule_id}: {head}")
        assert rate < 0.005, f"violation rate {rate:.4%}"

    _report("rule check (full corpus violation rate < 0.5%)", full_body)
