import random

import pytest

from entkit import rules
from entkit.rules import (Atom, FactBase, builtin_ruleset,
                          check_violations, closure, count_firings,
                          facts_from_document, parse_rule)
from conftest import make_doc
from oracles import naive_closure


def rule_by_id(rule_id):
    return {r.id: r for r in builtin_ruleset()}[rule_id]


def test_builtin_ruleset_has_41_rules():
    assert len(builtin_ruleset()) == 41


def test_builtin_ruleset_is_parsed_once_into_fresh_lists(monkeypatch):
    parsed = []
    parse = rules._parse_ruleset
    monkeypatch.setattr(rules, "_parse_ruleset",
                        lambda text: parsed.append(text) or parse(text))
    rules._builtin_rules.cache_clear()
    try:
        first, second = builtin_ruleset(), builtin_ruleset()
        d = make_doc(clusters=[("a", [(0, 1)], []), ("b", [(2, 3)], [])],
                     relations=[("a", "based_in2", "b")])
        check_violations(d)
        count_firings(d)
        closure(facts_from_document(d))
        assert len(parsed) == 1
    finally:
        rules._builtin_rules.cache_clear()
    assert first == second and first is not second
    first.clear()
    assert builtin_ruleset() == second


def test_chain_rule_c27_shape():
    r = rule_by_id("C.27")
    assert r.body == (Atom("based_in2", ("X", "Z")), Atom("in0", ("Z", "Y")))
    assert r.head == Atom("based_in0", ("X", "Y"))


def test_tag_conditioned_rule_c35_shape():
    r = rule_by_id("C.35")
    assert r.body == (Atom("member_of", ("X", "Y")),
                      Atom("sport_player", ("X",)))
    assert r.head == Atom("player_of", ("X", "Y"))


def test_every_head_variable_is_bound():
    for r in builtin_ruleset():
        body_vars = {t for a in r.body for t in a.args if t[0].isupper()}
        assert {t for t in r.head.args if t[0].isupper()} <= body_vars


def test_parse_rule_rejects_unbound_head():
    with pytest.raises(ValueError):
        parse_rule("in0(X, Y) => in0(X, Q)")


def test_parse_rule_without_id():
    r = parse_rule("won_vs(X, Y) => vs(X, Y)", default_id="r1")
    assert r.id == "r1"
    assert r.body[0].predicate == "won_vs"


def test_closure_chain_firing():
    facts = FactBase(binary={("a", "in2", "b"), ("b", "in0", "c")})
    closed = closure(facts)
    assert ("a", "in0", "c") in closed.binary
    assert facts.binary == {("a", "in2", "b"), ("b", "in0", "c")}  # input intact


def test_closure_symmetric_rule_terminates():
    facts = FactBase(binary={("x", "spouse_of", "y")})
    closed = closure(facts)
    assert ("y", "spouse_of", "x") in closed.binary
    assert len(closed.binary) == 2


def test_closure_empty_is_empty():
    closed = closure(FactBase())
    assert closed.binary == set() and closed.unary == set()


def test_closure_unary_condition():
    facts = FactBase(binary={("org", "agency_of", "de")},
                     unary={("gpe0", "de")})
    closed = closure(facts)
    assert ("org", "based_in0", "de") in closed.binary


def test_closure_cascades_through_derived_facts():
    # based_in2 + in0 gives based_in0, which then bridges to based_in0-x
    facts = FactBase(binary={("o", "based_in2", "city"),
                             ("city", "in0", "country"),
                             ("adj", "gpe0", "country")})
    closed = closure(facts)
    assert ("o", "based_in0", "country") in closed.binary
    assert ("o", "based_in0-x", "adj") in closed.binary


def test_namespaced_tags_ground_unary_predicates():
    d = make_doc(clusters=[("p", [(0, 1)], ["type::sport_player"]),
                           ("t", [(2, 3)], ["sport_team"])],
                 relations=[("p", "member_of", "t")])
    violations = check_violations(d)
    assert [v.rule_id for v in violations] == ["C.35"]


def test_violations_on_missing_chain_head():
    complete = make_doc(clusters=[("o", [(0, 1)], []), ("c", [(2, 3)], []),
                                  ("g", [(4, 5)], [])],
                        relations=[("o", "based_in2", "c"), ("c", "in0", "g"),
                                   ("o", "based_in0", "g")])
    assert check_violations(complete) == []

    incomplete = make_doc(clusters=[("o", [(0, 1)], []), ("c", [(2, 3)], []),
                                    ("g", [(4, 5)], [])],
                          relations=[("o", "based_in2", "c"),
                                     ("c", "in0", "g")])
    violations = check_violations(incomplete)
    assert len(violations) == 1
    assert violations[0].rule_id == "C.27"
    assert violations[0].head == ("o", "based_in0", "g")
    assert dict(violations[0].substitution) == {"X": "o", "Z": "c", "Y": "g"}


def test_no_relations_no_violations():
    assert check_violations(make_doc(clusters=[("c", [(0, 1)], ["person"])])) == []


def test_firings_counted():
    d = make_doc(clusters=[("o", [(0, 1)], []), ("c", [(2, 3)], []),
                           ("g", [(4, 5)], [])],
                 relations=[("o", "based_in2", "c"), ("c", "in0", "g"),
                            ("o", "based_in0", "g")])
    # C.27 fires once; C.41 does not (no binary gpe0 fact); nothing else applies
    assert count_firings(d) == 1


PREDICATES = ["in0", "in2", "in1", "based_in2", "based_in0", "spouse_of",
              "member_of", "gpe0"]
TAGS = ["gpe0", "sport_player"]
ENTITIES = [f"e{i}" for i in range(6)]


def random_factbase(rng):
    binary = {(rng.choice(ENTITIES), rng.choice(PREDICATES), rng.choice(ENTITIES))
              for _ in range(rng.randint(0, 10))}
    unary = {(rng.choice(TAGS), rng.choice(ENTITIES))
             for _ in range(rng.randint(0, 4))}
    return FactBase(binary=binary, unary=unary)


def test_closure_matches_naive_oracle_and_is_idempotent():
    rng = random.Random(31)
    rules = builtin_ruleset()
    for _ in range(300):
        facts = random_factbase(rng)
        closed = closure(facts, rules)
        expected = naive_closure(facts.binary, facts.unary, rules)
        assert closed.binary == expected
        assert closed.unary == facts.unary
        again = closure(closed, rules)
        assert again.binary == closed.binary  # idempotent
        assert facts.binary <= closed.binary  # extensive


def test_closure_monotone_in_facts():
    rng = random.Random(32)
    rules = builtin_ruleset()
    for _ in range(100):
        small = random_factbase(rng)
        big = FactBase(set(small.binary), set(small.unary))
        big.binary |= {(rng.choice(ENTITIES), rng.choice(PREDICATES),
                        rng.choice(ENTITIES)) for _ in range(3)}
        closed_small = closure(small, rules)
        closed_big = closure(big, rules)
        assert closed_small.binary <= closed_big.binary


def test_facts_from_document():
    d = make_doc(clusters=[("a", [(0, 1)], ["person", "politician"]),
                           ("b", [(2, 3)], [])],
                 relations=[("a", "citizen_of", "b")])
    facts = facts_from_document(d)
    assert facts.binary == {("a", "citizen_of", "b")}
    assert facts.unary == {("person", "a"), ("politician", "a")}


def test_violation_empty_iff_closure_adds_nothing():
    rng = random.Random(33)
    rules = builtin_ruleset()
    for _ in range(100):
        facts = random_factbase(rng)
        d = make_doc(
            clusters=[(e, [(i, i + 1)], [t for t, ent in facts.unary if ent == e])
                      for i, e in enumerate(ENTITIES)],
            relations=sorted(facts.binary))
        violations = check_violations(d, rules)
        closed = closure(facts_from_document(d), rules)
        added = closed.binary - facts_from_document(d).binary
        assert (len(violations) == 0) == (len(added) == 0)
