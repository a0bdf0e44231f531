"""Forward-chaining consistency rules over entity-level annotations.

Rules are Horn clauses with one or two body atoms and a binary head. Binary
predicates range over relation types between clusters, unary predicates over
entity tags. The built-in rule set ships as a plain-text resource
(``resources/consistency_rules.txt``, one rule per line) so corrections stay
diffable:

    C.27: based_in2(X, Z) & in0(Z, Y) => based_in0(X, Y)
    C.29: agency_of(X, Y) & gpe0(Y) => based_in0(X, Y)

Terms starting with an uppercase letter are variables; two distinct constants
never unify. `ground` counts the satisfied rule bodies of a fact base and
reports those whose grounded head is missing from its relations; `closure`
computes the least fixpoint of a fact base under a rule set.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .corpus import Document, _content_lines, _resource_text

_ATOM_RE = re.compile(r"^\s*([A-Za-z0-9_\-]+)\s*\(\s*([^()]*?)\s*\)\s*$")


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[str, ...]

    def __post_init__(self):
        if len(self.args) not in (1, 2):
            raise ValueError(f"atom {self.predicate!r} must have 1 or 2 arguments")

    @property
    def is_binary(self) -> bool:
        return len(self.args) == 2


def is_variable(term: str) -> bool:
    return bool(term) and term[0].isupper()


@dataclass(frozen=True)
class Rule:
    id: str
    body: tuple[Atom, ...]
    head: Atom

    def __post_init__(self):
        if not 1 <= len(self.body) <= 2:
            raise ValueError(f"rule {self.id}: body must have 1 or 2 atoms")
        if not self.head.is_binary:
            raise ValueError(f"rule {self.id}: head must be binary")
        body_vars = {t for a in self.body for t in a.args if is_variable(t)}
        head_vars = {t for t in self.head.args if is_variable(t)}
        if not head_vars <= body_vars:
            raise ValueError(f"rule {self.id}: head variables "
                             f"{sorted(head_vars - body_vars)} not bound by body")


class FactBase:
    """Ground facts of one document: relations as binary facts
    (head id, predicate, tail id), tags as unary facts (predicate, id)."""

    def __init__(self, binary: set[tuple[str, str, str]] | None = None,
                 unary: set[tuple[str, str]] | None = None):
        self.binary = set() if binary is None else binary
        self.unary = set() if unary is None else unary


def facts_from_document(d: Document) -> FactBase:
    """Relations become binary facts; every cluster tag becomes a unary fact.
    Tags of the form ``category::value`` also ground the bare value, so
    namespaced tag schemes still satisfy unary predicates."""
    facts = FactBase()
    facts.binary.update(d.relations)
    for c in d.clusters:
        for tag in c.tags:
            facts.unary.add((tag, c.id))
            if "::" in tag:
                facts.unary.add((tag.rsplit("::", 1)[1], c.id))
    return facts


# --------------------------------------------------------------------------
# Rule parsing


def parse_atom(text: str) -> Atom:
    m = _ATOM_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse atom {text!r}")
    args = tuple(a.strip() for a in m.group(2).split(",")) if m.group(2).strip() else ()
    return Atom(m.group(1), args)


def parse_rule(line: str, default_id: str | None = None) -> Rule:
    """Parse ``[id:] atom [& atom] => atom``."""
    rule_id = default_id
    text = line.strip()
    if "=>" not in text:
        raise ValueError(f"rule {text!r} has no '=>'")
    lhs, rhs = text.split("=>", 1)
    if ":" in lhs.split("(", 1)[0]:
        rule_id, lhs = lhs.split(":", 1)
        rule_id = rule_id.strip()
    body = tuple(parse_atom(a) for a in lhs.split("&"))
    head = parse_atom(rhs)
    return Rule(rule_id or "?", body, head)


def load_ruleset(path: str | Path) -> list[Rule]:
    return _parse_ruleset(Path(path).read_text(encoding="utf-8"))


def _parse_ruleset(text: str) -> list[Rule]:
    return [parse_rule(line, default_id=f"line-{number}")
            for number, line in _content_lines(text)]


def builtin_ruleset() -> list[Rule]:
    """The shipped relation-consistency rule set (41 rules, ids C.1-C.41),
    parsed on the first call; each call returns a new list of the rules."""
    return list(_builtin_rules())


@functools.cache
def _builtin_rules() -> tuple[Rule, ...]:
    return tuple(_parse_ruleset(_resource_text("consistency_rules.txt")))


# --------------------------------------------------------------------------
# Matching and fixpoint


def _index(facts: FactBase) -> dict[tuple[str, int], list[tuple[str, ...]]]:
    """Argument tuples by (predicate, arity), in sorted fact order; the arity
    keeps a tag and a relation type of the same name apart."""
    index: dict[tuple[str, int], list[tuple[str, ...]]] = {}
    for h, p, t in sorted(facts.binary):
        index.setdefault((p, 2), []).append((h, t))
    for p, e in sorted(facts.unary):
        index.setdefault((p, 1), []).append((e,))
    return index


def _match_atom(atom: Atom, index: dict[tuple[str, int], list[tuple[str, ...]]],
                subst: dict[str, str]) -> Iterator[dict[str, str]]:
    """Yield extensions of `subst` that ground `atom` against an indexed fact."""
    for values in index.get((atom.predicate, len(atom.args)), ()):
        ext = dict(subst)
        for term, value in zip(atom.args, values):
            bound = ext.setdefault(term, value) if is_variable(term) else term
            if bound != value:
                break
        else:
            yield ext


def _ground_head(head: Atom, subst: dict[str, str]) -> tuple[str, str, str]:
    h, t = (subst[a] if is_variable(a) else a for a in head.args)
    return (h, head.predicate, t)


def iter_groundings(facts: FactBase, rules: Iterable[Rule]
                    ) -> Iterator[tuple[Rule, dict[str, str], tuple[str, str, str]]]:
    """Every satisfied rule body, with its substitution and grounded head, in
    rule order and then in sorted fact order. A substitution binds every term
    of the body, so it grounds each body atom to exactly one fact: distinct
    fact pairs give distinct firings, and none repeats."""
    index = _index(facts)
    for rule in rules:
        for s1 in _match_atom(rule.body[0], index, {}):
            rest = _match_atom(rule.body[1], index, s1) if len(rule.body) == 2 else (s1,)
            for subst in rest:
                yield rule, subst, _ground_head(rule.head, subst)


class Violation(NamedTuple):
    rule_id: str
    head: tuple[str, str, str]
    substitution: tuple[tuple[str, str], ...]

    def to_json(self) -> dict:
        h, p, t = self.head
        return {"rule": self.rule_id,
                "missing": {"head": h, "type": p, "tail": t},
                "substitution": dict(self.substitution)}


def ground(facts: FactBase, rules: Iterable[Rule] | None = None
           ) -> tuple[int, list[Violation]]:
    """The number of satisfied rule bodies, and the violations: those whose
    grounded head is not a fact, in `iter_groundings` order."""
    firings, violations = 0, []
    rules = builtin_ruleset() if rules is None else rules
    for rule, subst, head in iter_groundings(facts, rules):
        firings += 1
        if head not in facts.binary:
            violations.append(Violation(rule.id, head, tuple(sorted(subst.items()))))
    return firings, violations


def closure(facts: FactBase, rules: Iterable[Rule] | None = None,
            delta: set[tuple[str, str, str]] | None = None) -> FactBase:
    """Least fixpoint of `facts` under `rules`; the input is not mutated.

    Round one adds `delta`, by default the violation heads of
    `ground(facts, rules)`; each later round adds the grounded heads of
    `iter_groundings` over the facts so far that are still missing, until a
    round finds none. The loop ends: every round but the last adds at least
    one fact, from the finite set of heads the rules can ground over the
    entities and constants present.
    """
    rules = list(builtin_ruleset() if rules is None else rules)
    result = FactBase(set(facts.binary), set(facts.unary))
    if delta is None:
        delta = {v.head for v in ground(result, rules)[1]}
    while delta:
        result.binary |= delta
        delta = {head for *_, head in iter_groundings(result, rules)
                 if head not in result.binary}
    return result


class RulesFold:
    """`entkit rules check` under `rules` as a fold (`add`, `merge` in corpus
    order, `result`); with `closure`, each document's derivable missing relations."""

    def __init__(self, rules: list[Rule], closure: bool = False):
        self.rules, self.firings, self.violations = rules, 0, []
        self.derived: list[dict] | None = [] if closure else None

    def add(self, d: Document) -> None:
        facts = facts_from_document(d)
        n, found = ground(facts, self.rules)
        self.firings += n
        self.violations += [{"doc": d.id, **v.to_json()} for v in found]
        if self.derived is not None:
            derived = closure(facts, self.rules, {v.head for v in found}).binary - facts.binary
            self.derived.append({"doc": d.id, "derived": [
                {"head": h, "type": p, "tail": t} for h, p, t in sorted(derived)]})

    def merge(self, other: "RulesFold") -> None:
        self.firings += other.firings
        self.violations += other.violations
        if self.derived is not None:
            self.derived += other.derived

    def result(self) -> dict:
        n, violations = self.firings, self.violations
        result = {"rules": len(self.rules), "firings": n, "violations": violations,
                  "violation_rate": len(violations) / n if n else 0.0}
        return result if self.derived is None else {**result, "closure": self.derived}


def check_violations(d: Document, rules: Iterable[Rule] | None = None
                     ) -> list[Violation]:
    """The rule violations of the document's annotations, as `ground` lists them."""
    return ground(facts_from_document(d), rules)[1]


def count_firings(d: Document, rules: Iterable[Rule] | None = None) -> int:
    """Number of satisfied rule-body groundings in the document."""
    return ground(facts_from_document(d), rules)[0]
