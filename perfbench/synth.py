"""Seeded generator of DWIE-shaped benchmark inputs (standard library only).

Nothing here imports ``entkit``, so two versions of the program receive
byte-identical inputs for the same seed and size.

At ``size=1.0`` the canonical corpus has exactly the DWIE totals for
documents, tokens, mentions, clusters, singleton clusters, labels and linked
clusters; the relation totals land within the tolerances in ``TOLERANCES``.
Document lengths are a fixed multiset (quantiles of a log-normal), so the seed
changes which document gets which length and all content, but not the amount
of work.

Besides the canonical corpus the generator writes a DWIE-format release
directory (for ``convert``), a second annotation of the same documents with
split/merged clusters, shifted/dropped spans, swapped tags and changed
relations and links (for ``score`` and ``kappa``), span-level prediction files
(for ``decode``), and the facts every output is checked against.
"""

from __future__ import annotations

import json
import math
import random
import re
from bisect import bisect_right
from pathlib import Path
from statistics import NormalDist

# Totals of the DWIE corpus (arXiv 2009.12626), as pinned in tests/test_acceptance.py.
DWIE = {
    "documents": 802,
    "test_documents": 100,
    "tokens": 501095,
    "mentions": 43373,
    "clusters": 23130,
    "singleton_fraction": 0.664,
    "labels_per_entity": 4.0,
    "linked_clusters": 13086,
    "related_pairs": 16844,
    "mention_pairs": 162406,
    "single_type_pairs": 12856,
}

# Relative tolerance of each generated total against DWIE at size 1.0.
TOLERANCES = {
    "documents": 0.0, "tokens": 0.0, "mentions": 0.0, "clusters": 0.0,
    "singleton_fraction": 0.001, "labels_per_entity": 0.001,
    "linked_clusters": 0.0, "related_pairs": 0.03, "mention_pairs": 0.05,
    "single_type_pairs": 0.05,
}

# Copy of the shipped relation-consistency rules
# (src/entkit/resources/consistency_rules.txt); the generator makes most
# documents closed under them and plants a known number of violations.
RULES_TEXT = """\
C.1: spouse_of(Y, X) => spouse_of(X, Y)
C.2: vs(Y, X) => vs(X, Y)
C.3: won_vs(X, Y) => vs(X, Y)
C.4: won_vs(X, Y) => vs(Y, X)
C.5: child_of(Y, X) => parent_of(X, Y)
C.6: parent_of(Y, X) => child_of(X, Y)
C.7: ministry_of(X, Y) => agency_of(X, Y)
C.8: agency_of-x(X, Z) & gpe0(Z, Y) => agency_of(X, Y)
C.9: agency_of(X, Y) & gpe0(Z, Y) => agency_of-x(X, Z)
C.10: agent_of-x(X, Z) & gpe0(Z, Y) => agent_of(X, Y)
C.11: agent_of(X, Y) & gpe0(Z, Y) => agent_of-x(X, Z)
C.12: minister_of(X, Y) => agent_of(X, Y)
C.13: head_of_gov(X, Y) => agent_of(X, Y)
C.14: head_of_state(X, Y) => agent_of(X, Y)
C.15: citizen_of-x(X, Z) & gpe0(Z, Y) => citizen_of(X, Y)
C.16: citizen_of(X, Y) & gpe0(Z, Y) => citizen_of-x(X, Z)
C.17: minister_of-x(X, Z) & gpe0(Z, Y) => minister_of(X, Y)
C.18: minister_of(X, Y) & gpe0(Z, Y) => minister_of-x(X, Z)
C.19: head_of_state-x(X, Z) & gpe0(Z, Y) => head_of_state(X, Y)
C.20: head_of_state(X, Y) & gpe0(Z, Y) => head_of_state-x(X, Z)
C.21: head_of_gov-x(X, Z) & gpe0(Z, Y) => head_of_gov(X, Y)
C.22: head_of_gov(X, Y) & gpe0(Z, Y) => head_of_gov-x(X, Z)
C.23: in0-x(X, Z) & gpe0(Z, Y) => in0(X, Y)
C.24: in0(X, Y) & gpe0(Z, Y) => in0-x(X, Z)
C.25: in2(X, Z) & in0(Z, Y) => in0(X, Y)
C.26: in1(X, Z) & in0(Z, Y) => in0(X, Y)
C.27: based_in2(X, Z) & in0(Z, Y) => based_in0(X, Y)
C.28: based_in1(X, Z) & in0(Z, Y) => based_in0(X, Y)
C.29: agency_of(X, Y) & gpe0(Y) => based_in0(X, Y)
C.30: event_in2(X, Z) & in0(Z, Y) => event_in0(X, Y)
C.31: event_in1(X, Z) & in0(Z, Y) => event_in0(X, Y)
C.32: head_of(X, Y) => member_of(X, Y)
C.33: coach_of(X, Y) => member_of(X, Y)
C.34: spokesperson_of(X, Y) => member_of(X, Y)
C.35: member_of(X, Y) & sport_player(X) => player_of(X, Y)
C.36: mayor_of(X, Y) => head_of_gov(X, Y)
C.37: directed_by(X, Y) => created_by(X, Y)
C.38: character_in(X, Y) & played_by(X, Z) => plays_in(Z, Y)
C.39: institution_of(X, Y) => part_of(X, Y)
C.40: based_in0-x(X, Z) & gpe0(Z, Y) => based_in0(X, Y)
C.41: based_in0(X, Y) & gpe0(Z, Y) => based_in0-x(X, Z)
"""

# Entity kinds: tag lists ordered from most to least specific, every tag taken
# from the shipped tag vocabulary. A cluster with L labels keeps the first L.
KIND_TAGS = {
    "country": ["gpe0", "gpe", "location", "ENTITY", "politics", "keyword", "iptc"],
    "region": ["gpe1", "gpe", "location", "ENTITY", "regio", "keyword", "iptc"],
    "city": ["gpe2", "gpe", "location", "ENTITY", "keyword", "culture", "iptc"],
    "adjective": ["gpe0-x", "OTHER", "keyword", "culture", "iptc", "politics", "ethnicity"],
    "politician": ["politician", "person", "ENTITY", "politics_per", "politics", "male", "keyword"],
    "player": ["sport_player", "person", "ENTITY", "sport_person", "sport", "male", "keyword"],
    "person": ["person", "ENTITY", "artist", "culture_per", "culture", "female", "keyword"],
    "ministry": ["ministry", "governmental_organization", "organization", "ENTITY", "politics_org", "politics", "keyword"],
    "company": ["company", "organization", "ENTITY", "business_org", "business", "keyword", "iptc"],
    "team": ["sport_team", "organization", "ENTITY", "sport_org", "sport", "keyword", "iptc"],
    "event": ["event", "ENTITY", "politics_event", "politics", "summit_meeting", "keyword", "iptc"],
    "work": ["work_of_art", "misc", "ENTITY", "film_title", "culture_title", "culture", "keyword"],
    "time": ["time", "VALUE", "keyword", "iptc", "history", "holiday", "politics"],
    "money": ["money", "VALUE", "business", "keyword", "iptc", "market_index", "business_misc"],
    "role": ["role", "VALUE", "politics", "keyword", "iptc", "head", "employee"],
}
KIND_WEIGHTS_MULTI = {
    "country": 16, "region": 3, "city": 10, "adjective": 8, "politician": 16,
    "player": 5, "person": 10, "ministry": 7, "company": 9, "team": 6,
    "event": 5, "work": 5,
}
KIND_WEIGHTS_SINGLE = {
    "country": 4, "region": 3, "city": 8, "adjective": 4, "politician": 7,
    "player": 3, "person": 12, "ministry": 3, "company": 8, "team": 3,
    "event": 6, "work": 6, "time": 18, "money": 6, "role": 9,
}
VALUE_KINDS = {"time", "money", "role"}

LOG_SIGMA = 0.45          # spread of document lengths
COREF_SLICE_DOCS = 100    # documents in the coreference-score slice, spread
                          # over the length distribution
SPAN_GRAPH_DOCS = 80      # documents that get one model step each, per pass
UNALIGNED_DOC_SHARE = 0.1  # documents with a whitespace-only release mention
DROPPED_CONCEPT_DOC_SHARE = 0.05  # documents with an unmentioned concept
PLANTED_DOC_SHARE = 0.08  # documents with one implied relation removed
DANGLING_PER_DOC = 2      # decode relations with an endpoint in no cluster


# --------------------------------------------------------------------------
# Helpers


def _allocate(total: int, weights: list[float]) -> list[int]:
    """Integers proportional to `weights` that sum exactly to `total`
    (largest remainder)."""
    wsum = sum(weights)
    raw = [total * w / wsum for w in weights]
    out = [int(math.floor(x)) for x in raw]
    rest = total - sum(out)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - out[i]), i))
    for i in order[:rest]:
        out[i] += 1
    return out


def _pick(rng: random.Random, weights: dict[str, float]) -> str:
    keys = sorted(weights)
    return rng.choices(keys, [weights[k] for k in keys])[0]


_SYLLABLES = ["ka", "lo", "mi", "ter", "an", "sul", "ve", "dor", "ri", "ba",
              "nel", "to", "gra", "fen", "os", "pi", "lun", "da", "ser", "mo",
              "quin", "el", "ta", "bur", "ne", "vis", "ha", "ro", "zen", "li"]


def _word(rng: random.Random, lo: int = 1, hi: int = 3) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(lo, hi)))


# --------------------------------------------------------------------------
# Rules: the engine's matching semantics, re-implemented to keep generated
# documents closed and to know the firings, violations and derived facts


def parse_rules(text: str = RULES_TEXT) -> list[tuple[str, list, tuple]]:
    atom = re.compile(r"([A-Za-z0-9_\-]+)\(([^()]*)\)")
    rules = []
    for line in text.splitlines():
        rule_id, rest = line.split(":", 1)
        lhs, rhs = rest.split("=>")
        body = [(m.group(1), tuple(a.strip() for a in m.group(2).split(",")))
                for m in atom.finditer(lhs)]
        h = atom.search(rhs)
        rules.append((rule_id, body, (h.group(1), tuple(
            a.strip() for a in h.group(2).split(",")))))
    return rules


RULES = parse_rules()


def _groundings(binary: set, unary: set, rules=RULES):
    """Yield (rule id, grounded head) per distinct satisfied body grounding,
    with the engine's semantics (uppercase terms are variables)."""
    by_pred: dict[str, list] = {}
    for h, p, t in binary:
        by_pred.setdefault(p, []).append((h, t))
    for p, e in unary:
        by_pred.setdefault("#" + p, []).append((e,))

    def match(atom, subst):
        pred, args = atom
        key = pred if len(args) == 2 else "#" + pred
        for values in by_pred.get(key, ()):
            out = dict(subst)
            ok = True
            for term, value in zip(args, values):
                if term[0].isupper():
                    if out.setdefault(term, value) != value:
                        ok = False
                        break
                elif term != value:
                    ok = False
                    break
            if ok:
                yield out

    for rule_id, body, head in rules:
        seen = set()
        for s1 in match(body[0], {}):
            cands = [s1] if len(body) == 1 else match(body[1], s1)
            for s in cands:
                key = tuple(sorted(s.items()))
                if key in seen:
                    continue
                seen.add(key)
                yield rule_id, (s[head[1][0]], head[0], s[head[1][1]])


def _close(binary: set, unary: set) -> set:
    result = set(binary)
    while True:
        new = {h for _r, h in _groundings(result, unary)} - result
        if not new:
            return result
        result |= new


_RULES_BY_PREDICATE: dict[str, list] = {}
for _rule in RULES:
    for _i, (_pred, _args) in enumerate(_rule[1]):
        if len(_args) == 2:
            _RULES_BY_PREDICATE.setdefault(_pred, []).append((_rule, _i))


def _bind(args, values, subst):
    out = dict(subst)
    for term, value in zip(args, values):
        if out.setdefault(term, value) != value:
            return None
    return out


def _add_closed(facts: set, unary: set, fact: tuple) -> None:
    """Add `fact` to the closed set `facts` together with everything the
    rules derive from it, so `facts` stays closed."""
    work = [fact]
    while work:
        f = work.pop()
        if f in facts:
            continue
        facts.add(f)
        for (_rid, body, head), i in _RULES_BY_PREDICATE.get(f[1], ()):
            s1 = _bind(body[i][1], (f[0], f[2]), {})
            if s1 is None:
                continue
            if len(body) == 1:
                substs = [s1]
            else:
                pred, args = body[1 - i]
                if len(args) == 2:
                    cands = [(h, t) for h, p, t in facts if p == pred]
                else:
                    cands = [(e,) for p, e in unary if p == pred]
                substs = [s for s in (_bind(args, c, s1) for c in cands) if s]
            for s in substs:
                work.append((s[head[1][0]], head[0], s[head[1][1]]))


def rule_facts(binary: set, unary: set) -> dict:
    firings = violations = 0
    for _rule, head in _groundings(binary, unary):
        firings += 1
        violations += head not in binary
    derived = len(_close(binary, unary) - binary)
    return {"firings": firings, "violations": violations, "derived": derived}


# --------------------------------------------------------------------------
# Canonical corpus


class _Doc:
    """One generated document, kept as plain Python structures."""

    def __init__(self, doc_id, split):
        self.id = doc_id
        self.split = split
        self.tokens: list[str] = []
        self.sentences: list[tuple[int, int]] = []
        self.clusters: list[dict] = []   # id, kind, mentions, tags, link
        self.relations: list[tuple[str, str, str]] = []

    def to_json(self) -> dict:
        clusters = []
        for c in self.clusters:
            entry = {"id": c["id"],
                     "mentions": [list(m) for m in sorted(set(c["mentions"]))],
                     "tags": sorted(set(c["tags"]))}
            if c["link"] != "absent":
                entry["link"] = c["link"]
            clusters.append(entry)
        return {"id": self.id, "split": self.split, "tokens": list(self.tokens),
                "sentences": [list(s) for s in self.sentences],
                "clusters": clusters,
                "relations": [{"head": h, "type": p, "tail": t}
                              for h, p, t in self.relations]}


class _KB:
    """Global pool of named entities, so surfaces and links recur across
    documents (the prior-link baseline needs that)."""

    def __init__(self, rng: random.Random, per_kind: int = 400):
        self.pool: dict[str, list[tuple[str, list[str]]]] = {}
        for kind in sorted(KIND_TAGS):
            entries = []
            for i in range(per_kind):
                n_words = 1 if kind in ("country", "city", "region", "adjective") \
                    else rng.choice((1, 2, 2, 3))
                words = [_word(rng).capitalize() for _ in range(n_words)]
                if kind in VALUE_KINDS:
                    words = [str(rng.randint(1, 2030))] + words[:1]
                entries.append((f"{kind}_{i}_{words[0]}", words))
            self.pool[kind] = entries
        # Zipf-like popularity: low indices are common.
        self.weights = [1.0 / (i + 1) ** 0.9 for i in range(per_kind)]

    def draw(self, rng: random.Random, kind: str):
        return rng.choices(self.pool[kind], self.weights)[0]


def _doc_lengths(n_docs: int, total: int) -> list[int]:
    nd = NormalDist()
    raw = [math.exp(LOG_SIGMA * nd.inv_cdf((i + 0.5) / n_docs))
           for i in range(n_docs)]
    return _allocate(total, raw)


def _place_mentions(rng, doc: _Doc, n_mentions: int) -> list[tuple[int, int]]:
    """Non-overlapping spans inside sentences, never on the final period."""
    eligible = []
    sent_end = {}
    for b, e in doc.sentences:
        for i in range(b, e - 1):
            eligible.append(i)
            sent_end[i] = e - 1
    starts = sorted(rng.sample(eligible, n_mentions))
    spans = []
    for k, s in enumerate(starts):
        limit = min(sent_end[s], starts[k + 1] if k + 1 < len(starts) else sent_end[s])
        want = rng.choices((1, 2, 3), (60, 30, 10))[0]
        spans.append((s, s + max(1, min(want, limit - s))))
    return spans


def _cluster_sizes(rng, n_clusters, n_singletons, n_mentions) -> list[int]:
    n_multi = n_clusters - n_singletons
    sizes = [1] * n_singletons + [2] * n_multi
    extra = n_mentions - sum(sizes)
    if extra < 0:
        raise ValueError("too few mentions for the cluster counts")
    for _ in range(extra):
        # rich get richer: a few entities are mentioned very often
        i = n_singletons + rng.choices(
            range(n_multi), [sizes[n_singletons + j] for j in range(n_multi)])[0]
        sizes[i] += 1
    return sizes


def _build_text(rng, doc: _Doc, n_tokens: int, filler: list[str]) -> None:
    pos = 0
    while pos < n_tokens:
        length = min(rng.randint(12, 36), n_tokens - pos)
        if n_tokens - pos - length < 4:
            length = n_tokens - pos
        doc.sentences.append((pos, pos + length))
        for i in range(length - 1):
            doc.tokens.append("," if rng.random() < 0.05 and i > 0 else
                              rng.choice(filler))
        doc.tokens.append(".")
        pos += length


def _relations(rng, doc: _Doc, pair_budget: int, multi_share: float,
               plant: bool) -> None:
    """Add relation motifs, closed under the rules, until the document has
    `pair_budget` related cluster pairs. With `plant`, remove one implied
    relation so the rules report violations."""
    by_kind: dict[str, list[dict]] = {}
    for c in doc.clusters:
        by_kind.setdefault(c["kind"], []).append(c)
    unary = {(t, c["id"]) for c in doc.clusters for t in c["tags"]}
    facts: set = set()

    def pick(kinds, exclude=()):
        cands = [c for k in kinds for c in by_kind.get(k, ())
                 if c["id"] not in exclude]
        if not cands:
            return None
        return rng.choices(cands, [len(c["mentions"]) ** 2 for c in cands])[0]["id"]

    countries = [c["id"] for c in by_kind.get("country", ())]
    for adj in by_kind.get("adjective", ()):
        if countries:
            _add_closed(facts, unary, (adj["id"], "gpe0", rng.choice(countries)))

    single = [
        (("city", "region", "company", "event", "team"), "in0", ("country",)),
        (("city",), "in0", ("country",)),
        (("politician", "person", "player"), "citizen_of", ("country",)),
        (("person", "player", "politician"), "member_of", ("company", "team", "ministry")),
        (("work",), "appears_in", ("person", "politician")),
        (("event",), "event_in0", ("country",)),
        (("company", "ministry"), "based_in0", ("country",)),
        (("person", "politician"), "award_received", ("work", "event")),
        (("company",), "part_of", ("company", "ministry")),
        (("politician",), "is_meeting", ("politician",)),
        (("work",), "created_by", ("person", "company")),
    ]
    multi = [
        (("politician",), "head_of_state", ("country",)),
        (("politician",), "minister_of", ("country",)),
        (("politician",), "head_of_gov", ("country",)),
        (("politician",), "mayor_of", ("city",)),
        (("ministry",), "ministry_of", ("country",)),
        (("person", "politician", "player"), "head_of", ("company", "team", "ministry")),
        (("player",), "member_of", ("team",)),
        (("team",), "won_vs", ("team",)),
    ]

    def pairs(fs):
        return {(h, t) for h, _p, t in fs}

    tries = 0
    while len(pairs(facts)) < pair_budget and tries < 60:
        tries += 1
        pool = multi if rng.random() < multi_share else single
        heads, rel, tails = rng.choice(pool)
        h = pick(heads)
        if h is None:
            continue
        t = pick(tails, exclude={h})
        if t is None:
            continue
        _add_closed(facts, unary, (h, rel, t))
    if plant:
        implied = sorted((h, p, t) for h, p, t in facts
                         if p in ("agent_of", "member_of", "agency_of"))
        if implied:
            facts.discard(rng.choice(implied))
    doc.relations = sorted(facts)


def generate_corpus(seed: int, size: float = 1.0) -> list[_Doc]:
    """The canonical corpus: `size` times the DWIE document count."""
    rng = random.Random(f"entkit-perfbench-corpus-{seed}")
    n_docs = max(4, round(DWIE["documents"] * size))
    scale = n_docs / DWIE["documents"]
    total = {k: round(DWIE[k] * scale) for k in
             ("tokens", "mentions", "clusters", "linked_clusters",
              "related_pairs", "test_documents")}
    n_single = round(total["clusters"] * DWIE["singleton_fraction"])
    n_labels = round(total["clusters"] * DWIE["labels_per_entity"])
    multi_share = 1 - DWIE["single_type_pairs"] / DWIE["related_pairs"]

    lengths = _doc_lengths(n_docs, total["tokens"])
    rng.shuffle(lengths)
    clusters = _allocate(total["clusters"], lengths)
    mentions = _allocate(total["mentions"], lengths)
    singles = _allocate(n_single, clusters)
    linked = _allocate(total["linked_clusters"], clusters)
    labels = _allocate(n_labels, clusters)
    pair_budget = _allocate(total["related_pairs"],
                            [c - s for c, s in zip(clusters, singles)])
    test_ids = set(rng.sample(range(n_docs), total["test_documents"]))

    filler = sorted({_word(random.Random(f"filler-{i}")).lower()
                     for i in range(3000)})
    kb = _KB(random.Random(f"entkit-perfbench-kb-{seed}"))
    docs = []
    for i in range(n_docs):
        doc = _Doc(f"DW_{i:04d}", "test" if i in test_ids else "train")
        _build_text(rng, doc, lengths[i], filler)
        spans = _place_mentions(rng, doc, mentions[i])
        rng.shuffle(spans)
        sizes = _cluster_sizes(rng, clusters[i], singles[i], mentions[i])
        label_counts = _allocate(labels[i], [1.0] * clusters[i])
        rng.shuffle(label_counts)
        at = 0
        for k, n in enumerate(sizes):
            kind = _pick(rng, KIND_WEIGHTS_SINGLE if n == 1 else KIND_WEIGHTS_MULTI)
            if k == len(sizes) - 1 and not any(
                    c["kind"] == "country" for c in doc.clusters):
                kind = "country"
            name, words = kb.draw(rng, kind)
            members = spans[at:at + n]
            at += n
            for b, e in members:
                for j in range(b, e):
                    doc.tokens[j] = words[(j - b) % len(words)]
            doc.clusters.append({
                "id": f"c{k}", "kind": kind, "mentions": members,
                "tags": KIND_TAGS[kind][:max(1, min(7, label_counts[k]))],
                "link": name})
        # links: prefer named entities over values
        order = sorted(doc.clusters,
                       key=lambda c: (c["kind"] in VALUE_KINDS, rng.random()))
        for c in order[linked[i]:]:
            c["link"] = None if rng.random() < 0.7 else "absent"
        _relations(rng, doc, pair_budget[i], multi_share,
                   plant=rng.random() < PLANTED_DOC_SHARE)
        docs.append(doc)
    return docs


def corpus_facts(docs: list[_Doc]) -> dict:
    """Every total the checks compare the program's outputs with."""
    tags, types = set(), set()
    s = {"tokens": 0, "mentions": 0, "clusters": 0, "relation_triples": 0,
         "linked_mentions": 0, "linked_clusters": 0}
    singletons = labels = 0
    pair_types: dict = {}
    mention_pairs = 0
    rule_totals = {"firings": 0, "violations": 0, "derived": 0}
    top = 0
    records = 0
    for d in docs:
        s["tokens"] += len(d.tokens)
        s["relation_triples"] += len(set(d.relations))
        size = {c["id"]: len(c["mentions"]) for c in d.clusters}
        spans = {c["id"]: c["mentions"] for c in d.clusters}
        begins = [b for b, _ in d.sentences]
        for c in d.clusters:
            s["clusters"] += 1
            s["mentions"] += len(c["mentions"])
            tags |= set(c["tags"])
            labels += len(c["tags"])
            singletons += len(c["mentions"]) == 1
            if isinstance(c["link"], str) and c["link"] != "absent":
                s["linked_clusters"] += 1
                s["linked_mentions"] += len(c["mentions"])
        for h, t in {(h, t) for h, _p, t in d.relations}:
            mention_pairs += size[h] * size[t]
        for h, p, t in set(d.relations):
            types.add(p)
            pair_types.setdefault((d.id, h, t), set()).add(p)
            records += 1
            for hb, he in spans[h]:
                for tb, te in spans[t]:
                    a, b = sorted(((hb, he), (tb, te)))
                    top = max(top, b[0] - a[1],
                              abs(bisect_right(begins, hb) - bisect_right(begins, tb)))
        unary = {(tag, c["id"]) for c in d.clusters for tag in c["tags"]}
        for k, v in rule_facts(set(d.relations), unary).items():
            rule_totals[k] += v
    s.update({
        "entity_types": len(tags),
        "relation_types": len(types),
        "singleton_fraction": singletons / s["clusters"] if s["clusters"] else 0.0,
        "mean_labels_per_entity": labels / s["clusters"] if s["clusters"] else 0.0,
    })
    return {
        "documents": len(docs),
        "summary": s,
        "related_pairs": len(pair_types),
        "single_type_pairs": sum(1 for v in pair_types.values() if len(v) == 1),
        "mention_pairs": mention_pairs,
        "rules": rule_totals,
        "distance_records": records,
        "coverage_rows": top + 1 if records else 0,
    }



# --------------------------------------------------------------------------
# DWIE-format release (input of `convert`)


def release_json(rng, doc: _Doc, n_unaligned: int, n_dropped: int) -> dict:
    """The document in the release's character-offset schema. Adds
    `n_unaligned` whitespace-only mentions and `n_dropped` concepts that have
    no mention, each with one relation, so `convert` has something to drop."""
    offsets, pos = [], 0
    for tok in doc.tokens:
        offsets.append((pos, pos + len(tok)))
        pos += len(tok) + 1
    content = " ".join(doc.tokens)
    mentions, concepts = [], []
    for k, c in enumerate(doc.clusters):
        for b, e in c["mentions"]:
            mentions.append({"begin": offsets[b][0], "end": offsets[e - 1][1],
                             "text": " ".join(doc.tokens[b:e]), "concept": k})
        concept = {"concept": k, "text": " ".join(doc.tokens[slice(*c["mentions"][0])]),
                   "count": len(c["mentions"]), "tags": list(c["tags"])}
        if c["link"] != "absent":
            concept["link"] = c["link"]
        concepts.append(concept)
    for _ in range(n_unaligned):
        i = rng.randrange(len(doc.tokens) - 1)
        mentions.append({"begin": offsets[i][1], "end": offsets[i + 1][0],
                         "text": " ", "concept": rng.randrange(len(doc.clusters))})
    relations = [{"s": int(h[1:]), "p": p, "o": int(t[1:])}
                 for h, p, t in doc.relations]
    for j in range(n_dropped):
        idx = len(doc.clusters) + j
        concepts.append({"concept": idx, "text": "unmentioned", "count": 0,
                         "tags": ["ENTITY"], "link": None})
        relations.append({"s": idx, "p": "in0", "o": 0})
    mentions.sort(key=lambda m: (m["begin"], m["end"]))
    return {"id": doc.id, "content": content, "tags": ["all", doc.split],
            "mentions": mentions, "concepts": concepts, "relations": relations,
            "frames": [], "iptc": []}


# --------------------------------------------------------------------------
# Second annotation (input of `score`, `kappa` and `decode`)


def perturb(rng, doc: _Doc) -> _Doc:
    """A second annotation of `doc`: same tokens, with split and merged
    clusters, shifted and dropped spans, swapped tags, and dropped, added and
    relinked relations and links. Always passes validation."""
    n = len(doc.tokens)
    out = _Doc(doc.id, doc.split)
    out.tokens, out.sentences = list(doc.tokens), list(doc.sentences)
    clusters = [dict(c, mentions=list(c["mentions"]), tags=list(c["tags"]))
                for c in doc.clusters]
    used = {m for c in clusters for m in c["mentions"]}
    for c in clusters:
        kept = []
        for m in c["mentions"]:
            r = rng.random()
            if r < 0.04 and len(c["mentions"]) > 1 and kept:
                used.discard(m)
                continue
            if r < 0.09:
                b, e = m
                cand = rng.choice(((b, e + 1), (b - 1, e), (b + 1, e), (b, e - 1)))
                if 0 <= cand[0] < cand[1] <= n and cand not in used:
                    used.discard(m)
                    used.add(cand)
                    m = cand
            kept.append(m)
        c["mentions"] = kept
    redirect: dict[str, str] = {}
    extra = []
    for c in clusters:
        r = rng.random()
        if r < 0.08 and len(c["mentions"]) >= 4:
            half = len(c["mentions"]) // 2
            extra.append(dict(c, id=c["id"] + "s", mentions=c["mentions"][half:]))
            c["mentions"] = c["mentions"][:half]
        elif r < 0.12 and len(c["mentions"]) >= 2:
            others = [o for o in clusters if o is not c and o["kind"] == c["kind"]
                      and o["id"] not in redirect and c["id"] not in redirect]
            if others:
                o = rng.choice(others)
                if o["id"] not in redirect and o["mentions"]:
                    c["mentions"] = c["mentions"] + o["mentions"]
                    o["mentions"] = []
                    redirect[o["id"]] = c["id"]
        if rng.random() < 0.06 and c["tags"]:
            swap = rng.choice(KIND_TAGS[_pick(rng, KIND_WEIGHTS_SINGLE)])
            if swap not in c["tags"]:
                c["tags"][rng.randrange(len(c["tags"]))] = swap
        if rng.random() < 0.05:
            c["link"] = None if isinstance(c["link"], str) else f"relinked_{c['id']}"
    out.clusters = [c for c in clusters + extra if c["mentions"]]
    ids = [c["id"] for c in out.clusters]
    rels = set()
    def resolve(cid):
        while cid in redirect:
            cid = redirect[cid]
        return cid

    for h, p, t in doc.relations:
        h, t = resolve(h), resolve(t)
        if h != t and rng.random() >= 0.08:
            rels.add((h, p, t))
    types = sorted({p for _h, p, _t in doc.relations}) or ["in0"]
    for _ in range(round(0.05 * len(doc.relations))):
        h, t = rng.sample(ids, 2) if len(ids) > 1 else (None, None)
        if h is not None:
            rels.add((h, rng.choice(types), t))
    out.relations = sorted(rels)
    return out


def decode_json(rng, doc: _Doc, dangling: int) -> dict:
    """Span-level predictions for `decode`: clusters of two or more spans,
    every span with its cluster's tags, two span pairs per relation, and
    `dangling` relations with an endpoint on a span no prediction covers."""
    by_id = {c["id"]: c for c in doc.clusters}
    p_cl = {c["id"]: [list(m) for m in c["mentions"]]
            for c in doc.clusters if len(c["mentions"]) > 1}
    p_men = [[list(m), tag] for c in doc.clusters for m in c["mentions"]
             for tag in c["tags"]]
    p_rel = []
    for h, p, t in doc.relations:
        hm, tm = by_id[h]["mentions"], by_id[t]["mentions"]
        p_rel.append([list(hm[0]), p, list(tm[0])])
        if len(hm) > 1 or len(tm) > 1:
            p_rel.append([list(hm[-1]), p, list(tm[-1])])
    covered = {i for c in doc.clusters for b, e in c["mentions"] for i in range(b, e)}
    free = [i for i in range(len(doc.tokens)) if i not in covered]
    anchor = list(doc.clusters[0]["mentions"][0])
    for i in rng.sample(free, min(dangling, len(free))):
        p_rel.append([anchor, "in0", [i, i + 1]])
    return {"p_cl": p_cl, "p_men": p_men, "p_rel": p_rel}


def pair_facts(gold: list[_Doc], pred: list[_Doc]) -> dict:
    """Item counts the agreement scorers must report, the padding their
    per-label decisions carry, and the eval-view instance counts."""
    n = {"entity": 0, "relation": 0, "coref": 0, "linking": 0}
    labels = {"entity": set(), "relation": set()}
    positive = {"entity": 0, "relation": 0}
    instances = {"ner": 0, "re": 0}
    for a, b in zip(gold, pred):
        for task, la, lb in (("entity", _span_tags(a), _span_tags(b)),
                             ("relation", _pair_types(a), _pair_types(b))):
            items = la.keys() | lb.keys()
            n[task] += len(items)
            for item in items:
                union = la.get(item, set()) | lb.get(item, set())
                labels[task] |= union
                positive[task] += len(union)
        shared = len(_span_tags(a).keys() & _span_tags(b).keys())
        n["coref"] += shared * (shared - 1) // 2
        n["linking"] += shared
        for d in (a, b):
            size = {c["id"]: len(c["mentions"]) for c in d.clusters}
            instances["ner"] += sum(len(c["tags"]) * len(c["mentions"]) for c in d.clusters)
            instances["re"] += sum(size[h] * size[t] for h, _p, t in set(d.relations))
    return {"pairs": n, "instances": instances, "agreement": {
        task: {"padded_pairs": len(labels[task]) * n[task],
               "positive_pairs": positive[task]} for task in labels}}


def _span_tags(d: _Doc) -> dict:
    return {m: set(c["tags"]) for c in d.clusters for m in c["mentions"]}


def _pair_types(d: _Doc) -> dict:
    by_id = {c["id"]: c["mentions"] for c in d.clusters}
    out: dict = {}
    for h, p, t in d.relations:
        for hm in by_id[h]:
            for tm in by_id[t]:
                out.setdefault((hm, tm), set()).add(p)
    return out


def coref_slice_facts(gold: list[_Doc], pred: list[_Doc]) -> dict:
    n_gold = sum(len(d.clusters) for d in gold)
    n_pred = sum(len(d.clusters) for d in pred)
    nonzero = 0
    for a, b in zip(gold, pred):
        owner = {m: c["id"] for c in a.clusters for m in c["mentions"]}
        nonzero += len({(owner[m], c["id"]) for c in b.clusters
                        for m in c["mentions"] if m in owner})
    return {"gold_clusters": n_gold, "pred_clusters": n_pred,
            "cells": n_gold * n_pred, "nonzero_cells": nonzero}


# --------------------------------------------------------------------------
# Span-graph model steps

SPAN_WIDTH = 8        # widest candidate span
PRUNE_RATIO = 0.1     # pruned spans per token
SPAN_DIM = 64         # span representation size
N_TAGS = 32           # mention scorer outputs
N_RELATION_TYPES = 50  # relation scorer outputs (the shipped vocabulary size)


def _stratified(lengths: list[int], n: int, offset: float) -> list[int]:
    """Indices of `n` documents evenly spaced in length order, so the subset
    has the same spread of lengths whatever the seed."""
    ranked = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    stride = len(ranked) / n
    return [ranked[min(len(ranked) - 1, int((i + offset) * stride))] for i in range(n)]


def step_plan(rng, lengths: list[int], n_steps: int) -> list[dict]:
    """One model step per document for a length-stratified subset of the
    corpus's documents (given by their token counts), so every seed gets the
    same spread of document lengths."""
    chosen = _stratified(lengths, n_steps, 0.5)
    rng.shuffle(chosen)
    plan = []
    for i in chosen:
        t = lengths[i]
        width = min(SPAN_WIDTH, t)
        plan.append({"doc": f"DW_{i:04d}", "tokens": t,
                     "spans": sum(t - k + 1 for k in range(1, width + 1)),
                     "keep": max(2, round(PRUNE_RATIO * t)),
                     "seed": rng.randrange(2 ** 31)})
    return plan


# --------------------------------------------------------------------------
# Writing a workload's inputs


def _write_jsonl(path: Path, docs: list[_Doc]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps(d.to_json(), ensure_ascii=False) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")


WARM_DOCS = 6  # documents in the untimed warm-up inputs


def write_inputs(out: Path, workload: str, seed: int, size: float = 1.0) -> None:
    """Generate `workload`'s inputs under `out`, and the same for a few
    documents under `out/warm`, each with the facts its outputs are checked
    against in `expected.json`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"entkit-perfbench-{workload}-{seed}")
    if workload == "span-graph":
        # the same document lengths, in the same order, as generate_corpus
        lengths = _doc_lengths(max(4, round(DWIE["documents"] * size)),
                               round(DWIE["tokens"] * size))
        random.Random(f"entkit-perfbench-corpus-{seed}").shuffle(lengths)
        n_steps = max(4, round(SPAN_GRAPH_DOCS * size))
        for base, part, n in ((out, lengths, n_steps), (out / "warm", lengths, 3)):
            base.mkdir(parents=True, exist_ok=True)
            plan = step_plan(rng, part, n)
            _write_json(base / "plan.json", {
                "span_dim": SPAN_DIM, "tags": N_TAGS,
                "relation_types": N_RELATION_TYPES, "steps": plan})
            _write_json(base / "expected.json", {"steps": len(plan)})
        return
    docs = generate_corpus(seed, size)
    for base, part in ((out, docs), (out / "warm", docs[:WARM_DOCS])):
        base.mkdir(parents=True, exist_ok=True)
        facts = corpus_facts(part)
        WORKLOADS[workload](rng, base, part, facts)
        _write_json(base / "expected.json", facts)


def _corpus_audit_inputs(rng, base: Path, docs: list[_Doc], facts: dict) -> None:
    rel = base / "release"
    rel.mkdir(exist_ok=True)
    unaligned = dropped = 0
    for d in docs:
        n_u = int(rng.random() < UNALIGNED_DOC_SHARE)
        n_d = int(rng.random() < DROPPED_CONCEPT_DOC_SHARE)
        unaligned += n_u
        dropped += n_d
        _write_json(rel / f"{d.id}.json", release_json(rng, d, n_u, n_d))
    _write_jsonl(base / "corpus.jsonl", docs)
    facts["release"] = {
        "mentions": facts["summary"]["mentions"] + unaligned,
        "unaligned_mentions": unaligned,
        "dropped_concepts": dropped, "dropped_relations": dropped}


def _paired_eval_inputs(rng, base: Path, docs: list[_Doc], facts: dict) -> None:
    pred = [perturb(rng, d) for d in docs]
    _write_jsonl(base / "gold.jsonl", docs)
    _write_jsonl(base / "pred.jsonl", pred)
    n_slice = min(len(docs), max(2, round(COREF_SLICE_DOCS * len(docs) / DWIE["documents"])))
    chosen = sorted(_stratified([len(d.tokens) for d in docs], n_slice, 0.5))
    _write_jsonl(base / "gold_slice.jsonl", [docs[i] for i in chosen])
    _write_jsonl(base / "pred_slice.jsonl", [pred[i] for i in chosen])
    dec = base / "decode"
    dec.mkdir(exist_ok=True)
    for d in pred:
        _write_json(dec / f"{d.id}.json", decode_json(rng, d, DANGLING_PER_DOC))
    facts.update(pair_facts(docs, pred))
    facts["coref_slice"] = dict(coref_slice_facts([docs[i] for i in chosen],
                                                  [pred[i] for i in chosen]),
                                documents=n_slice)
    facts["decode"] = {"discarded_relations": [DANGLING_PER_DOC] * len(pred),
                       "clusters": [len(d.clusters) for d in pred]}


WORKLOADS = {"corpus-audit": _corpus_audit_inputs,
             "paired-eval": _paired_eval_inputs,
             "span-graph": None}
