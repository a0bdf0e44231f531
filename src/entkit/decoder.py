"""Entity-centric decoding of mention-level predictions.

Takes predicted coreference clusters, tagged spans, and span-pair relations,
and lifts them to the entity level: tags become per-cluster tag sets, span
relations become directed cluster-pair relation sets, and tagged spans that
no cluster claims get fresh singleton clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .corpus import (Mention, MentionMultiClusterError, _every, _require,
                     spans_from_json)


@dataclass(frozen=True)
class DecodeInput:
    """Mention-level predictions.

    p_cl: predicted clusters, cluster id -> mention spans (non-empty).
    p_men: predicted (span, tag) pairs, in prediction order.
    p_rel: predicted (head span, relation type, tail span) triples.
    """

    p_cl: dict[str, tuple[Mention, ...]]
    p_men: tuple[tuple[Mention, str], ...]
    p_rel: tuple[tuple[Mention, str, Mention], ...]

    def __post_init__(self):
        """Freeze each field into tuples, then refuse an empty cluster and an
        empty or reversed span in one walk over the frozen entries."""
        p_cl = {cid: tuple(spans) for cid, spans in self.p_cl.items()}
        p_men = tuple(map(tuple, self.p_men))
        p_rel = tuple(map(tuple, self.p_rel))
        for cid, spans in p_cl.items():
            if not spans:
                raise ValueError(f"cluster {cid!r} has no mention spans")
            for m in spans:
                if m.begin >= m.end:
                    raise ValueError(f"cluster {cid!r}: bad span [{m.begin},{m.end})")
        for m, _tag in p_men:
            if m.begin >= m.end:
                raise ValueError(f"tagged span [{m.begin},{m.end}) is empty or reversed")
        for h, _type, t in p_rel:
            for m in (h, t):
                if m.begin >= m.end:
                    raise ValueError(f"relation span [{m.begin},{m.end}) is empty or reversed")
        object.__setattr__(self, "p_cl", p_cl)
        object.__setattr__(self, "p_men", p_men)
        object.__setattr__(self, "p_rel", p_rel)


class DecodeOutput(NamedTuple):
    """Entity-level result of decoding.

    clusters: input clusters plus any generated singletons.
    d_ent: cluster id -> set of tags (only clusters with at least one tag).
    d_rel: (head cluster id, tail cluster id) -> set of relation types.
    discarded_relations: count of span relations dropped because an endpoint
        span mapped to no cluster.
    """

    clusters: dict[str, tuple[Mention, ...]]
    d_ent: dict[str, frozenset[str]]
    d_rel: dict[tuple[str, str], frozenset[str]]
    discarded_relations: int = 0


def decode_entity_centric(inp: DecodeInput) -> DecodeOutput:
    """Lift span-level predictions to entities.

    Every tagged span absent from the predicted clusters receives a fresh
    singleton cluster with a deterministic id ``gen-<k>``, k counting up in
    first-appearance order. A cluster's tag set is the union of the tags
    predicted for any of its member spans. A relation type is attached to the
    ordered pair of the endpoint spans' clusters; relations with an endpoint
    that maps to no cluster are dropped (and counted).
    """
    span_to_cluster: dict[Mention, str] = {}
    clusters: dict[str, list[Mention]] = {}
    for cid, spans in inp.p_cl.items():
        clusters[cid] = list(spans)
        for m in spans:
            if m in span_to_cluster and span_to_cluster[m] != cid:
                raise MentionMultiClusterError(
                    f"span [{m.begin},{m.end}) predicted in clusters "
                    f"{span_to_cluster[m]!r} and {cid!r}")
            span_to_cluster[m] = cid

    d_ent: dict[str, set[str]] = {}
    next_fresh = 0
    for span, tag in inp.p_men:
        if span not in span_to_cluster:
            while f"gen-{next_fresh}" in clusters:
                next_fresh += 1
            gid = f"gen-{next_fresh}"
            next_fresh += 1
            span_to_cluster[span] = gid
            clusters[gid] = [span]
        cid = span_to_cluster[span]
        d_ent.setdefault(cid, set()).add(tag)

    d_rel: dict[tuple[str, str], set[str]] = {}
    discarded = 0
    for span_h, rel_type, span_t in inp.p_rel:
        if span_h in span_to_cluster and span_t in span_to_cluster:
            pair = (span_to_cluster[span_h], span_to_cluster[span_t])
            d_rel.setdefault(pair, set()).add(rel_type)
        else:
            discarded += 1

    return DecodeOutput(
        clusters={cid: tuple(spans) for cid, spans in clusters.items()},
        d_ent={cid: frozenset(tags) for cid, tags in d_ent.items()},
        d_rel={pair: frozenset(types) for pair, types in d_rel.items()},
        discarded_relations=discarded,
    )


# --------------------------------------------------------------------------
# JSON wire format


def _columns(obj: dict, key: str, size: int, shape: str) -> list[tuple]:
    """The fields of the `size`-long entries of the list under `key`, one
    tuple per field, each field checked across the entries at once; the
    second field must hold strings."""
    entries = obj.get(key, [])
    message = f"field {key!r} must be a list of {shape} entries"
    _require(isinstance(entries, list) and _every(entries, list)
             and set(map(len, entries)) <= {size}, message)
    columns = list(zip(*entries)) or [()] * size
    _require(_every(columns[1], str), message)
    return columns


def decode_input_from_json(obj: dict) -> DecodeInput:
    """Parse {"p_cl": {id: [[b,e],...]}, "p_men": [[[b,e], tag],...],
    "p_rel": [[[b,e], type, [b,e]],...]}; raises ValueError on schema errors."""
    _require(isinstance(obj, dict), "predictions must be a JSON object")
    p_cl = obj.get("p_cl", {})
    _require(isinstance(p_cl, dict) and _every(p_cl.values(), list),
             "field 'p_cl' must map cluster ids to lists of spans")
    tag_spans, tags = _columns(obj, "p_men", 2, "[[begin, end], tag]")
    heads, types, tails = _columns(obj, "p_rel", 3, "[[begin, end], type, [begin, end]]")
    # each field's spans checked at once, in field order, to name the first bad one
    clusters = {cid: spans_from_json(spans, f"p_cl[{cid!r}]", "spans")
                for cid, spans in p_cl.items()}
    tagged = spans_from_json(tag_spans, "p_men", "spans")
    heads, tails = (spans_from_json(ends, "p_rel", "spans") for ends in (heads, tails))
    # the constructor freezes the entries, so they are made tuples only there
    return DecodeInput(clusters, zip(tagged, tags), zip(heads, types, tails))


def decode_output_to_json(out: DecodeOutput) -> dict:
    return {
        "clusters": {cid: [list(m) for m in sorted(spans)]
                     for cid, spans in sorted(out.clusters.items())},
        "d_ent": {cid: sorted(tags) for cid, tags in sorted(out.d_ent.items())},
        "d_rel": [{"head": h, "tail": t, "types": sorted(types)}
                  for (h, t), types in sorted(out.d_rel.items())],
        "discarded_relations": out.discarded_relations,
    }
