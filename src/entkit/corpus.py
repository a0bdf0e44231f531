"""Canonical data model for entity-centric document corpora.

A document is a tokenized text with sentence boundaries, entity clusters
(sets of coreferent mention spans carrying multi-label tags and an optional
knowledge-base link), and entity-level relations between clusters.

On-disk format is JSON Lines, one document per line:

    {"id": str, "split": "train"|"test"|"unsplit", "tokens": [str],
     "sentences": [[int, int], ...],
     "clusters": [{"id": str, "mentions": [[int, int], ...],
                   "tags": [str], "link": str|null}],
     "relations": [{"head": str, "type": str, "tail": str}]}

Mention and sentence intervals are half-open token ranges ``[begin, end)``.
A ``link`` of JSON ``null`` means the entity was annotated as having no
knowledge-base counterpart (NIL); an absent ``link`` field means the entity
was never considered for linking.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import Counter, deque
from dataclasses import dataclass
from importlib import resources as importlib_resources
from itertools import accumulate, chain, islice, repeat, zip_longest
from operator import countOf, lt
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

SPLITS = ("train", "test", "unsplit")

# Validation finding codes.
SPAN_ORDER = "SPAN_ORDER"
SPAN_BOUNDS = "SPAN_BOUNDS"
EMPTY_CLUSTER = "EMPTY_CLUSTER"
DUPLICATE_CLUSTER_ID = "DUPLICATE_CLUSTER_ID"
MENTION_MULTI_CLUSTER = "MENTION_MULTI_CLUSTER"
DANGLING_RELATION = "DANGLING_RELATION"
SELF_RELATION = "SELF_RELATION"
SENTENCE_COVERAGE = "SENTENCE_COVERAGE"
BAD_SPLIT = "BAD_SPLIT"
UNKNOWN_TAG = "UNKNOWN_TAG"
UNKNOWN_RELATION_TYPE = "UNKNOWN_RELATION_TYPE"
DUPLICATE_DOC_ID = "DUPLICATE_DOC_ID"  # corpus-level


class CorpusError(Exception):
    """Base class for corpus-level failures."""


class ParseError(CorpusError):
    """Malformed input file. Carries the byte offset of the offending record."""

    def __init__(self, message: str, path: str | Path | None = None,
                 byte_offset: int | None = None):
        self.path = str(path) if path is not None else None
        self.byte_offset = byte_offset
        at = f" @ byte {byte_offset}" if byte_offset is not None else ""
        super().__init__(message if path is None else f"{message} [{path}{at}]")


class CorpusValidationError(CorpusError):
    """One or more documents of the corpus at `path` violate a hard invariant."""

    def __init__(self, findings: list["Finding"], path: str | Path):
        self.findings, self.path = findings, path
        super().__init__(f"corpus fails validation ({len(findings)} error(s)); "
                         f"run `entkit validate` for the full report [{path}]")

    def __reduce__(self):  # rebuilt from its arguments in another process
        return type(self), (self.findings, self.path)


class MentionMultiClusterError(CorpusError):
    """The same mention span is claimed by more than one cluster."""


class _Unannotated:
    """Singleton marker: the link field was absent (entity never linked)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNANNOTATED"


UNANNOTATED = _Unannotated()


class Mention(NamedTuple):
    """Contiguous token span, half-open: tokens[begin:end]. It is the
    ``(begin, end)`` tuple, so it keys dicts and sets as one."""

    begin: int
    end: int


@dataclass(frozen=True)
class EntityCluster:
    """All coreferent mentions of one entity, with its tags and optional link."""

    id: str
    mentions: tuple[Mention, ...]
    tags: frozenset[str]
    link: object = UNANNOTATED  # str, None (= NIL) or UNANNOTATED

    def __post_init__(self):
        object.__setattr__(self, "mentions", tuple(sorted(set(self.mentions))))
        object.__setattr__(self, "tags", frozenset(self.tags))

    @property
    def is_linked(self) -> bool:
        return isinstance(self.link, str)

    @property
    def is_singleton(self) -> bool:
        return len(self.mentions) == 1


class RelationTriple(NamedTuple):
    """Directed, typed relation between two entity clusters. It is the
    ``(head, type, tail)`` tuple, so it keys dicts and sets as one."""

    head: str
    type: str
    tail: str


class Document(NamedTuple):
    """One tokenized document; sentences, clusters and relations are tuples."""

    id: str
    tokens: tuple[str, ...]
    sentences: tuple[Mention, ...]
    clusters: tuple[EntityCluster, ...]
    relations: tuple[RelationTriple, ...]
    split: str = "unsplit"


class Finding(NamedTuple):
    doc_id: str
    code: str
    message: str


class ValidationReport:
    """Findings, in corpus order. As a fold over documents, `add` checks one
    (`validate_document`), `merge` adds the report on the documents after
    this one's, and `close` puts the DUPLICATE_DOC_ID errors first."""

    def __init__(self):
        self.errors: list[Finding] = []
        self.warnings: list[Finding] = []
        self.ids: Counter = Counter()  # of the documents added, by first appearance

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, d: Document) -> bool:
        """Put in the findings of `validate_document(d)`; whether it has no error."""
        self.ids[d.id] += 1
        found = validate_document(d)
        self.errors += found.errors
        self.warnings += found.warnings
        return found.ok

    def merge(self, other: "ValidationReport") -> None:
        self.ids.update(other.ids)
        self.errors += other.errors
        self.warnings += other.warnings

    def close(self) -> "ValidationReport":
        """Put one DUPLICATE_DOC_ID error per repeated id first; this report."""
        self.errors[:0] = [
            Finding(doc_id, DUPLICATE_DOC_ID, f"document id {doc_id!r} appears {n} times")
            for doc_id, n in self.ids.items() if n > 1]
        return self


# --------------------------------------------------------------------------
# Vocabularies


def _resource_text(name: str) -> str:
    return (importlib_resources.files("entkit") / "resources" / name).read_text(
        encoding="utf-8")


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number from 1, line) for each line of `text` that is neither
    blank nor a `#` comment, indented or not; lines keep their indentation."""
    for number, line in enumerate(text.splitlines(), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield number, line


@functools.cache
def builtin_tag_vocabulary() -> frozenset[str]:
    return frozenset(line.strip() for _, line in
                     _content_lines(_resource_text("tag_vocabulary.txt")))


@functools.cache
def builtin_relation_vocabulary() -> frozenset[str]:
    return frozenset(line.strip() for _, line in
                     _content_lines(_resource_text("relation_types.txt")))


# --------------------------------------------------------------------------
# Validation


def validate_document(d: Document) -> ValidationReport:
    """Check every structural invariant of ``d``; never raises.

    Hard invariants become errors, labels outside the built-in vocabularies
    become warnings. The report is deterministic for a given input.
    """
    tag_vocab = builtin_tag_vocabulary()
    relation_vocab = builtin_relation_vocabulary()
    report = ValidationReport()
    err = lambda code, msg: report.errors.append(Finding(d.id, code, msg))
    warn = lambda code, msg: report.warnings.append(Finding(d.id, code, msg))

    if d.split not in SPLITS:
        err(BAD_SPLIT, f"split must be one of {SPLITS}, got {d.split!r}")

    n = len(d.tokens)
    expected_begin = 0
    for b, e in d.sentences:
        if b != expected_begin or e <= b:
            err(SENTENCE_COVERAGE,
                f"sentence [{b},{e}) breaks the contiguous cover at {expected_begin}")
            break
        expected_begin = e
    else:
        if expected_begin != n:
            err(SENTENCE_COVERAGE,
                f"sentences cover [0,{expected_begin}) but document has {n} tokens")

    seen_ids: set[str] = set()
    span_owner: dict[Mention, str] = {}
    for c in d.clusters:
        cid = c.id
        if cid in seen_ids:
            err(DUPLICATE_CLUSTER_ID, f"cluster id {cid!r} appears twice")
        seen_ids.add(cid)
        if not c.mentions:
            err(EMPTY_CLUSTER, f"cluster {cid!r} has no mentions")
        for m in c.mentions:
            b, e = m
            if b >= e:
                err(SPAN_ORDER, f"cluster {cid!r}: span [{b},{e}) is empty or reversed")
            elif b < 0 or e > n:
                err(SPAN_BOUNDS, f"cluster {cid!r}: span [{b},{e}) outside [0,{n})")
            owner = span_owner.setdefault(m, cid)
            if owner != cid:  # reported against the last earlier owner
                err(MENTION_MULTI_CLUSTER,
                    f"span [{b},{e}) belongs to clusters {owner!r} and {cid!r}")
                span_owner[m] = cid
        if not tag_vocab.issuperset(c.tags):
            for tag in sorted(c.tags - tag_vocab):
                # namespaced tags ("type::person") count as known via their value
                if tag.rsplit("::", 1)[-1] not in tag_vocab:
                    warn(UNKNOWN_TAG, f"cluster {cid!r}: tag {tag!r} not in vocabulary")

    for head, rel_type, tail in d.relations:
        if head not in seen_ids:
            err(DANGLING_RELATION, f"relation head {head!r} is not a cluster id")
        if tail not in seen_ids:
            err(DANGLING_RELATION, f"relation tail {tail!r} is not a cluster id")
        if head == tail:
            err(SELF_RELATION, f"relation {rel_type!r} connects {head!r} to itself")
        if rel_type not in relation_vocab:
            warn(UNKNOWN_RELATION_TYPE, f"relation type {rel_type!r} not in vocabulary")

    return report


def validate_corpus(docs: Iterable[Document]) -> ValidationReport:
    """The corpus-level DUPLICATE_DOC_ID errors, one per repeated id in order
    of first appearance, then every document's findings in corpus order."""
    return fold_documents(ValidationReport(), docs).close()


def validate_path(path: str | Path) -> tuple[int, ValidationReport]:
    """The number of documents of `iter_corpus(path)` and their
    `validate_corpus` report, folded as `fold_files` folds."""
    report = fold_files(ValidationReport(), path, valid=False).close()
    return sum(report.ids.values()), report


def iter_pairs(docs_a: Iterable[Document], docs_b: Iterable[Document]
               ) -> Iterator[tuple[Document, Document]]:
    """The documents of two corpora paired by id. The two are read in turns,
    holding only documents whose partner has not come: one pair if they
    share an order, one corpus at most if they share their ids. Once both
    are read, a repeated id, ids of one corpus only or else a token-space
    mismatch (the first by id) raises ValueError; no pair follows a repeat
    or a mismatch. An error in reading `docs_b` waits for `docs_a` to end."""
    waiting, paired, held = ({}, {}), set(), []
    repeated, mismatched = False, []

    def second():
        try:
            yield from docs_b
        except (CorpusError, ValueError, OSError) as e:  # raised once docs_a ends
            held.append(e)

    for docs in zip_longest(docs_a, second()):
        for side, d in enumerate(docs):
            if d is None or held or repeated:
                continue  # read on only for the corpora's own errors
            if d.id in paired or d.id in waiting[side]:
                repeated = True
            elif (partner := waiting[1 - side].pop(d.id, None)) is None:
                waiting[side][d.id] = d
            else:
                paired.add(d.id)
                if d.tokens != partner.tokens:
                    mismatched.append(d.id)
                elif not mismatched:
                    yield (partner, d) if side else (d, partner)
    if held:
        raise held[0]
    if repeated:
        raise ValueError("a corpus repeats a document id")
    if waiting[0] or waiting[1]:
        only_a, only_b = (sorted(w)[:3] for w in waiting)
        raise ValueError(f"the corpora cover different document ids "
                         f"(only in the first: {only_a}, only in the second: {only_b})")
    if mismatched:
        raise ValueError(f"token-space mismatch in document {min(mismatched)!r}")


def _cluster_positions(d: Document) -> dict[Mention, int]:
    """Map every mention span of ``d`` to the position of its cluster in
    ``d.clusters``. Raises MentionMultiClusterError if two clusters (even two
    with one id) claim a span, ValueError if a cluster has no mentions."""
    owner: dict[Mention, int] = {}
    for i, c in enumerate(d.clusters):
        if not c.mentions:
            raise ValueError(f"{d.id}: cluster {c.id!r} has no mentions")
        for m in c.mentions:
            j = owner.setdefault(m, i)
            if j != i:
                raise MentionMultiClusterError(
                    f"{d.id}: span [{m.begin},{m.end}) in clusters "
                    f"{d.clusters[j].id!r} and {c.id!r}")
    return owner


def overlap_cells(owner_a: dict, owner_b: dict) -> Counter:
    """The cells of `cluster_overlaps`, read from two mention -> owner maps
    in place of cluster positions. Empties ``owner_b``."""
    cells: Counter = Counter()
    for m, i in owner_a.items():
        cells[i, owner_b.pop(m, None)] += 1
    for j in owner_b.values():
        cells[None, j] += 1
    return cells


def cluster_overlaps(a: Document, b: Document) -> Counter:
    """(cluster position in ``a``, cluster position in ``b``) -> the number
    of mention spans the two clusters share, over every span either document
    marks; a span only one document marks has None for the other position.

    Each mention must lie in exactly one non-empty cluster of its document
    (see `_cluster_positions`): then every count over mentions, or over
    mention pairs of two clusters, is a sum of products of these cells.
    """
    return overlap_cells(_cluster_positions(a), _cluster_positions(b))


def relation_positions(d: Document) -> list[tuple[int, str, int]]:
    """The distinct relation triples of ``d`` as (head position, type, tail
    position) in ``d.clusters``, sorted by (head id, type, tail id). Raises
    ValueError if a relation names a cluster id that ``d`` lacks or that two
    of its clusters carry."""
    position = {c.id: i for i, c in enumerate(d.clusters)}
    repeated = {c.id for i, c in enumerate(d.clusters) if position[c.id] != i}
    out = []
    for head, label, tail in sorted(set(d.relations)):
        if head not in position or tail not in position:
            raise ValueError(f"{d.id}: relation {label!r} references "
                             f"a missing cluster id")
        if head in repeated or tail in repeated:
            cid = head if head in repeated else tail
            raise ValueError(f"{d.id}: relation {label!r} references cluster "
                             f"id {cid!r}, which two clusters carry")
        out.append((position[head], label, position[tail]))
    return out


def _labelled_units(d: Document, task: str) -> dict[tuple[int, ...], frozenset[str]]:
    """Unit -> labels: every cluster ``(i,)`` with its tags for "ner", every
    related pair ``(head, tail)`` with its relation types for "re"."""
    if task == "ner":
        return {(i,): c.tags for i, c in enumerate(d.clusters)}
    if task != "re":
        raise ValueError(f"task must be 'ner' or 're', got {task!r}")
    types: dict[tuple[int, int], set[str]] = {}
    for head, label, tail in relation_positions(d):
        types.setdefault((head, tail), set()).add(label)
    return {pair: frozenset(labels) for pair, labels in types.items()}


def unit_overlaps(a: Document, b: Document, task: str,
                  cells: Counter | None = None) -> tuple[dict, dict, dict]:
    """The labelled units of ``a`` and of ``b`` (see `_labelled_units`) and
    the blocks (unit of ``a`` or None, unit of ``b`` or None) -> n, read
    from `cells`, the pair's `cluster_overlaps` table, built if not given.

    A unit's instances are its mention spans (NER) or its head x tail
    mention pairs (RE). Every instance of every unit lies in exactly one
    block, the one naming the unit of each document that holds it (None if
    none does). A block of a related pair of ``a`` sums products of a head
    and a tail cell of `cluster_overlaps`; that of a related pair of ``b``
    with None holds its |head| x |tail| pairs less its other blocks.
    """
    if cells is None:
        cells = cluster_overlaps(a, b)
    units_a, units_b = _labelled_units(a, task), _labelled_units(b, task)
    if task == "ner":
        return units_a, units_b, {
            (None if i is None else (i,), None if j is None else (j,)): n
            for (i, j), n in cells.items()}
    rows: dict[int | None, list] = {}
    for (i, j), n in cells.items():
        rows.setdefault(i, []).append((j, n))
    blocks: dict = {}
    for unit in units_a:
        head, tail = unit
        for head_b, n_head in rows[head]:
            for tail_b, n_tail in rows[tail]:
                key = unit, (pair if (pair := (head_b, tail_b)) in units_b else None)
                blocks[key] = blocks.get(key, 0) + n_head * n_tail
    rest = {(h, t): len(b.clusters[h].mentions) * len(b.clusters[t].mentions)
            for h, t in units_b}
    for (_, unit), n in blocks.items():
        if unit is not None:
            rest[unit] -= n
    blocks.update(((None, unit), n) for unit, n in rest.items() if n)
    return units_a, units_b, blocks


# --------------------------------------------------------------------------
# Parsing / serialization


def _require(cond: bool, msg: str, *args) -> None:
    """Raise ValueError(msg % args) unless `cond`; the message is only
    formatted on failure, so checks inside per-item loops cost no formatting."""
    if not cond:
        raise ValueError(msg % args if args else msg)


def _every(items: Iterable, cls) -> bool:
    """Whether every item is an instance of `cls` (a type or a tuple of them)."""
    return all(map(isinstance, items, repeat(cls)))


def _are_spans(pairs: list) -> bool:
    """Whether every item of the JSON list `pairs` is a `[begin, end]` pair
    of integers, types checked exactly (a JSON boolean is not one) in C."""
    n = len(pairs)
    return (countOf(map(type, pairs), list) == n and countOf(map(len, pairs), 2) == n
            and countOf(map(type, chain.from_iterable(pairs)), int) == 2 * n)


def _are_string_lists(lists: list) -> bool:
    """Whether every item of `lists` is exactly a list of exactly strings."""
    return (set(map(type, lists)) <= {list}
            and set(map(type, chain.from_iterable(lists))) <= {str})


# map(Mention._make, ...) and map(RelationTriple._make, ...) without the
# length check, for items whose length the schema check has fixed; in C
_mentions = functools.partial(map, tuple.__new__, repeat(Mention))
_relations = functools.partial(map, tuple.__new__, repeat(RelationTriple))


def spans_from_json(pairs: list, where: str, what: str) -> tuple[Mention, ...]:
    """The `[begin, end]` integer pairs of the JSON list `pairs` as Mentions.
    Types are checked exactly, so a JSON boolean is not an integer; a schema
    error says "<where>: <what> must be [begin, end] integer pairs"."""
    _require(_are_spans(pairs),
             "%s: %s must be [begin, end] integer pairs", where, what)
    return tuple(_mentions(pairs))


def document_from_json(obj: dict) -> Document:
    """Build a Document from one decoded JSON object; raises ValueError on schema errors.

    The clusters and relations are checked in bulk (`_entity_fields`); only
    a document that fails that check is walked item by item
    (`_raise_entity_error`), to name its first bad item.
    """
    _require(isinstance(obj, dict), "document must be a JSON object")
    _require(isinstance(obj.get("id"), str), "field 'id' must be a string")
    doc_id = obj["id"]
    tokens = obj.get("tokens")
    _require(type(tokens) is list and countOf(map(type, tokens), str) == len(tokens),
             "%s: field 'tokens' must be a list of strings", doc_id)
    sentences = obj.get("sentences")
    _require(isinstance(sentences, list), "%s: field 'sentences' must be a list", doc_id)
    sents = spans_from_json(sentences, doc_id, "sentence entries")
    fields = _entity_fields(obj)
    if fields is None:
        _raise_entity_error(obj, doc_id)
    ids, mentions, pairs, tags, links, ends = fields
    split = obj.get("split", "unsplit")
    _require(isinstance(split, str), "%s: field 'split' must be a string", doc_id)
    # one flat map of the spans, cut into the clusters' mentions; only if some
    # cluster's do not come increasing are they sorted and deduplicated
    spans = tuple(_mentions(pairs))
    stops = list(accumulate(map(len, mentions)))
    members = list(map(spans.__getitem__, map(slice, [0, *stops], stops)))
    increasing = [True, *map(lt, spans, spans[1:]), True]
    deque(map(increasing.__setitem__, stops, repeat(True)), 0)  # not across clusters
    if not all(increasing):
        members = [tuple(sorted(set(m))) for m in members]
    # set field by field in the constructor's order, as its vars() has them
    clusters = list(map(object.__new__, repeat(EntityCluster, len(ids))))
    for name, column in zip(("id", "mentions", "tags", "link"),
                            (ids, members, map(frozenset, tags), links)):
        deque(map(object.__setattr__, clusters, repeat(name), column), 0)
    return Document(doc_id, tuple(tokens), sents, tuple(clusters),
                    tuple(_relations(zip(*ends))), split)


def _entity_fields(obj: dict) -> tuple | None:
    """The ids, mention lists, all their `[begin, end]` lists, tag lists and
    links of the clusters of `obj` and the heads, types and tails of its
    relations, each gathered across all items and checked at once; None if
    any item breaks the schema. Accepts exactly what `_raise_entity_error` does."""
    clusters = obj.get("clusters", [])
    relations = obj.get("relations", [])
    if not (isinstance(clusters, list) and isinstance(relations, list)
            and _every(clusters, dict) and _every(relations, dict)):
        return None
    ids = _gather(clusters, "id")
    mentions = _gather(clusters, "mentions", [])
    tags = _gather(clusters, "tags", [])
    ends = [_gather(relations, key) for key in ("head", "type", "tail")]
    if not (_every(ids, str) and _every(mentions, list)
            and _are_spans(pairs := list(chain.from_iterable(mentions)))
            and _are_string_lists(tags)
            and _every(_gather(clusters, "link"), (str, type(None)))
            and _every(chain.from_iterable(ends), str)):
        return None
    # an absent and a null link both passed; the cluster tells them apart
    links = _gather(clusters, "link", UNANNOTATED)
    return ids, mentions, pairs, tags, links, ends


def _gather(items: list, key: str, default=None) -> list:
    """`item.get(key, default)` for each dict in `items`, looped in C."""
    return list(map(dict.get, items, repeat(key), repeat(default)))


def _raise_entity_error(obj: dict, doc_id: str) -> None:
    """Raise the schema error of the first bad cluster or relation of `obj`,
    walking them in order."""
    for c in _list_field(obj, "clusters", doc_id):
        _require(isinstance(c, dict) and isinstance(c.get("id"), str),
                 "%s: cluster entries must be objects with a string 'id'", doc_id)
        spans_from_json(_list_field(c, "mentions", doc_id), doc_id,
                        "mention entries")
        _require(_are_string_lists([c.get("tags", [])]),
                 "%s: cluster 'tags' must be a list of strings", doc_id)
        link = c.get("link")
        _require(link is None or isinstance(link, str),
                 "%s: cluster 'link' must be a string or null", doc_id)
    for r in _list_field(obj, "relations", doc_id):
        _require(isinstance(r, dict)
                 and all(isinstance(r.get(k), str) for k in ("head", "type", "tail")),
                 "%s: relation entries must be objects with string head/type/tail",
                 doc_id)


def _list_field(obj: dict, key: str, doc_id: str) -> list:
    """The list under `key` (empty when absent); any other value is a schema error."""
    value = obj.get(key, [])
    _require(isinstance(value, list), "%s: field %r must be a list", doc_id, key)
    return value


def document_to_json(d: Document) -> dict:
    """Canonical JSON form: mentions and tags sorted, link omitted when unannotated."""
    clusters = []
    for c in d.clusters:
        entry: dict = {
            "id": c.id,
            "mentions": [list(m) for m in c.mentions],
            "tags": sorted(c.tags),
        }
        if not isinstance(c.link, _Unannotated):
            entry["link"] = c.link
        clusters.append(entry)
    return {
        "id": d.id,
        "split": d.split,
        "tokens": list(d.tokens),
        "sentences": [[b, e] for b, e in d.sentences],
        "clusters": clusters,
        "relations": [{"head": r.head, "type": r.type, "tail": r.tail}
                      for r in d.relations],
    }


def _utf8(raw: bytes, path: str | Path, byte_offset: int = 0) -> str:
    """`raw`, read from `path` at `byte_offset`, decoded; invalid UTF-8
    raises ParseError at the offset of the first bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"invalid UTF-8 ({e.reason})", path=path,
                         byte_offset=byte_offset + e.start) from None


def decode_json(text: str, path: str | Path, byte_offset: int = 0):
    """Decode one JSON value read from `path`, where `text` starts at
    `byte_offset`. A syntax error raises ParseError at the byte offset of the
    error; nesting deeper than the decoder's recursion limit, and an integer
    longer than Python's digit limit, raise it where the value starts."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, path=path, byte_offset=byte_offset
                         + len(text[:e.pos].encode("utf-8"))) from e
    except RecursionError:
        raise ParseError("JSON nested too deeply", path=path,
                         byte_offset=byte_offset) from None
    except ValueError as e:
        # the digit limit: the decoder gives no position, so name the value's
        # first byte after its (ASCII) JSON whitespace
        lead = len(text) - len(text.lstrip(" \t\r\n"))
        raise ParseError(str(e), path=path, byte_offset=byte_offset + lead) from None


def read_json(path: str | Path, build: Callable):
    """`build` applied to the decoded JSON file at `path`. Invalid UTF-8 and
    syntax errors raise ParseError naming the file and the byte offset; a
    ValueError (a schema error) or MentionMultiClusterError from `build`
    raises one naming the file."""
    obj = decode_json(_utf8(Path(path).read_bytes(), path), path)
    try:
        return build(obj)
    except (ValueError, MentionMultiClusterError) as e:
        raise ParseError(str(e), path=path) from e


def load_corpus(path: str | Path) -> list[Document]:
    """Every document of `iter_corpus(path)`, as a list."""
    return list(iter_corpus(path))


def iter_corpus(path: str | Path, start: int = 0, stop: int | None = None
                ) -> Iterator[Document]:
    """Read documents one at a time without invariant checking (syntax and
    schema only): a directory as one document per *.json file in sorted file
    order, any other path as JSON Lines, the lines of bytes [start, stop)."""
    path = Path(path)
    if not path.is_dir():
        return _iter_jsonl(path, start, stop)
    return (read_json(f, document_from_json) for f in sorted(path.glob("*.json")))


def _iter_jsonl(path: Path, start: int = 0, stop: int | None = None
                ) -> Iterator[Document]:
    """One record per line of the byte range [start, stop) (to the end if
    `stop` is None), with only JSON whitespace (ASCII) around it; a failing
    line is re-decoded without it, to locate the error in the record. Error
    offsets count from the first byte of the file."""
    offset = start
    with open(path, "rb", buffering=1 << 16) as fh:  # a record is often over 8 KiB
        fh.seek(start)
        for raw in fh:
            if offset == stop:
                break
            start, offset = offset, offset + len(raw)
            line = _utf8(raw, path, start)
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError):  # JSONDecodeError included
                if not (record := line.strip(" \t\r\n")):
                    continue
                obj = decode_json(record, path, start + line.find(record))
            try:
                yield document_from_json(obj)
            except ValueError as e:
                raise ParseError(str(e), path=path, byte_offset=start) from e


def parse_corpus(path: str | Path) -> list[Document]:
    """Every document of `iter_valid_corpus(path)`, as a list."""
    return list(iter_valid_corpus(path))


def iter_valid_corpus(path: str | Path, start: int = 0, stop: int | None = None
                      ) -> Iterator[Document]:
    """The documents of `iter_corpus(path, start, stop)`, in file order, each
    validated as it is read; only those without errors are yielded. After the
    last record any hard-invariant breach, `validate_corpus`'s errors in its
    order, raises CorpusValidationError, so a ParseError anywhere in the file
    comes first; warnings never raise."""
    report = ValidationReport()
    yield from filter(report.add, iter_corpus(path, start, stop))
    if report.close().errors:
        raise CorpusValidationError(report.errors, path)


def canonical_line(d: Document) -> str:
    """`d` as one canonical JSON Lines record, newline included."""
    return json.dumps(document_to_json(d), ensure_ascii=False) + "\n"


def serialize_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Write documents as canonical JSON Lines. The file is opened only once
    every document is serialized, so a failure while `docs` is read (a lazy
    conversion, say) leaves an existing file as it was."""
    lines = list(map(canonical_line, docs))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


# --------------------------------------------------------------------------
# Worker processes

POOL_MIN_BYTES = 1 << 20  # break-even on 2 CPUs: 0.8 MB of line pairs, 1.1 MiB of release
ITEMS_PER_TASK = 16  # fewer items a task cost the parent more in messages


def pool_cpus(nbytes: int) -> int:
    """The CPUs this process may run on, if more than one and `nbytes`, the
    size of the input, is at least POOL_MIN_BYTES; else 0, for no pool."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return cpus if cpus > 1 and nbytes >= POOL_MIN_BYTES else 0


def map_tasks(fn: Callable, tasks: Iterable, cpus: int) -> Iterator:
    """`fn(task)` for each task, in order: `map` if `cpus` is 0, else
    `ProcessPoolExecutor.map` in one worker process per CPU, at most one per
    task. A task's error, and a pool's (a worker that died, a fork that
    failed), is raised in task order, and pending tasks are cancelled; every
    worker has exited when the iterator ends, raises or is closed."""
    if not cpus:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor
    tasks = iter(tasks)
    first = list(islice(tasks, cpus))
    # a forked pool starts all its workers at the first task (none for no
    # task), so the later tasks are read while they start
    pool = ProcessPoolExecutor(max(1, len(first)))
    workers = pool._processes  # pid -> worker, which shutdown forgets
    try:
        yield from pool.map(fn, chain(first, tasks))
    finally:
        pool.shutdown(cancel_futures=True)
        # no manager thread stops the workers forked before a fork that failed
        for worker in workers.values():
            worker.terminate()
            worker.join()


def fold_files(fold, *paths: str | Path, valid: bool = True):
    """`fold_documents(fold, ...)` of the corpus at each path, read by
    `iter_valid_corpus` (`iter_corpus` if not `valid`). JSON Lines files that
    `pool_cpus` gives a pool are folded there first: each worker runs that
    reader on a run of lines of each file into a copy of the empty `fold`,
    merged here in run order (`fold.merge`). That stands if the reader
    accepts every run, no id repeats across runs and the pool does not fail;
    if not, the files are read as above, which raises that reader's first error."""
    cpus = all(map(os.path.isfile, paths)) and pool_cpus(sum(map(os.path.getsize, paths)))
    if cpus and (pooled := _fold_pooled(fold, paths, valid, cpus)) is not None:
        return pooled
    return fold_documents(fold, *map(iter_valid_corpus if valid else iter_corpus, paths))


def _fold_pooled(fold, paths: tuple, valid: bool, cpus: int):
    """`fold_files`'s pooled fold, or None where it does not stand."""
    # a file with fewer runs reads no lines for the rest
    runs = zip_longest(*map(_line_runs, paths), fillvalue=(0, 0))
    tasks = ((fold, valid, *zip(paths, run)) for run in runs)
    merged, ids = None, []
    try:
        with contextlib.closing(map_tasks(fold_runs, tasks, cpus)) as results:
            for part, part_ids in results:
                if merged is None:
                    merged = part
                else:
                    merged.merge(part)
                ids += part_ids
    except Exception:  # the reader raised, a worker died or a fork failed
        return None
    return merged if len(set(ids)) == len(ids) else None


def fold_documents(fold, *corpora: Iterable[Document]):
    """`fold` after `fold.add(d)` for each document of one corpus, or
    `fold.add(a, b)` for each pair of `iter_pairs` over two."""
    for item in iter_pairs(*corpora) if len(corpora) == 2 else zip(*corpora):
        fold.add(*item)
    return fold


def _line_runs(path: str | Path) -> Iterator[tuple[int, int]]:
    """The byte range of each run of ITEMS_PER_TASK records (lines that are
    not blank) of a file, blank lines going with the record before them."""
    start = stop = records = 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.isspace():
                if records == ITEMS_PER_TASK:
                    yield start, stop
                    start, records = stop, 0
                records += 1
            stop += len(line)
    if stop > start:
        yield start, stop


def fold_runs(task: tuple) -> tuple:
    """The worker of `fold_files`, sent by name: for (fold, valid, (path,
    byte range) of each file), the serial reader's fold of those lines and
    the ids of the first file's documents; that reader's error is raised."""
    fold, valid, *files = task
    read = iter_valid_corpus if valid else iter_corpus
    first, *rest = [read(path, *run) for path, run in files]
    first = list(first)
    return fold_documents(fold, first, *rest), [d.id for d in first]
