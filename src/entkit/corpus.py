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

import functools
import json
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from pathlib import Path
from typing import Iterable, Iterator

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
        loc = ""
        if self.path is not None:
            loc = f" [{self.path}"
            if byte_offset is not None:
                loc += f" @ byte {byte_offset}"
            loc += "]"
        super().__init__(message + loc)


class CorpusValidationError(CorpusError):
    """One or more documents violate a hard invariant."""

    def __init__(self, findings: list["Finding"]):
        self.findings = findings
        head = "; ".join(f"{f.doc_id}:{f.code}" for f in findings[:5])
        more = "" if len(findings) <= 5 else f" (+{len(findings) - 5} more)"
        super().__init__(f"{len(findings)} validation error(s): {head}{more}")


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


@dataclass(frozen=True, order=True)
class Mention:
    """Contiguous token span, half-open: tokens[begin:end]."""

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


@dataclass(frozen=True)
class RelationTriple:
    """Directed, typed relation between two entity clusters."""

    head: str
    type: str
    tail: str


@dataclass(frozen=True)
class Document:
    id: str
    tokens: tuple[str, ...]
    sentences: tuple[tuple[int, int], ...]
    clusters: tuple[EntityCluster, ...]
    relations: tuple[RelationTriple, ...]
    split: str = "unsplit"

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "sentences",
                           tuple((int(b), int(e)) for b, e in self.sentences))
        object.__setattr__(self, "clusters", tuple(self.clusters))
        object.__setattr__(self, "relations", tuple(self.relations))

    def cluster_by_id(self) -> dict[str, EntityCluster]:
        return {c.id: c for c in self.clusters}


@dataclass(frozen=True)
class Finding:
    doc_id: str
    code: str
    message: str


@dataclass
class ValidationReport:
    errors: list[Finding] = field(default_factory=list)
    warnings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def extend(self, other: "ValidationReport") -> None:
        self.errors.extend(other.errors)
        self.warnings.extend(other.warnings)


# --------------------------------------------------------------------------
# Vocabularies


def _resource_text(name: str) -> str:
    return (importlib_resources.files("entkit") / "resources" / name).read_text(
        encoding="utf-8")


def _parse_vocab_text(text: str) -> frozenset[str]:
    return frozenset(
        line.strip() for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#"))


@functools.cache
def builtin_tag_vocabulary() -> frozenset[str]:
    return _parse_vocab_text(_resource_text("tag_vocabulary.txt"))


@functools.cache
def builtin_relation_vocabulary() -> frozenset[str]:
    return _parse_vocab_text(_resource_text("relation_types.txt"))


# --------------------------------------------------------------------------
# Validation


def validate_document(d: Document,
                      tag_vocab: frozenset[str] | None = None,
                      relation_vocab: frozenset[str] | None = None,
                      ) -> ValidationReport:
    """Check every structural invariant of ``d``; never raises.

    Hard invariants become errors, unknown labels become warnings. The report
    is deterministic for a given input.
    """
    if tag_vocab is None:
        tag_vocab = builtin_tag_vocabulary()
    if relation_vocab is None:
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
        if c.id in seen_ids:
            err(DUPLICATE_CLUSTER_ID, f"cluster id {c.id!r} appears twice")
        seen_ids.add(c.id)
        if not c.mentions:
            err(EMPTY_CLUSTER, f"cluster {c.id!r} has no mentions")
        for m in c.mentions:
            if m.begin >= m.end:
                err(SPAN_ORDER, f"cluster {c.id!r}: span [{m.begin},{m.end}) is empty or reversed")
            elif m.begin < 0 or m.end > n:
                err(SPAN_BOUNDS, f"cluster {c.id!r}: span [{m.begin},{m.end}) outside [0,{n})")
            if m in span_owner and span_owner[m] != c.id:
                err(MENTION_MULTI_CLUSTER,
                    f"span [{m.begin},{m.end}) belongs to clusters {span_owner[m]!r} and {c.id!r}")
            span_owner[m] = c.id
        for tag in sorted(c.tags):
            # namespaced tags ("type::person") count as known via their value
            bare = tag.rsplit("::", 1)[-1]
            if tag not in tag_vocab and bare not in tag_vocab:
                warn(UNKNOWN_TAG, f"cluster {c.id!r}: tag {tag!r} not in vocabulary")

    for r in d.relations:
        if r.head not in seen_ids:
            err(DANGLING_RELATION, f"relation head {r.head!r} is not a cluster id")
        if r.tail not in seen_ids:
            err(DANGLING_RELATION, f"relation tail {r.tail!r} is not a cluster id")
        if r.head == r.tail:
            err(SELF_RELATION, f"relation {r.type!r} connects {r.head!r} to itself")
        if r.type not in relation_vocab:
            warn(UNKNOWN_RELATION_TYPE, f"relation type {r.type!r} not in vocabulary")

    return report


def duplicate_doc_ids(docs: Iterable[Document]) -> list[Finding]:
    """One corpus-level error for each document id that occurs more than
    once, in order of first appearance."""
    counts = Counter(d.id for d in docs)
    return [Finding(doc_id, DUPLICATE_DOC_ID,
                    f"document id {doc_id!r} appears {n} times")
            for doc_id, n in counts.items() if n > 1]


def span_index(d: Document) -> dict[Mention, str]:
    """Map every mention span of ``d`` to its owning cluster id.

    Raises MentionMultiClusterError if a span is claimed twice.
    """
    index: dict[Mention, str] = {}
    for c in d.clusters:
        for m in c.mentions:
            if m in index and index[m] != c.id:
                raise MentionMultiClusterError(
                    f"{d.id}: span [{m.begin},{m.end}) in clusters "
                    f"{index[m]!r} and {c.id!r}")
            index[m] = c.id
    return index


# --------------------------------------------------------------------------
# Parsing / serialization


def _require(cond: bool, msg: str, *args) -> None:
    """Raise ValueError(msg % args) unless `cond`; the message is only
    formatted on failure, so checks inside per-item loops cost no formatting."""
    if not cond:
        raise ValueError(msg % args if args else msg)


def document_from_json(obj: dict) -> Document:
    """Build a Document from one decoded JSON object; raises ValueError on schema errors."""
    _require(isinstance(obj, dict), "document must be a JSON object")
    _require(isinstance(obj.get("id"), str), "field 'id' must be a string")
    doc_id = obj["id"]
    tokens = obj.get("tokens")
    _require(isinstance(tokens, list) and all(isinstance(t, str) for t in tokens),
             "%s: field 'tokens' must be a list of strings", doc_id)
    sentences = obj.get("sentences")
    _require(isinstance(sentences, list), "%s: field 'sentences' must be a list", doc_id)
    sents = []
    for pair in sentences:
        _require(isinstance(pair, list) and len(pair) == 2
                 and all(isinstance(x, int) for x in pair),
                 "%s: sentence entries must be [begin, end] integer pairs", doc_id)
        sents.append((pair[0], pair[1]))
    clusters = []
    for c in _list_field(obj, "clusters", doc_id):
        _require(isinstance(c, dict) and isinstance(c.get("id"), str),
                 "%s: cluster entries must be objects with a string 'id'", doc_id)
        mentions = []
        for pair in _list_field(c, "mentions", doc_id):
            _require(isinstance(pair, list) and len(pair) == 2
                     and all(isinstance(x, int) for x in pair),
                     "%s: mention entries must be [begin, end] integer pairs", doc_id)
            mentions.append(Mention(pair[0], pair[1]))
        tags = c.get("tags", [])
        _require(isinstance(tags, list) and all(isinstance(t, str) for t in tags),
                 "%s: cluster 'tags' must be a list of strings", doc_id)
        if "link" in c:
            link = c["link"]
            _require(link is None or isinstance(link, str),
                     "%s: cluster 'link' must be a string or null", doc_id)
        else:
            link = UNANNOTATED
        clusters.append(EntityCluster(c["id"], tuple(mentions), frozenset(tags), link))
    relations = []
    for r in _list_field(obj, "relations", doc_id):
        _require(isinstance(r, dict)
                 and all(isinstance(r.get(k), str) for k in ("head", "type", "tail")),
                 "%s: relation entries must be objects with string head/type/tail",
                 doc_id)
        relations.append(RelationTriple(r["head"], r["type"], r["tail"]))
    split = obj.get("split", "unsplit")
    _require(isinstance(split, str), "%s: field 'split' must be a string", doc_id)
    return Document(doc_id, tuple(tokens), tuple(sents), tuple(clusters),
                    tuple(relations), split)


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
            "mentions": [[m.begin, m.end] for m in c.mentions],
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


def decode_json(text: str, path: str | Path, byte_offset: int = 0):
    """Decode one JSON value read from `path`, where `text` starts at
    `byte_offset`. A syntax error raises ParseError at the byte offset of the
    error, nesting deeper than the decoder's recursion limit at the start."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, path=path, byte_offset=byte_offset
                         + len(text[:e.pos].encode("utf-8"))) from e
    except RecursionError:
        raise ParseError("JSON nested too deeply", path=path,
                         byte_offset=byte_offset) from None


def load_corpus(path: str | Path, fmt: str = "jsonl") -> list[Document]:
    """Read documents without invariant checking (syntax and schema only)."""
    path = Path(path)
    if fmt == "jsonl":
        return list(_iter_jsonl(path))
    if fmt == "per-file":
        docs = []
        for f in sorted(path.glob("*.json")):
            obj = decode_json(f.read_text(encoding="utf-8"), f)
            try:
                docs.append(document_from_json(obj))
            except ValueError as e:
                raise ParseError(str(e), path=f, byte_offset=0) from e
        return docs
    raise ValueError(f"unknown corpus format {fmt!r}")


def _iter_jsonl(path: Path) -> Iterator[Document]:
    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:
            line = raw.decode("utf-8")
            stripped = line.strip()
            if stripped:
                lead = line[:len(line) - len(line.lstrip())]
                obj = decode_json(stripped, path,
                                  offset + len(lead.encode("utf-8")))
                try:
                    yield document_from_json(obj)
                except ValueError as e:
                    raise ParseError(str(e), path=path, byte_offset=offset) from e
            offset += len(raw)


def parse_corpus(path: str | Path, fmt: str = "jsonl", *, strict: bool = True,
                 tag_vocab: frozenset[str] | None = None,
                 relation_vocab: frozenset[str] | None = None) -> list[Document]:
    """Read and validate a corpus in file order.

    With strict=True (default) any hard-invariant breach raises
    CorpusValidationError; warnings never raise.
    """
    docs = load_corpus(path, fmt)
    if strict:
        findings = duplicate_doc_ids(docs)
        for d in docs:
            findings.extend(
                validate_document(d, tag_vocab=tag_vocab,
                                  relation_vocab=relation_vocab).errors)
        if findings:
            raise CorpusValidationError(findings)
    return docs


def serialize_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Write documents as canonical JSON Lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps(document_to_json(d), ensure_ascii=False))
            fh.write("\n")
