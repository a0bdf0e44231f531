"""Best-effort converter from the public DWIE annotation release to the
canonical corpus schema.

The release stores one JSON file per article with character-offset mentions,
numeric concept ids, concept-level tags/links, and concept-pair relations.
The canonical schema is token-based, so this converter tokenizes the article
content itself (regex word/punctuation tokenizer, sentence breaks at newlines
and sentence-final punctuation). Token and sentence counts therefore depend
on this tokenizer and may differ from counts produced by other tokenizations
of the same text.

Field mapping:
  concepts[i]          -> cluster "c<i>"; tags kept verbatim (including any
                          "category::value" namespacing); "link" null -> NIL,
                          missing -> unannotated.
  mentions[*].concept  -> cluster membership; char span snapped to the
                          overlapping token range.
  relations[*] {s,p,o} -> {head: "c<s>", type: p, tail: "c<o>"}.
  top-level "tags"     -> split ("train" / "test" / "unsplit").

Concepts that never appear as a mention cannot be represented (clusters must
be non-empty) and are dropped with their relations, and counted; a repeated
concept index or a mention of no concept is a schema error.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import accumulate
from pathlib import Path
from typing import Iterator

from .corpus import (ITEMS_PER_TASK, UNANNOTATED, Document, EntityCluster, Mention,
                     RelationTriple, _every, _require, canonical_line, map_tasks,
                     pool_cpus, read_json)

_TOKEN_SPLIT = re.compile(r"(\w+|[^\w\s])")
_BREAK_RE = re.compile(r"[.!?]|\n")


class ConversionReport:
    def __init__(self):
        self.documents = self.dropped_concepts = self.dropped_relations = 0
        self.unaligned_mentions = 0
        self.notes: list[str] = []

    def merge(self, other: "ConversionReport") -> None:
        """Add the counts and notes of another report, a worker's say."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


def _tokenize(text: str) -> tuple[list[str], list[int], list[int]]:
    """Tokens with their begin and end offsets. The split alternates gap and
    token; every gap is whitespace, since a token takes any other character."""
    parts = _TOKEN_SPLIT.split(text)
    offsets = list(accumulate(map(len, parts)))
    return parts[1::2], offsets[:-1:2], offsets[1::2]


def _sentences(text: str, begins: list[int]) -> list[Mention]:
    """Break after sentence-final punctuation and at newline gaps; always a
    contiguous cover of the token range."""
    breaks = {bisect_right(begins, m.start()) for m in _BREAK_RE.finditer(text)}
    stops = sorted((breaks | {len(begins)}) - {0})
    return [Mention(b, e) for b, e in zip([0, *stops], stops)]


def _token_span(begins: list[int], ends: list[int], begin: int, end: int
                ) -> Mention | None:
    """The tokens overlapping the character span [begin, end), or None: the
    suffix of tokens ending after `begin` meets the prefix starting before `end`."""
    first, stop = bisect_right(ends, begin), bisect_left(begins, end)
    return Mention(first, stop) if first < stop else None


def _records(obj: dict, key: str, kinds: dict[str, type]) -> list[dict]:
    """The entries of the list under `key`; each must be an object whose
    `kinds` fields have exactly the given types (a JSON boolean is not an
    int)."""
    entries = obj.get(key, [])
    _require(isinstance(entries, list), "field %r must be a list", key)
    shape = ", ".join(f"{kind.__name__} {name!r}" for name, kind in kinds.items())
    _require(_every(entries, dict)
             and all({type(e.get(name)) for e in entries} <= {kind}
                     for name, kind in kinds.items()),
             "%s entries must be objects with %s", key, shape)
    return entries


def convert_annotation(obj: dict, report: ConversionReport | None = None
                       ) -> Document:
    """Convert one decoded release file to a canonical Document; raises
    ValueError on schema errors."""
    report = report if report is not None else ConversionReport()
    _require(isinstance(obj, dict), "release file must be a JSON object")
    doc_id = str(obj.get("id", "unknown"))
    content = obj.get("content") or ""
    _require(isinstance(content, str), "%s: field 'content' must be a string", doc_id)
    if not content:
        report.notes.append(f"{doc_id}: no article content; run the release's "
                            "content-fetch step first")
    words, begins, ends = _tokenize(content)
    mentions = _records(obj, "mentions", {"begin": int, "end": int, "concept": int})
    concepts = _records(obj, "concepts", {"concept": int})
    indices = {c["concept"] for c in concepts}
    _require(len(indices) == len(concepts), "%s: two concepts share an index", doc_id)
    _require(indices.issuperset(m["concept"] for m in mentions),
             "%s: a mention names a concept index that no concept has", doc_id)

    mentions_by_concept: dict[int, list[Mention]] = {}
    for m in mentions:
        span = _token_span(begins, ends, m["begin"], m["end"])
        if span is None:
            report.unaligned_mentions += 1
            continue
        mentions_by_concept.setdefault(m["concept"], []).append(span)

    clusters = []
    for c in concepts:  # each checked, then dropped if no mention aligns
        tags = c.get("tags") or []
        if isinstance(tags, str):
            tags = [t for t in tags.split(";") if t]
        _require(isinstance(tags, list) and all(isinstance(t, str) for t in tags),
                 "%s: concept 'tags' must be a list of strings", doc_id)
        link = c.get("link", UNANNOTATED)
        _require(link is None or link is UNANNOTATED or isinstance(link, str),
                 "%s: concept 'link' must be a string or null", doc_id)
        if spans := mentions_by_concept.get(c["concept"]):
            clusters.append(EntityCluster(f"c{c['concept']}", tuple(spans),
                                          frozenset(tags), link))
        else:
            report.dropped_concepts += 1

    relations = []
    for r in _records(obj, "relations", {"s": int, "p": str, "o": int}):
        s, o = r["s"], r["o"]
        if s in mentions_by_concept and o in mentions_by_concept:  # the kept concepts
            relations.append(RelationTriple(f"c{s}", r["p"], f"c{o}"))
        else:
            report.dropped_relations += 1

    doc_tags = obj.get("tags") or []
    _require(isinstance(doc_tags, list), "%s: field 'tags' must be a list", doc_id)
    split = "train" if "train" in doc_tags else \
        "test" if "test" in doc_tags else "unsplit"
    report.documents += 1
    return Document(doc_id, tuple(words), tuple(_sentences(content, begins)),
                    tuple(clusters), tuple(relations), split)


def convert_release(src_dir: str | Path) -> tuple[list[Document], ConversionReport]:
    """Convert every *.json file under `src_dir`, in filename order; a file
    that is not valid JSON or breaks the schema raises ParseError."""
    report = ConversionReport()
    return list(iter_release(src_dir, report)), report


def iter_release(src_dir: str | Path, report: ConversionReport) -> Iterator[Document]:
    """`convert_release`'s documents one at a time, each file read as it is
    reached; `report` counts what the files read so far dropped."""
    yield from _converted(_release_files(src_dir), report)


def _converted(paths: list[Path], report: ConversionReport) -> Iterator[Document]:
    """The documents of the release files `paths`, each read as it is reached."""
    for path in paths:
        yield read_json(path, lambda obj: convert_annotation(obj, report))


def convert_release_lines(src_dir: str | Path, report: ConversionReport) -> list[str]:
    """`iter_release`'s documents as canonical lines, converted in worker
    processes when `corpus.pool_cpus` gives the files' total size a pool.
    If the pool fails (a file, a worker or a fork), the files are converted
    here, so the first file in filename order that fails raises its error;
    every worker has exited when this returns or raises."""
    paths = _release_files(src_dir)
    tasks = [paths[i:i + ITEMS_PER_TASK] for i in range(0, len(paths), ITEMS_PER_TASK)]
    cpus = pool_cpus(sum(path.stat().st_size for path in paths))
    try:
        parts = list(map_tasks(convert_files, tasks, cpus))
    except Exception:
        if not cpus:
            raise
        parts = [convert_files(paths)]
    for _, part in parts:
        report.merge(part)
    return [line for converted, _ in parts for line in converted]


def convert_files(paths: list[Path]) -> tuple[list[str], ConversionReport]:
    """The pool's worker, sent by name: the files' canonical lines and their
    report."""
    report = ConversionReport()
    return list(map(canonical_line, _converted(paths, report))), report


def _release_files(src_dir: str | Path) -> list[Path]:
    """The release's files in filename order; a glob of a non-directory finds none."""
    if not Path(src_dir).is_dir():
        raise NotADirectoryError(f"{src_dir}: not a directory")
    return sorted(Path(src_dir).glob("*.json"))
