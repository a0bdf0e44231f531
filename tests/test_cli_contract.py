"""The CLI contract on arbitrary small corpora.

The corpora are valid by schema but may break every invariant `validate`
checks: reversed, empty and out-of-range spans, duplicate cluster ids, a
span in two clusters, dangling and self relations, broken sentence covers
and unknown labels. Every command must exit 0, 1 or 2 without letting an
exception escape, and a command that consumes a corpus may exit 0 only when
`validate` finds no error in it.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entkit.cli import run

CLUSTER_IDS = ["c0", "c1", "c2"]
SMALL = st.integers(-1, 6)
PAIRS = st.lists(st.lists(SMALL, min_size=2, max_size=2), max_size=3)
TAGS = ["person", "gpe0", "organization", "type::gpe2", "unknown"]
RELATION_TYPES = ["in0", "based_in2", "gpe0", "bogus"]


@st.composite
def documents(draw, doc_id):
    """Three in four documents keep every invariant; the others draw spans,
    cluster ids, relation ends, the sentence cover and the split freely."""
    n = draw(st.integers(0, 5))
    tidy = draw(st.sampled_from([True, True, True, False]))
    clusters = []
    if tidy:
        spans = draw(st.lists(st.sampled_from(
            [[b, e] for b in range(n) for e in range(b + 1, n + 1)]),
            unique_by=tuple, max_size=4)) if n else []
        owners = [draw(st.sampled_from(CLUSTER_IDS)) for _ in spans]
        members = [(cid, [s for s, o in zip(spans, owners) if o == cid])
                   for cid in CLUSTER_IDS if cid in owners]
    else:
        members = [(cid, draw(PAIRS)) for cid in
                   draw(st.lists(st.sampled_from(CLUSTER_IDS), max_size=4))]
    for cid, mentions in members:
        cluster = {"id": cid, "mentions": mentions,
                   "tags": draw(st.lists(st.sampled_from(TAGS), max_size=2))}
        link = draw(st.sampled_from([None, "KB1", "KB2", "absent"]))
        if link != "absent":
            cluster["link"] = link
        clusters.append(cluster)
    ids = [c["id"] for c in clusters] if tidy else CLUSTER_IDS + ["dangling"]
    relations = []
    triples = draw(st.lists(st.tuples(st.sampled_from(ids),
                                      st.sampled_from(RELATION_TYPES),
                                      st.sampled_from(ids)),
                            max_size=4)) if ids else []
    for h, t, tl in triples:
        if not (tidy and h == tl):
            relations.append({"head": h, "type": t, "tail": tl})
    cover = [[0, n]] if n else []
    return {"id": doc_id,
            "split": "train" if tidy else draw(st.sampled_from(["test", "dev"])),
            "tokens": [f"t{i}" for i in range(n)],
            "sentences": cover if tidy else draw(st.one_of(st.just(cover), PAIRS)),
            "clusters": clusters, "relations": relations}


@st.composite
def corpora(draw):
    ids = draw(st.lists(st.sampled_from(["d0", "d1", "d2"]), unique=True,
                        max_size=3))
    return [draw(documents(i)) for i in ids]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2), argv
    return code, out.getvalue()


def _has_errors(path):
    code, out = _run(["validate", path])
    assert code == 0  # without --strict findings do not change the exit code
    return bool(json.loads(out)["errors"])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpora(), corpora())
def test_every_command_keeps_the_exit_code_contract(corpus_a, corpus_b):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
        for path, docs in ((a, corpus_a), (b, corpus_b)):
            path.write_text("".join(json.dumps(d) + "\n" for d in docs),
                            encoding="utf-8")
        a, b = str(a), str(b)
        a_invalid = _has_errors(a)
        pair_invalid = a_invalid or _has_errors(b)
        commands = [(["stats", a], a_invalid),
                    (["rules", "check", a, "--closure"], a_invalid)]
        commands += [(["score", "--task", task, "--gold", a, "--pred", b,
                       "--per-label"], pair_invalid)
                     for task in ("ner", "re", "coref", "all")]
        commands += [(["kappa", "--a", a, "--b", b, "--task", task], pair_invalid)
                     for task in ("entity", "relation", "coref", "linking")]
        for argv, invalid in commands:
            code, _out = _run(argv)
            assert not (invalid and code == 0), argv
