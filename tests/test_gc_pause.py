"""`entkit.cli.run` pauses the cyclic garbage collector while a subcommand
runs.

Two things make that safe, and both are pinned here for every subcommand:
the caller's collector setting is restored on every way out (exit 0, 1 and
2 and an argparse usage error), and the objects a command builds hold no
reference cycles, so the cyclic garbage a run leaves behind does not grow
with its input.
"""

import contextlib
import gc
import io
import json
from pathlib import Path

import pytest

from entkit.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
RELEASE = {"id": "DW_X", "tags": ["train"], "content": "Anna visited Berlin.",
           "mentions": [{"begin": 0, "end": 4, "concept": 0},
                        {"begin": 13, "end": 19, "concept": 1}],
           "concepts": [{"concept": 0, "tags": ["type::person"], "link": None},
                        {"concept": 1, "tags": ["type::gpe2"], "link": "Berlin"}],
           "relations": [{"s": 0, "p": "citizen_of", "o": 1}]}


def _inputs(root: Path, copies: int) -> dict[str, str]:
    """Every input a subcommand reads, each holding its fixture `copies`
    times under fresh document, cluster and release ids."""
    root.mkdir()
    paths = {"missing": str(root / "missing.jsonl"), "out": str(root / "out"),
             "trials": str(2 * copies)}

    def corpus(name, docs):
        path = root / f"{name}.jsonl"
        path.write_text("".join(json.dumps({**d, "id": f"{d['id']}-{k}"}) + "\n"
                                for k in range(copies) for d in docs))
        paths[name] = str(path)

    read = lambda name: [json.loads(line) for line in
                         (FIXTURES / name).read_text().splitlines()]
    corpus("a", read("annotator_a.jsonl"))
    corpus("b", read("annotator_b.jsonl"))
    corpus("rules", read("rules_multi.jsonl"))
    bad = read("ok.jsonl")
    bad[0]["clusters"][0]["mentions"] = [[2, 1]]
    corpus("bad", bad)

    spans = json.loads((FIXTURES / "predictions.json").read_text())
    shift = lambda span, k: [span[0] + 20 * k, span[1] + 20 * k]
    pred = {"p_cl": {f"c1-{k}": [shift(s, k) for s in spans["p_cl"]["c1"]]
                     for k in range(copies)},
            "p_men": [[shift(s, k), tag] for k in range(copies)
                      for s, tag in spans["p_men"]],
            "p_rel": [[shift(h, k), t, shift(tl, k)] for k in range(copies)
                      for h, t, tl in spans["p_rel"]]}
    (root / "pred.json").write_text(json.dumps(pred))
    paths["pred"] = str(root / "pred.json")

    for name, docs in (("release", [RELEASE]),
                       ("broken", [{**RELEASE, "mentions": 5}])):
        (root / name).mkdir()
        for k in range(copies):
            (root / name / f"{k}.json").write_text(
                json.dumps({**docs[0], "id": f"DW_{k}"}))
        paths[name] = str(root / name)
    return paths


# (argv, exit code) for every subcommand; `{name}` is a path from _inputs.
RUNS = [
    (["validate", "{a}"], 0),
    (["validate", "{bad}", "--strict"], 1),
    (["stats", "{a}", "--plot-data", "{out}"], 0),
    (["score", "--task", "all", "--gold", "{a}", "--pred", "{b}", "--per-label"], 0),
    (["decode", "--pred", "{pred}"], 0),
    (["rules", "check", "{rules}", "--closure", "--strict"], 1),
    (["kappa", "--a", "{a}", "--b", "{b}", "--task", "entity"], 0),
    (["kappa", "--a", "{a}", "--b", "{b}", "--task", "relation"], 0),
    (["kappa", "--a", "{a}", "--b", "{b}", "--task", "coref"], 0),
    (["kappa", "--a", "{a}", "--b", "{b}", "--task", "linking"], 0),
    (["kernels", "selftest", "--trials", "{trials}"], 0),
    (["convert", "{release}", "--out-corpus", "{out}"], 0),
]
FAILURES = [
    (["validate", "{missing}"], 2),
    (["stats", "{missing}"], 2),
    (["score", "--task", "ner", "--gold", "{a}", "--pred", "{missing}"], 2),
    (["decode", "--pred", "{missing}"], 2),
    (["rules", "check", "{missing}"], 2),
    (["kappa", "--a", "{missing}", "--b", "{b}", "--task", "coref"], 2),
    (["convert", "{broken}", "--out-corpus", "{out}"], 2),
    # argparse usage errors
    (["kernels", "selftest", "--trials", "many"], 2),
    (["validate", "{a}", "--bogus"], 2),
    (["score", "--task", "ner"], 2),
]


def _case_id(value) -> str:
    return " ".join(value) if isinstance(value, list) else str(value)


def _quiet_run(argv, paths):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return run([a.format(**paths) for a in argv])


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv,code", RUNS + FAILURES, ids=_case_id)
def test_run_restores_the_callers_collector_setting(tmp_path, restore_gc,
                                                    argv, code, enabled):
    paths = _inputs(tmp_path / "in", 1)
    gc.enable() if enabled else gc.disable()
    assert _quiet_run(argv, paths) == code
    assert gc.isenabled() is enabled


def _cyclic_garbage(argv, paths) -> int:
    """Objects in unreachable reference cycles that one run leaves behind."""
    gc.disable()
    gc.collect()
    _quiet_run(argv, paths)
    return gc.collect()


@pytest.mark.parametrize("argv,code", RUNS, ids=_case_id)
def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path, restore_gc,
                                                     argv, code):
    small, large = _inputs(tmp_path / "x1", 1), _inputs(tmp_path / "x20", 20)
    assert _quiet_run(argv, small) == code   # first-call caches, not counted
    assert _quiet_run(argv, large) == code
    assert _cyclic_garbage(argv, large) == _cyclic_garbage(argv, small)
