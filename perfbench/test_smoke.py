"""Smoke test of the benchmark at a tiny size, plus the generator's checks.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload end to end, untraced and traced, at 2% of the DWIE size
and requires every output check to pass. Takes about a minute.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import synth  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "0.02"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "FAILED" not in proc.stderr, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_checks_pass(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0


def test_generator_imports_nothing_from_entkit():
    tree = ast.parse((HERE / "synth.py").read_text(encoding="utf-8"))
    imported = {a.name.split(".")[0] for n in ast.walk(tree)
                if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module.split(".")[0] for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and n.module}
    stdlib = set(sys.stdlib_module_names)
    assert imported <= stdlib | {"__future__"}, imported - stdlib


def test_inputs_depend_only_on_seed():
    from run import WORK, _digest
    base = WORK / "smoke-digest"
    shutil.rmtree(base, ignore_errors=True)
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        synth.write_inputs(base / name, "paired-eval", seed, size=0.02)
    assert _digest(base / "a") == _digest(base / "b")
    assert _digest(base / "a") != _digest(base / "c")
    shutil.rmtree(base)


def test_default_size_matches_dwie_totals():
    facts = synth.corpus_facts(synth.generate_corpus(seed=1))
    s = facts["summary"]
    got = {
        "documents": facts["documents"], "tokens": s["tokens"],
        "mentions": s["mentions"], "clusters": s["clusters"],
        "singleton_fraction": s["singleton_fraction"],
        "labels_per_entity": s["mean_labels_per_entity"],
        "linked_clusters": s["linked_clusters"],
        "related_pairs": facts["related_pairs"],
        "mention_pairs": facts["mention_pairs"],
        "single_type_pairs": facts["single_type_pairs"],
    }
    for key, tol in synth.TOLERANCES.items():
        want = synth.DWIE[key]
        assert abs(got[key] - want) <= tol * want, (key, got[key], want)
    assert facts["rules"]["firings"] > 0
    assert facts["rules"]["violations"] < 0.01 * facts["rules"]["firings"]


def test_shipped_vocabularies_and_rules_match_the_copies():
    res = HERE.parent / "src" / "entkit" / "resources"

    def entries(name):
        return [l.strip() for l in (res / name).read_text(encoding="utf-8").splitlines()
                if l.strip() and not l.strip().startswith("#")]

    tags = set(entries("tag_vocabulary.txt"))
    assert {t for kind in synth.KIND_TAGS.values() for t in kind} <= tags
    assert entries("consistency_rules.txt") == synth.RULES_TEXT.strip().splitlines()
    assert len(entries("relation_types.txt")) == synth.N_RELATION_TYPES
