"""Byte-for-byte CLI outputs on a small annotator pair.

`tests/fixtures/annotator_a.jsonl` and `annotator_b.jsonl` cover split and
merged clusters, spans only one annotator marked, multi-label tags and
relations, NIL and unannotated links, multi-sentence relation distances and
a document with no mentions. `tests/fixtures/rules_multi.jsonl` has two
violations of one rule in one document and relations the closure derives.
The files under `tests/fixtures/golden/` hold the stdout (and the
`--plot-data` TSV) that these commands must reproduce exactly, and the one
`error:` line on stderr with which `validate` refuses
`tests/fixtures/bad_schema.jsonl` (a boolean span bound in the third cluster
of its second document). `tests/fixtures/release/` is a DWIE-format release
whose texts have CRLF and blank-line gaps, leading and trailing newlines,
no-break and line-separator spaces, a combining mark, non-ASCII digits and
symbols and runs of sentence-final punctuation; it also has an empty
article, an unaligned mention, a mention-less concept with relations and
`;`-joined tag strings. `convert` must reproduce its corpus and report.
`golden/decode.json` holds what `decode` prints for
`tests/fixtures/predictions.json`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from entkit.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
A = str(FIXTURES / "annotator_a.jsonl")
B = str(FIXTURES / "annotator_b.jsonl")
RULES_ARGV = ["rules", "check", str(FIXTURES / "rules_multi.jsonl"), "--closure"]


@pytest.mark.parametrize("task,conditioned", [
    ("entity", False), ("entity", True), ("relation", False),
    ("relation", True), ("coref", False), ("linking", False)])
def test_kappa_matches_golden(task, conditioned, capsys):
    argv = ["kappa", "--a", A, "--b", B, "--task", task]
    name = f"kappa_{task}"
    if conditioned:
        argv.append("--conditioned")
        name += "_conditioned"
    assert run(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("side", ["a", "b"])
def test_stats_matches_golden(side, tmp_path, capsys):
    tsv = tmp_path / "coverage.tsv"
    assert run(["stats", str(FIXTURES / f"annotator_{side}.jsonl"),
                "--plot-data", str(tsv)]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"stats_{side}.json").read_bytes()
    assert tsv.read_bytes() == (GOLDEN / f"stats_{side}.tsv").read_bytes()


def test_score_matches_golden(capsys):
    assert run(["score", "--task", "all", "--level", "all", "--per-label",
                "--gold", A, "--pred", B]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / "score_all.json").read_bytes()


def test_rules_check_matches_golden(capsys):
    assert run(RULES_ARGV) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / "rules_check.json").read_bytes()


def test_convert_matches_golden(tmp_path, capsys):
    corpus = tmp_path / "converted.jsonl"
    assert run(["convert", str(FIXTURES / "release"),
                "--out-corpus", str(corpus)]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / "convert_report.json").read_bytes()
    assert corpus.read_bytes() == (GOLDEN / "convert_corpus.jsonl").read_bytes()


def test_decode_matches_golden(capsys):
    assert run(["decode", "--pred", str(FIXTURES / "predictions.json")]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / "decode.json").read_bytes()


def test_schema_error_matches_golden(monkeypatch, capsys):
    # run from the repository root with a relative path, as the CI step does,
    # so the file name in the message is the golden's
    monkeypatch.chdir(FIXTURES.parent.parent)
    assert run(["validate", "tests/fixtures/bad_schema.jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode("utf-8") == (
        GOLDEN / "validate_bad_schema.err").read_bytes()


def test_rules_check_output_ignores_hash_seed():
    src = str(Path(__file__).parent.parent / "src")
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from entkit.cli import run; sys.exit(run(sys.argv[1:]))",
             *RULES_ARGV], env=env, capture_output=True, check=True)
        outputs.append(proc.stdout)
    assert len(set(outputs)) == 1
    assert outputs[0] == (GOLDEN / "rules_check.json").read_bytes()
