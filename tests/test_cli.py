import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entkit import rules
from entkit.cli import run

FIXTURES = Path(__file__).parent / "fixtures"


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload


def test_validate_ok(capsys):
    code, payload = run_json(capsys, ["validate", str(FIXTURES / "ok.jsonl")])
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["errors"] == []


def test_validate_strict_fails_on_errors(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({
        "id": "d", "split": "train", "tokens": ["a"], "sentences": [[0, 1]],
        "clusters": [{"id": "c", "mentions": [[3, 1]], "tags": []}],
        "relations": []}) + "\n")
    code, payload = run_json(capsys, ["validate", str(bad), "--strict"])
    assert code == 1
    assert payload["errors"][0]["code"] == "SPAN_ORDER"


def test_score_self_comparison_is_perfect(capsys):
    gold = str(FIXTURES / "ok.jsonl")
    code, payload = run_json(capsys, [
        "score", "--task", "ner", "--level", "soft",
        "--gold", gold, "--pred", gold])
    assert code == 0
    assert payload["soft"]["f1"] == 1.0


def test_score_all_tasks(capsys):
    gold = str(FIXTURES / "ok.jsonl")
    code, payload = run_json(capsys, [
        "score", "--task", "all", "--gold", gold, "--pred", gold])
    assert code == 0
    assert payload["ner"]["mention"]["f1"] == 1.0
    assert payload["re"]["hard"]["f1"] == 1.0
    assert payload["coref"]["b3"]["f1"] == 1.0
    assert payload["coref"]["avg_f1"] == 1.0


def test_score_per_label(capsys):
    gold = str(FIXTURES / "ok.jsonl")
    code, payload = run_json(capsys, [
        "score", "--task", "ner", "--level", "hard", "--per-label",
        "--gold", gold, "--pred", gold])
    assert code == 0
    assert payload["per_label"]["hard"]["person"]["f1"] == 1.0


def test_score_rejects_mismatched_corpora(tmp_path, capsys):
    other = tmp_path / "other.jsonl"
    other.write_text(json.dumps({
        "id": "zz", "split": "train", "tokens": [], "sentences": [],
        "clusters": [], "relations": []}) + "\n")
    code = run(["score", "--task", "ner",
                "--gold", str(FIXTURES / "ok.jsonl"), "--pred", str(other)])
    assert code == 2
    assert "different document ids" in capsys.readouterr().err


def test_decode_roundtrip(tmp_path, capsys):
    code, payload = run_json(capsys, [
        "decode", "--pred", str(FIXTURES / "predictions.json")])
    assert code == 0
    assert payload["clusters"]["gen-0"] == [[6, 7]]
    assert payload["d_ent"]["c1"] == ["person", "politician"]
    assert payload["d_rel"] == [
        {"head": "c1", "tail": "gen-0", "types": ["citizen_of"]}]
    assert payload["discarded_relations"] == 1


def test_rules_check_reports_missing_chain_head(capsys):
    code, payload = run_json(capsys, [
        "rules", "check", str(FIXTURES / "missing_head.jsonl")])
    assert code == 0  # without --strict findings do not change the exit code
    assert len(payload["violations"]) == 1
    assert payload["violations"][0]["rule"] == "C.27"


def test_rules_check_strict_exit_code(capsys):
    code, payload = run_json(capsys, [
        "rules", "check", str(FIXTURES / "missing_head.jsonl"), "--strict"])
    assert code == 1
    assert payload["violations"][0]["missing"]["type"] == "based_in0"


def test_rules_check_closure_lists_derivable(capsys):
    code, payload = run_json(capsys, [
        "rules", "check", str(FIXTURES / "missing_head.jsonl"), "--closure"])
    assert code == 0
    derived = payload["closure"][0]["derived"]
    assert {"head": "o", "type": "based_in0", "tail": "g"} in derived


def test_rules_check_clean_corpus(capsys):
    code, payload = run_json(capsys, [
        "rules", "check", str(FIXTURES / "ok.jsonl"), "--strict"])
    assert code == 0
    assert payload["violations"] == []


CUSTOM_RULES = """
# custom rules
   # an indented comment
R1: spouse_of(Y, X) => spouse_of(X, Y)

in0(X, Y) & gpe0(Z, Y) => in0-x(X, Z)
"""


def test_rules_check_reads_a_custom_rule_file(tmp_path, capsys):
    """Blank and comment lines are skipped; a rule without an id is named
    after its physical line."""
    path = tmp_path / "rules.txt"
    path.write_text(CUSTOM_RULES, encoding="utf-8")
    assert [r.id for r in rules.load_ruleset(path)] == ["R1", "line-6"]
    code, payload = run_json(capsys, [
        "rules", "check", str(FIXTURES / "rules_multi.jsonl"),
        "--rules", str(path), "--strict"])
    assert code == 1
    assert (payload["rules"], payload["firings"]) == (2, 3)
    assert [(v["doc"], v["rule"], v["missing"], v["substitution"])
            for v in payload["violations"]] == [
        ("r1", "line-6", {"head": "c1", "type": "in0-x", "tail": "adj"},
         {"X": "c1", "Y": "g", "Z": "adj"}),
        ("r1", "line-6", {"head": "c2", "type": "in0-x", "tail": "adj"},
         {"X": "c2", "Y": "g", "Z": "adj"}),
        ("r2", "R1", {"head": "p2", "type": "spouse_of", "tail": "p1"},
         {"X": "p2", "Y": "p1"})]


def test_kappa_entity_self_agreement(capsys):
    gold = str(FIXTURES / "ok.jsonl")
    code, payload = run_json(capsys, [
        "kappa", "--a", gold, "--b", gold, "--task", "entity"])
    assert code == 0
    assert payload["result"]["detection"]["kappa"] == 1.0
    assert payload["result"]["classification"] == 1.0


def test_kappa_linking(capsys):
    gold = str(FIXTURES / "ok.jsonl")
    code, payload = run_json(capsys, [
        "kappa", "--a", gold, "--b", gold, "--task", "linking"])
    assert code == 0
    assert payload["result"]["kappa"] == 1.0


def test_kernels_selftest(capsys):
    code, payload = run_json(capsys, [
        "kernels", "selftest", "--trials", "25"])
    assert code == 0
    assert payload["ok"] is True
    assert payload["worst"] < 1e-9


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_kernels_selftest_refuses_no_trials(trials, capsys):
    line = _single_error_line(capsys, ["kernels", "selftest", "--trials", trials])
    assert "--trials" in line


def test_stats_payload_and_plot_data(tmp_path, capsys):
    out_tsv = tmp_path / "dist.tsv"
    code, payload = run_json(capsys, [
        "stats", str(FIXTURES / "ok.jsonl"), "--plot-data", str(out_tsv)])
    assert code == 0
    assert payload["summary"]["tokens"] == 14
    assert payload["summary"]["clusters"] == 4
    assert payload["summary"]["mentions"] == 5
    header, *rows = out_tsv.read_text().strip().splitlines()
    assert header.split("\t") == ["threshold", "cdf_min_tokens",
                                  "cdf_max_tokens", "cdf_min_sent",
                                  "cdf_max_sent"]
    assert rows  # at least one threshold row


def test_output_redirect(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["validate", str(FIXTURES / "ok.jsonl"), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["errors"] == []


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run(["validate", "--bogus"]) == 2


def test_missing_file_is_input_error(capsys):
    assert run(["validate", "/nonexistent/corpus.jsonl"]) == 2


def test_determinism(capsys):
    gold = str(FIXTURES / "ok.jsonl")
    argv = ["score", "--task", "all", "--gold", gold, "--pred", gold]
    _code, first = run_json(capsys, argv)
    _code, second = run_json(capsys, argv)
    assert first == second


def test_convert_subcommand(tmp_path, capsys):
    release = {
        "id": "DW_X", "tags": ["train"],
        "content": "Anna visited Berlin.",
        "mentions": [{"begin": 0, "end": 4, "concept": 0},
                     {"begin": 13, "end": 19, "concept": 1}],
        "concepts": [{"concept": 0, "tags": ["type::person"], "link": None},
                     {"concept": 1, "tags": ["type::gpe2"], "link": "Berlin"}],
        "relations": [{"s": 0, "p": "citizen_of", "o": 1}],
    }
    src = tmp_path / "release"
    src.mkdir()
    (src / "x.json").write_text(json.dumps(release))
    out_corpus = tmp_path / "canonical.jsonl"
    code, payload = run_json(capsys, [
        "convert", str(src), "--out-corpus", str(out_corpus)])
    assert code == 0
    assert payload["documents"] == 1
    doc = json.loads(out_corpus.read_text().strip())
    assert doc["tokens"] == ["Anna", "visited", "Berlin", "."]
    assert doc["relations"] == [{"head": "c0", "type": "citizen_of",
                                 "tail": "c1"}]


def test_kappa_entity_without_mentions_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text(json.dumps({
        "id": "d", "split": "test", "tokens": ["a"], "sentences": [[0, 1]],
        "clusters": [], "relations": []}) + "\n")
    code = run(["kappa", "--a", str(empty), "--b", str(empty),
                "--task", "entity"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: neither annotator produced any mention"]


def _single_error_line(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("predictions,field", [
    ({"p_cl": {"c1": 5}}, "p_cl"),
    ({"p_men": [[["a", "b"], "person"]]}, "p_men"),
    ({"p_men": [[[0, 1]]]}, "p_men"),
    ({"p_rel": [[[0, 1], "in0", [2]]]}, "p_rel"),
    ({"p_cl": {"c": [[True, 2]]}, "p_men": [], "p_rel": []}, "p_cl"),
    ({"p_men": [[[0, True], "person"]]}, "p_men"),
    ({"p_rel": [[[0, 1], "in0", [False, 1]]]}, "p_rel"),
])
def test_decode_rejects_malformed_predictions(tmp_path, capsys, predictions,
                                              field):
    path = tmp_path / "pred.json"
    path.write_text(json.dumps(predictions))
    line = _single_error_line(capsys, ["decode", "--pred", str(path)])
    assert field in line
    assert line.endswith(f"[{path}]")


@pytest.mark.parametrize("predictions,message", [
    ({"p_cl": {"c1": []}}, "cluster 'c1' has no mention spans"),
    ({"p_cl": {"c1": [[0, 1], [3, 2]]}}, "cluster 'c1': bad span [3,2)"),
    ({"p_men": [[[0, 1], "person"], [[2, 2], "person"]]},
     "tagged span [2,2) is empty or reversed"),
    ({"p_rel": [[[0, 1], "in0", [4, 3]]]},
     "relation span [4,3) is empty or reversed"),
    ({"p_cl": {"a": [[0, 1]], "b": [[0, 1]]}},
     "span [0,1) predicted in clusters 'a' and 'b'"),
])
def test_decode_refuses_empty_clusters_and_spans_naming_the_file(
        tmp_path, capsys, predictions, message):
    path = tmp_path / "pred.json"
    path.write_text(json.dumps(predictions))
    line = _single_error_line(capsys, ["decode", "--pred", str(path)])
    assert line == f"error: {message} [{path}]"


@pytest.mark.parametrize("broken", [
    {"mentions": [{"end": 4, "concept": 0}]},
    {"mentions": [{"begin": "0", "end": 4, "concept": 0}]},
    {"concepts": [{"tags": ["type::person"]}]},
    {"relations": [{"s": 0, "p": "citizen_of"}]},
    {"relations": [{"s": 0, "p": 7, "o": 0}]},
    {"mentions": [{"begin": True, "end": 4, "concept": 0}]},
    {"mentions": [{"begin": 0, "end": True, "concept": 0}]},
    {"mentions": [{"begin": 0, "end": 4, "concept": False}]},
    None,
])
def test_convert_schema_errors_name_the_file(tmp_path, capsys, broken):
    src = tmp_path / "release"
    src.mkdir()
    release = {"id": "DW_X", "content": "Anna visited Berlin.",
               "mentions": [{"begin": 0, "end": 4, "concept": 0}],
               "concepts": [{"concept": 0, "tags": ["type::person"]}],
               "relations": []}
    text = "{\"id\": " if broken is None else json.dumps({**release, **broken})
    (src / "x.json").write_text(text)
    line = _single_error_line(capsys, [
        "convert", str(src), "--out-corpus", str(tmp_path / "out.jsonl")])
    assert str(src / "x.json") in line


@pytest.mark.parametrize("clusters,relations", [
    ([{"id": "c", "mentions": [], "tags": []}], []),               # empty cluster
    ([{"id": "c", "mentions": [[2, 1]], "tags": []}], []),         # reversed
    ([{"id": "c", "mentions": [[0, 9]], "tags": []}], []),         # out of bounds
    ([{"id": "c", "mentions": [[0, 1]], "tags": []},
      {"id": "c", "mentions": [[1, 2]], "tags": []}], []),         # duplicate id
    ([{"id": "c", "mentions": [[0, 1]], "tags": []}],
     [{"head": "c", "type": "in0", "tail": "x"}]),                 # dangling
])
@pytest.mark.parametrize("command", [
    ["stats", "{bad}"], ["rules", "check", "{bad}"],
    ["score", "--task", "ner", "--gold", "{bad}", "--pred", "{bad}"],
    ["score", "--task", "re", "--gold", "{ok}", "--pred", "{bad}"],
    ["score", "--task", "coref", "--gold", "{bad}", "--pred", "{ok}"],
    ["kappa", "--a", "{bad}", "--b", "{bad}", "--task", "entity"],
    ["kappa", "--a", "{ok}", "--b", "{bad}", "--task", "linking"],
])
def test_consuming_commands_refuse_invalid_corpus(tmp_path, capsys, clusters,
                                                  relations, command):
    paths = {}
    for name, doc_clusters, doc_relations in (
            ("ok", [{"id": "c", "mentions": [[0, 1]], "tags": []}], []),
            ("bad", clusters, relations)):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(json.dumps({
            "id": "d", "split": "train", "tokens": ["a", "b", "c"],
            "sentences": [[0, 3]], "clusters": doc_clusters,
            "relations": doc_relations}) + "\n")
    argv = [a.format(**paths) for a in command]
    line = _single_error_line(capsys, argv)
    assert "corpus fails validation" in line and str(paths["bad"]) in line


DOC = {"id": "d1", "split": "train", "tokens": ["a", "b", "c"],
       "sentences": [[0, 3]],
       "clusters": [{"id": "c", "mentions": [[0, 1]], "tags": ["person"]}],
       "relations": []}
CORPUS_COMMANDS = [
    ["validate", "{bad}"], ["stats", "{bad}"], ["rules", "check", "{bad}"],
    ["score", "--task", "ner", "--gold", "{bad}", "--pred", "{ok}"],
    ["score", "--task", "coref", "--gold", "{ok}", "--pred", "{bad}"],
    ["kappa", "--a", "{bad}", "--b", "{ok}", "--task", "entity"],
    ["kappa", "--a", "{ok}", "--b", "{bad}", "--task", "linking"],
]


def _write_corpus(path, docs):
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    return str(path)


@pytest.mark.parametrize("broken", [
    {"clusters": 5}, {"relations": 3}, {"clusters": None},
    {"clusters": [{"id": "c", "mentions": 7, "tags": []}]},
    {"clusters": [{"id": "c", "tags": [], "mentions": {"0": 1}}]},
])
@pytest.mark.parametrize("command", CORPUS_COMMANDS)
def test_non_list_fields_are_parse_errors(tmp_path, capsys, broken, command):
    good = json.dumps({**DOC, "id": "d0"}) + "\n"
    paths = {"ok": _write_corpus(tmp_path / "ok.jsonl", [DOC]),
             "bad": str(tmp_path / "bad.jsonl")}
    (tmp_path / "bad.jsonl").write_text(good + json.dumps({**DOC, **broken}) + "\n")
    line = _single_error_line(capsys, [a.format(**paths) for a in command])
    assert "must be a list" in line
    assert f"[{paths['bad']} @ byte {len(good)}]" in line


def test_validate_reports_duplicate_document_ids(tmp_path, capsys):
    other = {**DOC, "clusters": [{"id": "c", "mentions": [[1, 2]], "tags": []}]}
    path = _write_corpus(tmp_path / "dup.jsonl", [DOC, {**DOC, "id": "d2"}, other])
    code, payload = run_json(capsys, ["validate", path, "--strict"])
    assert code == 1
    assert payload["documents"] == 3
    assert [(e["doc"], e["code"]) for e in payload["errors"]] == [
        ("d1", "DUPLICATE_DOC_ID")]
    assert "2 times" in payload["errors"][0]["message"]


@pytest.mark.parametrize("command", CORPUS_COMMANDS[1:])
def test_consuming_commands_refuse_duplicate_document_ids(tmp_path, capsys,
                                                          command):
    paths = {"ok": _write_corpus(tmp_path / "ok.jsonl", [DOC]),
             "bad": _write_corpus(tmp_path / "bad.jsonl", [DOC, DOC])}
    line = _single_error_line(capsys, [a.format(**paths) for a in command])
    assert "corpus fails validation (1 error(s))" in line
    assert line.endswith(f"[{paths['bad']}]")


def _related_doc(n_tokens):
    return {"id": "d1", "split": "train", "tokens": ["w"] * n_tokens,
            "sentences": [[0, n_tokens]],
            "clusters": [{"id": "c", "mentions": [[0, 1]], "tags": ["person"]},
                         {"id": "t", "mentions": [[2, 3]], "tags": ["location"]}],
            "relations": [{"head": "c", "type": "in0", "tail": "t"}]}


@pytest.mark.parametrize("command", [
    ["score", "--task", task, "--gold", "{a}", "--pred", "{b}"]
    for task in ("coref", "ner", "re")] + [
    ["kappa", "--a", "{a}", "--b", "{b}", "--task", task]
    for task in ("entity", "relation", "coref", "linking")])
def test_paired_commands_refuse_token_mismatch(tmp_path, capsys, command):
    paths = {"a": _write_corpus(tmp_path / "a.jsonl", [_related_doc(4)]),
             "b": _write_corpus(tmp_path / "b.jsonl", [_related_doc(6)])}
    line = _single_error_line(capsys, [a.format(**paths) for a in command])
    assert line == "error: token-space mismatch in document 'd1'"


# A JSON boolean is not an integer, although Python's bool is an int.
BOOLEAN_SPANS = {"id": "d", "split": "train", "tokens": ["a", "b"],
                 "sentences": [[False, 2]],
                 "clusters": [{"id": "c", "mentions": [[True, 2]],
                               "tags": ["type::person"]}],
                 "relations": []}


@pytest.mark.parametrize("broken", [
    BOOLEAN_SPANS,
    {**DOC, "sentences": [[False, 3]]},
    {**DOC, "clusters": [{"id": "c", "mentions": [[0, True]], "tags": []}]},
])
@pytest.mark.parametrize("command", [["validate", "{bad}", "--strict"]]
                         + CORPUS_COMMANDS)
def test_boolean_span_bounds_are_parse_errors(tmp_path, capsys, broken,
                                              command):
    paths = {"ok": _write_corpus(tmp_path / "ok.jsonl", [DOC]),
             "bad": _write_corpus(tmp_path / "bad.jsonl", [broken])}
    line = _single_error_line(capsys, [a.format(**paths) for a in command])
    assert "must be [begin, end] integer pairs" in line
    assert f"[{paths['bad']} @ byte 0]" in line


@pytest.mark.parametrize("module", ["entkit", "entkit.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    bad = _write_corpus(tmp_path / "bad.jsonl", [
        {**DOC, "clusters": [{"id": "c", "mentions": [[2, 1]], "tags": []}]}])
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", module, "validate", bad,
                           "--strict"], env=env, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert [e["code"] for e in json.loads(proc.stdout)["errors"]] == ["SPAN_ORDER"]


MODULES_PROBE = """
import contextlib, io, sys
import entkit.cli
from entkit import corpus, rules, stats
packages, argv = sys.argv[1].split(","), sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    code = entkit.cli.run(argv) if argv else 0
print(code, sorted(m for m in sys.modules if m.partition(".")[0] in packages))
"""


def _fresh_interpreter(probe, *args) -> str:
    """What the Python source `probe` prints, run with `args` in a fresh
    interpreter that imports entkit from this checkout."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def _modules_after(package, argv):
    """Run one command in a fresh interpreter and name the modules of
    `package` (or of each of several, comma-separated) it loaded; with no
    command, only import the CLI and the corpus layers. The pytest process
    has scipy and numpy already."""
    code, modules = _fresh_interpreter(MODULES_PROBE, package, *argv).split(" ", 1)
    assert code == "0"
    return modules.strip()


PAIR = ["--gold", "{a}", "--pred", "{b}"]
COMMANDS = [
    ["validate", "{ok}"],
    ["stats", "{a}", "--plot-data", "{tmp}/stats.tsv"],
    ["score", "--task", "ner", *PAIR],
    ["score", "--task", "coref", *PAIR],
    ["score", "--task", "all", "--level", "all", "--per-label", *PAIR],
    ["kappa", "--task", "coref", "--a", "{a}", "--b", "{b}"],
    ["kappa", "--task", "relation", "--conditioned", "--a", "{a}", "--b", "{b}"],
    ["rules", "check", "{rules}", "--closure"],
    ["decode", "--pred", "{predictions}"],
    ["convert", "{release}", "--out-corpus", "{tmp}/convert.jsonl"],
    ["kernels", "selftest", "--trials", "5"],
]


def _command_id(command):
    return "-".join([a for a in command if a[0] not in "-{"][:2])


def _argv(command, tmp_path):
    paths = {"ok": FIXTURES / "ok.jsonl", "a": FIXTURES / "annotator_a.jsonl",
             "b": FIXTURES / "annotator_b.jsonl",
             "rules": FIXTURES / "rules_multi.jsonl",
             "predictions": FIXTURES / "predictions.json",
             "release": FIXTURES / "release", "tmp": tmp_path}
    return [a.format(**paths) for a in command]


@pytest.mark.parametrize("command", COMMANDS, ids=_command_id)
def test_no_command_imports_scipy(tmp_path, command):
    """CEAF-e aligns clusters in plain Python, so no command loads scipy,
    the coreference scores included."""
    assert _modules_after("scipy", _argv(command, tmp_path)) == "[]"


@pytest.mark.parametrize("command", COMMANDS + [[]],
                         ids=lambda command: _command_id(command) or "import")
def test_only_kernel_commands_import_numpy(tmp_path, command):
    """numpy loads with the kernels alone: `kernels selftest` needs it, no
    other command does, nor does importing the CLI and the corpus layers."""
    modules = _modules_after("numpy", _argv(command, tmp_path))
    if command[:2] == ["kernels", "selftest"]:
        assert "'numpy'" in modules
    else:
        assert modules == "[]"


@pytest.mark.parametrize("command", COMMANDS + [[]],
                         ids=lambda command: _command_id(command) or "import")
def test_only_corpus_commands_import_the_process_pool(tmp_path, command):
    """The pool modules cost a command's start-up 20-28 ms, so a command
    imports them only when it starts a pool: every corpus command does on
    more than one CPU and at least `corpus.POOL_MIN_BYTES` of input, which
    no fixture reaches unless the threshold is lowered to 0."""
    argv = _argv(command, tmp_path)
    assert _modules_after("concurrent,multiprocessing", argv) == "[]"
    code, modules = _fresh_interpreter(POOL_ANY_INPUT_PROBE, "concurrent,multiprocessing",
                                       *argv).split(" ", 1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    if cpus > 1 and command[:1] in (["convert"], ["score"], ["kappa"], ["validate"],
                                    ["stats"], ["rules"]):
        assert "'concurrent.futures.process'" in modules and "'multiprocessing'" in modules
    else:
        assert modules.strip() == "[]"
    assert code == "0"


POOL_ANY_INPUT_PROBE = MODULES_PROBE.replace(
    "import entkit.cli\n", "import entkit.cli\nentkit.corpus.POOL_MIN_BYTES = 0\n")


DATACLASSES_PROBE = """
import dataclasses, sys
import entkit.cli
print(sorted(c.__qualname__ for name, m in list(sys.modules.items())
             if name.partition(".")[0] == "entkit" for c in vars(m).values()
             if isinstance(c, type) and c.__module__ == name
             and dataclasses.is_dataclass(c)))
"""


def test_only_classes_whose_constructor_checks_its_input_are_dataclasses():
    """Result records are named tuples and accumulators plain classes: a
    class stays a dataclass only when its constructor checks its input and
    may raise, as building a dataclass slows start-up. EntityCluster, whose
    constructor puts its input into canonical form, is a named tuple without
    a `__dict__`. Each accumulator builds its own containers."""
    assert _fresh_interpreter(DATACLASSES_PROBE).strip() == str(
        ["AnnotationPair", "Atom", "DecodeInput", "Rule"])
    from entkit.corpus import EntityCluster
    assert issubclass(EntityCluster, tuple) and EntityCluster.__slots__ == ()
    assert not hasattr(EntityCluster("c", (), ()), "__dict__")
    from entkit.corpus import ValidationReport
    from entkit.dwie import ConversionReport
    from entkit.stats import DistanceProfile
    for make in (ValidationReport, DistanceProfile, rules.FactBase, ConversionReport):
        first, second = vars(make()), vars(make())
        containers = [k for k, v in first.items() if isinstance(v, (list, set, dict))]
        assert containers, make
        assert all(first[k] is not second[k] for k in containers), make


KERNEL_NAMES = ["GateTransform", "ScoreSet", "SpanVectors", "attention_propagation",
                "augment_with_pruner", "coref_confidence", "coref_marginal_loss",
                "gated_span_update", "joint_loss", "multilabel_bce_loss",
                "span_count"]


def test_lazy_names_resolve_to_the_loaded_modules():
    import entkit
    import entkit.cli
    import entkit.kernels
    import entkit.selftest
    assert entkit.__getattr__("kernels") is entkit.kernels
    for name in KERNEL_NAMES:
        assert getattr(entkit, name) is getattr(entkit.kernels, name), name
    assert hasattr(entkit.cli, "selftest")
    assert entkit.cli.__getattr__("selftest") is entkit.selftest
    for module in (entkit, entkit.cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name

