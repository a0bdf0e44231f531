"""The benchmark's tracer (perfbench/spans.py) wraps entkit functions by
name, so removing one of them breaks every traced benchmark run; this
catches that in the tier-1 suite."""

import types
from pathlib import Path
from types import SimpleNamespace

import entkit.cli
import entkit.kernels

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    # compiled from source rather than imported, so nothing is written
    # next to it (no __pycache__)
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         module.__dict__)
    return module


def test_tracer_resolves_every_traced_name():
    tracer = _spans_module().Tracer(
        SimpleNamespace(cli=entkit.cli, kernels=entkit.kernels))
    patches = tracer._patches()
    assert [attr for _owner, attr, _repl in patches] == [
        "load_corpus", "document_from_json", "validate_document",
        "serialize_corpus", "decode_input_from_json", "decode_entity_centric",
        "decode_output_to_json", "_emit", "coverage_table", "muc", "b_cubed",
        "ceaf_e", "dwie", "stats", "rules", "coref", "agreement", "selftest",
        "metrics", "kernels"]
