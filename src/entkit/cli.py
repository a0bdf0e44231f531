"""Command-line entry point.

Subcommands: validate, stats, score, decode, rules, kappa, kernels, convert.
Reports go to stdout as JSON (schema_version 1), diagnostics to stderr.
Exit codes: 0 ok, 1 findings under --strict, 2 usage or input error.
stats, score, kappa and rules check refuse a corpus that fails validation.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from pathlib import Path

from . import agreement, coref, dwie, metrics, rules, stats
from .corpus import CorpusError, cluster_overlaps, fold_files, read_json, validate_path
# Not called here: the benchmark's tracer (perfbench/spans.py) looks them up
# on this module by name.
from .corpus import load_corpus, serialize_corpus, validate_document  # noqa: F401
from .decoder import (decode_entity_centric, decode_input_from_json,
                      decode_output_to_json)

SCHEMA_VERSION = 1


def __getattr__(name: str):
    # `kernels selftest` is the one command that needs numpy, so `selftest`
    # loads on first use (PEP 562); the benchmark's tracer reads it here too.
    if name != "selftest":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import selftest
    return selftest


def _emit(payload: dict, out: str | None) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# --------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args) -> int:
    documents, report = validate_path(args.corpus)
    as_json = lambda findings: [
        {"doc": f.doc_id, "code": f.code, "message": f.message} for f in findings]
    _emit({"documents": documents, "errors": as_json(report.errors),
           "warnings": as_json(report.warnings)}, args.out)
    return 1 if report.errors and args.strict else 0


def _named(counts: dict, names: tuple[str, str]) -> dict:
    """Each key of `counts`, as a string, -> its two counts by name."""
    return {str(key): dict(zip(names, pair)) for key, pair in counts.items()}


def _cmd_stats(args) -> int:
    fold = fold_files(stats.CorpusFold(distances=bool(args.plot_data)), args.corpus)
    summary = fold.summary()
    type_hist = fold.type_histogram()
    rel_hist, multilabel = fold.relation_histograms()
    entity, pairs = ("clusters", "mentions"), ("entity_pairs", "mention_pairs")
    payload = {
        "summary": summary.to_json(),
        "entity_types": {"direct": _named(type_hist.direct, entity),
                         "rollup": _named(type_hist.rollup, entity)},
        "relation_types": {
            "per_type": _named(rel_hist.per_type, pairs),
            "total_entity_pairs": rel_hist.total_entity_pairs,
            "total_mention_pairs": rel_hist.total_mention_pairs,
        },
        "relation_labels_per_pair": _named(multilabel, pairs),
    }
    if args.plot_data:
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            fh.write("threshold\tcdf_min_tokens\tcdf_max_tokens"
                     "\tcdf_min_sent\tcdf_max_sent\n")
            for row in fold.profile.coverage_table():
                fh.write("\t".join(str(x) for x in row) + "\n")
    _emit(payload, args.out)
    return 0


class _Scores(dict):
    """Task -> its fold, all fed one document pair at a time (`add`) and
    merged task by task (`merge`); `corpus.fold_files` may fold copies of it
    in worker processes."""

    def add(self, g, p) -> None:
        cells = cluster_overlaps(g, p)  # one table per pair, read by every fold
        for task, fold in self.items():
            fold.add(cells if task == "coref"
                     else metrics.build_eval_view(g, p, task, cells))

    def merge(self, other: "_Scores") -> None:
        for task, fold in self.items():
            fold.merge(other[task])


def _cmd_score(args) -> int:
    levels = list(metrics.LEVELS) if args.level == "all" else [args.level]
    tasks = ("ner", "re", "coref") if args.task == "all" else (args.task,)
    folds = fold_files(_Scores(
        {task: coref.CorefFold() if task == "coref" else metrics.ScoreFold(levels)
         for task in tasks}), args.gold, args.pred)
    payload = {task: fold.report() if task == "coref" else fold.report(args.per_label)
               for task, fold in folds.items()}
    _emit(payload if args.task == "all" else payload[args.task], args.out)
    return 0


def _cmd_decode(args) -> int:
    result = read_json(args.pred, lambda obj: decode_entity_centric(decode_input_from_json(obj)))
    _emit(decode_output_to_json(result), args.out)
    return 0


def _cmd_rules_check(args) -> int:
    try:
        ruleset = rules.load_ruleset(args.rules) if args.rules \
            else rules.builtin_ruleset()
    except (ValueError, OSError):
        fold_files(rules.RulesFold([]), args.corpus)  # the corpus's own errors come first
        raise
    result = fold_files(rules.RulesFold(ruleset, args.closure), args.corpus).result()
    _emit(result, args.out)
    return 1 if result["violations"] and args.strict else 0


def _cmd_kappa(args) -> int:
    if args.conditioned and args.task not in ("entity", "relation"):
        raise ValueError(f"--conditioned applies to --task entity and relation "
                         f"only, not {args.task}")
    fold = agreement.agreement_fold(args.task, args.conditioned)
    result = fold_files(fold, args.a, args.b).result()
    _emit({"task": args.task, "result": result}, args.out)
    return 0


def _cmd_kernels_selftest(args) -> int:
    if args.trials < 1:
        # run_selftest refuses this too; here the message names the option
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    # through this module's attribute, which a tracer may have replaced
    selftest = sys.modules[__name__].selftest
    deviations = selftest.run_selftest(trials=args.trials, seed=args.seed)
    worst = max(deviations.values())
    for name in sorted(deviations):
        print(f"{name}: max deviation {deviations[name]:.3e}", file=sys.stderr)
    _emit({"max_abs_deviation": deviations, "worst": worst,
           "ok": worst < 1e-9}, args.out)
    return 0 if worst < 1e-9 else 1


def _cmd_convert(args) -> int:
    report, lines = dwie.convert_release_lines(args.src)
    with open(args.out_corpus, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    _emit(vars(report), args.out)
    return 0


# --------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="entkit",
        description="Entity-centric document-level IE toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check corpus invariants")
    p.add_argument("corpus")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any error is found")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("stats", help="corpus statistics report")
    p.add_argument("corpus")
    p.add_argument("--out")
    p.add_argument("--plot-data", help="write distance-coverage TSV here")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("score", help="score predictions against gold")
    p.add_argument("--task", choices=["ner", "re", "coref", "all"],
                   required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--level", choices=["mention", "hard", "soft", "all"],
                   default="all")
    p.add_argument("--per-label", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("decode", help="lift span predictions to entities")
    p.add_argument("--pred", required=True,
                   help="JSON file with p_cl / p_men / p_rel")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("rules", help="relation-consistency rules")
    rules_sub = p.add_subparsers(dest="rules_command", required=True)
    p = rules_sub.add_parser("check", help="report rule violations")
    p.add_argument("corpus")
    p.add_argument("--rules", help="custom rule file (default: built-in set)")
    p.add_argument("--closure", action="store_true",
                   help="also list the derivable missing relations per document")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any violation is found")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_rules_check)

    p = sub.add_parser("kappa", help="inter-annotator agreement")
    p.add_argument("--a", required=True, help="first annotator's corpus")
    p.add_argument("--b", required=True, help="second annotator's corpus")
    p.add_argument("--task", choices=["entity", "coref", "linking", "relation"],
                   required=True)
    p.add_argument("--conditioned", action="store_true",
                   help="restrict classification to jointly detected items")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_kappa)

    p = sub.add_parser("kernels", help="numeric kernel utilities")
    kernels_sub = p.add_subparsers(dest="kernels_command", required=True)
    p = kernels_sub.add_parser("selftest",
                               help="compare kernels with loop references")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_kernels_selftest)

    p = sub.add_parser("convert",
                       help="convert a DWIE annotation release directory")
    p.add_argument("src", help="directory with the release's *.json files")
    p.add_argument("--out-corpus", required=True,
                   help="canonical JSONL output path")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_convert)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    The cyclic garbage collector is paused while the subcommand runs: the
    corpus model holds no reference cycles, so its scans of the hundreds of
    thousands of live objects a command builds would find nothing, and
    reference counting frees everything as before. It is re-enabled on the
    way out only if it was enabled on the way in.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except (CorpusError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
