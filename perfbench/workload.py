"""Workload process: runs one workload against ``entkit`` in-process.

Started by ``run.py`` as a fresh interpreter after the inputs exist, so its
peak RSS is the workload's own. Every subcommand goes through
``entkit.cli.run``; the span-graph steps call ``entkit.kernels`` the way model
code would. Prints one JSON object with the measurements on stdout.

With ``--trace 1`` each operation runs once untraced and once with spans
recorded around the calls into each layer's public functions (see
``trace.py``); no file of the program is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from probe import PROBE_REF_S, SpeedProbe
from spans import Tracer, layer_metrics

PERF = time.perf_counter


class Op:
    """One timed operation: a CLI invocation or one model step."""

    def __init__(self, name, run, check, prepare=None):
        self.name = name          # metric family, e.g. "score.ner"
        self.run = run            # callable(api) -> output
        self.check = check        # callable(output) -> error string or None
        self.prepare = prepare    # untimed callable run before `run`


# --------------------------------------------------------------------------
# CLI operations


def cli_op(name: str, argv: list[str], check) -> Op:
    def run(api):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = api.cli.run(argv)
        return rc, out.getvalue(), err.getvalue()

    def checked(result):
        rc, out, err = result
        if rc != 0:
            return f"{name}: exit {rc}: {err.strip()[:200]}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as e:
            return f"{name}: stdout is not JSON ({e})"
        if payload.get("schema_version") != 1:
            return f"{name}: schema_version {payload.get('schema_version')!r}"
        return check(payload)

    return Op(name, run, checked)


def _expect(label: str, got, want):
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _unit_interval(label: str, obj) -> str | None:
    """Every number in `obj` (nested dicts) lies in [0, 1]."""
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif not (isinstance(x, float | int) and 0.0 <= x <= 1.0):
            return f"{label}: score {x!r} outside [0, 1]"
    return None


def corpus_audit_ops(work: Path, facts: dict) -> list[Op]:
    n_docs = facts["documents"]
    corpus = str(work / "corpus.jsonl")
    converted = work / "out" / "converted.jsonl"
    tsv = work / "out" / "distances.tsv"
    rel = facts["release"]

    def check_convert(p):
        for key in ("unaligned_mentions", "dropped_concepts", "dropped_relations"):
            if p[key] != rel[key]:
                return _expect(f"convert {key}", p[key], rel[key])
        if p["documents"] != n_docs:
            return _expect("convert documents", p["documents"], n_docs)
        with open(converted, encoding="utf-8") as a, open(corpus, encoding="utf-8") as b:
            for i, (x, y) in enumerate(zip(a, b)):
                if json.loads(x) != json.loads(y):
                    return f"convert: document {i} differs from the generated corpus"
        return None

    def check_validate(p):
        return (_expect("validate documents", p["documents"], n_docs)
                or _expect("validate errors", len(p["errors"]), 0)
                or _expect("validate warnings", len(p["warnings"]), 0))

    def check_stats(p):
        err = _expect("stats summary", p["summary"], facts["summary"])
        if err:
            return err
        with open(tsv, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        return _expect("stats coverage rows", rows, facts["coverage_rows"])

    def check_rules(p):
        r = facts["rules"]
        return (_expect("rules firings", p["firings"], r["firings"])
                or _expect("rules violations", len(p["violations"]), r["violations"])
                or _expect("rules derived",
                           sum(len(d["derived"]) for d in p["closure"]), r["derived"]))

    return [
        cli_op("convert", ["convert", str(work / "release"),
                           "--out-corpus", str(converted)], check_convert),
        cli_op("validate", ["validate", corpus], check_validate),
        cli_op("stats", ["stats", corpus, "--plot-data", str(tsv)], check_stats),
        cli_op("rules", ["rules", "check", corpus, "--closure"], check_rules),
    ]


def paired_eval_ops(work: Path, facts: dict) -> list[Op]:
    gold, pred = str(work / "gold.jsonl"), str(work / "pred.jsonl")
    pairs = facts["pairs"]

    def check_score(p):
        levels = ("mention", "hard", "soft")
        missing = [l for l in levels if l not in p or l not in p.get("per_label", {})]
        if missing:
            return f"score: levels {missing} missing"
        return _unit_interval("score", {l: p[l] for l in levels}) \
            or _unit_interval("score per_label", p["per_label"])

    def check_coref(p):
        return _unit_interval("coref", {k: p[k] for k in ("muc", "b3", "ceafe", "avg_f1")})

    def check_kappa(task):
        def check(p):
            result = p["result"]
            n = result["detection"]["n_items"] if task in ("entity", "relation") \
                else result["n_items"]
            if n != pairs[task]:
                return _expect(f"kappa {task} n_items", n, pairs[task])
            k = result["detection"]["kappa"] if "detection" in result else result["kappa"]
            if not -1.0 <= k <= 1.0:
                return f"kappa {task}: {k} outside [-1, 1]"
            return None
        return check

    ops = [
        cli_op("score.ner", ["score", "--task", "ner", "--gold", gold, "--pred", pred,
                             "--level", "all", "--per-label"], check_score),
        cli_op("score.re", ["score", "--task", "re", "--gold", gold, "--pred", pred,
                            "--level", "all", "--per-label"], check_score),
        cli_op("score.coref", ["score", "--task", "coref",
                               "--gold", str(work / "gold_slice.jsonl"),
                               "--pred", str(work / "pred_slice.jsonl")], check_coref),
    ]
    for task in ("entity", "relation", "coref", "linking"):
        ops.append(cli_op(f"kappa.{task}", ["kappa", "--a", gold, "--b", pred,
                                            "--task", task], check_kappa(task)))
    dec = facts["decode"]
    for i, path in enumerate(sorted((work / "decode").glob("*.json"))):
        def check_decode(p, i=i):
            return (_expect(f"decode {i} discarded_relations", p["discarded_relations"],
                            dec["discarded_relations"][i])
                    or _expect(f"decode {i} clusters", len(p["clusters"]),
                               dec["clusters"][i]))
        ops.append(cli_op("decode", ["decode", "--pred", str(path)], check_decode))
    return ops


# --------------------------------------------------------------------------
# Span-graph model steps


def step_op(spec: dict, plan: dict) -> Op:
    """One model step on random scorer outputs shaped by the document."""
    state: dict = {}

    def prepare(api):
        rng = np.random.default_rng(spec["seed"])
        s, k = spec["spans"], spec["keep"]
        d, n_tags, n_rel = plan["span_dim"], plan["tags"], plan["relation_types"]
        cluster = rng.integers(0, max(1, k // 2), size=k).tolist()
        members: dict[int, list[int]] = {}
        gold = []
        for j, c in enumerate(cluster):
            gold.append(set(members.get(c, ())) or {j})
            members.setdefault(c, []).append(j)
        state.update(
            mention=rng.standard_normal((s, n_tags)),
            mention_ind=(rng.random((s, n_tags)) < 0.02).astype(float),
            pruner=rng.standard_normal(s),
            coref=rng.standard_normal((k, k)),
            relation=rng.standard_normal((k, k, n_rel)),
            relation_ind=(rng.random((k, k, n_rel)) < 0.01).astype(float),
            attention=rng.standard_normal((k, k)),
            gold=gold,
            vectors=rng.standard_normal((k, d)),
            projection=0.1 * rng.standard_normal((d, n_rel)),
            gate=api.kernels.GateTransform(0.1 * rng.standard_normal((d, 2 * d)),
                                           0.1 * rng.standard_normal(d)),
        )

    def run(api):
        K, x = api.kernels, state
        keep = K.select_top_spans(x["pruner"], spec["keep"])
        scores = K.ScoreSet(mention=x["mention"], coref=x["coref"],
                            relation=x["relation"], pruner=x["pruner"],
                            attention=x["attention"], pruned_indices=keep)
        aug = K.augment_with_pruner(scores)
        lm = K.multilabel_bce_loss(aug.mention, x["mention_ind"])
        lc = K.coref_marginal_loss(aug.coref, x["gold"])
        lr = K.multilabel_bce_loss(aug.relation, x["relation_ind"])
        loss = K.joint_loss(lm, lc, lr, 1.0, 1.0, 1.0)
        v = K.coref_propagation(K.SpanVectors(x["vectors"]), aug.coref, x["gate"])
        v = K.relation_propagation(v, aug.relation, x["projection"], x["gate"])
        v = K.attention_propagation(v, aug.attention, x["gate"])
        return (lm, lc, lr, loss), v.vectors

    def check(result):
        losses, vectors = result
        state.clear()
        if not all(math.isfinite(l) and l >= 0.0 for l in losses):
            return f"step {spec['doc']}: losses {losses} not finite and non-negative"
        if vectors.shape != (spec["keep"], plan["span_dim"]) \
                or not np.isfinite(vectors).all():
            return f"step {spec['doc']}: propagated vectors malformed"
        return None

    return Op("step", run, check, prepare)


def span_graph_ops(work: Path) -> list[Op]:
    plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
    ops = [step_op(spec, plan) for spec in plan["steps"]]

    def check_selftest(p):
        return None if p.get("ok") is True else f"kernels selftest: {p}"

    ops.append(cli_op("kernels", ["kernels", "selftest"], check_selftest))
    return ops


# --------------------------------------------------------------------------
# Measurement


class Api:
    """The program as the workload sees it; a traced run swaps `kernels`."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        import entkit
        import entkit.cli
        import entkit.kernels
        if not Path(entkit.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"entkit imported from {entkit.__file__}, not {src}")
        self.entkit = entkit
        self.cli = entkit.cli
        self.kernels = entkit.kernels


def build_ops(workload: str, work: Path, facts: dict) -> list[Op]:
    if workload == "corpus-audit":
        (work / "out").mkdir(exist_ok=True)
        return corpus_audit_ops(work, facts)
    if workload == "paired-eval":
        return paired_eval_ops(work, facts)
    return span_graph_ops(work)


def run_op(api, op: Op, failures: list[str], tracer=None) -> tuple[float, float]:
    """Run and check one operation; returns its (start, end)."""
    if op.prepare is not None:
        op.prepare(api)
    if tracer is not None:
        tracer.begin(op.name)
    t0 = PERF()
    try:
        result = op.run(api)
    except Exception as e:  # a crash is a failed operation, not a lost run
        result, error = None, f"{op.name}: {type(e).__name__}: {e}"
    else:
        error = None
    t1 = PERF()
    if tracer is not None:
        tracer.end()
        tracer.output(result)
    if error is None:
        try:
            error = op.check(result)
        except Exception as e:
            error = f"{op.name}: check raised {type(e).__name__}: {e}"
    if error is not None:
        failures.append(error)
    return t0, t1


def run_pass(api, ops: list[Op], failures: list[str]) -> list[tuple[float, float]]:
    return [run_op(api, op, failures) for op in ops]


def run_traced_pass(api, ops: list[Op], failures: list[str], tracer: Tracer
                    ) -> tuple[list, list]:
    """Each operation untraced and traced, back to back so the overhead is
    not swamped by the host's drift between two passes, and in alternating
    order so the second run's warmer caches favour neither side."""
    untraced, traced = [], []
    for i, op in enumerate(ops):
        if i % 2:
            with tracer.installed():
                traced.append(run_op(api, op, failures, tracer))
        untraced.append(run_op(api, op, failures))
        if not i % 2:
            with tracer.installed():
                traced.append(run_op(api, op, failures, tracer))
    return untraced, traced


def warm_up(api, workload: str, work: Path) -> None:
    """Untimed: first read of every input file, BLAS thread start-up, and one
    pass over the small warm-up inputs so lazy imports and caches settle."""
    for path in sorted(work.rglob("*")):
        if path.is_file():
            with open(path, "rb") as fh:
                while fh.read(1 << 20):
                    pass
    a = np.ones((64, 64))
    for _ in range(20):
        a = a @ a / 64.0
    warm = work / "warm"
    facts = json.loads((warm / "expected.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    run_pass(api, build_ops(workload, warm, facts), failures)
    if failures:
        raise SystemExit(f"warm-up failed: {failures[:3]}")


def named_metrics(ops: list[Op], passes: list[list[float]]) -> dict:
    """Per-command times under the names the notes use: the median over
    passes of each command's time within a pass."""
    per_pass: dict[str, list[float]] = {}
    count: dict[str, int] = {}
    steps = []
    for times in passes:
        totals: dict[str, float] = {}
        for op, t in zip(ops, times):
            totals[op.name] = totals.get(op.name, 0.0) + t
            if op.name == "step":
                steps.append(t)
        for name, t in totals.items():
            per_pass.setdefault(name, []).append(t)
    for op in ops:
        count[op.name] = count.get(op.name, 0) + 1
    out = {}
    for name, values in per_pass.items():
        med = statistics.median(values)
        if name == "decode":
            out["decode_docs_per_s"] = count[name] / med
        elif name == "step":
            out["step_ms.p50"] = 1000 * statistics.median(steps)
            out["step_ms.p90"] = 1000 * statistics.quantiles(
                steps, n=10, method="inclusive")[8]
            out["step_ms.samples"] = len(steps)
        elif name == "kernels":
            out["selftest_s"] = med
        else:
            out[name.replace(".", "_") + "_s"] = med
    return out


def environment() -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    api = Api(args.src)
    facts = json.loads((args.work / "expected.json").read_text(encoding="utf-8"))
    ops = build_ops(args.workload, args.work, facts)
    warm_up(api, args.workload, args.work)

    failures: list[str] = []
    passes: list[list[tuple[float, float]]] = []
    start = PERF()
    with SpeedProbe() as probe:
        if args.trace:
            tracer = Tracer(api)
            untraced, traced = run_traced_pass(api, ops, failures, tracer)
            passes.append(untraced)
            if args.workload == "corpus-audit":
                docs = api.entkit.corpus.load_corpus(args.work / "corpus.jsonl")
                tracer.call("stats.prior_link_baseline",
                            api.entkit.stats.prior_link_baseline,
                            [d for d in docs if d.split == "train"],
                            [d for d in docs if d.split == "test"])
                del docs
        else:
            while True:
                passes.append(run_pass(api, ops, failures))
                elapsed = PERF() - start
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
    normalized = [[probe.normalized(*s) for s in p] for p in passes]
    wall = [[probe.own(*s) for s in p] for p in passes]
    if args.trace:
        per_layer, details = layer_metrics(tracer, ops, passes[0], traced, facts, probe)
    else:
        per_layer, details = {}, {}
    pass_times = [sum(p) for p in normalized]
    result = {
        "attempted": len(ops) * (len(passes) + (1 if args.trace else 0)),
        "failed": len(failures),
        "failures": failures[:20],
        "passes": len(passes),
        "pass_s": statistics.median(pass_times),
        "pass_times": pass_times,
        "pass_wall_times": [sum(p) for p in wall],
        "probe": {"samples": len(probe.durations),
                  "median_s": statistics.median(probe.durations),
                  "reference_s": PROBE_REF_S},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "named": named_metrics(ops, normalized),
        "named_wall": named_metrics(ops, wall),
        "per_layer": per_layer,
        "trace": details,
        "environment": environment(),
    }
    if args.trace:
        tracer.write(args.work / "trace.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
