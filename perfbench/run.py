"""Benchmark of entkit on DWIE-shaped inputs.

    python3 perfbench/run.py --workload corpus-audit|paired-eval|span-graph|all
                             --seed N --seconds S --trace 0|1 [--size F]

Generates the workload's inputs from the seed (``synth.py``, standard library
only), times the fixed start-up cost of the CLI in fresh interpreters, then
runs the workload in a fresh process (``workload.py``) that only reads those
inputs and checks every output. The last line on stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, holding the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0`` and its per-layer metrics
with ``--trace 1``. A table of every metric, named and with its unit, goes to
stderr, and the full record (environment, input digest, per-command times,
tracing overhead) to ``.perfbench_work/<workload>/result.json``.
See ``NOTES.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import synth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 5
TIME_LIMIT_S = 170

# Run in a fresh interpreter: import the CLI and load the built-in
# vocabularies, type hierarchy and rule set, the fixed cost of every command.
# Probes before and after scale the time to the reference speed.
SETUP_CODE = """\
import statistics, time
from probe import PROBE_REF_S, probe_work
def probes():
    out = []
    for _ in range(5):
        t = time.perf_counter(); probe_work(); out.append(time.perf_counter() - t)
    return out
before = probes()
t0 = time.perf_counter()
import entkit.cli
from entkit import corpus, rules, stats
for mod, name in ((corpus, "builtin_tag_vocabulary"),
                  (corpus, "builtin_relation_vocabulary"),
                  (stats, "load_type_hierarchy"), (rules, "builtin_ruleset")):
    getattr(mod, name)()
wall = time.perf_counter() - t0
print(wall, wall * PROBE_REF_S / statistics.fmean(before + probes()))
"""

UNITS = {"decode_docs_per_s": "1/s", "step_ms.p50": "ms", "step_ms.p90": "ms",
         "step_ms.samples": "count", "peak_rss_mb": "MB", "error_rate": "ratio"}


def _env() -> dict:
    """One process, one BLAS thread, fixed hash seed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))),
               PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _digest(work: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(work)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """(wall, reference-speed) seconds of the CLI's start-up cost, one pair
    per fresh interpreter; the first one, which also fills the bytecode
    cache, is not counted."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(),
                             capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        if i:
            wall, ref = out.stdout.split()
            samples.append((float(wall), float(ref)))
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: float, bench: dict, deadline: float) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    synth.write_inputs(work, workload, seed, size)
    gen_s = time.perf_counter() - t0
    digest = _digest(work)

    setup = measure_setup(deadline)
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", workload,
         "--work", str(work), "--src", str(SRC), "--seconds", str(seconds),
         "--trace", str(trace)],
        env=_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    named = dict(child["named"], setup_s=statistics.median(s for _w, s in setup),
                 peak_rss_mb=child["peak_rss_mb"], pass_s=child["pass_s"],
                 error_rate=child["failed"] / child["attempted"])
    if trace:
        wanted = bench["per_layer"]
        pool = dict(child["per_layer"], **named)
    else:
        wanted = bench["end_to_end"]
        pool = named
    metrics = {}
    for spec in wanted:
        if spec["name"] not in pool and not trace:
            raise RuntimeError(f"end-to-end metric {spec['name']} not measured")
        # a layer or command the workload bypasses did no work
        metrics[spec["name"]] = {"value": pool.get(spec["name"], 0),
                                 "unit": spec["unit"]}
    record = {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds,
        "trace": trace, "input_digest": digest, "generate_s": gen_s,
        "setup_samples_s": setup, "named": named, **{
            k: child[k] for k in ("attempted", "failed", "failures", "passes",
                                  "pass_times", "pass_wall_times", "named_wall",
                                  "probe", "per_layer", "trace", "environment")},
        "facts": json.loads((work / "expected.json").read_text(encoding="utf-8")),
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    _table(record, metrics)
    return {"correct": child["failed"] == 0, "attempted": child["attempted"],
            "failed": child["failed"], "metrics": metrics}


def _table(record: dict, metrics: dict) -> None:
    err = sys.stderr
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} size={record['size']} "
          f"passes={record['passes']} inputs sha256={record['input_digest'][:16]} "
          f"generated in {record['generate_s']:.1f}s", file=err)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()), file=err)
    for name, value in sorted(record["named"].items()):
        unit = UNITS.get(name, "s")
        print(f"{name:<40} {value:>14.6g} {unit}", file=err)
    if record["trace"]:
        for name, m in sorted(metrics.items()):
            print(f"{name:<52} {m['value']:>14.6g} {m['unit']}", file=err)
        print(f"# waiting: {record['trace']['waiting']}", file=err)
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=err)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0,
                        help="corpus size as a fraction of DWIE (smoke test)")
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "entkit" / "cli.py").is_file():
        print(f"error: no entkit sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         args.size, bench, time.monotonic() + TIME_LIMIT_S)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.size, bench, deadline)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
