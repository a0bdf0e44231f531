"""Spans recorded by the benchmark around calls into ``entkit``'s layers.

The tracer replaces, for the duration of a traced pass, the functions the
CLI and the model step call with wrappers that record a span (name, start,
end, parent, operation id) and restores them afterwards. Only the names the
CLI's own namespace and the kernels namespace resolve are replaced, plus a
few module globals the layers call internally (``document_from_json`` inside
``load_corpus``, the three scorers inside ``coref_report``), so a span always
marks a layer boundary. Spans are kept in memory and written at the end.

Counts next to the spans are computed from the calls' inputs and outputs and
from the generator's facts, never from inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class _Namespace:
    """Stands in for a module: listed names are wrapped, the rest delegate."""

    def __init__(self, target, overrides: dict):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans in memory; `installed()` swaps the wrappers in."""

    def __init__(self, api):
        self.api = api
        self.spans: list[list] = []   # [id, parent, op, name, start, end]
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)

    # -- spans

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None,
               self.op, name, perf_counter(), None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = perf_counter()
        self.stack.pop()

    def begin(self, op_name: str) -> None:
        self.op += 1
        self._open("step" if op_name == "step" else f"cli.{op_name}")

    def end(self) -> None:
        self._close(self.spans[self.stack[-1]])

    def call(self, name: str, fn, *args):
        """A layer call made by the benchmark itself, outside any command."""
        self.op += 1
        rec = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def output(self, result) -> None:
        if isinstance(result, tuple) and len(result) == 3 and isinstance(result[1], str):
            self.counts["cli.emit.bytes"] += len(result[1].encode("utf-8"))

    def wrap(self, name, fn, count=None):
        """`name` is a string or a callable(args) -> string; `count` is a
        callable(counts, args, result) run after the span closes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    # -- installation

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        import entkit.coref
        import entkit.corpus
        import entkit.stats
        cli = self.api.cli
        w = self.wrap
        out = [
            (cli, "load_corpus", w("corpus.load_corpus", cli.load_corpus, _count_load)),
            (entkit.corpus, "document_from_json",
             w("corpus.document_from_json", entkit.corpus.document_from_json)),
            (cli, "validate_document",
             w("corpus.validate_document", cli.validate_document, _count_findings)),
            (cli, "serialize_corpus",
             w("corpus.serialize_corpus", cli.serialize_corpus, _count_serialize)),
            (cli, "decode_input_from_json",
             w("decoder.decode_input_from_json", cli.decode_input_from_json)),
            (cli, "decode_entity_centric",
             w("decoder.decode_entity_centric", cli.decode_entity_centric, _count_decode)),
            (cli, "decode_output_to_json",
             w("decoder.decode_output_to_json", cli.decode_output_to_json)),
            (cli, "_emit", w("cli.emit", cli._emit)),
            (entkit.stats.DistanceProfile, "coverage_table",
             w("stats.coverage_table", entkit.stats.DistanceProfile.coverage_table,
               _count_coverage)),
        ]
        for name in ("muc", "b_cubed", "ceaf_e"):
            out.append((entkit.coref, name, w(f"coref.{name}", getattr(entkit.coref, name))))
        modules = {
            "dwie": ["convert_release"],
            "stats": ["corpus_summary", "entity_type_histogram", "relation_type_histogram",
                      "multilabel_relation_histogram", "relation_distance_profile"],
            "rules": ["builtin_ruleset", "count_firings", "check_violations",
                      "facts_from_document", "closure"],
            "coref": ["corpus_partition"],
            "agreement": ["entity_agreement", "relation_agreement", "coref_agreement",
                          "linking_agreement"],
            "selftest": ["run_selftest"],
        }
        for mod_name, names in modules.items():
            mod = getattr(cli, mod_name)
            out.append((cli, mod_name, _Namespace(mod, {
                n: w(f"{mod_name}.{n}", getattr(mod, n)) for n in names})))
        metrics = cli.metrics
        out.append((cli, "metrics", _Namespace(metrics, {
            "build_eval_view": w(lambda a: f"metrics.build_eval_view.{a[2]}",
                                 metrics.build_eval_view),
            "score_level": w(lambda a: f"metrics.score_level.{_task(a)}.{a[1]}",
                             metrics.score_level),
            "per_label_prf": w(lambda a: f"metrics.per_label_prf.{_task(a)}.{a[1]}",
                               metrics.per_label_prf),
        })))
        kernels = self.api.kernels
        out.append((self.api, "kernels", _Namespace(kernels, {
            name: w(f"kernels.{name}", getattr(kernels, name), count)
            for name, count in KERNEL_COUNTS.items()})))
        return [(o, a, r) for o, a, r in out if hasattr(o, a)]

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        saved = [(o, a, getattr(o, a)) for o, a, _r in patches]
        try:
            for owner, attr, repl in patches:
                setattr(owner, attr, repl)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]),
                        encoding="utf-8")


def _task(args) -> str:
    views = args[0]
    views = [views] if hasattr(views, "task") else list(views)
    return views[0].task if views else "none"


# --------------------------------------------------------------------------
# Counts from inputs and outputs


def _count_load(counts, args, result):
    counts["corpus.load_corpus.docs"] += len(result)
    path = Path(args[0])
    counts["corpus.load_corpus.bytes"] += sum(
        f.stat().st_size for f in path.glob("*.json")) if path.is_dir() \
        else path.stat().st_size


def _count_findings(counts, args, result):
    counts["corpus.validate_document.findings"] += len(result.errors) + len(result.warnings)


def _count_serialize(counts, args, result):
    counts["corpus.serialize_corpus.bytes"] += os.path.getsize(args[1])


def _count_decode(counts, args, result):
    counts["decoder.discarded_relations"] += result.discarded_relations


def _count_coverage(counts, args, result):
    counts["stats.coverage_table.rows"] += len(result)
    counts["stats.coverage_table.cells"] += len(result) * len(args[0].records) * 4


# Kernel work is computed from the argument shapes (operations and bytes a
# straightforward implementation touches), not counted by hardware.


def _work(counts, name, flops, nbytes):
    counts[f"kernels.{name}.flops"] += flops
    counts[f"kernels.{name}.bytes"] += nbytes


def _gate(k, d):
    """Gate layer on k spans of size d: the (k, 2d) x (2d, d) product plus
    the elementwise sigmoid and mix."""
    return 4 * k * d * d + 10 * k * d, 8 * (2 * d * d + 4 * k * d)


def _c_select(counts, args, result):
    s = len(args[0])
    _work(counts, "select_top_spans", s * math.log2(max(s, 2)), 8 * s)


def _c_augment(counts, args, result):
    sc = args[0]
    n = sum(a.size for a in (sc.mention, sc.coref, sc.relation) if a is not None)
    _work(counts, "augment_with_pruner", n, 16 * n)


def _c_bce(counts, args, result):
    n = args[0].size
    _work(counts, "multilabel_bce_loss", 5 * n, 16 * n)


def _c_coref_loss(counts, args, result):
    k = args[0].shape[0]
    _work(counts, "coref_marginal_loss", 3 * k * (k + 1) / 2, 8 * k * (k + 1) / 2)


def _c_attention(counts, args, result):
    k, d = args[0].vectors.shape
    gf, gb = _gate(k, d)
    _work(counts, "attention_propagation", 4 * k * k + 2 * k * k * d + gf,
          8 * (2 * k * k + 2 * k * d) + gb)


def _c_coref_prop(counts, args, result):
    k, d = args[0].vectors.shape
    gf, gb = _gate(k, d)
    tri = k * (k + 1) / 2
    _work(counts, "coref_propagation", 4 * tri + 2 * d * tri + gf,
          8 * (tri + d * tri) + gb)


def _c_relation_prop(counts, args, result):
    k, d = args[0].vectors.shape
    r = args[1].shape[2]
    gf, gb = _gate(k, d)
    _work(counts, "relation_propagation", k * (k * r + 2 * k * r * d + 2 * k * d) + gf,
          8 * k * (k * r + r * d + k * d) + gb)


KERNEL_COUNTS = {
    "select_top_spans": _c_select,
    "ScoreSet": None,
    "augment_with_pruner": _c_augment,
    "multilabel_bce_loss": _c_bce,
    "coref_marginal_loss": _c_coref_loss,
    "joint_loss": None,
    "SpanVectors": None,
    "coref_propagation": _c_coref_prop,
    "relation_propagation": _c_relation_prop,
    "attention_propagation": _c_attention,
}


# --------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(tracer: Tracer, ops, untraced: list, traced: list, facts: dict,
                  probe) -> tuple[dict, dict]:
    """Busy time per traced function, self time per layer, CLI self time per
    command, tracing overhead per command, and the counts. `untraced` and
    `traced` hold each operation's (start, end) in the two passes. Every span
    of one operation is scaled to reference seconds by that operation's
    factor, so self times stay additive. Returns the metrics and a details
    record for the results file."""
    spans = tracer.spans
    factor = {s[2]: probe.normalized(s[4], s[5]) / max(probe.own(s[4], s[5]), 1e-12)
              for s in spans if s[1] is None}
    dur = [probe.own(s[4], s[5]) * factor[s[2]] for s in spans]
    child_time = defaultdict(float)
    child_outside = defaultdict(float)   # children in another layer
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += dur[s[0]]
            if spans[s[1]][3].split(".")[0] != s[3].split(".")[0]:
                child_outside[s[1]] += dur[s[0]]
    m: dict[str, float] = defaultdict(float)
    for s in spans:
        name, d = s[3], dur[s[0]]
        m[f"self.{name.split('.')[0]}.s"] += d - child_time[s[0]]
        if s[1] is None and name.startswith("cli."):
            m[f"cli.self.{name[4:]}.s"] += d - child_outside[s[0]]
        elif name != "step":
            m[f"{name}.s"] += d
            m[f"{name}.calls"] += 1
    for k, v in tracer.counts.items():
        m[k] += v

    overhead: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for op, off, on in zip(ops, untraced, traced):
        overhead[op.name][0] += probe.normalized(*off)
        overhead[op.name][1] += probe.normalized(*on)
    m["trace.overhead.s"] = sum(on - off for off, on in overhead.values())
    m["trace.spans"] = len(spans)
    per_span = _span_cost()

    _fact_counts(m, facts)
    details = {
        "overhead_s": {name: on - off for name, (off, on) in overhead.items()},
        "untraced_s": {name: off for name, (off, _on) in overhead.items()},
        "traced_s": {name: on for name, (_off, on) in overhead.items()},
        "span_cost_s": per_span,
        "spans_times_span_cost_s": per_span * len(spans),
        "waiting": "none: entkit has no queue, thread pool or lock, so no layer waits",
    }
    return dict(m), details


def _span_cost(calls: int = 20000) -> float:
    """Wall time one span adds to a call (wrapper, two clock reads, record),
    from timing a traced and an untraced no-op."""
    tracer = Tracer(None)
    plain = lambda: None  # noqa: E731
    traced = tracer.wrap("noop", plain)
    t0 = perf_counter()
    for _ in range(calls):
        plain()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _fact_counts(m, facts) -> None:
    if "release" in facts:
        m["dwie.char_span_to_token_span.calls"] = facts["release"]["mentions"]
        m["dwie.char_span_to_token_span.unaligned_mentions"] = \
            facts["release"]["unaligned_mentions"]
        r = facts["rules"]
        m["rules.firings"] = r["firings"]
        m["rules.violations"] = r["violations"]
        m["rules.closure.derived"] = r["derived"]
    if "coref_slice" in facts:
        c = facts["coref_slice"]
        m["coref.ceaf_e.cells"] = c["cells"]
        m["coref.ceaf_e.nonzero_ratio"] = c["nonzero_cells"] / c["cells"]
        m["coref.slice.gold_clusters"] = c["gold_clusters"]
        m["coref.slice.pred_clusters"] = c["pred_clusters"]
        for task, n in facts["pairs"].items():
            m[f"agreement.{task}_agreement.n_items"] = n
        for task in ("entity", "relation"):
            a = facts["agreement"][task]
            m[f"agreement.{task}.padded_pairs"] = a["padded_pairs"]
            m[f"agreement.{task}.joint_negative_ratio"] = \
                1 - a["positive_pairs"] / a["padded_pairs"]
        for task in ("ner", "re"):
            m[f"metrics.build_eval_view.{task}.instances"] = facts["instances"][task]
