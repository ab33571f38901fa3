"""Traced run: per-layer numbers from spans recorded around each layer.

The falldetect layers are its modules: ingest, features, classifiers,
evaluation and cli.  Spans are recorded from here, by wrapping public entry
points (and the two inner-search helpers, to tell inner fits from outer
ones).  Callers often import a function by name (`evaluation` holds its own
`score_batch`, `cli` its own `run_experiment`), so every falldetect module
attribute bound to a wrapped function is replaced, not only the one in the
defining module, and all of them are put back afterwards.

A span records its name, start, end, parent span and the id of the
experiment cell (one `run_experiment` call) it ran in.  Spans stay in
memory and are written when the run ends.  The workload runs in this
process through `cli.main`, serially (spans cannot reach pool workers),
once untraced and once traced; the difference is the tracing overhead.
"""

import contextlib
import functools
import io
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import run as bench

# (defining module, function, span name).  Several functions may share a
# span name; their times add up in that name's metrics.
SPANNED = (
    ("ingest", "parse_dataset1", "ingest.parse_dataset1"),
    ("ingest", "parse_dataset2", "ingest.parse_dataset2"),
    ("ingest", "resample_trace", "ingest.resample_trace"),
    ("ingest", "detect_peaks", "ingest.detect_peaks"),
    ("ingest", "build_collection", "ingest.collection"),
    ("ingest", "collection_from_manifest", "ingest.collection"),
    ("ingest", "save_manifest", "ingest.collection"),
    ("features", "extract_matrix", "features.extract_matrix"),
    ("classifiers", "train_tc_svm", "classifiers.train_tc_svm"),
    ("classifiers", "train_oc_svm", "classifiers.train_oc_svm"),
    ("classifiers", "train_oc_knn", "classifiers.train_knn"),
    ("classifiers", "train_tc_knn", "classifiers.train_knn"),
    ("classifiers", "knn_mean_distances_all_k", "classifiers.knn_table"),
    ("classifiers", "score_batch", "classifiers.score_batch"),
    ("evaluation", "run_experiment", "evaluation.run_experiment"),
    ("evaluation", "_select_k", "evaluation.inner_search"),
    ("evaluation", "_select_svm_params", "evaluation.inner_search"),
    ("evaluation", "roc_curve", "evaluation.roc_curve"),
    ("evaluation", "average_roc", "evaluation.average_roc"),
    ("evaluation", "save_report_json", "cli.write"),
    ("evaluation", "write_roc_csv", "cli.write"),
    ("cli", "_write_summary", "cli.write"),
)
# Called thousands of times per cell and cheap: counted, not spanned.
COUNTED = (("ingest", "window_at_length", "ingest.window_at_length"),)

# A fit is one trained model, or one kNN distance table (what the inner k
# search computes instead of a model); it is an inner fit when it runs
# under an inner-search span.
FITS = ("classifiers.train_tc_svm", "classifiers.train_oc_svm", "classifiers.train_knn",
        "classifiers.knn_table")
KINDS = ("RAW", "MAGNITUDE", "ACCEL_FEATURES", "LTP")
VARIANTS = ("OC_KNN", "TC_KNN", "OC_SVM", "TC_SVM")
SVM_VARIANTS = ("OC_SVM", "TC_SVM")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _value(x):
    return getattr(x, "value", x)


def _tree_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _svm_attrs(args, kwargs, model):
    s = model.training_summary
    return {"iterations": s["iterations"], "converged": s["converged"],
            "support_vectors": s["support_vectors"]}


# Span attributes taken from a call's arguments and result, after the span
# has ended, so the work of collecting them is not timed.
ATTRS = {
    "parse_dataset1": lambda a, k, r: {"bytes": _tree_bytes(_arg(a, k, 0, "path"))},
    "detect_peaks": lambda a, k, r: {"peaks": len(r)},
    "extract_matrix": lambda a, k, r: {"kind": _value(_arg(a, k, 1, "kind")), "windows": len(r)},
    "train_tc_svm": _svm_attrs,
    "train_oc_svm": _svm_attrs,
    "knn_mean_distances_all_k": lambda a, k, r: {"queries": len(r)},
    "score_batch": lambda a, k, r: {"variant": _arg(a, k, 0, "model").variant.value,
                                    "rows": len(r)},
    "save_report_json": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "write_roc_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "_write_summary": lambda a, k, r: {"bytes": sum(
        os.path.getsize(Path(_arg(a, k, 0, "out")) / f) for f in ("summary.csv", "summary.json"))},
}


class Tracer:
    """Spans and call counts for one traced run."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self._stack = []
        self._cell = None
        self._cells = 0
        self._t0 = time.perf_counter()

    def _spanned(self, fn, span_name):
        attrs = ATTRS.get(fn.__name__)
        is_cell = fn.__name__ == "run_experiment"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_cell:
                self._cells += 1
                self._cell = self._cells
            rec = {"id": len(self.spans), "name": span_name, "fn": fn.__name__,
                   "parent": self._stack[-1] if self._stack else None, "cell": self._cell}
            if is_cell:
                rec["variant"] = _value(_arg(args, kwargs, 3, "variant"))
            self.spans.append(rec)
            self._stack.append(rec["id"])
            rec["start"] = time.perf_counter() - self._t0
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter() - self._t0
                self._stack.pop()
                if is_cell:
                    self._cell = None
            if attrs is not None:
                rec.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every falldetect module binding of the traced functions;
        restore them all on exit, whatever happens inside."""
        import falldetect.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "falldetect" or n.startswith("falldetect.")]
        patched = []
        try:
            for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
                for mod_name, fn_name, span_name in table:
                    original = getattr(sys.modules[f"falldetect.{mod_name}"], fn_name)
                    wrapper = make(original, span_name)
                    for m in modules:
                        for attr in [a for a, v in vars(m).items() if v is original]:
                            patched.append((m, attr, original))
                            setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, original in reversed(patched):
                setattr(m, attr, original)


# ---------------------------------------------------------------------------
# From spans to per-layer metrics


def _dur(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Each span's duration minus the time its direct children cover.  One
    thread records them, so siblings never overlap."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += _dur(s)
    return {s["id"]: _dur(s) - child[s["id"]] for s in spans}


def _per(total, count, scale=1.0):
    return scale * total / count if count else 0.0


def layer_metrics(spans, calls):
    """Every per-layer metric as {name: (value, unit, base)}; base names the
    count a time or ratio rests on."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def total(name, pick=lambda s: True):
        return sum(_dur(s) for s in by[name] if pick(s))

    m = {}
    parse_s = total("ingest.parse_dataset1")
    mb = sum(s.get("bytes", 0) for s in by["ingest.parse_dataset1"]) / 1e6
    n_parse = len(by["ingest.parse_dataset1"])
    m["ingest.parse_dataset1.s"] = (parse_s, "s", f"{n_parse} calls")
    m["ingest.parse_dataset1.mb_per_s"] = (_per(mb, parse_s), "MB/s", f"{mb:.1f} MB parsed")
    for name in ("parse_dataset2", "resample_trace", "detect_peaks", "collection"):
        spans_n = len(by[f"ingest.{name}"])
        m[f"ingest.{name}.s"] = (total(f"ingest.{name}"), "s", f"{spans_n} calls")
    m["ingest.peaks"] = (sum(s.get("peaks", 0) for s in by["ingest.detect_peaks"]), "count", "")
    m["ingest.window_at_length.calls"] = (calls["ingest.window_at_length"], "count", "")

    windows = 0
    for kind in KINDS:
        pick = (lambda s, kind=kind: s.get("kind") == kind)
        t = total("features.extract_matrix", pick)
        w = sum(s.get("windows", 0) for s in by["features.extract_matrix"] if pick(s))
        windows += w
        m[f"features.extract_matrix.s.{kind}"] = (t, "s", f"{w} windows")
        m[f"features.us_per_window.{kind}"] = (_per(t, w, 1e6), "us", f"{w} windows")
    m["features.windows"] = (windows, "count", "")

    for fn in ("train_tc_svm", "train_oc_svm"):
        solves = by[f"classifiers.{fn}"]
        t = total(f"classifiers.{fn}")
        iters = sum(s.get("iterations", 0) for s in solves)
        unconverged = sum(not s.get("converged", False) for s in solves)
        svs = sum(s.get("support_vectors", 0) for s in solves)
        base = f"{len(solves)} solves"
        m[f"classifiers.{fn}.solves"] = (len(solves), "count", "")
        m[f"classifiers.{fn}.s"] = (t, "s", base)
        m[f"classifiers.{fn}.iterations"] = (iters, "count", base)
        m[f"classifiers.{fn}.us_per_iter"] = (_per(t, iters, 1e6), "us", f"{iters} iterations")
        m[f"classifiers.{fn}.unconverged_ratio"] = (_per(unconverged, len(solves)), "ratio",
                                                    f"{unconverged} of {len(solves)} solves")
        m[f"classifiers.{fn}.sv_mean"] = (_per(svs, len(solves)), "count", base)

    for family, pick in (("svm", lambda s: s.get("variant") in SVM_VARIANTS),
                         ("knn", lambda s: s.get("variant") not in SVM_VARIANTS)):
        t = total("classifiers.score_batch", pick)
        rows = sum(s.get("rows", 0) for s in by["classifiers.score_batch"] if pick(s))
        m[f"classifiers.score_batch.{family}.rows"] = (rows, "count", "")
        m[f"classifiers.score_batch.{family}.s"] = (t, "s", f"{rows} rows")
        m[f"classifiers.score_batch.{family}.us_per_row"] = (_per(t, rows, 1e6), "us", f"{rows} rows")

    tables = by["classifiers.knn_table"]
    t = total("classifiers.knn_table")
    queries = sum(s.get("queries", 0) for s in tables)
    m["classifiers.knn_table.calls"] = (len(tables), "count", "")
    m["classifiers.knn_table.s"] = (t, "s", f"{len(tables)} calls")
    m["classifiers.knn_table.queries"] = (queries, "count", "")
    m["classifiers.knn_table.us_per_query"] = (_per(t, queries, 1e6), "us", f"{queries} queries")

    cells = by["evaluation.run_experiment"]
    for variant in VARIANTS:
        durations = [_dur(s) for s in cells if s["variant"] == variant]
        base = f"{len(durations)} cells"
        m[f"evaluation.cell_s.p50.{variant}"] = (
            statistics.median(durations) if durations else 0.0, "s", base)
        m[f"evaluation.cell_s.max.{variant}"] = (max(durations, default=0.0), "s", base)
    selfs = self_times(spans)
    own = by["evaluation.run_experiment"] + by["evaluation.inner_search"]
    m["evaluation.self_s"] = (sum(selfs[s["id"]] for s in own), "s", f"{len(cells)} cells")
    rocs = by["evaluation.roc_curve"]
    m["evaluation.roc_curve.calls"] = (len(rocs), "count", "")
    m["evaluation.roc_curve.s"] = (total("evaluation.roc_curve"), "s", f"{len(rocs)} calls")
    m["evaluation.average_roc.s"] = (total("evaluation.average_roc"), "s",
                                     f"{len(by['evaluation.average_roc'])} calls")
    fits = [s for name in FITS for s in by[name]]
    inner_ids = {s["id"] for s in by["evaluation.inner_search"]}
    parent = {s["id"]: s["parent"] for s in spans}

    def in_inner(span_id):
        while span_id is not None:
            if span_id in inner_ids:
                return True
            span_id = parent[span_id]
        return False

    inner = sum(in_inner(s["parent"]) for s in fits)
    m["evaluation.inner_fit_share"] = (_per(inner, len(fits)), "ratio",
                                       f"{inner} of {len(fits)} fits")

    writes = by["cli.write"]
    m["cli.write.s"] = (total("cli.write"), "s", f"{len(writes)} writes")
    m["cli.bytes_out"] = (sum(s.get("bytes", 0) for s in writes), "bytes", f"{len(writes)} writes")
    return m


def layer_self_times(spans):
    """Self time summed per layer (the span name's first component)."""
    selfs = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s["name"].split(".")[0]] += selfs[s["id"]]
    return dict(out)


# ---------------------------------------------------------------------------
# The traced run


def _in_process(cmds):
    """ingest, serial run, report through cli.main; returns wall seconds and
    the summary.csv texts of run and report."""
    from falldetect import cli

    shutil.rmtree(cmds.out, ignore_errors=True)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(cmds.ingest), cli.main([*cmds.run, "--jobs", "1"])]
        ran = bench.read_text(cmds.out / "summary.csv")
        codes.append(cli.main(cmds.report))
    wall = time.perf_counter() - start
    if codes[0] != 0:
        raise RuntimeError(f"in-process ingest failed with exit code {codes[0]}")
    return wall, ran, bench.read_text(cmds.out / "summary.csv")


def measure(root, workload, input_set, sizes=None):
    """One untraced run as a user runs it (for the CLI's pool and report
    numbers), then an untraced and a traced serial run in this process."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    work, flags, config_path = bench.prepare(root, workload, input_set, sizes)
    reference = bench.load_references(workload, input_set, sizes)
    env = bench.child_env(root)
    jobs = min(workload.jobs, os.cpu_count() or 1)
    attempted = failed = 0

    def check(ran, again):
        nonlocal attempted, failed
        n, bad, _, _ = bench.check_outputs(workload, ran, again, reference)
        attempted += n
        failed += bad

    out = work / "out_untraced"
    cmds = bench.Commands(workload, flags, out, input_set, config_path)
    bench.run_timed(cmds.ingest, env, work / "ingest.log")
    _, run_wall, run_cpu, _ = bench.run_timed([*cmds.run, "--jobs", str(jobs)], env, work / "run.log")
    ran = bench.read_text(out / "summary.csv")
    _, report_wall, _, _ = bench.run_timed(cmds.report, env, work / "report.log")
    check(ran, bench.read_text(out / "summary.csv"))

    plain_wall, ran, again = _in_process(
        bench.Commands(workload, flags, work / "out_serial", input_set, config_path))
    check(ran, again)
    tracer = Tracer()
    with tracer.installed():
        traced_wall, ran, again = _in_process(
            bench.Commands(workload, flags, work / "out_traced", input_set, config_path))
    check(ran, again)

    metrics = layer_metrics(tracer.spans, tracer.calls)
    metrics["cli.report.s"] = (report_wall, "s", "1 report process")
    metrics["cli.parallel_efficiency"] = (run_cpu / (jobs * run_wall), "ratio",
                                          f"run_cpu_s {run_cpu:.2f} over {jobs} x run_s {run_wall:.2f}")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall - 1.0, "ratio",
                                       f"traced {traced_wall:.2f} s vs untraced {plain_wall:.2f} s")
    write_outputs(work / "trace", tracer, metrics, plain_wall, traced_wall)
    res = bench.result(attempted, failed, {k: (v, u) for k, (v, u, _) in metrics.items()})
    detail = {"spans": len(tracer.spans), "untraced_s": plain_wall, "traced_s": traced_wall,
              "layer_self_s": layer_self_times(tracer.spans)}
    return res, detail


def write_outputs(out, tracer, metrics, plain_wall, traced_wall):
    """spans.jsonl, the per-layer table and the overhead, under out/."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    lines = ["metric\tvalue\tunit\tbase"]
    lines += [f"{name}\t{v:.6g}\t{u}\t{base}" for name, (v, u, base) in metrics.items()]
    lines += [f"self_s.{layer}\t{t:.6g}\ts\tspans of this layer minus their children"
              for layer, t in sorted(layer_self_times(tracer.spans).items())]
    (out / "layers.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "overhead.json").write_text(json.dumps({
        "untraced_s": plain_wall, "traced_s": traced_wall,
        "overhead_ratio": traced_wall / plain_wall - 1.0, "spans": len(tracer.spans),
    }, indent=2) + "\n", encoding="utf-8")
