"""falldetect benchmark: seeded inputs, three closed-loop workloads, checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload svm_c1 --seed 3 --seconds 20 --trace 0

Each workload is a closed loop with one client: the benchmark starts a
`falldetect` command (run as `python3 -m falldetect.cli` from `src/`), waits
for it to exit, then starts the next.  One repetition is ingest, run,
report into an empty output directory; repetitions go on until `--seconds`
have passed (at least one).  Timings never touch the program's outputs:
they are taken from outside, around each process.

With `--trace 0` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json.  With `--trace 1` (where `--seconds`
does not apply) the workload runs once as above, then serially in this
process through `cli.main`, untraced and then with every layer's public
entry points wrapped in spans (see tracing.py); the metrics are then the
per-layer metrics.  Outputs of every run are checked: no error rows,
`report` re-renders `summary.csv` byte for byte, and each cell's AUC matches
the reference stored in references.json for this workload and input set.

`--seed` picks one of INPUT_SETS seeded input sets (seed mod INPUT_SETS), so
that every seed has stored reference AUCs; make_references.py rebuilds them.
"""

import os

# Before numpy is imported here or in any child: one BLAS/OpenMP thread per
# process, so `--jobs 2` means two busy CPUs and no more.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
INPUT_SETS = 16
AUC_TOL = 0.02  # a cell whose mean AUC moves further from its reference fails
SETUP_SAMPLES = 3  # ingest runs at least this often per benchmark run
WORK_DIR = ".perfbench"


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict  # generator counts; see make_inputs
    run_flags: tuple  # cell selection passed to `falldetect run`
    cells: int
    jobs: int = 1
    config: dict | None = None  # `--config` document for ingest and run


# Input counts are scaled down from the sizes first proposed for this
# benchmark (svm_c1 200+20, knn_c1 450+50, raw dataset1 ~60 MB) so that one
# run, repetitions and set-up included, stays near half a minute on 2 vCPUs;
# the ADL:FALL ratios are kept.  At least 10 falls are needed so every one
# of the 10 outer folds tests both classes.
WORKLOADS = {
    "svm_c1": Workload(
        "svm_c1",
        {"adl": 100, "fall": 10},
        ("--feature", "RAW", "--feature", "ACCEL_FEATURES", "--window", "128",
         "--classifier", "OC_SVM", "--classifier", "TC_SVM"),
        cells=4,
        jobs=2,
    ),
    "knn_c1": Workload(
        "knn_c1",
        {"adl": 270, "fall": 30},
        ("--window", "all", "--classifier", "OC_KNN", "--classifier", "TC_KNN"),
        cells=16,
    ),
    "ingest_c123": Workload(
        "ingest_c123",
        {"raw_adl": 30, "raw_fall": 20, "d2_rows": 600},
        ("--window", "all", "--classifier", "OC_KNN"),
        cells=24,
        config={"k_grid": [5]},
    ),
}

# Tiny sizes for the benchmark's own tests: same code paths, seconds to run.
SMOKE_SIZES = {
    "svm_c1": {"adl": 12, "fall": 10},
    "knn_c1": {"adl": 14, "fall": 10},
    "ingest_c123": {"raw_adl": 2, "raw_fall": 10, "d2_rows": 40, "adl_seconds": 40.0,
                    "fall_seconds": 30.0},
}


def make_inputs(workload, data_dir, input_set, sizes=None):
    """Write the workload's inputs; returns the dataset flags for the CLI."""
    sizes = workload.sizes if sizes is None else sizes
    data_dir = Path(data_dir)
    if "raw_adl" in sizes:
        durations = {k: sizes[k] for k in ("adl_seconds", "fall_seconds") if k in sizes}
        gen.write_raw_dataset1(data_dir / "d1", input_set, sizes["raw_adl"], sizes["raw_fall"],
                               **durations)
        gen.write_dataset2(data_dir / "d2", input_set, sizes["d2_rows"])
        return ["--dataset1", str(data_dir / "d1"), "--dataset2", str(data_dir / "d2")]
    gen.write_windowed_dataset1(data_dir / "d1", input_set, sizes["adl"], sizes["fall"])
    return ["--dataset1", str(data_dir / "d1")]


# ---------------------------------------------------------------------------
# Commands


class Commands:
    """argv lists for one workload's ingest, run and report."""

    def __init__(self, workload, data_flags, out, input_set, config_path):
        self.out = Path(out)
        common = ["--out", str(out), "--seed", str(input_set)]
        if config_path is not None:
            common += ["--config", str(config_path)]
        self.ingest = ["ingest", *data_flags, *common]
        self.run = ["run", *data_flags, *common, *workload.run_flags]
        self.report = ["report", "--out", str(out)]


def child_env(root):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_timed(argv, env, log):
    """Run `python3 -m falldetect.cli argv`; returns (exit code, wall s,
    CPU s of the process and its waited-for workers, peak RSS MB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "falldetect.cli", *argv],
                                stdout=fh, stderr=subprocess.STDOUT, env=env)
        # wait4 reaps the child and returns its usage, including that of
        # the pool workers it waited for; ru_maxrss is in KiB on Linux
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # Popen must not wait again
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Output checks


def load_references(workload, input_set, sizes=None):
    """Stored {cell: mean AUC} for this workload and input set; empty when
    none were recorded for these input sizes."""
    path = BENCH_DIR / "references.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    entry = doc.get(workload.name, {})
    if entry.get("sizes") != (workload.sizes if sizes is None else sizes):
        return {}
    return entry["auc"].get(str(input_set), {})


def summary_cells(text):
    """{cell key: (status, auc or None)} from summary.csv text."""
    cells = {}
    for line in text.splitlines()[1:]:
        parts = line.split(",")
        key = "_".join(parts[:4])
        cells[key] = (parts[8], float(parts[4]) if parts[8] == "ok" else None)
    return cells


def check_outputs(workload, run_summary, report_summary, reference):
    """Per-cell verdicts for one repetition.

    Returns (attempted, failed, {cell: auc}, largest |auc - reference|).
    A cell fails when it is an error row, is missing, differs between the
    run's and the report's summary.csv, or has no reference within AUC_TOL.
    """
    cells = summary_cells(run_summary) if run_summary else {}
    if report_summary == run_summary:
        rerendered = set(cells)
    else:
        same_rows = set(run_summary.splitlines()[1:]) & set(report_summary.splitlines()[1:])
        rerendered = {"_".join(line.split(",")[:4]) for line in same_rows}
    aucs = {k: a for k, (status, a) in cells.items() if status == "ok"}
    failed = workload.cells - len(cells)
    dev_max = 0.0
    for key, (status, auc) in cells.items():
        ref = reference.get(key)
        dev = abs(auc - ref) if auc is not None and ref is not None else None
        if dev is not None:
            dev_max = max(dev_max, dev)
        if status != "ok" or key not in rerendered or dev is None or dev > AUC_TOL:
            failed += 1
    if not cells:
        dev_max = 1.0
    return workload.cells, failed, aucs, dev_max


def read_text(path):
    return path.read_text(encoding="utf-8") if path.is_file() else ""


# ---------------------------------------------------------------------------
# Machine and source identity, recorded with every result


def environment(root):
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True)
            commit = res.stdout.strip() or None
        except OSError:
            pass
    src_files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in src_files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# Measurement


def prepare(root, workload, input_set, sizes=None):
    """Fresh work directory with generated inputs; returns (work, data flags,
    config path)."""
    work = root / WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    flags = make_inputs(workload, work / "data", input_set, sizes)
    config_path = None
    if workload.config:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workload.config) + "\n", encoding="utf-8")
    return work, flags, config_path


def measure(root, workload, input_set, seconds, sizes=None):
    """The untraced closed loop; returns the result object to print."""
    work, flags, config_path = prepare(root, workload, input_set, sizes)
    env = child_env(root)
    reference = load_references(workload, input_set, sizes)
    jobs = min(workload.jobs, os.cpu_count() or 1)
    setup, wall, cpu, rss = [], [], [], []
    attempted = failed = 0
    auc_means, dev_max = [], 0.0
    out = work / "out"
    cmds = Commands(workload, flags, out, input_set, config_path)
    # untimed warm-up: the first process after writing the inputs runs
    # measurably slower on a small shared machine
    run_timed(cmds.ingest, env, work / "ingest.log")
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds:
        shutil.rmtree(out, ignore_errors=True)
        code, t, _, _ = run_timed(cmds.ingest, env, work / "ingest.log")
        setup.append(t)
        if code != 0:
            raise RuntimeError(f"ingest failed with exit code {code}; see {work / 'ingest.log'}")
        _, t, c, r = run_timed([*cmds.run, "--jobs", str(jobs)], env, work / "run.log")
        wall.append(t)
        cpu.append(c)
        rss.append(r)
        ran = read_text(out / "summary.csv")
        run_timed(cmds.report, env, work / "report.log")
        n, bad, aucs, dev = check_outputs(workload, ran, read_text(out / "summary.csv"), reference)
        attempted += n
        failed += bad
        dev_max = max(dev_max, dev)
        auc_means.append(statistics.fmean(aucs.values()) if aucs else 0.0)
        rep += 1
    while len(setup) < SETUP_SAMPLES:
        code, t, _, _ = run_timed(cmds.ingest, env, work / "ingest.log")
        setup.append(t)
    metrics = {
        "run_s": (statistics.median(wall), "s"),
        "run_cpu_s": (statistics.median(cpu), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "cells_ok_ratio": (1.0 - failed / attempted, "ratio"),
        "auc_mean": (statistics.median(auc_means), "1"),
        "auc_ref_agreement": (1.0 - dev_max, "1"),
    }
    detail = {"reps": rep, "run_s": wall, "run_cpu_s": cpu, "setup_s": setup,
              "peak_rss_mb": rss, "jobs": jobs, "auc_dev_max": dev_max}
    return result(attempted, failed, metrics), detail


def result(attempted, failed, metrics):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "falldetect" / "cli.py").is_file():
        print(f"error: {root / 'src' / 'falldetect'} not found; run from a falldetect checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    input_set = args.seed % INPUT_SETS
    if args.trace:
        import tracing

        res, detail = tracing.measure(root, workload, input_set)
    else:
        res, detail = measure(root, workload, input_set, args.seconds)
    record = {"workload": workload.name, "seed": args.seed, "input_set": input_set,
              "trace": args.trace, "environment": environment(root), "detail": detail, **res}
    record_path = root / WORK_DIR / workload.name / ("trace_result.json" if args.trace else "result.json")
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True))
    if args.trace:
        print((record_path.parent / "trace" / "layers.tsv").read_text(encoding="utf-8"), end="")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
