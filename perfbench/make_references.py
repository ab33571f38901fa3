"""Record the reference AUCs the benchmark checks every run against.

    python3 perfbench/make_references.py [workload ...]

Runs each workload once on every input set at the current commit and
writes each cell's mean AUC to perfbench/references.json, together with
the input sizes they belong to.  Run it only when the benchmark's inputs
change on purpose; a program change must be checked against the stored
values, never recorded over them.
"""

import json
import sys
from pathlib import Path

import run as bench


def main(names):
    root = Path.cwd()
    path = bench.BENCH_DIR / "references.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for name in names or sorted(bench.WORKLOADS):
        workload = bench.WORKLOADS[name]
        aucs = {}
        for input_set in range(bench.INPUT_SETS):
            bench.measure(root, workload, input_set, 0)
            summary = bench.read_text(root / bench.WORK_DIR / name / "out" / "summary.csv")
            cells = bench.summary_cells(summary)
            bad = sorted(k for k, (status, _) in cells.items() if status != "ok")
            if len(cells) != workload.cells or bad:
                raise SystemExit(f"{name} input set {input_set}: failed cells {bad}")
            aucs[str(input_set)] = {k: auc for k, (_, auc) in cells.items()}
            print(f"{name} set {input_set}: mean AUC "
                  f"{sum(aucs[str(input_set)].values()) / len(cells):.3f}", flush=True)
        doc[name] = {"sizes": workload.sizes, "auc": aucs}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
