"""Tests of the benchmark itself, at a smoke size that runs in seconds.

    python3 -m pytest perfbench
"""

import contextlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def write_all(root, seed):
    gen.write_windowed_dataset1(root / "windowed", seed, 4, 3)
    gen.write_raw_dataset1(root / "raw", seed, 2, 2, adl_seconds=40.0, fall_seconds=30.0)
    gen.write_dataset2(root / "d2", seed, 20)
    return tree_bytes(root)


def test_generator_is_deterministic_by_seed(tmp_path):
    first = write_all(tmp_path / "a", 5)
    assert first == write_all(tmp_path / "b", 5)
    other = write_all(tmp_path / "c", 6)
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


def test_generator_writes_layouts_the_cli_parses(tmp_path):
    from falldetect import ingest

    write_all(tmp_path, 1)
    assert len(ingest.parse_dataset1(tmp_path / "windowed")) == 7
    raw = ingest.parse_dataset1(tmp_path / "raw")
    assert {lab for _, lab in raw} == {ingest.Label.ADL, ingest.Label.FALL}
    labels = (tmp_path / "d2" / "labels.csv").read_text().split()
    assert len(ingest.parse_dataset2(tmp_path / "d2")) == sum(t.upper() != "FALL" for t in labels)


@pytest.fixture
def checkout(tmp_path):
    """A directory shaped like a checkout: src/ plus the benchmark's work dir."""
    (tmp_path / "src").symlink_to(REPO / "src")
    return tmp_path


def declared(kind):
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def printed(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


def test_untraced_metrics_match_benchmark_json(checkout):
    workload = run.WORKLOADS["knn_c1"]
    res, _ = run.measure(checkout, workload, 0, 0, sizes=run.SMOKE_SIZES["knn_c1"])
    assert printed(res) == declared("end_to_end")
    assert res["attempted"] == workload.cells
    assert set(res) == {"correct", "attempted", "failed", "metrics"}


def test_traced_metrics_match_benchmark_json(checkout):
    res, _ = tracing.measure(checkout, run.WORKLOADS["knn_c1"], 0, sizes=run.SMOKE_SIZES["knn_c1"])
    assert printed(res) == declared("per_layer")
    spans = (checkout / run.WORK_DIR / "knn_c1" / "trace" / "spans.jsonl").read_text().splitlines()
    assert spans and {"name", "start", "end", "parent", "cell"} <= set(json.loads(spans[0]))
    assert res["metrics"]["classifiers.knn_table.calls"]["value"] > 0


def module_bindings():
    return {name: dict(vars(m)) for name, m in sys.modules.items()
            if name == "falldetect" or name.startswith("falldetect.")}


@pytest.mark.parametrize("fail", [False, True])
def test_traced_run_restores_every_patched_attribute(fail):
    from falldetect import classifiers, cli, evaluation

    before = module_bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
        with tracer.installed():
            # the by-name imports are wrapped, not only the defining module
            assert evaluation.score_batch is not before["falldetect.classifiers"]["score_batch"]
            assert cli.run_experiment is not before["falldetect.evaluation"]["run_experiment"]
            assert classifiers.score_batch is evaluation.score_batch
            if fail:
                raise RuntimeError("cell crashed")
    after = module_bindings()
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


SUMMARY = ("collection,feature,window,classifier,auc,se,sp,gm,status,error\n"
           "C1,RAW,128,OC_SVM,0.8,0.7,0.9,0.79,ok,\n"
           "C1,RAW,128,TC_SVM,0.75,0.7,0.8,0.74,ok,\n")


def test_output_checks_count_failed_cells():
    workload = run.Workload("w", {}, (), cells=2)
    ref = {"C1_RAW_128_OC_SVM": 0.8, "C1_RAW_128_TC_SVM": 0.75}
    assert run.check_outputs(workload, SUMMARY, SUMMARY, ref)[:2] == (2, 0)
    # AUC beyond the tolerance of its reference
    off = {**ref, "C1_RAW_128_TC_SVM": 0.75 + 2 * run.AUC_TOL}
    assert run.check_outputs(workload, SUMMARY, SUMMARY, off)[1] == 1
    # report did not reproduce one row
    assert run.check_outputs(workload, SUMMARY, SUMMARY.replace("0.74", "0.7"), ref)[1] == 1
    # an error row, and a cell missing from the summary
    broken = SUMMARY.splitlines()[0] + "\nC1,RAW,128,OC_SVM,,,,,error,boom\n"
    assert run.check_outputs(workload, broken, broken, ref)[1] == 2


def test_exits_nonzero_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "svm_c1", "--seed", "0", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_plan_covers_every_per_layer_metric():
    plan = json.loads((BENCH / "plan.json").read_text())
    named = {m for layer in plan["layers"] for m in layer["metrics"]} | set(plan["tracing"]["metrics"])
    assert named == set(declared("per_layer"))
    end_to_end = set(declared("end_to_end"))
    for layer in plan["layers"]:
        for pairing in layer["moves"] + layer["unchanged"]:
            assert pairing["metric"] in end_to_end
            assert set(pairing["workloads"]) <= set(run.WORKLOADS)
