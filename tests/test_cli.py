"""Command-line pipeline: synth, ingest, run, report; exit codes; configs."""

import json
import multiprocessing
import os
import time

import pytest

from falldetect import cli, evaluation
from falldetect.classifiers import Variant
from falldetect.errors import InsufficientData


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def pipeline(tmp_path):
    """A generated dataset plus ingested C1 manifests, ready for `run`."""
    data = tmp_path / "data"
    work = tmp_path / "work"
    assert run_cli("synth", "--out", data, "--adl", "30", "--falls", "12", "--seed", "7") == 0
    assert run_cli("ingest", "--dataset1", data, "--out", work, "--seed", "7") == 0
    return data, work


def file_bytes(directory):
    return {f.name: f.read_bytes() for f in directory.iterdir() if f.is_file()}


def without_run_json(files):
    """Every output but run.json, which records the --jobs it was given."""
    return {name: data for name, data in files.items() if name != "run.json"}


class TestSynthCommand:
    def test_writes_dataset_and_run_record(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli("synth", "--out", out, "--adl", "3", "--falls", "2") == 0
        assert (out / "manifest.json").is_file()
        assert (out / "run.json").is_file()
        record = json.loads((out / "run.json").read_text())
        assert record["command"] == "synth"
        assert record["config"]["adl"] == 3
        assert "3 ADL + 2 FALL" in capsys.readouterr().out

    def test_negative_count_names_the_key(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli("synth", "--out", out, "--adl", "-3", "--falls", "2") == 2
        assert capsys.readouterr().err == "error: adl must be an integer >= 0, got -3\n"
        assert not out.exists()


class TestIngestCommand:
    def test_defaults_to_c1(self, pipeline, capsys):
        data, work = pipeline
        assert (work / "collection_C1.json").is_file()
        assert not (work / "collection_C2.json").exists()
        manifest = json.loads((work / "collection_C1.json").read_text())
        assert len(manifest["instances"]) == 42

    def test_repeat_ingest_is_byte_identical(self, pipeline):
        data, work = pipeline
        before = (work / "collection_C1.json").read_bytes()
        assert run_cli("ingest", "--dataset1", data, "--out", work, "--seed", "7") == 0
        assert (work / "collection_C1.json").read_bytes() == before

    def test_dataset2_enables_all_collections(self, tmp_path):
        import numpy as np

        data = tmp_path / "data"
        d2 = tmp_path / "d2"
        work = tmp_path / "work"
        assert run_cli("synth", "--out", data, "--adl", "6", "--falls", "3") == 0
        d2.mkdir()
        rng = np.random.default_rng(0)
        for axis in ("x", "y", "z"):
            rows = rng.normal(0.0, 0.3, (8, 128))
            text = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
            (d2 / f"{axis}.csv").write_text(text + "\n")
        (d2 / "labels.csv").write_text("\n".join(["WALK"] * 8) + "\n")
        code = run_cli(
            "ingest", "--dataset1", data, "--dataset2", d2, "--out", work
        )
        assert code == 0
        for cid in ("C1", "C2", "C3"):
            assert (work / f"collection_{cid}.json").is_file()

    def test_non_object_dataset_manifest_is_named(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli("synth", "--out", data, "--adl", "4", "--falls", "2") == 0
        (data / "manifest.json").write_text("[1, 2]")
        assert run_cli("ingest", "--dataset1", data, "--out", tmp_path / "work") == 2
        err = capsys.readouterr().err
        assert err == f"error: {data / 'manifest.json'}: manifest must be a JSON object\n"

    def test_empty_dataset_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "empty"
        (data / "adl").mkdir(parents=True)
        (data / "fall").mkdir()
        (data / "manifest.json").write_text(json.dumps({"mode": "windowed"}))
        code = run_cli("ingest", "--dataset1", data, "--out", tmp_path / "w")
        assert code == 2
        assert "no instances found" in capsys.readouterr().err


class TestRunCommand:
    def test_pipeline_produces_reports_and_summary(self, pipeline, capsys):
        data, work = pipeline
        code = run_cli(
            "run", "--dataset1", data, "--out", work, "--seed", "7",
            "--feature", "MAGNITUDE", "--window", "51",
            "--classifier", "OC_KNN", "--classifier", "TC_KNN",
        )
        assert code == 0
        summary = (work / "summary.csv").read_text().splitlines()
        assert summary[0] == "collection,feature,window,classifier,auc,se,sp,gm,status,error"
        assert len(summary) == 3
        assert summary[1].startswith("C1,MAGNITUDE,51,OC_KNN,")
        assert summary[2].startswith("C1,MAGNITUDE,51,TC_KNN,")
        assert all(",ok," in line for line in summary[1:])
        for key in ("C1_MAGNITUDE_51_OC_KNN", "C1_MAGNITUDE_51_TC_KNN"):
            assert (work / f"report_{key}.json").is_file()
            roc = (work / f"roc_{key}.csv").read_text().splitlines()
            assert roc[0] == "fpr,tpr,threshold"
            assert len(roc) == 1002
        record = json.loads((work / "run.json").read_text())
        assert record["command"] == "run"
        assert any("collection_C1.json" in k for k in record["inputs"])
        assert "AUC" in capsys.readouterr().out

    def test_run_json_digests_the_datasets_it_reads(self, pipeline):
        data, work = pipeline
        ingested = json.loads((work / "run.json").read_text())["inputs"][str(data)]
        argv = ("run", "--dataset1", data, "--out", work, "--seed", "7",
                "--feature", "MAGNITUDE", "--window", "51", "--classifier", "OC_KNN")
        assert run_cli(*argv) == 0
        assert json.loads((work / "run.json").read_text())["inputs"][str(data)] == ingested
        path = data / "adl" / "adl_0003.csv"
        lines = path.read_text().splitlines()
        lines[7] = "0.25,0.5,0.75"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(*argv) == 0
        assert json.loads((work / "run.json").read_text())["inputs"][str(data)] != ingested

    def test_rerun_reproduces_summary_bytes(self, pipeline):
        data, work = pipeline
        argv = (
            "run", "--dataset1", data, "--out", work, "--seed", "7",
            "--feature", "MAGNITUDE", "--window", "51", "--classifier", "OC_KNN",
        )
        assert run_cli(*argv) == 0
        first = (work / "summary.csv").read_bytes()
        assert run_cli(*argv) == 0
        assert (work / "summary.csv").read_bytes() == first

    def test_parallel_jobs_match_serial(self, pipeline, tmp_path, capsys):
        data, work = pipeline
        config = tmp_path / "grids.json"
        config.write_text(json.dumps({"c_grid": [1, 10], "nu_grid": [0.1, 0.5],
                                      "gamma_grid": ["auto", 0.1], "inner_folds": 4}))
        base = (
            "--dataset1", data, "--seed", "7", "--config", config,
            "--feature", "ACCEL_FEATURES", "--window", "51",
            "--classifier", "OC_KNN", "--classifier", "TC_KNN",
            "--classifier", "OC_SVM", "--classifier", "TC_SVM",
        )
        assert run_cli("run", "--out", work, *base, "--jobs", "1") == 0
        serial = capsys.readouterr().out
        written = without_run_json(file_bytes(work))
        assert len([n for n in written if n.startswith(("report_", "roc_"))]) == 8
        for jobs in (2, 3):
            work2 = tmp_path / f"work{jobs}"
            assert run_cli("ingest", "--dataset1", data, "--out", work2, "--seed", "7") == 0
            capsys.readouterr()
            assert run_cli("run", "--out", work2, *base, "--jobs", jobs) == 0
            assert (work / "summary.csv").read_bytes() == (work2 / "summary.csv").read_bytes()
            assert without_run_json(file_bytes(work2)) == written
            assert capsys.readouterr().out == serial

    def test_run_without_manifests_fails_cleanly(self, tmp_path, capsys):
        code = run_cli("run", "--dataset1", tmp_path, "--out", tmp_path / "none")
        assert code == 2
        assert "run ingest first" in capsys.readouterr().err


class TestCellFailures:
    """Whatever one cell raises becomes its error row; the other cells keep
    their rows and reports."""

    ARGV = ("--seed", "7", "--feature", "MAGNITUDE", "--window", "51",
            "--classifier", "OC_KNN,TC_KNN,OC_SVM")

    def test_any_exception_becomes_an_error_row(self, pipeline, monkeypatch, capsys):
        data, work = pipeline
        real = cli.run_experiment

        def one_cell_fails(collection, feature, window, classifier, cfg):
            if classifier == "TC_KNN":
                raise ValueError("scores must be finite, got\nnan")
            if classifier == "OC_SVM":
                raise InsufficientData("too few, sorry")
            return real(collection, feature, window, classifier, cfg)

        monkeypatch.setattr(cli, "run_experiment", one_cell_fails)
        assert run_cli("run", "--dataset1", data, "--out", work, *self.ARGV) == 1
        lines = (work / "summary.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("C1,MAGNITUDE,51,OC_KNN,") and lines[1].endswith(",ok,")
        assert lines[2] == "C1,MAGNITUDE,51,TC_KNN,,,,,error,ValueError: scores must be finite; got nan"
        # a FalldetectError keeps its bare message
        assert lines[3] == "C1,MAGNITUDE,51,OC_SVM,,,,,error,too few; sorry"
        assert [f.name for f in sorted(work.glob("report_*.json"))] == [
            "report_C1_MAGNITUDE_51_OC_KNN.json"
        ]
        assert (work / "roc_C1_MAGNITUDE_51_OC_KNN.csv").is_file()
        assert "TC_KNN: ERROR ValueError: scores must be finite; got nan" in capsys.readouterr().out
        assert run_cli("report", "--out", work) == 1
        assert (work / "summary.csv").read_text().splitlines() == lines

    def test_feature_whose_spread_overflows_is_an_error_row(self, pipeline, capsys):
        data, work = pipeline
        # two ADL windows peak at 1.2e154 on x: each square is finite, so
        # ingest and the peak search accept them, but the RAW column's sum
        # of squared deviations overflows
        for name in ("adl_0000.csv", "adl_0001.csv"):
            path = data / "adl" / name
            lines = path.read_text().splitlines()
            lines[150] = "1.2e154,0.0,1.0"
            path.write_text("\n".join(lines) + "\n")
        code = run_cli("run", "--dataset1", data, "--out", work, "--seed", "7",
                       "--feature", "RAW", "--window", "51", "--classifier", "OC_SVM")
        assert code == 1
        (line,) = (work / "summary.csv").read_text().splitlines()[1:]
        assert line.startswith("C1,RAW,51,OC_SVM,,,,,error,")
        assert "cannot be standardized: its mean or spread overflows" in line
        assert not list(work.glob("report_*.json"))
        assert "OC_SVM: ERROR " in capsys.readouterr().out

    def test_keyboard_interrupt_escapes(self, pipeline, monkeypatch):
        data, work = pipeline

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli("run", "--dataset1", data, "--out", work, *self.ARGV)
        assert not (work / "summary.csv").exists()


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched fold step reaches pool workers only when they are forked",
)


class TestFoldPool:
    """--jobs N runs (cell, outer fold) units; a failed or lost fold gives
    its cell the same error row a serial run gives, and the other cells
    keep theirs."""

    ARGV = ("--seed", "7", "--feature", "MAGNITUDE", "--window", "51",
            "--classifier", "OC_KNN,TC_KNN,OC_SVM")

    @fork_only
    @pytest.mark.parametrize("error, text", [
        (InsufficientData("too few, sorry"), "outer fold 3: too few; sorry"),
        (ValueError("scores must be finite, got\nnan"),
         "ValueError: scores must be finite; got nan"),
    ])
    def test_fold_failure_rows_match_serial(self, pipeline, tmp_path, monkeypatch, capsys,
                                            error, text):
        data, work = pipeline
        real = evaluation._outer_fold

        def fails_from_fold_3(inputs, f, cfg):
            if inputs.variant is Variant.TC_KNN and f >= 3:
                raise error
            return real(inputs, f, cfg)

        monkeypatch.setattr(evaluation, "_outer_fold", fails_from_fold_3)
        work2 = tmp_path / "work2"
        assert run_cli("ingest", "--dataset1", data, "--out", work2, "--seed", "7") == 0
        capsys.readouterr()
        assert run_cli("run", "--dataset1", data, "--out", work, *self.ARGV, "--jobs", "1") == 1
        serial = capsys.readouterr().out
        assert run_cli("run", "--dataset1", data, "--out", work2, *self.ARGV, "--jobs", "2") == 1
        assert capsys.readouterr().out == serial
        lines = (work / "summary.csv").read_text().splitlines()
        assert (work2 / "summary.csv").read_text().splitlines() == lines
        assert lines[2] == f"C1,MAGNITUDE,51,TC_KNN,,,,,error,{text}"
        assert f"C1 MAGNITUDE 51 TC_KNN: ERROR {text}" in serial.splitlines()
        assert without_run_json(file_bytes(work2)) == without_run_json(file_bytes(work))

    @fork_only
    def test_dead_worker_loses_only_unfinished_cells(self, pipeline, monkeypatch, capsys):
        data, work = pipeline
        real = evaluation._outer_fold
        first_report = work / "report_C1_MAGNITUDE_51_OC_KNN.json"

        def worker_dies(inputs, f, cfg):
            if inputs.variant is Variant.TC_KNN and f == 2:
                # die once the first cell is written, so that it is finished
                deadline = time.monotonic() + 60
                while not first_report.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(1)
            return real(inputs, f, cfg)

        monkeypatch.setattr(evaluation, "_outer_fold", worker_dies)
        assert run_cli("run", "--dataset1", data, "--out", work, *self.ARGV, "--jobs", "2") == 1
        rows = json.loads((work / "summary.json").read_text())
        assert [r["classifier"] for r in rows] == ["OC_KNN", "TC_KNN", "OC_SVM"]
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "error"
        assert rows[1]["error"].startswith("BrokenProcessPool: outer fold ")
        assert rows[1]["error"].endswith(" was lost when a pool worker process died")
        for row in rows:
            key = "_".join(str(row[k]) for k in ("collection", "feature", "window", "classifier"))
            written = (work / f"report_{key}.json").is_file(), (work / f"roc_{key}.csv").is_file()
            assert written == ((row["status"] == "ok"),) * 2
        assert (work / "run.json").is_file()
        ran = (work / "summary.csv").read_bytes()
        out = capsys.readouterr().out
        assert "TC_KNN: ERROR BrokenProcessPool: outer fold " in out
        assert run_cli("report", "--out", work) == 1
        assert (work / "summary.csv").read_bytes() == ran


def drop_source_index(doc):
    del doc["instances"][3]["source_index"]


def far_source_index(doc):
    doc["instances"][0]["source_index"] = 1000000


def one_assignment_short(doc):
    doc["fold_assignments"].pop()


def fold_99(doc):
    doc["fold_assignments"][5] = 99


def one_fold(doc):
    doc["num_folds"] = 1


def fractional_folds(doc):
    doc["num_folds"] = 10.5


class TestDamagedManifest:
    """A collection manifest run cannot use exits 2 naming it, and run
    writes nothing."""

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda doc: "{not json", "not JSON ("),
            (lambda doc: json.dumps([doc]), "not a collection manifest ("),
            (drop_source_index, "missing key 'source_index'"),
            (far_source_index, "manifest references D1[1000000], which is unavailable"),
            (one_assignment_short, "fold_assignments must hold one fold per instance (42)"),
            (fold_99, "fold_assignments holds 99, not a fold in [0, 10)"),
            (one_fold, "num_folds must be an integer >= 2, got 1"),
            (fractional_folds, "num_folds must be an integer >= 2, got 10.5"),
            (lambda doc: doc.update(id="C2"), "id must be 'C1', as its file name says, got 'C2'"),
            (lambda doc: doc.update(id="C9"), "id must be 'C1', as its file name says, got 'C9'"),
            (lambda doc: doc.update(seed=1.9), "seed must be an integer >= 0, got 1.9"),
            (lambda doc: doc.update(seed=True), "seed must be an integer >= 0, got True"),
            (lambda doc: doc.update(seed=-1), "seed must be an integer >= 0, got -1"),
        ],
        ids=["not JSON", "a list", "no source_index", "far index", "one short", "fold 99",
             "one fold", "fractional folds", "another collection's id", "unknown id",
             "fractional seed", "bool seed", "negative seed"],
    )
    def test_damaged_manifest_is_named(self, pipeline, capsys, damage, message):
        data, work = pipeline
        path = work / "collection_C1.json"
        doc = json.loads(path.read_text())
        text = damage(doc)
        path.write_text(json.dumps(doc) if text is None else text)
        before = file_bytes(work)
        capsys.readouterr()
        code = run_cli(
            "run", "--dataset1", data, "--out", work,
            "--feature", "MAGNITUDE", "--window", "51", "--classifier", "OC_KNN",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert file_bytes(work) == before


class TestReportCommand:
    def test_rebuilds_summary_from_stored_reports(self, pipeline):
        data, work = pipeline
        assert run_cli(
            "run", "--dataset1", data, "--out", work, "--seed", "7",
            "--feature", "MAGNITUDE", "--window", "51", "--classifier", "TC_KNN",
        ) == 0
        saved = (work / "summary.csv").read_bytes()
        (work / "summary.csv").unlink()
        assert run_cli("report", "--out", work) == 0
        assert (work / "summary.csv").read_bytes() == saved

    def test_no_reports_is_an_error(self, tmp_path, capsys):
        code = run_cli("report", "--out", tmp_path)
        assert code == 2
        assert "no reports" in capsys.readouterr().err

    def run_oc_knn(self, data, work, *extra):
        return run_cli("run", "--dataset1", data, "--out", work, "--classifier", "OC_KNN", *extra)

    def test_renders_exactly_the_last_runs_cells(self, pipeline):
        data, work = pipeline
        assert self.run_oc_knn(data, work, "--feature", "RAW", "--window", "all") == 0
        assert self.run_oc_knn(data, work, "--feature", "MAGNITUDE", "--window", "51") == 0
        saved = (work / "summary.csv").read_bytes()
        assert len(saved.splitlines()) == 2
        # the first run's two reports are still in the directory
        assert len(list(work.glob("report_*.json"))) == 3
        (work / "summary.csv").unlink()
        assert run_cli("report", "--out", work) == 0
        assert (work / "summary.csv").read_bytes() == saved

    def test_error_rows_are_reproduced(self, pipeline, tmp_path):
        data, work = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_grid": [500]}))
        code = self.run_oc_knn(data, work, "--feature", "RAW", "--window", "51", "--config", cfg)
        assert code == 1
        saved = (work / "summary.csv").read_bytes()
        assert b",error,outer fold 0: " in saved
        (work / "summary.csv").unlink()
        assert run_cli("report", "--out", work) == 1
        assert (work / "summary.csv").read_bytes() == saved

    def test_missing_listed_report_is_named(self, pipeline, capsys):
        data, work = pipeline
        assert self.run_oc_knn(data, work, "--feature", "RAW", "--window", "51") == 0
        (work / "report_C1_RAW_51_OC_KNN.json").unlink()
        assert run_cli("report", "--out", work) == 2
        assert "report_C1_RAW_51_OC_KNN.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda doc: "{not json", ": not JSON ("),
            (lambda doc: json.dumps({k: v for k, v in doc.items() if k != "averaged_curve"}),
             ": missing key 'averaged_curve'"),
            (lambda doc: json.dumps({k: v for k, v in doc.items() if k != "config"}),
             ": missing key 'config'"),
            (lambda doc: json.dumps({**doc, "config": []}),
             ": not a report (config must be dict, got [])"),
            (lambda doc: json.dumps([doc]), ": not a report ("),
            (lambda doc: json.dumps({**doc, "mean_auc": "high"}), ": not a report ("),
            (lambda doc: json.dumps({**doc, "variant": "TC_KNN"}),
             ": a report for C1 RAW 51 TC_KNN, not C1 RAW 51 OC_KNN"),
            (lambda doc: json.dumps({**doc, "collection_id": "C2"}),
             ": a report for C2 RAW 51 OC_KNN, not C1 RAW 51 OC_KNN"),
            (lambda doc: json.dumps({**doc, "feature_kind": "MAGNITUDE"}),
             ": a report for C1 MAGNITUDE 51 OC_KNN, not C1 RAW 51 OC_KNN"),
            (lambda doc: json.dumps({**doc, "window_len": 128}),
             ": a report for C1 RAW 128 OC_KNN, not C1 RAW 51 OC_KNN"),
            # values run never writes: each must have the exact type it has
            (lambda doc: json.dumps({**doc, "window_len": 51.9}),
             ": not a report (window_len must be int, got 51.9)"),
            (lambda doc: json.dumps({**doc, "window_len": True}),
             ": not a report (window_len must be int, got True)"),
            (lambda doc: json.dumps({**doc, "seed": "3"}),
             ": not a report (seed must be int, got '3')"),
            (lambda doc: json.dumps({**doc, "seed": 7.0}),
             ": not a report (seed must be int, got 7.0)"),
            (lambda doc: json.dumps({**doc, "mean_auc": "0.5"}),
             ": not a report (mean_auc must be float, got '0.5')"),
            (lambda doc: json.dumps({**doc, "se": 1}), ": not a report (se must be float, got 1)"),
            (lambda doc: json.dumps({**doc, "threshold": None}),
             ": not a report (threshold must be float, got None)"),
            (lambda doc: json.dumps({**doc, "fold_aucs": [1] + doc["fold_aucs"][1:]}),
             ": not a report (fold_aucs must be float, got 1)"),
            (lambda doc: json.dumps({**doc, "fold_aucs": 0.5}),
             ": not a report (fold_aucs must be a list of floats, got 0.5)"),
            (lambda doc: json.dumps(
                {**doc, "averaged_curve": {**doc["averaged_curve"], "tpr": ["1.0"] * 1001}}),
             ": not a report (averaged_curve.tpr must be float, got '1.0')"),
        ],
        ids=["not JSON", "missing key", "no config", "a list config", "a list", "a bad value",
             "another variant", "another collection", "another feature", "another window",
             "a float window",
             "a bool window", "a string seed", "a float seed", "a string AUC", "an int rate",
             "a null threshold", "an int fold AUC", "a fold AUC", "a string curve"],
    )
    def test_damaged_listed_report_is_named(self, pipeline, capsys, damage, message):
        data, work = pipeline
        assert self.run_oc_knn(data, work, "--feature", "RAW", "--window", "all") == 0
        path = work / "report_C1_RAW_51_OC_KNN.json"
        path.write_text(damage(json.loads(path.read_text())))
        before = file_bytes(work)
        capsys.readouterr()
        assert run_cli("report", "--out", work) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}{message}")
        assert file_bytes(work) == before

    def test_ingest_after_run_leaves_the_runs_cells(self, pipeline):
        data, work = pipeline
        assert self.run_oc_knn(data, work, "--feature", "RAW", "--window", "51") == 0
        saved = (work / "summary.csv").read_bytes()
        # ingest rewrites run.json, not the run's summary
        assert run_cli("ingest", "--dataset1", data, "--out", work, "--seed", "7") == 0
        (work / "summary.csv").unlink()
        assert run_cli("report", "--out", work) == 0
        assert (work / "summary.csv").read_bytes() == saved

    @pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe[]"], ids=["not JSON", "not UTF-8"])
    def test_unreadable_summary_is_named(self, tmp_path, capsys, text):
        (tmp_path / "summary.json").write_bytes(text)
        assert run_cli("report", "--out", tmp_path) == 2
        assert "summary.json: not JSON" in capsys.readouterr().err

    CELL = {"collection": "C1", "feature": "RAW", "window": 51, "classifier": "OC_KNN"}

    @pytest.mark.parametrize(
        "rows, message",
        [
            ({"a": 1}, "not a list of summary rows"),
            (["C1_RAW_51_OC_KNN"], "row 0 is not an object"),
            ([{"status": "ok"}], "row 0: collection None is not one of"),
            ([{**CELL, "status": "ok"}, {**CELL, "collection": "C9", "status": "ok"}],
             "row 1: collection 'C9' is not one of"),
            ([{**CELL, "window": 52, "status": "ok"}], "row 0: window 52 is not one of"),
            ([{**CELL, "window": 51.0, "status": "ok"}], "row 0: window 51.0 is not one of"),
            ([{**CELL, "status": "done"}], "row 0: status must be 'ok' or 'error'"),
            ([{**CELL, "status": "error"}], "row 0: an error row needs its error text"),
        ],
        ids=["an object", "a string row", "no cell", "unknown collection", "unknown window",
             "float window", "unknown status", "error without text"],
    )
    def test_damaged_summary_is_named(self, tmp_path, capsys, rows, message):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(rows))
        before = file_bytes(tmp_path)
        assert run_cli("report", "--out", tmp_path) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert file_bytes(tmp_path) == before


class TestConfigHandling:
    def test_flags_override_config_file(self, tmp_path):
        data = tmp_path / "data"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "adl": 4, "falls": 2}))
        out = tmp_path / "out"
        assert run_cli("synth", "--config", cfg, "--out", out, "--seed", "9") == 0
        record = json.loads((out / "run.json").read_text())
        assert record["config"]["seed"] == 9
        assert record["config"]["adl"] == 4

    def test_run_json_replays_as_config(self, tmp_path):
        out1 = tmp_path / "one"
        assert run_cli("synth", "--out", out1, "--adl", "4", "--falls", "2", "--seed", "3") == 0
        out2 = tmp_path / "two"
        code = run_cli("synth", "--config", out1 / "run.json", "--out", out2)
        assert code == 0
        a = json.loads((out1 / "run.json").read_text())["config"]
        b = json.loads((out2 / "run.json").read_text())["config"]
        assert b["seed"] == a["seed"] == 3
        assert b["adl"] == 4
        assert (out1 / "adl" / "adl_0000.csv").read_bytes() == (
            out2 / "adl" / "adl_0000.csv"
        ).read_bytes()

    def test_large_seed_is_kept_exactly(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 2 ** 60 + 1}))
        out = tmp_path / "out"
        assert run_cli("synth", "--config", cfg, "--out", out, "--adl", "2", "--falls", "1") == 0
        assert json.loads((out / "run.json").read_text())["config"]["seed"] == 2 ** 60 + 1

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeed": 5}))
        assert run_cli("synth", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_malformed_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run_cli("synth", "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: not JSON (")

    @pytest.mark.parametrize("doc", ["[1, 2]", "3", "null", '"seed"'])
    def test_non_object_config_rejected(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        assert run_cli("synth", "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {cfg}: config must be a JSON object\n"

    def test_unknown_collection_rejected(self, tmp_path, capsys):
        code = run_cli("ingest", "--dataset1", tmp_path, "--collection", "C9")
        assert code == 2
        assert "unknown collection" in capsys.readouterr().err

    def test_choice_normalization_accepts_case_and_commas(self, pipeline):
        data, work = pipeline
        code = run_cli(
            "run", "--dataset1", data, "--out", work, "--seed", "7",
            "--feature", "magnitude,accel_features", "--window", "51",
            "--classifier", "oc_knn",
        )
        assert code == 0
        lines = (work / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("C1,MAGNITUDE,51,OC_KNN,")
        assert lines[2].startswith("C1,ACCEL_FEATURES,51,OC_KNN,")


class TestInputErrorsBeforeAnyCell:
    """Bad selections and settings exit 2 while the config loads."""

    def run_one_cell(self, data, work, *extra):
        # no --seed flag, which would override a config's seed; run takes
        # each collection's seed from its manifest
        return run_cli(
            "run", "--dataset1", data, "--out", work,
            "--feature", "MAGNITUDE", "--window", "51", "--classifier", "OC_KNN", *extra,
        )

    def test_unknown_window_is_named(self, pipeline, capsys):
        data, work = pipeline
        assert self.run_one_cell(data, work, "--window", "52") == 2
        assert "unknown window '52'" in capsys.readouterr().err
        assert not (work / "summary.csv").exists()

    def test_empty_selection_rejected(self, pipeline, capsys):
        data, work = pipeline
        code = run_cli(
            "run", "--dataset1", data, "--out", work, "--seed", "7", "--feature", ",",
        )
        assert code == 2
        assert "no feature selected" in capsys.readouterr().err
        assert not (work / "summary.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("inner_folds", 1),
            ("inner_folds", 0),
            ("inner_folds", 2.5),
            ("k_grid", [0, 3]),
            ("k_grid", [2.5]),
            ("k_grid", []),
            ("c_grid", [-1, 1]),
            ("c_grid", ["nan"]),
            ("nu_grid", [0.1, 1.5]),
            ("nu_grid", [0]),
            ("gamma_grid", ["fast"]),
            ("gamma_grid", [0]),
            ("svm_tol", -1),
            ("svm_tol", 0),
            ("svm_tol", "nan"),
            ("svm_max_iter", 0),
            ("svm_max_iter", 2.5),
            ("ltp_step", 0),
            ("ltp_step", "inf"),
            ("ltp_neighbours", 0),
            ("ltp_neighbours", 1.5),
            ("seed", -4),
            ("seed", 1.9),
            ("jobs", 0),
            ("jobs", "two"),
            # a bool is not a number, though Python counts True as 1
            ("jobs", True),
            ("seed", True),
            ("svm_tol", True),
            ("svm_max_iter", True),
            ("ltp_neighbours", True),
            ("ltp_step", True),
            ("k_grid", [True, 2]),
            ("c_grid", [True]),
            ("nu_grid", [True]),
            ("gamma_grid", [True]),
            ("adl", -3),
            ("falls", 2.7),
            ("adl", "many"),
        ],
    )
    def test_out_of_range_grid_setting_names_the_key(self, pipeline, tmp_path, capsys, key, value):
        data, work = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert self.run_one_cell(data, work, "--config", cfg) == 2
        assert f"error: {key} must" in capsys.readouterr().err
        assert not (work / "summary.csv").exists()

    def test_negative_seed_flag_names_the_key(self, pipeline, capsys):
        data, work = pipeline
        assert self.run_one_cell(data, work, "--seed", "-1") == 2
        assert "error: seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (work / "summary.csv").exists()

    def test_in_range_grids_load(self, pipeline, tmp_path):
        data, work = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_grid": [5], "inner_folds": 2, "c_grid": [1e-3], "nu_grid": [1],
            "gamma_grid": ["auto", 0.5], "svm_tol": 1e-2, "svm_max_iter": 50,
            "ltp_neighbours": 4, "ltp_step": 0.5,
        }))
        assert self.run_one_cell(data, work, "--config", cfg) == 0
        report = json.loads((work / "report_C1_MAGNITUDE_51_OC_KNN.json").read_text())
        assert report["config"]["k_grid"] == [5]
        assert report["config"]["inner_folds"] == 2
        assert (report["config"]["svm_tol"], report["config"]["svm_max_iter"]) == (1e-2, 50)
        assert report["config"]["ltp_params"] == {"num_neighbours": 4, "step": 0.5, "m_max": None}
        assert all(p["k"] == 5 for p in report["fold_params"])


def is_canonical_json(path):
    text = path.read_text(encoding="utf-8")
    return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestRecordFormat:
    """Every JSON record is written in one format, and run and report
    print the same line for each summary row."""

    def test_every_json_file_is_indented_and_key_sorted(self, pipeline):
        data, work = pipeline
        assert run_cli("run", "--dataset1", data, "--out", work, "--seed", "7",
                       "--feature", "MAGNITUDE", "--window", "51", "--classifier", "OC_KNN") == 0
        written = [data / "manifest.json", data / "run.json", *sorted(work.glob("*.json"))]
        names = {p.name for p in written}
        assert {"collection_C1.json", "report_C1_MAGNITUDE_51_OC_KNN.json",
                "summary.json", "run.json", "manifest.json"} <= names
        assert run_cli("report", "--out", work) == 0
        for path in written:
            assert is_canonical_json(path), path

    def test_run_and_report_print_the_same_lines(self, pipeline, monkeypatch, capsys):
        data, work = pipeline
        real = cli.run_experiment

        def tc_knn_fails(collection, feature, window, classifier, cfg):
            if classifier == "TC_KNN":
                raise InsufficientData("too few, sorry")
            return real(collection, feature, window, classifier, cfg)

        monkeypatch.setattr(cli, "run_experiment", tc_knn_fails)
        capsys.readouterr()
        assert run_cli("run", "--dataset1", data, "--out", work, "--seed", "7", "--feature",
                       "MAGNITUDE", "--window", "51", "--classifier", "OC_KNN,TC_KNN") == 1
        run_lines = capsys.readouterr().out.splitlines()
        assert run_cli("report", "--out", work) == 1
        assert capsys.readouterr().out.splitlines() == run_lines
        assert len(run_lines) == 2
        assert run_lines[0].startswith("C1 MAGNITUDE 51 OC_KNN: AUC ")
        assert " GM " in run_lines[0]
        assert run_lines[1] == "C1 MAGNITUDE 51 TC_KNN: ERROR too few; sorry"
