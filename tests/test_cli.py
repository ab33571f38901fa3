"""Command-line pipeline: synth, ingest, run, report; exit codes; configs."""

import concurrent.futures
import json
import multiprocessing
import os
import time
from concurrent.futures import Future

import pytest

from falldetect import classifiers, cli, evaluation, ingest
from falldetect.classifiers import Variant
from falldetect.errors import InsufficientData
from falldetect.features import LtpParams


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

    def test_windows_it_would_not_write_are_refused(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli("synth", "--out", out, "--adl", "6", "--falls", "3") == 0
        before = file_bytes(out)
        assert run_cli("synth", "--out", out, "--adl", "6", "--falls", "3") == 0
        assert file_bytes(out) == before  # the same set again is allowed
        capsys.readouterr()
        assert run_cli("synth", "--out", out, "--adl", "3", "--falls", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'adl' / 'adl_0003.csv'} is not one of the "
                              "3 ADL + 2 FALL windows this call writes")
        assert json.loads((out / "manifest.json").read_text())["counts"] == {"ADL": 6, "FALL": 3}
        assert len(ingest.parse_dataset1(out)) == 9


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_honour_the_umask(tmp_path, umask, mode):
    data, work = tmp_path / "data", tmp_path / "work"
    old = os.umask(umask)
    try:
        assert run_cli("synth", "--out", data, "--adl", "30", "--falls", "12", "--seed", "7") == 0
        assert run_cli("ingest", "--dataset1", data, "--out", work, "--seed", "7") == 0
        assert run_cli("run", "--dataset1", data, "--out", work, "--feature", "MAGNITUDE",
                       "--window", "51", "--classifier", "OC_KNN") == 0
        assert run_cli("report", "--out", work) == 0
    finally:
        os.umask(old)
    written = [f for f in (*data.rglob("*"), *work.iterdir()) if f.is_file()]
    assert {f.name for f in written} >= {
        "manifest.json", "adl_0000.csv", "fall_0000.csv", "collection_C1.json", "run.json",
        "parsed_dataset1.npy", "parsed_dataset1.json", "report_C1_MAGNITUDE_51_OC_KNN.json",
        "roc_C1_MAGNITUDE_51_OC_KNN.csv", "summary.csv", "summary.json"}
    assert {f.name: oct(f.stat().st_mode & 0o777) for f in written} == {
        f.name: oct(mode) for f in written}


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


def put_bytes(path, line, raw):
    """Replace line `line` (1-based) of path with the bytes raw."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = raw
    path.write_bytes(b"\n".join(lines))


class TestUndecodableInput:
    """A dataset file that is not UTF-8 exits 2 naming its path and the
    line of the first byte that does not decode, and nothing is written."""

    def ingest_fails(self, capsys, out, path, line, *argv):
        capsys.readouterr()
        assert run_cli("ingest", *argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:{line}: not UTF-8 text (invalid start byte)\n"
        assert file_bytes(out) == {}

    # line 1 is read before np.loadtxt; line 250 lies past the first
    # block that read decodes, so loadtxt meets it and the line walk names it
    @pytest.mark.parametrize("line", [1, 250])
    def test_windowed_csv(self, tmp_path, capsys, line):
        data = tmp_path / "data"
        assert run_cli("synth", "--out", data, "--adl", "12", "--falls", "10") == 0
        path = data / "adl" / "adl_0003.csv"
        put_bytes(path, line, b"\xff\xfe1,2,3")
        self.ingest_fails(capsys, tmp_path / "out", path, line, "--dataset1", data)

    # the header line is read on its own; line 900 lies past its block
    @pytest.mark.parametrize("line", [1, 900], ids=["header", "row"])
    def test_raw_csv(self, tmp_path, capsys, line):
        data = tmp_path / "data"
        (data / "adl").mkdir(parents=True)
        (data / "manifest.json").write_text(json.dumps({"mode": "raw"}))
        path = data / "adl" / "rec.csv"
        rows = [f"{i / 50.0!r},0.0,0.0,1.0" for i in range(1000)]
        path.write_text("\n".join(["t,x,y,z", *rows]) + "\n")
        put_bytes(path, line, b"0.1,\xff,0.0,1.0")
        self.ingest_fails(capsys, tmp_path / "out", path, line, "--dataset1", data)

    def test_dataset2_labels(self, pipeline, tmp_path, capsys):
        data, _ = pipeline
        d2 = tmp_path / "d2"
        write_dataset2(d2)
        put_bytes(d2 / "labels.csv", 3, b"WALK\xff")
        self.ingest_fails(capsys, tmp_path / "out", d2 / "labels.csv", 3,
                          "--dataset1", data, "--dataset2", d2)

    def test_run_names_a_file_changed_since_ingest(self, pipeline, capsys):
        data, work = pipeline
        path = data / "fall" / "fall_0002.csv"
        put_bytes(path, 7, b"\xff")
        before = file_bytes(work)
        capsys.readouterr()
        assert run_cli("run", "--dataset1", data, "--out", work, "--feature", "RAW",
                       "--window", "51", "--classifier", "OC_KNN") == 2
        assert capsys.readouterr().err == f"error: {path}:7: not UTF-8 text (invalid start byte)\n"
        assert file_bytes(work) == before


class TestByteOrderMark:
    """A dataset file that starts with a UTF-8 byte-order mark, as
    spreadsheet exports write one, ingests as it does without the mark."""

    @staticmethod
    def ingested(out, *argv):
        """The manifests and parsed samples that ingest writes to out."""
        assert run_cli("ingest", *argv, "--out", out, "--seed", "7") == 0
        return {name: data for name, data in file_bytes(out).items()
                if name.startswith("collection_") or name.endswith(".npy")}

    def check(self, tmp_path, path, *argv):
        plain = self.ingested(tmp_path / "plain", *argv)
        assert len(plain) >= 2
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert self.ingested(tmp_path / "marked", *argv) == plain

    def test_windowed_csv(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("synth", "--out", data, "--adl", "12", "--falls", "10") == 0
        self.check(tmp_path, data / "adl" / "adl_0000.csv", "--dataset1", data)

    def test_raw_csv_header(self, tmp_path):
        # a spike every 8 s: each gives one window
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps({"mode": "raw"}))
        for sub, spikes in (("adl", 12), ("fall", 10)):
            z = [3.0 if i % 400 == 200 else 1.0 for i in range(400 * spikes)]
            rows = ["t,x,y,z"] + [f"{i / 50.0!r},0.0,0.0,{zi!r}" for i, zi in enumerate(z)]
            (data / sub).mkdir()
            (data / sub / "rec.csv").write_text("\n".join(rows) + "\n")
        self.check(tmp_path, data / "adl" / "rec.csv", "--dataset1", data)

    def test_dataset2_labels(self, pipeline, tmp_path):
        data, _ = pipeline
        d2 = tmp_path / "d2"
        write_dataset2(d2)
        # a marked FALL read as "\ufeffFALL" would be kept as an ADL row
        labels = (d2 / "labels.csv").read_text().splitlines()
        (d2 / "labels.csv").write_text("\n".join(["FALL", *labels[1:]]) + "\n")
        self.check(tmp_path, d2 / "labels.csv", "--dataset1", data, "--dataset2", d2)


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

        def one_cell_fails(collection, feature, window, classifier, cfg, **kwargs):
            if classifier == "TC_KNN":
                raise ValueError("scores must be finite, got\nnan")
            if classifier == "OC_SVM":
                raise InsufficientData("too few, sorry")
            return real(collection, feature, window, classifier, cfg, **kwargs)

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

        def interrupted(*args, **kwargs):
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

        def fails_from_fold_3(inputs, variant, f, cfg, pick=None):
            if variant is Variant.TC_KNN and f >= 3:
                raise error
            return real(inputs, variant, f, cfg, pick)

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
    def test_failure_in_a_batch_names_its_fold_as_serial(self, pipeline, tmp_path, monkeypatch,
                                                         capsys):
        # TC_SVM runs folds 0-2 as one batch; fold 1's inner search fails
        data, work = pipeline
        seed = json.loads((work / "collection_C1.json").read_text())["seed"]
        second = evaluation._inner_seed(seed, 1)
        real = evaluation._inner_splits

        def fails_at_fold_1(is_fall, plan, two_class):
            if two_class and plan.seed == second:
                raise InsufficientData("no inner split, sorry")
            return real(is_fall, plan, two_class)

        monkeypatch.setattr(evaluation, "_inner_splits", fails_at_fold_1)
        argv = ("--seed", "7", "--feature", "MAGNITUDE", "--window", "51",
                "--classifier", "OC_KNN,TC_SVM")
        work2 = tmp_path / "work2"
        assert run_cli("ingest", "--dataset1", data, "--out", work2, "--seed", "7") == 0
        capsys.readouterr()
        assert run_cli("run", "--dataset1", data, "--out", work, *argv, "--jobs", "1") == 1
        serial = capsys.readouterr().out
        assert run_cli("run", "--dataset1", data, "--out", work2, *argv, "--jobs", "2") == 1
        assert capsys.readouterr().out == serial
        text = "outer fold 1: no inner split; sorry"
        lines = (work / "summary.csv").read_text().splitlines()
        assert lines[1].endswith(",ok,")
        assert lines[2] == f"C1,MAGNITUDE,51,TC_SVM,,,,,error,{text}"
        assert f"C1 MAGNITUDE 51 TC_SVM: ERROR {text}" in serial.splitlines()
        assert without_run_json(file_bytes(work2)) == without_run_json(file_bytes(work))

    @fork_only
    def test_dead_worker_loses_only_unfinished_cells(self, pipeline, monkeypatch, capsys):
        data, work = pipeline
        real = evaluation._outer_fold
        first_report = work / "report_C1_MAGNITUDE_51_OC_KNN.json"

        def worker_dies(inputs, variant, f, cfg, pick=None):
            if variant is Variant.TC_KNN and f == 2:
                # die once the first cell is written, so that it is finished
                deadline = time.monotonic() + 60
                while not first_report.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(1)
            return real(inputs, variant, f, cfg, pick)

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

    @pytest.fixture
    def inline_pool(self, monkeypatch):
        """The ProcessPoolExecutor that cli's pool imports replaced by one
        that starts no process: it runs each unit in this process when it
        is submitted, and records the worker count each pool asks for."""
        asked = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_worker", {})
        return asked

    def test_workers_never_outnumber_units(self, pipeline, inline_pool):
        data, work = pipeline
        assert run_cli("run", "--dataset1", data, "--out", work, "--feature", "MAGNITUDE",
                       "--window", "51", "--classifier", "OC_KNN", "--jobs", "12") == 0
        assert inline_pool == [10]

    def test_one_triple_builds_its_inputs_once(self, pipeline, tmp_path, inline_pool,
                                               monkeypatch):
        data, work = pipeline
        argv = ("--feature", "MAGNITUDE", "--window", "51", "--classifier", "OC_KNN,TC_KNN")
        assert run_cli("run", "--dataset1", data, "--out", work, *argv) == 0
        serial = without_run_json(file_bytes(work))
        built = []
        real_inputs, real_prep = cli.cell_inputs, classifiers.KnnPrep

        def counted_inputs(*args):
            built.append("inputs")
            return real_inputs(*args)

        class CountedPrep(real_prep):
            def __init__(self, vectors):
                built.append("knn_prep")
                super().__init__(vectors)

        monkeypatch.setattr(cli, "cell_inputs", counted_inputs)
        monkeypatch.setattr(classifiers, "KnnPrep", CountedPrep)
        assert run_cli("run", "--dataset1", data, "--out", work, *argv, "--jobs", "2") == 0
        assert inline_pool == [2]
        assert built == ["inputs", "knn_prep"]
        assert without_run_json(file_bytes(work)) == serial


class TestSerialSharing:
    """--jobs 1 builds each (collection, feature, window) triple's inputs
    once for all of its variants, as a pool worker does."""

    ARGV = ("--seed", "7", "--feature", "MAGNITUDE", "--window", "51",
            "--classifier", "OC_KNN,TC_KNN,OC_SVM")

    @staticmethod
    def counted(monkeypatch, module, name, calls):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def test_one_triple_extracts_and_measures_once(self, pipeline, tmp_path, monkeypatch):
        data, work = pipeline
        calls = []
        self.counted(monkeypatch, evaluation, "extract_matrix", calls)
        self.counted(monkeypatch, classifiers, "_self_distances", calls)
        assert run_cli("run", "--dataset1", data, "--out", work, *self.ARGV, "--jobs", "1") == 0
        assert sorted(calls) == ["_self_distances", "extract_matrix"]
        assert cli._worker == {}  # the memo ends with the run
        monkeypatch.undo()
        pooled = tmp_path / "pooled"
        assert run_cli("ingest", "--dataset1", data, "--out", pooled, "--seed", "7") == 0
        assert run_cli("run", "--dataset1", data, "--out", pooled, *self.ARGV, "--jobs", "2") == 0
        assert without_run_json(file_bytes(pooled)) == without_run_json(file_bytes(work))

    def test_inputs_that_fail_give_every_variant_the_error_row(self, pipeline, monkeypatch,
                                                               capsys):
        data, work = pipeline
        calls = []

        def fails(*args):
            calls.append(args[1])
            raise InsufficientData("no windows, sorry")

        monkeypatch.setattr(evaluation, "extract_matrix", fails)
        assert run_cli("run", "--dataset1", data, "--out", work, *self.ARGV, "--jobs", "1") == 1
        assert len(calls) == 3  # a failure is not remembered: each variant asks again
        lines = (work / "summary.csv").read_text().splitlines()[1:]
        assert lines == [f"C1,MAGNITUDE,51,{v},,,,,error,no windows; sorry"
                         for v in ("OC_KNN", "TC_KNN", "OC_SVM")]

    def test_a_new_triple_builds_anew(self, pipeline, monkeypatch):
        data, work = pipeline
        d1 = cli.parse_dataset1(data)
        collections = {"C1": cli.collection_from_manifest(
            json.loads((work / "collection_C1.json").read_text()), d1, None)}
        # another collection, which the memo knows by the id it is run under
        collections["C2"] = cli.build_collection("C1", d1, None, seed=7)
        monkeypatch.setattr(cli, "_worker", {})
        cli._init_worker(collections, evaluation.GridConfig())
        for other in (("C1", "RAW", 51), ("C1", "MAGNITUDE", 128), ("C2", "MAGNITUDE", 51)):
            last = cli._triple_inputs(("C1", "MAGNITUDE", 51, "OC_KNN"))
            for variant in ("TC_KNN", "OC_SVM", "TC_SVM"):
                assert cli._triple_inputs(("C1", "MAGNITUDE", 51, variant)) is last
            assert cli._triple_inputs((*other, "OC_KNN")) is not last


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
            (drop_source_index,
             "instances[3] is {'label': 'ADL', 'source_dataset': 'D1', 'source_id': 'adl_0003'}, "
             "but the datasets give {'label': 'ADL', 'source_dataset': 'D1', "
             "'source_id': 'adl_0003', 'source_index': 3}\n"),
            (far_source_index,
             "instances[0] is {'label': 'ADL', 'source_dataset': 'D1', 'source_id': 'adl_0000', "
             "'source_index': 1000000}, but the datasets give {'label': 'ADL', "
             "'source_dataset': 'D1', 'source_id': 'adl_0000', 'source_index': 0}\n"),
            (one_assignment_short, "fold_assignments holds 41 entries, but the datasets give 42\n"),
            (fold_99, "fold_assignments[5] is 99, but the datasets give 7\n"),
            (one_fold, "num_folds is 1, but the datasets give 10\n"),
            (fractional_folds, "num_folds is 10.5, but the datasets give 10\n"),
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

    def test_dataset_changed_since_ingest_is_refused(self, pipeline, capsys):
        """A dataset1 that now gives other windows at the manifest's indices:
        one window added before them and the last ADL one removed, so the
        ADL count is what ingest saw."""
        data, work = pipeline
        (data / "adl" / "adl_0000a.csv").write_bytes((data / "adl" / "adl_0005.csv").read_bytes())
        (data / "adl" / "adl_0029.csv").unlink()
        before = file_bytes(work)
        capsys.readouterr()
        code = run_cli(
            "run", "--dataset1", data, "--out", work,
            "--feature", "MAGNITUDE", "--window", "51", "--classifier", "OC_KNN",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {work / 'collection_C1.json'}: instances[1] is ")
        assert "'source_id': 'adl_0001'" in err and "'source_id': 'adl_0000a'" in err
        assert file_bytes(work) == before


def write_dataset2(d2):
    """40 ADL rows: enough for every fold of C2 and C3 beside pipeline's dataset1."""
    import numpy as np

    d2.mkdir()
    rng = np.random.default_rng(0)
    for axis in ("x", "y", "z"):
        rows = rng.normal(0.0, 0.3, (40, 128))
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
        (d2 / f"{axis}.csv").write_text(text + "\n")
    (d2 / "labels.csv").write_text("\n".join(["WALK"] * 40) + "\n")


def counted_parsers(monkeypatch, calls, fail=False):
    """Wrap both parsers, in cli and in ingest, to count their calls in
    calls, or to fail the test when one is called."""
    for name in ("parse_dataset1", "parse_dataset2"):
        real = getattr(ingest, name)

        def wrapper(path, real=real, name=name):
            assert not fail, f"{name}({path}) was called"
            calls.append(name)
            return real(path)

        monkeypatch.setattr(cli, name, wrapper)
        monkeypatch.setattr(ingest, name, wrapper)


def flip_sample_byte(work):
    path = work / "parsed_dataset1.npy"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))


def other_version(work):
    path = work / "parsed_dataset1.json"
    doc = json.loads(path.read_text())
    doc["version"] = "0.0.0"
    path.write_text(json.dumps(doc))


def records(work):
    return sorted(p.name for p in work.iterdir() if p.name.startswith("parsed_"))


def without_records(files):
    return {name: data for name, data in without_run_json(files).items()
            if not name.startswith("parsed_")}


class TestParseRecord:
    """ingest leaves what it parsed in --out, and run reads it back when
    the datasets are the ones ingest digested; otherwise run parses."""

    ARGV = ("--feature", "MAGNITUDE", "--window", "51", "--classifier", "OC_KNN,TC_KNN")

    def test_run_after_ingest_calls_no_parser(self, pipeline, tmp_path, monkeypatch, capsys):
        data, _ = pipeline
        d2 = tmp_path / "d2"
        write_dataset2(d2)
        datasets = ("--dataset1", data, "--dataset2", d2)
        for work in (tmp_path / "parsed", tmp_path / "read"):
            assert run_cli("ingest", *datasets, "--out", work) == 0
        assert records(work) == ["parsed_dataset1.json", "parsed_dataset1.npy",
                                 "parsed_dataset2.json", "parsed_dataset2.npy"]
        for p in (tmp_path / "parsed").glob("parsed_*"):
            p.unlink()
        capsys.readouterr()
        assert run_cli("run", *datasets, "--out", tmp_path / "parsed", *self.ARGV) == 0
        printed = capsys.readouterr().out
        counted_parsers(monkeypatch, [], fail=True)
        assert run_cli("run", *datasets, "--out", work, *self.ARGV) == 0
        assert capsys.readouterr().out == printed
        written = without_records(file_bytes(work))
        assert written == without_records(file_bytes(tmp_path / "parsed"))
        assert len([n for n in written if n.startswith("report_")]) == 6

    @pytest.mark.parametrize("damage", [
        lambda work: [p.unlink() for p in work.glob("parsed_*")],
        lambda work: (work / "parsed_dataset1.json").unlink(),
        lambda work: (work / "parsed_dataset1.npy").write_bytes(
            (work / "parsed_dataset1.npy").read_bytes()[:1000]),
        lambda work: (work / "parsed_dataset1.json").write_bytes(
            (work / "parsed_dataset1.json").read_bytes()[:200]),
        flip_sample_byte,
        other_version,
    ], ids=["missing", "no index", "samples cut short", "index cut short", "a sample byte flipped",
            "another version"])
    def test_run_parses_again_and_writes_the_same_bytes(self, pipeline, tmp_path, monkeypatch,
                                                         capsys, damage):
        data, work = pipeline
        assert run_cli("run", "--dataset1", data, "--out", work, *self.ARGV) == 0
        printed = capsys.readouterr().out
        other = tmp_path / "other"
        assert run_cli("ingest", "--dataset1", data, "--out", other, "--seed", "7") == 0
        damage(other)
        calls = []
        counted_parsers(monkeypatch, calls)
        capsys.readouterr()
        assert run_cli("run", "--dataset1", data, "--out", other, *self.ARGV) == 0
        assert calls == ["parse_dataset1"]
        assert capsys.readouterr().out == printed
        assert without_records(file_bytes(other)) == without_records(file_bytes(work))
        run_json = json.loads((other / "run.json").read_text())
        assert run_json["inputs"][str(data)] == json.loads(
            (work / "run.json").read_text())["inputs"][str(data)]

    def test_ingest_that_exits_2_leaves_no_record(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("synth", "--out", data, "--adl", "6", "--falls", "3") == 0
        work = tmp_path / "work"
        # dataset1 parses, dataset2 does not exist
        assert run_cli("ingest", "--dataset1", data, "--dataset2", tmp_path / "none",
                       "--out", work) == 2
        assert records(work) == []
        # both parse, but a collection cannot be built: no falls
        for f in (data / "fall").iterdir():
            f.unlink()
        assert run_cli("ingest", "--dataset1", data, "--out", work) == 2
        assert records(work) == []

    def test_edit_through_a_symlinked_adl_moves_the_digest(self, tmp_path, monkeypatch):
        data, work = tmp_path / "data", tmp_path / "work"
        assert run_cli("synth", "--out", data, "--adl", "12", "--falls", "10", "--seed", "7") == 0
        (data / "adl").rename(tmp_path / "adl_elsewhere")
        (data / "adl").symlink_to(tmp_path / "adl_elsewhere", target_is_directory=True)
        assert run_cli("ingest", "--dataset1", data, "--out", work, "--seed", "7") == 0
        ingested = json.loads((work / "run.json").read_text())["inputs"][str(data)]
        calls = []
        counted_parsers(monkeypatch, calls)
        argv = ("run", "--dataset1", data, "--out", work, "--seed", "7", *self.ARGV)
        assert run_cli(*argv) == 0
        assert calls == []
        path = data / "adl" / "adl_0003.csv"
        lines = path.read_text().splitlines()
        lines[7] = "0.25,0.5,0.75"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(*argv) == 0
        assert json.loads((work / "run.json").read_text())["inputs"][str(data)] != ingested
        assert calls == ["parse_dataset1"]


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

    def test_renders_the_same_summary_without_the_roc_files(self, pipeline, tmp_path):
        # the reports hold no curve, and report reads none
        data, work = pipeline
        assert self.run_oc_knn(data, work, "--feature", "all", "--window", "51") == 0
        saved = {name: (work / name).read_bytes() for name in ("summary.csv", "summary.json")}
        rocs = sorted(work.glob("roc_*.csv"))
        assert len(rocs) == 4
        for f in rocs:
            f.rename(tmp_path / f.name)
        # summary.json lists the cells, so report reads it and writes it again
        (work / "summary.csv").unlink()
        assert run_cli("report", "--out", work) == 0
        assert {name: (work / name).read_bytes() for name in saved} == saved
        assert not list(work.glob("roc_*.csv"))
        assert all("averaged_curve" not in json.loads(f.read_text())
                   for f in work.glob("report_*.json"))

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

    def test_a_run_that_dies_after_its_reports_leaves_no_summary(self, pipeline, tmp_path,
                                                                  monkeypatch, capsys):
        # run A completes; run B, another k on the same cells, dies after
        # its reports and before its summary: report must not render A's
        # cells with B's numbers
        data, work = pipeline
        cells = ("--feature", "MAGNITUDE", "--window", "51", "--classifier", "OC_KNN,TC_KNN")
        configs = {}
        for k in (5, 1):
            configs[k] = tmp_path / f"k{k}.json"
            configs[k].write_text(json.dumps({"k_grid": [k]}))
        assert run_cli("run", "--dataset1", data, "--out", work, *cells, "--config", configs[5]) == 0

        class Killed(BaseException):
            pass

        def killed(*args):
            raise Killed

        monkeypatch.setattr(cli, "_write_run_json", killed)
        with pytest.raises(Killed):
            run_cli("run", "--dataset1", data, "--out", work, *cells, "--config", configs[1])
        reports = [json.loads(f.read_text()) for f in work.glob("report_*.json")]
        assert len(reports) == 2 and all(r["config"]["k_grid"] == [1] for r in reports)
        assert not (work / "summary.json").exists() and not (work / "summary.csv").exists()
        capsys.readouterr()
        assert run_cli("report", "--out", work) == 2
        assert "summary.json is missing; run first" in capsys.readouterr().err

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
            (lambda doc: json.dumps({k: v for k, v in doc.items() if k != "fold_params"}),
             ": missing key 'fold_params'"),
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
        ],
        ids=["not JSON", "missing key", "no config", "a list config", "a list", "a bad value",
             "another variant", "another collection", "another feature", "another window",
             "a float window",
             "a bool window", "a string seed", "a float seed", "a string AUC", "an int rate",
             "a null threshold", "an int fold AUC", "a fold AUC"],
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

    def test_default_settings_are_the_library_defaults(self):
        # so a report records one config for one set of settings, run by
        # the command or by run_experiment
        config = cli.load_config(cli.build_parser().parse_args(["run"]))
        assert cli.grid_config(config) == evaluation.GridConfig()

    @pytest.mark.parametrize("seed", [2 ** 60 + 1, 2 ** 63 - 1])
    def test_large_seed_is_kept_exactly(self, tmp_path, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        out = tmp_path / "out"
        assert run_cli("synth", "--config", cfg, "--out", out, "--adl", "2", "--falls", "1") == 0
        assert json.loads((out / "run.json").read_text())["config"]["seed"] == seed

    def test_a_stored_run_json_replays(self, pipeline, tmp_path):
        # run.json records every setting as it was checked, an int in a
        # number grid as a float and a null svm_max_iter as null; run with
        # it as the config into a fresh ingest, it writes the same files
        data, work = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "features": "MAGNITUDE,LTP", "windows": [51], "classifiers": "OC_KNN,OC_SVM,TC_SVM",
            "k_grid": [3, 1], "c_grid": [1, 10], "gamma_grid": ["auto", 1], "nu_grid": [1, 0.5],
            "inner_folds": 3, "svm_tol": 0.01, "svm_max_iter": None,
            "ltp_neighbours": 4, "ltp_step": 0.5,
        }))
        assert run_cli("run", "--dataset1", data, "--out", work, "--config", cfg) == 0
        stored = json.loads((work / "run.json").read_text())["config"]
        assert (stored["c_grid"], stored["svm_max_iter"]) == ([1.0, 10.0], None)
        assert type(stored["c_grid"][0]) is float
        fresh = tmp_path / "fresh"
        assert run_cli("ingest", "--dataset1", data, "--out", fresh, "--seed", "7") == 0
        assert run_cli("run", "--config", work / "run.json", "--out", fresh) == 0
        assert json.loads((fresh / "run.json").read_text())["config"] == {
            **stored, "out": str(fresh)}
        written = without_run_json(file_bytes(work))
        assert len(written) == 3 + 2 * 6 + 2  # the ingest's, 6 cells' and the summary
        assert without_run_json(file_bytes(fresh)) == written

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

    @pytest.mark.parametrize("key, flags", [
        ("features", ("--window", "51", "--classifier", "OC_KNN")),
        ("windows", ("--feature", "MAGNITUDE", "--classifier", "OC_KNN")),
        ("classifiers", ("--feature", "MAGNITUDE", "--window", "51")),
    ])
    def test_null_choice_list_means_its_default(self, pipeline, tmp_path, key, flags):
        data, work = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        assert run_cli("run", "--dataset1", data, "--out", work, "--config", cfg, *flags) == 0
        rows = json.loads((work / "summary.json").read_text())
        what = key[:-1]
        assert [r[what] for r in rows] == list(cli._CELL_CHOICES[what])

    def test_null_out_means_its_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": None}))
        assert run_cli("synth", "--config", cfg, "--adl", "2", "--falls", "1") == 0
        assert json.loads((tmp_path / "out" / "run.json").read_text())["config"]["out"] == "out"

    @pytest.mark.parametrize("doc, message", [
        ({"out": 5}, "out must be a path string, got 5"),
        ({"dataset1": 7}, "dataset1 must be a path string, got 7"),
        ({"dataset2": 7}, "dataset2 must be a path string, got 7"),
        ({"dataset2": ["d2"]}, "dataset2 must be a path string, got ['d2']"),
        ({"windows": 51.0}, "unknown window '51.0'; choose from 51, 128 or all"),
    ])
    def test_ill_typed_config_value_is_named(self, pipeline, tmp_path, monkeypatch, capsys,
                                             doc, message):
        data, work = pipeline
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset1": str(data), "out": str(work), **doc}))
        before = file_bytes(work)
        assert run_cli("ingest", "--config", cfg) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert file_bytes(work) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "data", "work"]

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


# Settings out of range, and the whole line each prints to stderr
REFUSED_SETTINGS = [
    ("inner_folds", 1, "error: inner_folds must be an integer >= 2, got 1"),
    ("inner_folds", 0, "error: inner_folds must be an integer >= 2, got 0"),
    ("inner_folds", 2.5, "error: inner_folds must be an integer >= 2, got 2.5"),
    ("k_grid", [0, 3],
     "error: k_grid must be a non-empty list, each entry an integer >= 1, got [0, 3]"),
    ("k_grid", [2.5],
     "error: k_grid must be a non-empty list, each entry an integer >= 1, got [2.5]"),
    ("k_grid", [], "error: k_grid must be a non-empty list, each entry an integer >= 1, got []"),
    ("c_grid", [-1, 1],
     "error: c_grid must be a non-empty list, each entry a number > 0, got [-1, 1]"),
    ("c_grid", ["nan"],
     "error: c_grid must be a non-empty list, each entry a number > 0, got ['nan']"),
    ("nu_grid", [0.1, 1.5],
     "error: nu_grid must be a non-empty list, each entry a number in (0, 1], got [0.1, 1.5]"),
    ("nu_grid", [0],
     "error: nu_grid must be a non-empty list, each entry a number in (0, 1], got [0]"),
    ("gamma_grid", ["fast"],
     'error: gamma_grid must be a non-empty list, each entry "auto" or a number > 0, '
     "got ['fast']"),
    ("gamma_grid", [0],
     'error: gamma_grid must be a non-empty list, each entry "auto" or a number > 0, got [0]'),
    ("svm_tol", -1, "error: svm_tol must be a number > 0, got -1"),
    ("svm_tol", 0, "error: svm_tol must be a number > 0, got 0"),
    ("svm_tol", "nan", "error: svm_tol must be a number > 0, got 'nan'"),
    ("svm_max_iter", 0, "error: svm_max_iter must be an integer >= 1, got 0"),
    ("svm_max_iter", 2.5, "error: svm_max_iter must be an integer >= 1, got 2.5"),
    ("ltp_step", 0, "error: ltp_step must be a number > 0, got 0"),
    ("ltp_step", "inf", "error: ltp_step must be a number > 0, got 'inf'"),
    ("ltp_neighbours", 0, "error: ltp_neighbours must be an integer >= 1, got 0"),
    ("ltp_neighbours", 1.5, "error: ltp_neighbours must be an integer >= 1, got 1.5"),
    ("seed", -4, "error: seed must be an integer >= 0, got -4"),
    ("seed", 1.9, "error: seed must be an integer >= 0, got 1.9"),
    ("jobs", 0, "error: jobs must be an integer >= 1, got 0"),
    ("jobs", "two", "error: jobs must be an integer >= 1, got 'two'"),
    # a bool is not a number, though Python counts True as 1
    ("jobs", True, "error: jobs must be an integer >= 1, got True"),
    ("seed", True, "error: seed must be an integer >= 0, got True"),
    ("svm_tol", True, "error: svm_tol must be a number > 0, got True"),
    ("svm_max_iter", True, "error: svm_max_iter must be an integer >= 1, got True"),
    ("ltp_neighbours", True, "error: ltp_neighbours must be an integer >= 1, got True"),
    ("ltp_step", True, "error: ltp_step must be a number > 0, got True"),
    ("k_grid", [True, 2],
     "error: k_grid must be a non-empty list, each entry an integer >= 1, got [True, 2]"),
    ("c_grid", [True],
     "error: c_grid must be a non-empty list, each entry a number > 0, got [True]"),
    ("nu_grid", [True],
     "error: nu_grid must be a non-empty list, each entry a number in (0, 1], got [True]"),
    ("gamma_grid", [True],
     'error: gamma_grid must be a non-empty list, each entry "auto" or a number > 0, got [True]'),
    ("adl", -3, "error: adl must be an integer >= 0, got -3"),
    ("falls", 2.7, "error: falls must be an integer >= 0, got 2.7"),
    ("adl", "many", "error: adl must be an integer >= 0, got 'many'"),
]
# the cases of the settings that are fields of GridConfig and LtpParams
TYPE_SETTINGS = [case for case in REFUSED_SETTINGS
                 if case[0] not in ("seed", "jobs", "adl", "falls")]


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

    @pytest.mark.parametrize("pick", ["all,bogus", "bogus,all", "RAW all bogus"])
    def test_unknown_name_beside_all_is_named(self, pipeline, capsys, pick):
        data, work = pipeline
        before = file_bytes(work)
        assert self.run_one_cell(data, work, "--feature", pick) == 2
        assert "unknown feature 'bogus'" in capsys.readouterr().err
        assert file_bytes(work) == before

    def test_empty_selection_rejected(self, pipeline, capsys):
        data, work = pipeline
        code = run_cli(
            "run", "--dataset1", data, "--out", work, "--seed", "7", "--feature", ",",
        )
        assert code == 2
        assert "no feature selected" in capsys.readouterr().err
        assert not (work / "summary.csv").exists()

    @pytest.mark.parametrize("key, value, line", REFUSED_SETTINGS,
                             ids=[f"{key}-{value}" for key, value, _ in REFUSED_SETTINGS])
    def test_out_of_range_grid_setting_names_the_key(self, pipeline, tmp_path, capsys, key, value,
                                                     line):
        data, work = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert self.run_one_cell(data, work, "--config", cfg) == 2
        assert capsys.readouterr().err == line + "\n"
        assert not (work / "summary.csv").exists()

    @pytest.mark.parametrize("key, value, line", TYPE_SETTINGS,
                             ids=[f"{key}-{value}" for key, value, _ in TYPE_SETTINGS])
    def test_the_config_types_refuse_what_the_cli_refuses(self, key, value, line):
        # in the same words, naming the field
        field = {"ltp_neighbours": "num_neighbours", "ltp_step": "step"}.get(key, key)
        build = LtpParams if key.startswith("ltp_") else evaluation.GridConfig
        with pytest.raises(ValueError) as refused:
            build(**{field: value})
        assert f"error: {refused.value}" == line.replace(key, field, 1)

    @pytest.mark.parametrize("command, key, value, words", [
        ("synth", "seed", 10 ** 400, "an integer >= 0"),
        ("synth", "seed", 2 ** 63, "an integer >= 0"),
        ("synth", "adl", 10 ** 400, "an integer >= 0"),
        ("run", "k_grid", [10 ** 400], "a non-empty list, each entry an integer >= 1"),
        ("run", "c_grid", [10 ** 400], "a non-empty list, each entry a number > 0"),
        ("run", "svm_tol", 10 ** 400, "a number > 0"),
    ], ids=["seed 10**400", "seed 2**63", "adl 10**400", "k 10**400", "C 10**400", "tol 10**400"])
    def test_huge_integer_setting_exits_2_naming_the_key(self, pipeline, tmp_path, capsys,
                                                         command, key, value, words):
        # an integer is compared exactly, never through a float it overflows
        data, work = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        if command == "synth":
            code = run_cli("synth", "--config", cfg, "--out", tmp_path / "d")
        else:
            code = self.run_one_cell(data, work, "--config", cfg)
        assert code == 2
        assert capsys.readouterr().err == f"error: {key} must be {words}, got {value!r}\n"
        assert not (tmp_path / "d").exists() and not (work / "summary.csv").exists()

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
        assert report["config"]["ltp_params"] == {"num_neighbours": 4, "step": 0.5}
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
                "summary.json", "run.json", "manifest.json", "parsed_dataset1.json"} <= names
        assert run_cli("report", "--out", work) == 0
        for path in written:
            assert is_canonical_json(path), path

    def test_run_and_report_print_the_same_lines(self, pipeline, monkeypatch, capsys):
        data, work = pipeline
        real = cli.run_experiment

        def tc_knn_fails(collection, feature, window, classifier, cfg, **kwargs):
            if classifier == "TC_KNN":
                raise InsufficientData("too few, sorry")
            return real(collection, feature, window, classifier, cfg, **kwargs)

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
