"""Synthetic dataset generator: event structure, determinism, roundtrip."""

import json

import numpy as np
import pytest

from falldetect import ingest, synth
from falldetect.ingest import Label


class TestSynthWindows:
    def test_counts_labels_and_shape(self):
        pairs = synth.synth_windows(8, 3, seed=1)
        assert len(pairs) == 11
        assert [lab for _, lab in pairs] == [Label.ADL] * 8 + [Label.FALL] * 3
        for window, _ in pairs:
            assert len(window) == 300
            assert window.peak_index is not None

    def test_fall_windows_carry_a_trigger_peak(self):
        pairs = synth.synth_windows(0, 25, seed=2)
        for window, _ in pairs:
            m = window.magnitude()
            assert m.max() > 1.5
            assert window.peak_index == int(np.argmax(m))

    def test_adl_windows_stay_below_trigger(self):
        pairs = synth.synth_windows(40, 0, seed=3)
        for window, _ in pairs:
            assert window.magnitude().max() < 1.5

    def test_adl_looks_like_wearing_a_sensor(self):
        # roughly one g of gravity plus oscillation, not centred noise
        pairs = synth.synth_windows(10, 0, seed=4)
        for window, _ in pairs:
            mean_m = float(window.magnitude().mean())
            assert 0.7 < mean_m < 1.3

    def test_deterministic_per_seed(self):
        a = synth.synth_windows(5, 2, seed=9)
        b = synth.synth_windows(5, 2, seed=9)
        c = synth.synth_windows(5, 2, seed=10)
        for (wa, _), (wb, _) in zip(a, b):
            assert np.array_equal(wa.x, wb.x)
            assert np.array_equal(wa.y, wb.y)
            assert np.array_equal(wa.z, wb.z)
        assert not np.array_equal(a[0][0].x, c[0][0].x)

    def test_window_identity_is_index_not_count(self):
        # window i is the same regardless of how many others are generated
        few = synth.synth_windows(2, 1, seed=7)
        many = synth.synth_windows(6, 4, seed=7)
        assert np.array_equal(few[0][0].x, many[0][0].x)
        assert np.array_equal(few[2][0].z, many[6][0].z)


class TestGenerateDataset:
    def test_layout_and_manifest(self, tmp_path):
        manifest = synth.generate_dataset(tmp_path, 6, 2, seed=5)
        assert len(list((tmp_path / "adl").glob("*.csv"))) == 6
        assert len(list((tmp_path / "fall").glob("*.csv"))) == 2
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
        assert on_disk["mode"] == "windowed"
        assert on_disk["synthetic"] is True
        assert on_disk["counts"] == {"ADL": 6, "FALL": 2}
        assert on_disk["seed"] == 5

    def test_a_used_directory_takes_only_the_windows_it_holds_or_more(self, tmp_path):
        def tree():
            return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        synth.generate_dataset(tmp_path, 6, 3, seed=5)
        before = tree()
        for n_adl, n_falls, stray in ((3, 3, "adl/adl_0003.csv"), (6, 2, "fall/fall_0002.csv"),
                                      (0, 0, "adl/adl_0000.csv")):
            with pytest.raises(FileExistsError, match=f"^{tmp_path / stray} is not one of"):
                synth.generate_dataset(tmp_path, n_adl, n_falls, seed=5)
            assert tree() == before
        # a CSV that ingest would read, in any case of its label directory
        (tmp_path / "FALL").mkdir()
        (tmp_path / "FALL" / "fall_0000.csv").write_bytes(b"")
        with pytest.raises(FileExistsError, match="FALL/fall_0000.csv is not one of"):
            synth.generate_dataset(tmp_path, 6, 3, seed=5)
        (tmp_path / "FALL" / "fall_0000.csv").unlink()
        # the same windows again, or more, are written
        assert synth.generate_dataset(tmp_path, 6, 3, seed=5)["counts"] == {"ADL": 6, "FALL": 3}
        assert tree() == before
        synth.generate_dataset(tmp_path, 7, 4, seed=5)
        assert len(ingest.parse_dataset1(tmp_path)) == 11

    def test_generated_bytes_are_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth.generate_dataset(a, 4, 2, seed=11)
        synth.generate_dataset(b, 4, 2, seed=11)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
        files_b = sorted(p.relative_to(b) for p in b.rglob("*.csv"))
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_parse_roundtrip_is_exact(self, tmp_path):
        synth.generate_dataset(tmp_path, 5, 3, seed=13)
        parsed = ingest.parse_dataset1(tmp_path)
        direct = synth.synth_windows(5, 3, seed=13)
        assert len(parsed) == len(direct)
        for (wp, lp), (wd, ld) in zip(parsed, direct):
            assert lp is ld
            assert np.array_equal(wp.x, wd.x)
            assert np.array_equal(wp.y, wd.y)
            assert np.array_equal(wp.z, wd.z)
            assert wp.peak_index == wd.peak_index
            assert wp.source_id == wd.source_id
