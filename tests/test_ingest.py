import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noseda import ingest, write_dataset_csv
from noseda.ingest import (
    DEFAULT_DROP,
    STD_FLOOR,
    SequenceDataset,
    StandardizationStats,
    WindowSample,
    WindowSet,
    apply_standardizer,
    as_window_set,
    fit_standardizer,
    harmonize,
    load_csv,
    load_dataset,
    make_windows,
    sample_few_shot,
)

from conftest import dataset_from_arrays, windows_from_arrays


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestLoadCsv:
    def test_minimal_file(self, tmp_path):
        p = tmp_path / "tiny.csv"
        write_csv(p, ["MQ2", "MQ3", "label"], [[1.0, 2.0, 1], [1.5, 2.5, 2], [2.0, 3.0, 4]])
        ds = load_csv(p)
        assert len(ds) == 3
        assert ds.feature_names == ("MQ2", "MQ3")
        assert ds.feature_matrix[0].tolist() == [1.0, 2.0]
        assert ds.labels.tolist() == [1, 2, 4]
        assert ds.name == "tiny"

    def test_dataset2_sized_file(self, tmp_path):
        # dataset 2 is a single 4453-minute recording
        p = tmp_path / "d2.csv"
        rows = [[float(i), (i % 4) + 1] for i in range(4453)]
        write_csv(p, ["MQ2", "label"], rows)
        assert len(load_csv(p)) == 4453

    def test_label_only_file_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_csv(p, ["label"], [[1], [2], [3], [4], [1], [2]])
        with pytest.raises(ValueError, match=r"labels\.csv: no feature column besides 'label'"):
            load_csv(p)

    def test_bad_label_cites_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = [[float(i), 1] for i in range(10)]
        rows[6][1] = 5  # data row 7, 1-based
        write_csv(p, ["MQ2", "label"], rows)
        with pytest.raises(ValueError, match="row 7"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_non_numeric_feature(self, tmp_path):
        p = tmp_path / "nan.csv"
        write_csv(p, ["MQ2", "label"], [[1.0, 1], ["oops", 2]])
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(p)

    def test_infinite_label_cites_row(self, tmp_path):
        p = tmp_path / "inf_label.csv"
        write_csv(p, ["MQ2", "label"], [[1.0, 1], [2.0, "inf"]])
        with pytest.raises(ValueError, match="row 2: non-integer label 'inf'"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature_cites_file_row_column(self, tmp_path, cell):
        p = tmp_path / "non_finite.csv"
        write_csv(p, ["MQ2", "MQ3", "label"], [[1.0, 2.0, 1], [1.5, 2.5, 2], [2.0, cell, 3]])
        with pytest.raises(ValueError, match="row 3: non-finite value") as err:
            load_csv(p)
        assert str(p) in str(err.value)
        assert "'MQ3'" in str(err.value)

    def test_rows_and_t_count_blank_lines(self, tmp_path):
        p = tmp_path / "blanks.csv"
        p.write_text("MQ2,label\n1.0,1\n\n2.0,2\n,\n3.0,3\n")
        ds = load_csv(p)
        assert ds.t.tolist() == [0, 2, 4]
        p.write_text("MQ2,label\n1.0,1\n\n2.0,9\n")
        with pytest.raises(ValueError, match="row 3: label 9 outside"):
            load_csv(p)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "nolabel.csv"
        write_csv(p, ["MQ2", "MQ3"], [[1.0, 2.0]])
        with pytest.raises(ValueError, match="label"):
            load_csv(p)

    def test_repeated_label_column_rejected(self, tmp_path):
        p = tmp_path / "twolabels.csv"
        write_csv(p, ["s1", "label", "label"], [[0.5, 1, 2], [1.5, 2, 3]])
        with pytest.raises(ValueError, match=re.escape("twolabels.csv: repeated column name(s) ['label']")):
            load_csv(p)

    def test_repeated_feature_column_rejected(self, tmp_path):
        p = tmp_path / "twofeatures.csv"
        write_csv(p, ["s1", "s1", "label"], [[0.5, 0.7, 1], [1.5, 1.7, 2]])
        with pytest.raises(ValueError, match=re.escape("twofeatures.csv: repeated column name(s) ['s1']")):
            load_csv(p)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_text("\ufefflabel,MQ2\n1,0.5\n2,1.5\n", encoding="utf-8")
        ds = load_csv(p)
        assert ds.feature_names == ("MQ2",) and ds.labels.tolist() == [1, 2]
        p.write_text("\ufeffhumidity,MQ2,label\n40,0.5,1\n41,1.5,2\n", encoding="utf-8")
        assert harmonize(load_csv(p)).feature_names == ("MQ2",)

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"MQ2,lab\xffel\n1,1\n", "header"),
            (b"\xef\xbb\xbfMQ2,label\n0.5,1\n\n1.\xff5,2\n", "row 3"),
            (b'MQ2,label\n"0.5\n",1\n1.\xff5,2\n', "row 2"),  # a quoted line break starts no row
            (b"MQ2,label\r\n" + b"0.5,1\r\n" * 5000 + b"1.5,\xff\r\n", "row 5001"),
        ],
        ids=["header", "row after a BOM and a blank line", "row after a quoted line break", "row 5001"],
    )
    def test_byte_not_utf8_names_the_file_and_row(self, tmp_path, data, where):
        p = tmp_path / "latin1.csv"
        p.write_bytes(data)
        with pytest.raises(ValueError, match="^" + re.escape(f"{p}: {where}: byte 0xff is not UTF-8 (invalid start byte)")):
            load_csv(p)

    def test_directory_loads_lexicographically(self, tmp_path):
        for name in ("b.csv", "a.csv"):
            write_csv(tmp_path / name, ["x", "label"], [[0.0, 1], [1.0, 2]])
        datasets = load_dataset(tmp_path)
        assert [ds.name for ds in datasets] == ["a", "b"]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)


    @pytest.mark.filterwarnings("error")  # np.loadtxt warns on input with no data
    def test_clean_rows_parse_in_bulk(self, tmp_path, monkeypatch):
        bulk = []
        real = ingest._parse_text
        monkeypatch.setattr(ingest, "_parse_text", lambda *args: bulk.append(real(*args)) or bulk[-1])
        p = tmp_path / "clean.csv"
        p.write_text("MQ2, MQ3 ,label\r\n-1.5e-3, +2 ,1\r\n 4.9e-324,1E300, 4\r\n", newline="")
        ds = load_csv(p)
        assert bulk[-1] is not None
        assert ds.feature_matrix.tolist() == [[-1.5e-3, 2.0], [5e-324, 1e300]]
        assert ds.labels.tolist() == [1, 4] and ds.t.tolist() == [0, 1]
        for text in ("x,label\n1_0,1\n", "x,label\n1,1\n\n2,2\n", "x,label\n1,1\r2,2\n", 'x,label\n"1",1\n'):
            p.write_text(text, newline="")
            load_csv(p)
            assert bulk[-1] is None
        # a form feed breaks a line for str.splitlines, never for CSV
        p.write_text("x,label\n1,1\x0c2,2\n3,3\n", newline="")
        with pytest.raises(ValueError, match="row 1 has 3 cells, expected 2"):
            load_csv(p)
        for text in ("x,label\r\n\r\n", "x,label\n \n\n"):
            p.write_text(text, newline="")
            with pytest.raises(ValueError, match="no data rows"):
                load_csv(p)

    @pytest.mark.parametrize("end", ["\n\n", "\r\n\r\n", "\n  \n", "\n\t\n\n"])
    def test_trailing_blank_lines_parse_in_bulk(self, tmp_path, monkeypatch, end):
        def walk(*args):
            raise AssertionError("took the row walk")

        monkeypatch.setattr(ingest, "_parse_walk", walk)
        p = tmp_path / "trailing.csv"
        newline = "\r\n" if "\r" in end else "\n"
        p.write_text(newline.join(["MQ2,label", "0.5,1", "1.5,2"]) + end, newline="")
        ds = load_csv(p)
        assert ds.feature_matrix.tolist() == [[0.5], [1.5]]
        assert ds.labels.tolist() == [1, 2] and ds.t.tolist() == [0, 1]

    @pytest.mark.filterwarnings("error")  # np.loadtxt warns on input with no data
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bulk_parse_equals_the_row_walk(self, data):
        """Whatever the cells and line breaks, ``load_csv`` gives what the row
        walk alone gives: the same bits, or the same error."""
        cell = st.one_of(
            FINITE.map(repr),
            st.sampled_from(["1_0", "\u0661\u0662", "\u0663.5", "nan", "-nan", "1e500", "-1e500", "inf"]),
            st.sampled_from([" 1.5 ", "\t-2", "+3", "-0", "1e-320", "2.5e-324", "1E5", ".5", "5.", "0x10"]),
            st.sampled_from(["", " ", "1 2", "\u30001.5", "1.5\x0c", '"1.5"', "x"]),
        )
        label = st.sampled_from(["1", "2", "3", "4", " 2 ", "2.0", "+3", "4e0", "0", "5", "1.5", "nan", "\u0661"])
        n_features = data.draw(st.integers(1, 3), label="features")
        label_at = data.draw(st.integers(0, n_features), label="label column")
        lines = []
        for _ in range(data.draw(st.integers(0, 6), label="rows")):
            # half the rows clean, so that files often parse in bulk
            clean = data.draw(st.booleans(), label="clean row")
            row = [data.draw(FINITE.map(repr) if clean else cell) for _ in range(n_features)]
            row.insert(label_at, data.draw(st.sampled_from("1234") if clean else label))
            lines.append(",".join(row))
        if len(lines) > 1 and data.draw(st.booleans(), label="glue two rows"):
            # one line that str.splitlines, but not CSV, reads as two rows
            glue = data.draw(st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]))
            lines[:2] = [glue.join(lines[:2])]
        for _ in range(data.draw(st.integers(0, 2), label="blank lines")):
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["", "", "  ", ",", "\u3000"])))
        header = [f"s{j}" for j in range(n_features)]
        header.insert(label_at, "label")
        newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line break")
        end = data.draw(st.sampled_from(["", newline, "\n\n", "\r\n\r\n", "\n  \n"]), label="file end")
        text = newline.join([",".join(header), *lines]) + end

        def outcome():
            try:
                ds = load_csv(path)
            except ValueError as err:
                return str(err)
            return ds.feature_matrix.tobytes(), ds.labels.tolist(), ds.t.tolist(), ds.feature_names

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cells.csv"
            path.write_text(text, encoding="utf-8", newline="")
            got = outcome()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_parse_text", lambda *args: None)
                assert got == outcome()


class TestHarmonize:
    def test_dataset2_layout_keeps_nine_channels(self):
        cols = ["MQ135", "MQ136", "MQ2", "MQ3", "MQ4", "MQ5", "MQ6", "MQ7", "MQ8", "MQ9",
                "humidity", "temperature"]
        ds = dataset_from_arrays(np.zeros((3, 12)), [1, 2, 3], feature_names=cols)
        out = harmonize(ds)
        assert len(out.feature_names) == 9
        assert "MQ7" not in out.feature_names
        assert "humidity" not in out.feature_names

    def test_dataset3_layout_keeps_nine_channels(self):
        cols = ["MQ135", "MQ136", "MQ137", "MQ138", "MQ2", "MQ3", "MQ4", "MQ5", "MQ6", "MQ8", "MQ9"]
        ds = dataset_from_arrays(np.zeros((2, 11)), [1, 4], feature_names=cols)
        out = harmonize(ds)
        assert len(out.feature_names) == 9
        assert {"MQ137", "MQ138"}.isdisjoint(out.feature_names)

    def test_empty_drop_is_identity(self):
        ds = dataset_from_arrays([[1.0, 2.0]], [1])
        assert harmonize(ds, drop=()) is ds

    def test_idempotent(self):
        cols = ["MQ2", "MQ7", "humidity"]
        ds = dataset_from_arrays(np.arange(6.0).reshape(2, 3), [1, 2], feature_names=cols)
        once = harmonize(ds)
        twice = harmonize(once)
        assert once.feature_names == twice.feature_names
        assert np.array_equal(once.feature_matrix, twice.feature_matrix)

    def test_case_insensitive_and_absent_skipped(self):
        ds = dataset_from_arrays([[1.0, 2.0]], [1], feature_names=["Humidity", "MQ2"])
        out = harmonize(ds, drop=("humidity", "MQ999"))
        assert out.feature_names == ("MQ2",)

    def test_dropping_every_column_rejected(self, tmp_path):
        p = tmp_path / "climate.csv"
        write_csv(p, ["humidity", "temperature", "label"], [[40.0, 20.0, 1], [41.0, 21.0, 2]])
        with pytest.raises(ValueError, match=r"climate: dropping columns \['humidity', 'temperature'\] leaves no"):
            harmonize(load_csv(p))

    def test_values_follow_columns(self):
        ds = dataset_from_arrays([[1.0, 2.0, 3.0]], [1], feature_names=["a", "MQ7", "b"])
        out = harmonize(ds)
        assert out.feature_matrix[0].tolist() == [1.0, 3.0]


class TestStandardizer:
    def test_hand_computed_mean_and_std(self):
        # population convention: std of {0, 2} is 1
        ds = dataset_from_arrays([[0.0], [2.0]], [1, 2])
        stats = fit_standardizer([ds])
        assert stats.mean[0] == pytest.approx(1.0)
        assert stats.std[0] == pytest.approx(1.0)

    def test_constant_feature_floored(self):
        ds = dataset_from_arrays([[7.0, 1.0], [7.0, 3.0]], [1, 2])
        stats = fit_standardizer([ds])
        assert stats.mean[0] == 7.0
        assert stats.std[0] == 1e-8

    def test_identical_frames_floor_everywhere(self):
        ds = dataset_from_arrays([[1.0, 2.0], [1.0, 2.0]], [1, 1])
        stats = fit_standardizer([ds])
        assert np.all(stats.std == 1e-8)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            fit_standardizer([])

    def test_self_standardization(self, rng):
        ds = dataset_from_arrays(rng.normal(3.0, 2.0, size=(200, 4)), rng.integers(1, 5, 200))
        out = apply_standardizer(ds, fit_standardizer([ds]))
        Z = out.feature_matrix
        assert np.abs(Z.mean(axis=0)).max() < 1e-9
        assert np.abs(Z.std(axis=0) - 1.0).max() < 1e-6

    def test_identity_stats(self):
        ds = dataset_from_arrays([[1.0, -2.0], [0.5, 3.0]], [1, 2])
        out = apply_standardizer(ds, StandardizationStats.identity(2))
        assert np.array_equal(out.feature_matrix, ds.feature_matrix)

    def test_frame_at_source_mean_maps_to_zero(self, rng):
        X = rng.normal(5.0, 1.5, size=(50, 3))
        ds = dataset_from_arrays(X, rng.integers(1, 5, 50))
        stats = fit_standardizer([ds])
        target = dataset_from_arrays([stats.mean], [4])
        out = apply_standardizer(target, stats)
        assert np.abs(out.feature_matrix[0]).max() < 1e-12

    @pytest.mark.parametrize(
        "mean, std",
        [
            ([0.0, np.nan], [1.0, 1.0]),
            ([0.0, np.inf], [1.0, 1.0]),
            ([0.0, 0.0], [1.0, np.nan]),
            ([0.0, 0.0], [1.0, np.inf]),
            ([0.0, 0.0], [1.0, 0.0]),
            ([0.0, 0.0], [1.0, -1.0]),
        ],
    )
    def test_stats_must_be_finite_with_positive_std(self, mean, std):
        with pytest.raises(ValueError, match="standardization"):
            StandardizationStats(mean=np.asarray(mean), std=np.asarray(std))

    def test_dimension_mismatch(self):
        ds = dataset_from_arrays([[1.0, 2.0]], [1])
        with pytest.raises(ValueError):
            apply_standardizer(ds, StandardizationStats.identity(3))

    def test_lists_build_the_array_stats(self):
        from_lists = StandardizationStats(mean=[0, 1], std=[1.0, 2])
        from_arrays = StandardizationStats(mean=np.array([0.0, 1.0]), std=np.array([1.0, 2.0]))
        for a, b in ((from_lists.mean, from_arrays.mean), (from_lists.std, from_arrays.std)):
            assert a.dtype == np.float64 and np.array_equal(a, b)

    def test_float64_arrays_pass_through(self):
        mean, std = np.zeros(3), np.ones(3)
        stats = StandardizationStats(mean=mean, std=std)
        assert stats.mean is mean and stats.std is std

    def test_non_numeric_stats_rejected(self):
        with pytest.raises(ValueError):
            StandardizationStats(mean=["zero", "one"], std=[1.0, 1.0])


class TestMakeWindows:
    def test_two_frames_one_window(self):
        ds = dataset_from_arrays([[0.0], [1.0]], [1, 2])
        ws = make_windows(ds)
        assert len(ws) == 1
        assert ws[0].x.tolist() == [[0.0], [1.0]]
        assert ws[0].y == 2

    def test_dataset1_length(self):
        # each dataset-1 file is 2160 minutes -> 2159 windows
        n = 2160
        ds = dataset_from_arrays(np.zeros((n, 1)), np.ones(n, dtype=int))
        assert len(make_windows(ds)) == n - 1

    def test_label_of_last_timestep(self):
        ds = dataset_from_arrays([[0.0], [1.0], [2.0]], [1, 1, 4])
        assert [w.y for w in make_windows(ds)] == [1, 4]

    def test_origin_t(self):
        ds = dataset_from_arrays([[0.0], [1.0], [2.0]], [1, 2, 3])
        assert [w.origin_t for w in make_windows(ds)] == [1, 2]

    def test_too_short(self):
        ds = dataset_from_arrays([[0.0]], [1])
        with pytest.raises(ValueError):
            make_windows(ds)

    def test_window_label_matches_frame_at_origin(self, rng):
        labels = rng.integers(1, 5, 60)
        ds = dataset_from_arrays(rng.normal(size=(60, 2)), labels)
        for w in make_windows(ds):
            assert w.y == labels[w.origin_t]


class TestFewShot:
    def test_counts(self, rng):
        ws = windows_from_arrays(rng.normal(size=(400, 2, 2)), np.repeat([1, 2, 3, 4], 100))
        split = sample_few_shot(ws, per_class=4, seed=0)
        assert len(split.shots) == 16
        assert len(split.test_pool) == 384
        assert split.n_classes == 4

    def test_short_class_takes_all(self, rng, caplog):
        labels = np.array([1] * 50 + [2] * 2)
        ws = windows_from_arrays(rng.normal(size=(52, 2, 2)), labels)
        with caplog.at_level("WARNING"):
            split = sample_few_shot(ws, per_class=4, seed=0)
        assert sum(1 for w in split.shots if w.y == 2) == 2
        assert any("class 2" in r.message for r in caplog.records)

    def test_deterministic(self, rng):
        ws = windows_from_arrays(rng.normal(size=(100, 2, 3)), rng.integers(1, 5, 100))
        a = sample_few_shot(ws, seed=7)
        b = sample_few_shot(ws, seed=7)
        assert a.shot_indices == b.shot_indices
        assert a.test_indices == b.test_indices

    def test_disjoint_union(self, rng):
        ws = windows_from_arrays(rng.normal(size=(80, 2, 2)), rng.integers(1, 5, 80))
        split = sample_few_shot(ws, seed=3)
        assert set(split.shot_indices).isdisjoint(split.test_indices)
        assert sorted(split.shot_indices + split.test_indices) == list(range(80))

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            sample_few_shot([], seed=0)

    def test_shots_and_pool_are_window_sets_of_the_indexed_windows(self, rng):
        ws = windows_from_arrays(rng.normal(size=(30, 2, 2)), rng.integers(1, 5, 30))
        split = sample_few_shot(ws, seed=2)
        assert isinstance(split.shots, WindowSet) and isinstance(split.test_pool, WindowSet)
        for part, indices in ((split.shots, split.shot_indices), (split.test_pool, split.test_indices)):
            assert np.array_equal(part.X, np.stack([ws[i].x for i in indices]))
            assert part.y.tolist() == [ws[i].y for i in indices]
            assert part.origin_t.tolist() == [ws[i].origin_t for i in indices]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=40), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_split_partitions_the_windows(self, labels, per_class, seed):
        ws = windows_from_arrays(np.arange(4.0 * len(labels)).reshape(-1, 2, 2), labels)
        split = sample_few_shot(ws, per_class=per_class, seed=seed)
        shots, tests = split.shot_indices, split.test_indices
        assert set(shots).isdisjoint(tests)
        assert sorted(shots + tests) == list(range(len(labels)))
        for c in set(labels):
            # per_class shots per class, or all of a class that has fewer
            assert [labels[i] for i in shots].count(c) == min(per_class, labels.count(c))
        assert split.n_classes == len(set(labels))
        same = sample_few_shot(as_window_set(ws), per_class=per_class, seed=seed)
        assert (same.shot_indices, same.test_indices) == (shots, tests)


class TestSequenceDatasetBoundary:
    @staticmethod
    def make(**overrides):
        kwargs = dict(
            name="ds", feature_matrix=np.zeros((3, 2)), labels=np.array([1, 2, 3]), t=np.arange(3),
            feature_names=("a", "b"),
        )
        kwargs.update(overrides)
        return SequenceDataset(**kwargs)

    def test_valid_columns(self):
        ds = self.make(labels=[1, 2, 3], t=[0, 5, 6])
        assert len(ds) == 3
        assert ds.labels.dtype == np.int64 and ds.t.dtype == np.int64 and ds.feature_matrix.dtype == np.float64

    def test_wrong_width(self):
        with pytest.raises(ValueError, match=r"ds: feature matrix of shape \(3, 3\), expected 2 columns"):
            self.make(feature_matrix=np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [0, 5, 2.5])
    def test_label_outside_1_to_4(self, bad):
        with pytest.raises(ValueError, match=f"ds: frame 1 label {bad} not in"):
            self.make(labels=np.array([1, bad, 3]))

    @pytest.mark.parametrize("t", [[0, 2, 2], [0, 2, 1]])
    def test_t_not_increasing(self, t):
        with pytest.raises(ValueError, match="ds: frames not ordered by t at index 2"):
            self.make(t=np.array(t))

    @pytest.mark.parametrize(
        "overrides, counts",
        [
            ({"labels": np.array([1, 2])}, "3 feature rows, 2 labels, 3 times"),
            ({"t": np.arange(4)}, "3 feature rows, 3 labels, 4 times"),
            ({"feature_matrix": np.zeros((2, 2))}, "2 feature rows, 3 labels, 3 times"),
        ],
    )
    def test_columns_of_different_length(self, overrides, counts):
        with pytest.raises(ValueError, match=f"ds: columns of different length: {counts}"):
            self.make(**overrides)

    def test_column_slice_is_stored_in_row_order(self, rng):
        F = rng.normal(size=(5, 4))[:, [0, 2]]  # a column-ordered view
        ds = self.make(feature_matrix=F, labels=np.ones(5, dtype=int), t=np.arange(5))
        assert ds.feature_matrix.flags["C_CONTIGUOUS"]
        assert np.array_equal(ds.feature_matrix, F)


class TestWindowSet:
    @staticmethod
    def windows():
        return make_windows(dataset_from_arrays(np.arange(10.0).reshape(5, 2), [1, 2, 3, 4, 1]))

    def test_integer_index_gives_a_window_sample(self):
        w = self.windows()[1]
        assert isinstance(w, WindowSample)
        assert w.x.tolist() == [[2.0, 3.0], [4.0, 5.0]]
        assert (w.y, w.origin_t) == (3, 2)
        assert type(w.y) is int and type(w.origin_t) is int

    def test_iteration_matches_the_columns(self):
        ws = self.windows()
        listed = list(ws)
        assert [w.y for w in listed] == ws.y.tolist() == [2, 3, 4, 1]
        assert [w.origin_t for w in listed] == ws.origin_t.tolist() == [1, 2, 3, 4]
        assert all(np.array_equal(w.x, x) for w, x in zip(listed, ws.X))

    @pytest.mark.parametrize(
        "index, ys", [(slice(1, 3), [3, 4]), ([3, 0], [1, 2]), (np.array([True, False, False, True]), [2, 1]), ([], [])]
    )
    def test_slices_masks_and_index_lists_give_window_sets(self, index, ys):
        part = self.windows()[index]
        assert isinstance(part, WindowSet)
        assert part.y.tolist() == ys
        assert part.X.shape == (len(ys), 2, 2) and part.flat.shape == (len(ys), 4)

    def test_flat_is_a_view(self):
        ws = self.windows()
        assert np.shares_memory(ws.flat, ws.X)
        assert ws.flat[2].tolist() == [4.0, 5.0, 6.0, 7.0]

    def test_concat_numbers_the_files(self):
        a, b = self.windows(), self.windows()[:2]
        joined = WindowSet.concat([a, b])
        assert joined.file_id.tolist() == [0, 0, 0, 0, 1, 1]
        assert np.array_equal(joined.X, np.concatenate([a.X, b.X]))
        assert joined.y.tolist() == a.y.tolist() + b.y.tolist()

    def test_as_window_set_converts_a_list_once(self, rng):
        X, y = rng.normal(size=(6, 2, 3)), rng.integers(1, 5, 6)
        ws = as_window_set(windows_from_arrays(X, y))
        assert np.array_equal(ws.X, X) and ws.y.tolist() == y.tolist()
        assert ws.origin_t.tolist() == list(range(1, 7)) and ws.file_id.tolist() == [0] * 6
        assert as_window_set(ws) is ws
        with pytest.raises(ValueError, match="no windows"):
            as_window_set([])

    def test_columns_must_agree(self):
        with pytest.raises(ValueError, match="window set columns disagree"):
            WindowSet(X=np.zeros((3, 2, 1)), y=np.ones(2, dtype=int), origin_t=np.arange(3), file_id=np.zeros(3))
        with pytest.raises(ValueError, match="window labels must be in"):
            WindowSet(X=np.zeros((1, 2, 1)), y=np.zeros(1, dtype=int), origin_t=np.arange(1), file_id=np.zeros(1))


FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def sequences(draw, max_len=25):
    """A dataset with arbitrary finite features (negatives, subnormals,
    signed zeros), labels, and strictly increasing but gappy ``t``."""
    n = draw(st.integers(2, max_len))
    d = draw(st.integers(1, 4))
    F = draw(arrays(np.float64, (n, d), elements=FINITE))
    labels = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    t = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))) - 1
    return SequenceDataset(
        name="seq", feature_matrix=F, labels=np.asarray(labels), t=t, feature_names=tuple(f"f{j}" for j in range(d))
    )


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestIngestProperties:
    @settings(max_examples=60, deadline=None)
    @given(sequences())
    def test_windows_pair_consecutive_frames(self, ds):
        ws = make_windows(ds)
        F = ds.feature_matrix
        assert len(ws) == len(ds) - 1
        for i, w in enumerate(ws):
            assert np.array_equal(bits(w.x), bits(np.stack((F[i], F[i + 1]))))
            assert w.y == ds.labels[i + 1]
            assert w.origin_t == ds.t[i + 1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 25), st.integers(1, 4), st.data())
    def test_standardization_inverts(self, n, d, data):
        """``z * std + mean`` recovers every feature to within a few roundings
        of its magnitude: four operations, each off by at most half an ulp,
        plus underflow in the subnormal range.  Constant channels, whose std
        is floored, are covered too."""
        F = data.draw(arrays(np.float64, (n, d), elements=st.floats(-1e6, 1e6, allow_subnormal=True)))
        constant = np.array(data.draw(st.lists(st.booleans(), min_size=d, max_size=d)))
        F[:, constant] = F[0, constant]
        ds = dataset_from_arrays(F, np.ones(n))
        stats = fit_standardizer([ds])
        assert np.all(stats.std[constant] == STD_FLOOR)
        recovered = apply_standardizer(ds, stats).feature_matrix * stats.std + stats.mean
        tol = 4 * np.finfo(np.float64).eps * (np.abs(F) + np.abs(stats.mean)) + 1e-300
        assert np.all(np.abs(recovered - F) <= tol)

    @settings(max_examples=40, deadline=None)
    @given(sequences())
    def test_csv_round_trip_is_bit_exact(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seq.csv"
            write_dataset_csv(ds, path)
            loaded = load_csv(path)
        assert np.array_equal(bits(loaded.feature_matrix), bits(ds.feature_matrix))
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.t.tolist() == list(range(len(ds)))
        assert loaded.feature_names == ds.feature_names

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(2, 12), min_size=1, max_size=4), st.data())
    def test_windows_never_cross_files(self, sizes, data):
        with tempfile.TemporaryDirectory() as tmp:
            for f, n in enumerate(sizes):
                # column "file" marks every row with its file's number
                other = data.draw(arrays(np.float64, n, elements=FINITE))
                rows = [[repr(float(f)), repr(float(other[i])), 1 + i % 4] for i in range(n)]
                write_csv(Path(tmp) / f"part{f}.csv", ["file", "other", "label"], rows)
            datasets = load_dataset(tmp)
        assert [len(ds) for ds in datasets] == sizes
        for f, ds in enumerate(datasets):
            ws = make_windows(ds)
            assert len(ws) == sizes[f] - 1
            assert all(w.x[0, 0] == w.x[1, 0] == f for w in ws)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8),
        st.lists(st.booleans(), min_size=8, max_size=8),
        st.sampled_from(["MQ2", "MQ3", "label"]),
        st.sampled_from(["oops", "nan", "-inf", ""]),
        st.booleans(),
    )
    def test_first_bad_cell_after_good_rows_is_reported(self, n_good, blanks, column, cell, bad_tail):
        header = ["MQ2", "MQ3", "label"]
        lines, row_no = [",".join(header)], 0
        for i in range(n_good):
            if blanks[i]:
                lines.append("")
                row_no += 1
            lines.append(f"{0.5 * i},{-1e-310 * i},{1 + i % 4}")
            row_no += 1
        bad = ["1.0", "2.0", "3"]
        bad[header.index(column)] = cell
        lines.append(",".join(bad))
        bad_row = row_no + 1
        if bad_tail:
            lines.append("x,y,z")  # a later bad row must not be the one reported
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.csv"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError) as err:
                load_csv(path)
        msg = str(err.value)
        assert str(path) in msg
        assert f"row {bad_row}:" in msg
        if column != "label":
            assert f"column {column!r}" in msg
        else:
            assert "label" in msg
