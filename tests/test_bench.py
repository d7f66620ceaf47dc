import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from noseda import bench
from noseda.bench import (
    ExperimentConfig,
    ExperimentResult,
    SyntheticDomainSpec,
    _run_method,
    _split_targets,
    accuracy,
    beef_pairs,
    emit_report,
    macro_accuracy,
    run_experiment,
    synthesize_domains,
    write_dataset_csv,
)
from noseda.gmm import gmm_assign, gmm_fit
from noseda.ingest import (
    StandardizationStats,
    WindowSet,
    as_window_set,
    flatten_windows,
    load_csv,
    make_windows,
    sample_few_shot,
)
from noseda.serialize import from_json, to_json

from conftest import window

SKEWED_PRIORS = [0.111, 0.306, 0.139, 0.444]


def simple_spec(**overrides):
    d = overrides.pop("d", 2)
    means = np.zeros((4, d))
    means[:, 0] = [0.0, 3.0, 6.0, 9.0]
    kwargs = dict(
        class_means=means,
        class_scales=[1.0] * 4,
        source_priors=[0.25] * 4,
        target_priors=[0.25] * 4,
        shift=0.0,
        source_length=200,
        target_length=200,
        seed=0,
    )
    kwargs.update(overrides)
    return SyntheticDomainSpec.create(**kwargs)


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 1], [2, 2]) == 0.0

    def test_hand_count(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 4, 4]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_permutation_invariant(self, rng):
        preds = rng.integers(1, 5, 50)
        labels = rng.integers(1, 5, 50)
        order = rng.permutation(50)
        assert accuracy(preds, labels) == accuracy(preds[order], labels[order])

    def test_macro_averages_per_class_recall(self):
        preds = [1, 1, 1, 2]
        labels = [1, 1, 2, 2]
        ## class 1 recall 1.0, class 2 recall 0.5
        assert macro_accuracy(preds, labels) == pytest.approx(0.75)


class TestPerFilePools:
    """``run_experiment`` splits the target files' windows together and hands
    each file's test windows to the methods as that file's pool."""

    @staticmethod
    def files(labels_per_file):
        return [
            as_window_set([window(np.full((2, 1), 10.0 * f + i), y, t=i + 1) for i, y in enumerate(labels)])
            for f, labels in enumerate(labels_per_file)
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_hand_counted_owners(self, seed):
        # per_class=2: file 0's four class-1 windows leave 2 test windows;
        # file 1's only window is class 2's only window, so a shot, and the
        # file's pool is empty; file 2's five class-3 windows leave 3, and
        # its two class-4 windows are both shots
        files = self.files([[1, 1, 1, 1], [2], [3, 4, 3, 3, 4, 3, 3]])
        shots, pools = _split_targets(files, per_class=2, seed=seed)
        assert sorted(shots.y.tolist()) == [1, 1, 2, 3, 3, 4, 4]
        assert [p.y.tolist() for p in pools] == [[1, 1], [], [3, 3, 3]]
        assert [p.file_id.tolist() for p in pools] == [[0, 0], [], [2, 2, 2]]
        assert pools[1].X.shape == (0, 2, 1)
        for f, pool in enumerate(pools):
            # each pool holds its own file's windows, in file order
            assert pool.origin_t.tolist() == sorted(pool.origin_t.tolist())
            assert all(np.all(w.x == 10.0 * f + w.origin_t - 1) for w in pool)
        assert sum(map(len, pools)) + len(shots) == sum(map(len, files))


class TestSynthesizeDomains:
    def test_skewed_priors_reproduced(self):
        spec = simple_spec(
            source_priors=SKEWED_PRIORS, target_priors=SKEWED_PRIORS,
            source_length=2160, target_length=2160,
        )
        source, _ = synthesize_domains(spec)
        frac = np.bincount(source.labels, minlength=5)[1:5] / len(source)
        assert np.abs(frac - SKEWED_PRIORS).max() <= 0.03

    def test_priors_converge_with_length(self):
        spec = simple_spec(
            source_priors=SKEWED_PRIORS, target_priors=SKEWED_PRIORS,
            source_length=10_000, target_length=10_000,
        )
        source, _ = synthesize_domains(spec)
        frac = np.bincount(source.labels, minlength=5)[1:5] / len(source)
        assert np.abs(frac - SKEWED_PRIORS).max() <= 0.02

    def test_null_shift_indistinguishable(self):
        spec = simple_spec(source_length=4000, target_length=4000, seed=1)
        source, target = synthesize_domains(spec)
        diff = np.abs(source.feature_matrix.mean(0) - target.feature_matrix.mean(0))
        sigma = source.feature_matrix.std(0)
        assert (diff / sigma).max() < 0.1

    def test_bit_reproducible(self):
        spec = simple_spec(seed=5)
        a_src, a_tgt = synthesize_domains(spec)
        b_src, b_tgt = synthesize_domains(spec)
        assert np.array_equal(a_src.feature_matrix, b_src.feature_matrix)
        assert np.array_equal(a_src.labels, b_src.labels)
        assert np.array_equal(a_tgt.feature_matrix, b_tgt.feature_matrix)

    def test_gmm_recovers_subgroups(self):
        # class structure kept small so the 5-sigma sub-group axis dominates
        means = np.zeros((4, 2))
        means[:, 0] = [0.0, 1.0, 2.0, 3.0]
        spec = simple_spec(
            class_means=means,
            source_length=1000, target_length=10, seed=2,
            source_subgroups=2, subgroup_separation=5.0,
        )
        source, _, src_sub, _ = synthesize_domains(spec, return_latents=True)
        windows = make_windows(source)
        flats = flatten_windows(windows)
        params = gmm_fit(flats, k=2, seed=0)
        assign = gmm_assign(params, flats)
        wsub = src_sub[1:]
        purity = max((assign == wsub).mean(), (assign != wsub).mean())
        assert purity > 0.95

    def test_invalid_simplex(self):
        with pytest.raises(ValueError):
            simple_spec(source_priors=[0.5, 0.5, 0.5, 0.5])

    def test_length_validation(self):
        with pytest.raises(ValueError):
            simple_spec(source_length=1)

    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            simple_spec(source_subgroups=2, subgroup_label_permutations=[(0, 1, 2, 3), (0, 0, 1, 2)])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"source_subgroups": 2, "subgroup_direction": [0.0, 0.0]}, "subgroup_direction must be a unit vector"),
            (
                {"target_subgroups": 3, "subgroup_label_permutations": [(0, 1, 2, 3), (3, 2, 1, 0)]},
                "subgroup_label_permutations has 2 permutation(s) for 3 subgroups",
            ),
            ({"source_subgroups": 0}, "source_subgroups must be >= 1, got 0"),
            ({"target_subgroups": -1}, "target_subgroups must be >= 1, got -1"),
        ],
    )
    def test_bad_subgroup_settings_name_the_field(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            simple_spec(**overrides)

    def test_csv_round_trip(self, tmp_path):
        spec = simple_spec(source_length=50, target_length=50)
        source, _ = synthesize_domains(spec)
        path = tmp_path / "source.csv"
        write_dataset_csv(source, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.feature_matrix, source.feature_matrix)
        assert np.array_equal(loaded.labels, source.labels)

    LIST_SPEC = dict(
        class_means=[[0, 0], [3, 0], [6, 0], [9, 0]], class_scales=[1] * 4, source_priors=[0.25] * 4,
        target_priors=[0.4, 0.3, 0.2, 0.1], shift=[0.3, 0], subgroup_direction=[0, 1], source_subgroups=2,
        subgroup_separation=1.5, source_length=60, target_length=40,
    )

    def test_lists_build_the_array_spec(self, tmp_path):
        from_lists = SyntheticDomainSpec(**self.LIST_SPEC)
        arrays = {k: np.array(v, dtype=np.float64) if isinstance(v, list) else v for k, v in self.LIST_SPEC.items()}
        from_arrays = SyntheticDomainSpec(**arrays)
        for name in ("class_means", "class_scales", "source_priors", "target_priors", "shift", "subgroup_direction"):
            a, b = getattr(from_lists, name), getattr(from_arrays, name)
            assert a.dtype == np.float64 and np.array_equal(a, b)
        assert to_json(from_lists) == to_json(from_arrays)
        for spec, out in ((from_lists, tmp_path / "lists"), (from_arrays, tmp_path / "arrays")):
            out.mkdir()
            for ds, name in zip(synthesize_domains(spec), ("source.csv", "target.csv")):
                write_dataset_csv(ds, out / name)
        for name in ("source.csv", "target.csv"):
            assert (tmp_path / "lists" / name).read_bytes() == (tmp_path / "arrays" / name).read_bytes()

    def test_float64_arrays_pass_through(self):
        spec = simple_spec()
        clone = dataclasses.replace(spec, seed=1)
        for name in ("class_means", "class_scales", "source_priors", "target_priors", "shift"):
            assert getattr(clone, name) is getattr(spec, name)

    @pytest.mark.parametrize("field", ["class_means", "class_scales", "shift", "subgroup_direction"])
    def test_non_numeric_spec_rejected(self, field):
        spec = dict(self.LIST_SPEC)
        spec[field] = np.full(np.shape(spec[field]), "x").tolist()
        with pytest.raises(ValueError):
            SyntheticDomainSpec(**spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field, position",
        [
            ("class_means", (1, 0)), ("class_scales", (2,)), ("source_priors", (0,)), ("target_priors", (3,)),
            ("shift", (1,)), ("subgroup_direction", (0,)), ("subgroup_separation", None),
        ],
    )
    def test_non_finite_spec_rejected(self, field, position, bad):
        # NaN priors passed the simplex check and NaN means reached the CSV
        spec = {k: np.array(v, dtype=np.float64) if isinstance(v, list) else v for k, v in self.LIST_SPEC.items()}
        if position is None:
            spec[field] = bad
        else:
            spec[field][position] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            SyntheticDomainSpec(**spec)

    def test_one_nan_class_mean_rejected(self):
        means = np.zeros((4, 2))
        means[2, 1] = np.nan
        message = "class_means must be finite, got [[0.0, 0.0], [0.0, 0.0], [0.0, nan]"
        with pytest.raises(ValueError, match=re.escape(message)):
            simple_spec(class_means=means)

    def test_one_dimensional_means_rejected(self):
        # they used to pass the (4, d) check and fail on a bare IndexError
        spec = dict(self.LIST_SPEC, class_means=[0, 3, 6, 9], shift=[0.3])
        with pytest.raises(ValueError, match=re.escape("need per-class means (4, d) and scales (4,)")):
            SyntheticDomainSpec(**spec)

    def test_spec_json_round_trip(self):
        spec = simple_spec(
            source_subgroups=2, subgroup_separation=3.0,
            subgroup_direction=[1, 0], subgroup_label_permutations=[(0, 1, 2, 3), (3, 2, 1, 0)],
        )
        clone = SyntheticDomainSpec.create(**json.loads(json.dumps(to_json(spec))))
        a, b = synthesize_domains(spec), synthesize_domains(clone)
        assert np.array_equal(a[0].feature_matrix, b[0].feature_matrix)


def write_pair(tmp_path, spec, target_name="target.csv"):
    source, target = synthesize_domains(spec)
    sp = tmp_path / "source.csv"
    tp = tmp_path / target_name
    write_dataset_csv(source, sp)
    write_dataset_csv(target, tp)
    return str(sp), str(tp)


def quick_config(sp, tp, method, **overrides):
    kwargs = dict(
        source=(sp,), target=(tp,), method=method, seed=0, k=2, runs=2, evals=1,
        epochs=6, dropout=0.1, learning_rate=0.02, batch_size=16,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestRunExperiment:
    def test_one_row_per_target_file(self, tmp_path):
        spec = simple_spec(source_length=120, target_length=120, seed=3)
        source, target = synthesize_domains(spec)
        write_dataset_csv(source, tmp_path / "source.csv")
        tdir = tmp_path / "targets"
        tdir.mkdir()
        write_dataset_csv(target, tdir / "t1.csv")
        write_dataset_csv(target, tdir / "t2.csv")
        cfg = quick_config(str(tmp_path / "source.csv"), str(tdir), "lstm", epochs=2)
        result = run_experiment(cfg)
        assert result.file_names == ("t1", "t2")
        assert len(result.file_accuracies) == 2
        assert result.pair_accuracy == pytest.approx(np.mean(result.file_accuracies))

    def test_no_shift_lr_sanity(self, tmp_path):
        # same generating distribution for both domains, linearly separable
        spec = simple_spec(source_length=400, target_length=400, seed=4)
        sp, tp = write_pair(tmp_path, spec)
        result = run_experiment(quick_config(sp, tp, "lr"))
        assert result.pair_accuracy > 0.9

    def test_deterministic_rerun(self, tmp_path):
        spec = simple_spec(source_length=150, target_length=150, seed=6)
        sp, tp = write_pair(tmp_path, spec)
        cfg = quick_config(sp, tp, "dnn", epochs=3)
        a = to_json(run_experiment(cfg))
        b = to_json(run_experiment(cfg))
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert a == b

    @pytest.mark.parametrize("method", ["ours", "lr", "adaboost", "ss", "dnn", "lstm"])
    def test_every_method_runs(self, tmp_path, method):
        spec = simple_spec(source_length=150, target_length=150, seed=7)
        sp, tp = write_pair(tmp_path, spec)
        result = run_experiment(quick_config(sp, tp, method, n_estimators=10))
        assert 0.0 <= result.pair_accuracy <= 1.0
        assert result.method == method
        assert result.model_digest

    def test_output_file_written(self, tmp_path):
        spec = simple_spec(source_length=120, target_length=120, seed=8)
        sp, tp = write_pair(tmp_path, spec)
        out = tmp_path / "res" / "result.json"
        run_experiment(quick_config(sp, tp, "lr", output=str(out)))
        loaded = from_json(ExperimentResult, json.loads(out.read_text()))
        assert loaded.method == "lr"

    @pytest.mark.parametrize("method", ["lr", "ours"])
    def test_target_file_without_test_windows_fails_before_training(self, tmp_path, method, monkeypatch):
        # a 200-row target file and a 2-row one: per_class=60 takes the short
        # file's only window as a shot, leaving it nothing to score
        source, target = synthesize_domains(simple_spec(seed=0))
        write_dataset_csv(source, tmp_path / "source.csv")
        tdir = tmp_path / "targets"
        tdir.mkdir()
        write_dataset_csv(target, tdir / "a.csv")
        short = dataclasses.replace(
            target, name="b", feature_matrix=target.feature_matrix[:2], labels=target.labels[:2], t=target.t[:2]
        )
        write_dataset_csv(short, tdir / "b.csv")

        def no_training(*args):
            raise AssertionError("trained a model")

        monkeypatch.setattr(bench, "_run_method", no_training)
        cfg = quick_config(str(tmp_path / "source.csv"), str(tdir), method, per_class=60)
        with pytest.raises(ValueError, match=r"target file 'b' has no test windows: .*all of its 1 window\(s\)"):
            run_experiment(cfg)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(source=("a",), target=("b",), method="svm")


class TestFeatureColumnsAgree:
    """Every source and target file must name the same feature columns in
    the same order, checked before any standardizing or training."""

    def run_with(self, tmp_path, monkeypatch, source_files, target_names):
        source, target = synthesize_domains(simple_spec(d=3, seed=2))
        sdir = tmp_path / "sources"
        sdir.mkdir()
        for name, columns in source_files:
            write_dataset_csv(dataclasses.replace(source, feature_names=columns), sdir / name)
        write_dataset_csv(dataclasses.replace(target, feature_names=target_names), tmp_path / "target.csv")

        def not_reached(*args):
            raise AssertionError("standardized mismatched files")

        monkeypatch.setattr(bench, "fit_standardizer", not_reached)
        run_experiment(quick_config(str(sdir), str(tmp_path / "target.csv"), "lr"))

    def test_permuted_source_file_rejected(self, tmp_path, monkeypatch):
        with pytest.raises(
            ValueError, match=r"file 'b' has feature columns \['s3', 's1', 's2'\], but file 'a' has \['s1', 's2', 's3'\]"
        ):
            self.run_with(
                tmp_path, monkeypatch, [("a.csv", ("s1", "s2", "s3")), ("b.csv", ("s3", "s1", "s2"))], ("s1", "s2", "s3")
            )

    def test_target_with_other_names_rejected(self, tmp_path, monkeypatch):
        with pytest.raises(
            ValueError, match=r"file 'target' has feature columns \['s1', 's2', 'x'\], but file 'a' has \['s1', 's2', 's3'\]"
        ):
            self.run_with(tmp_path, monkeypatch, [("a.csv", ("s1", "s2", "s3"))], ("s1", "s2", "x"))


class TestNoLeak:
    """Test-pool labels must never reach any fit stage."""

    @pytest.mark.parametrize("method", ["ours", "lr", "adaboost", "ss", "dnn", "lstm"])
    def test_poisoned_test_labels_leave_model_bytes_unchanged(self, rng, method):
        source = []
        for i in range(80):
            label = 1 + i % 4
            source.append(window(rng.normal(size=(2, 2)) + 2.0 * label, label, t=i))
        target = [window(rng.normal(size=(2, 2)) + 2.0 * (1 + i % 4), 1 + i % 4, t=i) for i in range(40)]
        split = sample_few_shot(target, per_class=4, seed=0)
        shots = list(split.shots)
        clean_pool = list(split.test_pool)
        poisoned_pool = [window(w.x, 1 + (w.y % 4), t=w.origin_t) for w in clean_pool]

        cfg = ExperimentConfig(
            source=("unused",), target=("unused",), method=method, seed=0, k=2,
            runs=2, evals=1, epochs=4, dropout=0.1, learning_rate=0.02, batch_size=16,
            n_estimators=10,
        )
        stats = StandardizationStats.identity(2)
        clean_bytes, clean_accs, _, _ = _run_method(cfg, source, shots, [clean_pool], stats)
        poisoned_bytes, poisoned_accs, _, _ = _run_method(cfg, source, shots, [poisoned_pool], stats)
        assert clean_bytes == poisoned_bytes
        assert clean_accs != poisoned_accs  # the labels did change what accuracy measures


class TestRunMethodInputs:
    @pytest.mark.parametrize("method", ["ours", "lr", "adaboost", "ss", "dnn", "lstm"])
    def test_window_sets_and_lists_give_the_same_result(self, rng, method):
        source = [window(rng.normal(size=(2, 2)) + 2.0 * (1 + i % 4), 1 + i % 4, t=i) for i in range(60)]
        target = [window(rng.normal(size=(2, 2)) + 2.0 * (1 + i % 4), 1 + i % 4, t=i) for i in range(40)]
        split = sample_few_shot(target, per_class=4, seed=0)
        pools = [list(split.test_pool)[::2], list(split.test_pool)[1::2]]
        cfg = ExperimentConfig(
            source=("unused",), target=("unused",), method=method, seed=0, k=2,
            runs=2, evals=2, epochs=3, dropout=0.1, learning_rate=0.02, batch_size=16, n_estimators=10,
        )
        stats = StandardizationStats.identity(2)
        from_lists = _run_method(cfg, source, list(split.shots), pools, stats)
        from_sets = _run_method(cfg, as_window_set(source), split.shots, [as_window_set(p) for p in pools], stats)
        assert from_sets == from_lists


class TestEmitReport:
    def make_result(self, pair, method, acc, files=("t",)):
        return ExperimentResult(
            pair=pair, method=method,
            file_names=files, file_accuracies=(acc,) * len(files),
            pair_accuracy=acc, file_macro_accuracies=(acc,) * len(files),
            pair_macro_accuracy=acc, elapsed_seconds=0.1, model_digest="d", config={},
        )

    def test_stored_value_renders(self, tmp_path):
        res = self.make_result("1_{1-5}-2", "ours", 0.7985)
        _, table = emit_report([res], tmp_path / "report")
        text = table.read_text()
        assert "79.85" in text
        assert "1_{1-5}-2" in text
        assert "Ours" in text

    def test_single_result_avg_row(self, tmp_path):
        res = self.make_result("a-b", "lr", 0.5)
        _, table = emit_report([res], tmp_path / "report")
        lines = table.read_text().strip().splitlines()
        assert lines[-1].startswith("| Avg |")
        assert "50.00" in lines[-1]
        assert "50.00" in lines[-2]

    def test_avg_matches_independent_recomputation(self, tmp_path, rng):
        pairs = ["p1", "p2", "p3"]
        methods = ["lr", "ours"]
        accs = {}
        results = []
        for p, m in itertools.product(pairs, methods):
            accs[(p, m)] = float(rng.uniform(0, 1))
            results.append(self.make_result(p, m, accs[(p, m)]))
        json_path, table = emit_report(results, tmp_path / "report")
        lines = table.read_text().strip().splitlines()
        header = [c.strip() for c in lines[0].strip("|").split("|")]
        avg_cells = [c.strip() for c in lines[-1].strip("|").split("|")]
        for col, name in enumerate(header[1:], start=1):
            key = {"LR": "lr", "Ours": "ours"}[name]
            expected = np.mean([accs[(p, key)] for p in pairs]) * 100
            assert float(avg_cells[col]) == pytest.approx(expected, abs=0.005)
        data = json.loads(json_path.read_text())
        assert len(data["results"]) == 6

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path / "report")

    def test_files_match_committed_report(self, tmp_path):
        # pair p2 has no ss cell; methods come in report order, pairs in first-seen order
        cells = [("p1", "ours", 0.75), ("p2", "lr", 0.25), ("p1", "ss", 0.625), ("p1", "lr", 0.5), ("p2", "ours", 1.0)]
        json_path, table = emit_report([self.make_result(*c) for c in cells], tmp_path / "report")
        assert table.read_text() == (
            "| Source-Target | LR | SS | Ours |\n"
            "|---|---|---|---|\n"
            "| p1 | 50.00 | 62.50 | 75.00 |\n"
            "| p2 | 25.00 |  | 100.00 |\n"
            "| Avg | 37.50 | 62.50 | 87.50 |\n"
        )
        records = [
            {
                "pair": pair, "method": method, "file_names": ["t"], "file_accuracies": [acc], "pair_accuracy": acc,
                "file_macro_accuracies": [acc], "pair_macro_accuracy": acc, "elapsed_seconds": 0.1,
                "model_digest": "d", "config": {}, "selection": None,
            }
            for pair, method, acc in cells
        ]
        assert json_path.read_text() == json.dumps({"results": records}, indent=2)


class TestBeefPairs:
    def make_root(self, tmp_path, n1=5, n2=1, n3=12):
        for name, n in (("dataset1", n1), ("dataset2", n2), ("dataset3", n3)):
            d = tmp_path / name
            d.mkdir()
            for i in range(n):
                (d / f"file_{i:02d}.csv").write_text("x,label\n0.0,1\n")
        return tmp_path

    def test_grid_has_21_pairs(self, tmp_path):
        pairs = beef_pairs(self.make_root(tmp_path))
        assert len(pairs) == 21
        names = [p[0] for p in pairs]
        assert names[0] == "1_{1-5}-2"
        assert "2-1_{1-5}" in names
        assert "3_{1-12}-2" in names
        assert sum(1 for n in names if n.startswith("3_") and n.endswith("-1_{1-5}")) == 12

    def test_wrong_layout_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            beef_pairs(self.make_root(tmp_path, n3=3))
