import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from noseda.bench import (
    ExperimentConfig,
    ExperimentResult,
    SyntheticDomainSpec,
    _pool_file_index,
    _run_method,
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


class TestPoolFileIndex:
    def test_hand_counted_owners(self):
        # files of 3, 0 and 2 windows: indexes 0-2 are file 0's, 3-4 file 2's
        assert _pool_file_index([0, 2, 3, 4], [3, 0, 2]) == [0, 0, 2, 2]
        assert _pool_file_index([], [3, 2]) == []

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=6), st.data())
    def test_matches_per_index_search(self, sizes, data):
        total = sum(sizes)
        indices = data.draw(st.lists(st.integers(0, max(total - 1, 0)), max_size=20)) if total else []
        bounds = np.cumsum(sizes)
        owners = _pool_file_index(indices, sizes)
        assert owners == [int(np.searchsorted(bounds, i, side="right")) for i in indices]
        assert all(type(o) is int and sizes[o] > 0 for o in owners)


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

    def test_csv_round_trip(self, tmp_path):
        spec = simple_spec(source_length=50, target_length=50)
        source, _ = synthesize_domains(spec)
        path = tmp_path / "source.csv"
        write_dataset_csv(source, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.feature_matrix, source.feature_matrix)
        assert np.array_equal(loaded.labels, source.labels)

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

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(source=("a",), target=("b",), method="svm")


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
