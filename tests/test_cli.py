import json
import logging

import numpy as np
import pytest

from noseda import pipeline
from noseda.bench import ExperimentResult
from noseda.cli import main
from noseda.serialize import to_json


def spec_dict(seed=0, length=200):
    means = np.zeros((4, 2))
    means[:, 0] = [0.0, 3.0, 6.0, 9.0]
    return {
        "class_means": means.tolist(),
        "class_scales": [1.0] * 4,
        "source_priors": [0.25] * 4,
        "target_priors": [0.25] * 4,
        "shift": [0.0, 0.0],
        "source_length": length,
        "target_length": length,
        "seed": seed,
    }


def test_synth_run_report_round_trip(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_dict()))
    data_dir = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    assert (data_dir / "source.csv").exists()
    assert (data_dir / "target.csv").exists()

    results_dir = tmp_path / "results"
    config = {
        "source": str(data_dir / "source.csv"),
        "target": str(data_dir / "target.csv"),
        "method": "lr",
        "name": "synth-pair",
        "seed": 0,
        "epochs": 3,
        "output": str(results_dir / "lr.json"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "synth-pair" in out

    report_base = tmp_path / "report"
    assert main(["report", "--in", str(results_dir), "--out", str(report_base)]) == 0
    table = (tmp_path / "report.md").read_text()
    assert "synth-pair" in table
    assert "| Avg |" in table
    merged = json.loads((tmp_path / "report.json").read_text())
    assert len(merged["results"]) == 1


def test_run_out_override(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_dict(seed=1, length=120)))
    data_dir = tmp_path / "data"
    main(["synth", "--spec", str(spec_path), "--out", str(data_dir)])
    config = {
        "source": str(data_dir / "source.csv"),
        "target": str(data_dir / "target.csv"),
        "method": "lr",
        "epochs": 2,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "override.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert out_path.exists()


def test_bad_method_exits_nonzero(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"source": "a", "target": "b", "method": "nope"}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_report_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--in", str(empty), "--out", str(tmp_path / "r")]) == 1
    assert "error" in capsys.readouterr().err


def write_result(path, pair="p", method="lr", accuracy=0.5):
    result = ExperimentResult(
        pair=pair,
        method=method,
        file_names=("target",),
        file_accuracies=(accuracy,),
        pair_accuracy=accuracy,
        file_macro_accuracies=(accuracy,),
        pair_macro_accuracy=accuracy,
        elapsed_seconds=1.25,
        model_digest="0" * 64,
        config={"method": method},
    )
    path.write_text(json.dumps(to_json(result)))


def reported(report_base):
    return [(r["pair"], r["method"]) for r in json.loads(report_base.with_suffix(".json").read_text())["results"]]


def test_report_into_its_input_dir_counts_each_result_once(tmp_path):
    # the second report reads the first one's report.json next to the cells, as beef_grid leaves its out_dir
    write_result(tmp_path / "a.json", method="lr")
    write_result(tmp_path / "b.json", method="ss")
    for _ in range(2):
        assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "report")]) == 0
        assert reported(tmp_path / "report") == [("p", "lr"), ("p", "ss")]
    assert (tmp_path / "report.md").read_text().count("| p |") == 1


def test_report_counts_an_equal_duplicate_once(tmp_path):
    write_result(tmp_path / "a.json")
    write_result(tmp_path / "copy_of_a.json")
    assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "out" / "report")]) == 0
    assert reported(tmp_path / "out" / "report") == [("p", "lr")]


def test_report_rejects_a_differing_duplicate(tmp_path, capsys):
    write_result(tmp_path / "a.json", accuracy=0.5)
    write_result(tmp_path / "b.json", accuracy=0.75)
    assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "out" / "report")]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'a.json'} and {tmp_path / 'b.json'} hold different results for p [lr]" in err
    assert not (tmp_path / "out").exists()


def test_misspelled_config_key_names_class_and_key(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"source": "a", "target": "b", "method": "lr", "epoch": 3}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert f"noseda: error: {cfg_path}: ExperimentConfig: unexpected keys ['epoch']" in capsys.readouterr().err


def test_config_without_source_names_class_and_key(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"target": "b", "method": "lr"}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert f"noseda: error: {cfg_path}: ExperimentConfig: missing keys ['source']" in capsys.readouterr().err


@pytest.fixture
def noseda_log_level():
    """Restore the package logger's level, which ``main`` sets."""
    yield
    logging.getLogger("noseda").setLevel(logging.NOTSET)


@pytest.mark.parametrize("level, records", [(None, 0), ("INFO", 1)])
def test_log_level_shows_fit_selected_record(tmp_path, caplog, noseda_log_level, level, records):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_dict()))
    data_dir = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    config = {
        "source": str(data_dir / "source.csv"),
        "target": str(data_dir / "target.csv"),
        "method": "ours",
        "runs": 3,
        "evals": 2,
        "epochs": 1,
    }
    cfg_path = tmp_path / "ours.json"
    cfg_path.write_text(json.dumps(config))
    caplog.clear()
    argv = ([] if level is None else ["--log-level", level]) + ["run", "--config", str(cfg_path)]
    assert main(argv) == 0
    workers = pipeline._worker_count(5)
    messages = [r.getMessage() for r in caplog.records if r.name == "noseda.pipeline"]
    assert messages == [f"fit_selected fits=5 workers={workers}"] * records


def test_unknown_log_level_is_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--log-level", "VERBOSE", "report", "--in", ".", "--out", "x"])
    assert "invalid choice: 'VERBOSE'" in capsys.readouterr().err


def run_config_with_missing_data(tmp_path, **fields):
    """``noseda run`` on a config whose source and target do not exist."""
    missing = str(tmp_path / "no_such_dir" / "data.csv")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"source": missing, "target": missing, "method": "lr", **fields}))
    return main(["run", "--config", str(cfg_path)])


def test_valid_config_with_missing_data_fails_at_ingest(tmp_path, capsys):
    assert run_config_with_missing_data(tmp_path, eval_mode="repredict", dropout=0.0, l2=0.0) == 1
    assert "noseda: error: dataset file not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("eval_mode", "bogus", "eval_mode must be 'refit' or 'repredict', got 'bogus'"),
        ("k", 0, "k must be >= 1, got 0"),
        ("runs", 0, "runs must be >= 1, got 0"),
        ("evals", -1, "evals must be >= 1, got -1"),
        ("per_class", 0, "per_class must be >= 1, got 0"),
        ("epochs", 0, "epochs must be >= 1, got 0"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("n_estimators", 0, "n_estimators must be >= 1, got 0"),
        ("dropout", 1.0, "dropout must be in [0, 1), got 1.0"),
        ("dropout", -0.1, "dropout must be in [0, 1), got -0.1"),
        ("l2", -1e-4, "l2 must be >= 0, got -0.0001"),
        ("learning_rate", float("nan"), "learning_rate must be finite and > 0, got nan"),
        ("learning_rate", float("inf"), "learning_rate must be finite and > 0, got inf"),
        ("learning_rate", 0.0, "learning_rate must be finite and > 0, got 0.0"),
        ("learning_rate", -1.0, "learning_rate must be finite and > 0, got -1.0"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ],
)
def test_out_of_range_config_fails_before_ingest(tmp_path, capsys, field, value, message):
    assert run_config_with_missing_data(tmp_path, **{field: value}) == 1
    assert f"noseda: error: {tmp_path / 'config.json'}: ExperimentConfig.{message}\n" in capsys.readouterr().err


def test_synth_rejects_zero_subgroup_direction(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**spec_dict(), "source_subgroups": 2, "subgroup_direction": [0, 0]}))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 1
    assert f"noseda: error: {spec_path}: subgroup_direction must be a unit vector" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_synth_rejects_non_finite_class_means(tmp_path, capsys):
    spec = spec_dict()
    spec["class_means"][1][0] = float("nan")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))  # written as NaN, which json reads back
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 1
    assert f"noseda: error: {spec_path}: class_means must be finite, got [[0.0, 0.0], [nan, 0.0]" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_report_names_the_file_it_could_not_read(tmp_path, capsys):
    # a generator spec beside the results, as ``noseda synth`` leaves one
    write_result(tmp_path / "a.json")
    (tmp_path / "spec.json").write_text(json.dumps({"class_means": [[0.0]], "x": 1}))
    assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "out" / "report")]) == 1
    err = capsys.readouterr().err
    assert err == f"noseda: error: {tmp_path / 'spec.json'}: ExperimentResult: unexpected keys ['class_means', 'x']\n"


def test_run_names_a_config_that_is_not_json(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{'source': 'a'}")
    assert main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"noseda: error: {cfg_path}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"


def test_synth_names_a_spec_without_class_means(tmp_path, capsys):
    spec = spec_dict()
    del spec["class_means"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"noseda: error: {spec_path}: ")
    assert "missing 1 required positional argument: 'class_means'" in err
    assert not (tmp_path / "data").exists()
