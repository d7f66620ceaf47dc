import json

import numpy as np

from noseda.cli import main


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


def test_misspelled_config_key_names_class_and_key(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"source": "a", "target": "b", "method": "lr", "epoch": 3}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "noseda: error: ExperimentConfig: unexpected keys ['epoch']" in capsys.readouterr().err


def test_config_without_source_names_class_and_key(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"target": "b", "method": "lr"}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "noseda: error: ExperimentConfig: missing keys ['source']" in capsys.readouterr().err
