"""The dataclass JSON codec: round trips, strict decoding, and files written
before the codec existed (results, configs, generator specs)."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from noseda.baselines import AdaBoostModel, Stump, adaboost_train, ss_init
from noseda.bench import ExperimentConfig, ExperimentResult, SyntheticDomainSpec
from noseda.cli import main
from noseda.gmm import GmmParams, VAR_FLOOR
from noseda.ingest import StandardizationStats
from noseda.nets.lstm import LstmParams, lstm_init
from noseda.nets.mlp import mlp_init
from noseda.nets.softmax_regression import SoftmaxRegressionParams
from noseda.pipeline import (
    ClusterExpert,
    HierarchicalModel,
    SelectionReport,
    load_model,
    model_to_json_bytes,
    save_model,
)
from noseda.serialize import from_json, to_json

# Files as the hand-written per-class encoders wrote them (``noseda synth`` and
# ``noseda run``), re-rendered without indentation: json.dumps(..., indent=2)
# of these strings is the original file byte for byte.
PARENT_SPEC = (
    '{"class_means": [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]], "class_scales": [0.5, 0.5, 0.5, 0.5], '
    '"source_priors": [0.25, 0.25, 0.25, 0.25], "target_priors": [0.4, 0.3, 0.2, 0.1], "shift": [0.3, 0.3], '
    '"source_length": 80, "target_length": 60, "source_subgroups": 2, "target_subgroups": 1, '
    '"subgroup_separation": 1.5, "subgroup_direction": [0.0, 1.0], '
    '"subgroup_label_permutations": [[0, 1, 2, 3], [1, 0, 3, 2]], "block_length": 5, "seed": 7}'
)
PARENT_RESULT = (
    '{"pair": "synth-demo", "method": "ours", "file_names": ["target"], "file_accuracies": [0.723404255319149], '
    '"pair_accuracy": 0.723404255319149, "file_macro_accuracies": [0.873015873015873], '
    '"pair_macro_accuracy": 0.873015873015873, "elapsed_seconds": 0.12776775200109114, '
    '"model_digest": "251eac6657b4e9bb1c42fa3a09ff60d43e90fb93a0278101667ad787fe46198f", '
    '"config": {"source": ["data/source.csv"], "target": ["data/target.csv"], "method": "ours", '
    '"name": "synth-demo", "k": 2, "per_class": 4, "runs": 2, "evals": 1, "seed": 0, '
    '"output": "results/ours.json", "standardize": true, "label_column": "label", '
    '"drop_columns": ["humidity", "temperature", "MQ7", "MQ138", "MQ137"], "epochs": 2, "dropout": 0.2, '
    '"learning_rate": 0.001, "batch_size": 32, "l2": 0.0001, "n_estimators": 100, "eval_mode": "refit"}, '
    '"selection": {"shot_accuracies": [1.0, 0.3333333333333333], "selected_run": 0, '
    '"eval_accuracies": [0.723404255319149], "mean_test_accuracy": 0.723404255319149, '
    '"eval_file_accuracies": [[0.723404255319149]]}}'
)
README_CONFIG = {
    "source": "data/source.csv",
    "target": "data/target.csv",
    "method": "ours",
    "name": "synth-demo",
    "k": 2, "runs": 10, "evals": 5, "seed": 0,
    "output": "results/ours.json",
}


def assert_same(a, b):
    """Field-by-field equality; arrays must match in dtype, shape and value."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    elif isinstance(a, (tuple, dict)):
        assert type(a) is type(b) and len(a) == len(b)
        if isinstance(a, dict):
            assert list(a) == list(b)
            a, b = list(a.values()), list(b.values())
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


def json_round_trip(obj):
    return from_json(type(obj), json.loads(json.dumps(to_json(obj))))


def make_model(k=2, d=3):
    rng = np.random.default_rng(0)
    experts = tuple(
        ClusterExpert(
            cluster_id=c,
            expert_before=lstm_init(d, seed=c),
            expert_after=lstm_init(d, seed=c + 100),
            source_label_histogram=np.array([3, 0, 5, 1], dtype=np.int64),
        )
        for c in range(k)
    )
    return HierarchicalModel(
        gmm=GmmParams(
            weights=np.full(k, 1.0 / k), means=rng.normal(size=(k, 2 * d)), variances=rng.uniform(0.5, 2, (k, 2 * d))
        ),
        experts=experts,
        gate=SoftmaxRegressionParams(rng.normal(size=(k, 2 * d)), rng.normal(size=k)),
        stats=StandardizationStats(mean=rng.normal(size=d), std=rng.uniform(0.5, 2, d)),
        shot_assignments=tuple(int(c) for c in rng.integers(k, size=8)),
        fit_seed=12,
    )


def codec_instances():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2))
    y = np.repeat([1, 2, 3, 4], [10, 10, 9, 1])  # class 4 is a singleton pool: its delta is inf
    model = make_model()
    return [
        lstm_init(3, seed=1),
        mlp_init(4, hidden=(3, 5), seed=1),
        SoftmaxRegressionParams(weights=rng.normal(size=(3, 4)), bias=np.array([0.0, -0.0, 1e-310])),
        model.gmm,
        model.stats,
        model.experts[0],
        dataclasses.replace(model.experts[1], expert_after=None),
        model,
        SelectionReport(
            shot_accuracies=(0.5, 1.0), selected_run=1, eval_accuracies=(0.75,), mean_test_accuracy=0.75,
            eval_file_accuracies=((0.5, 1.0),),
        ),
        Stump(feature=1, threshold=-0.25, left_class=2, right_class=4),
        adaboost_train(X, y, n_estimators=5),
        ss_init(X, y),
        ExperimentConfig(source=("a.csv", "b.csv"), target=("c.csv",), method="dnn", name=None, dropout=0),
        from_json(ExperimentResult, json.loads(PARENT_RESULT)),
        SyntheticDomainSpec.create(**json.loads(PARENT_SPEC)),
    ]


@pytest.mark.parametrize("obj", codec_instances(), ids=lambda o: type(o).__name__)
def test_every_codec_class_round_trips(obj):
    clone = json_round_trip(obj)
    assert_same(clone, obj)
    assert model_to_json_bytes(clone) == model_to_json_bytes(obj)


# -- save/load is bit-exact for any finite model ------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)  # negatives, -0.0 and subnormals included
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def hierarchical_models(draw):
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))

    def floats(shape, elements=finite):
        return draw(arrays(np.float64, shape, elements=elements))

    def net():
        return LstmParams(floats((d, 16)), floats((4, 16)), floats(16), floats((4, 4)), floats(4))

    experts = tuple(
        ClusterExpert(
            cluster_id=c,
            expert_before=net(),
            expert_after=draw(st.none() | st.builds(net)),
            source_label_histogram=draw(arrays(np.int64, 4, elements=st.integers(0, 10**9))),
        )
        for c in range(k)
    )
    raw = floats(k, st.floats(0.01, 1.0))
    return HierarchicalModel(
        gmm=GmmParams(
            weights=raw / raw.sum(),
            means=floats((k, 2 * d)),
            variances=floats((k, 2 * d), st.floats(VAR_FLOOR, 1e300)),
        ),
        experts=experts,
        gate=SoftmaxRegressionParams(floats((k, 2 * d)), floats(k)),
        stats=StandardizationStats(mean=floats(d), std=floats(d, positive)),
        shot_assignments=tuple(draw(st.lists(st.integers(0, k - 1), max_size=8))),
        fit_seed=draw(st.none() | st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(model=hierarchical_models())
def test_save_load_is_bit_exact(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    clone = load_model(path)
    assert model_to_json_bytes(clone) == model_to_json_bytes(model)
    assert_same(clone, model)


# -- malformed files fail at the boundary ------------------------------------


def model_file(tmp_path, obj):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    return path


def test_result_file_is_not_a_model(tmp_path):
    path = tmp_path / "result.json"
    path.write_text(PARENT_RESULT)
    with pytest.raises(ValueError, match=re.escape("HierarchicalModel: unexpected keys ['config', ")):
        load_model(path)


def test_expert_missing_weights(tmp_path):
    obj = json.loads(model_to_json_bytes(make_model()))
    del obj["experts"][1]["expert_before"]["wx"]
    with pytest.raises(ValueError, match=re.escape("LstmParams: missing keys ['wx']")):
        load_model(model_file(tmp_path, obj))


def parent_format(obj):
    """A model file as the per-class encoders wrote it: the GMM also stored k,
    network arrays were {"shape", "data"} objects, and the gate wrapped its
    arrays in "params" next to the cluster count."""
    obj["gmm"]["k"] = len(obj["gmm"]["weights"])

    def tagged(a):
        a = np.asarray(a, dtype=np.float64)
        return {"shape": list(a.shape), "data": a.ravel().tolist()}

    for e in obj["experts"]:
        for net in ("expert_before", "expert_after"):
            e[net] = {key: tagged(a) for key, a in e[net].items()}
    obj["gate"] = {"params": {key: tagged(a) for key, a in obj["gate"].items()}, "n_clusters": len(obj["gate"]["bias"])}
    return obj


def test_parent_format_model_is_rejected(tmp_path):
    obj = parent_format(json.loads(model_to_json_bytes(make_model())))
    with pytest.raises(ValueError, match=re.escape("GmmParams: unexpected keys ['k']")):
        load_model(model_file(tmp_path, obj))
    del obj["gmm"]["k"]
    with pytest.raises(ValueError, match=re.escape("LstmParams.wx: not a numeric array")):
        load_model(model_file(tmp_path, obj))


@pytest.mark.parametrize(
    "value, message",
    [
        ([[1.0, 2.0], [3.0]], "StandardizationStats.mean: not a numeric array"),
        (["a", "b"], "StandardizationStats.mean: not a numeric array"),
        ([1.0, None], "StandardizationStats.mean: not a numeric array"),
        ([True, False], "StandardizationStats.mean: not a numeric array"),
    ],
)
def test_non_numeric_arrays(value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(StandardizationStats, {"mean": value, "std": [1.0, 1.0]})


def test_wrong_container_types():
    with pytest.raises(ValueError, match="SoftmaxRegressionParams: expected a JSON object, got list"):
        from_json(SoftmaxRegressionParams, [])
    with pytest.raises(ValueError, match="AdaBoostModel.stumps: expected a list, got dict"):
        from_json(AdaBoostModel, {"stumps": {}, "alphas": [], "classes": [], "stump_errors": []})


def test_array_dtypes_follow_the_data():
    # the codec keeps JSON integers as int64; a class whose fields are float64 converts them itself
    obj = to_json(make_model().experts[0])
    assert from_json(ClusterExpert, obj).source_label_histogram.dtype == np.int64
    stats = from_json(StandardizationStats, {"mean": [0, 1], "std": [1.0, 2.0]})
    assert stats.mean.dtype == np.float64 and stats.std.dtype == np.float64


# -- files written before the codec still load ------------------------------


def test_parent_result_file_reencodes_identically():
    result = from_json(ExperimentResult, json.loads(PARENT_RESULT))
    assert result.file_names == ("target",) and result.selection["selected_run"] == 0
    assert json.dumps(to_json(result)) == PARENT_RESULT
    assert json.dumps(to_json(result), indent=2) == json.dumps(json.loads(PARENT_RESULT), indent=2)


def test_parent_result_file_reported(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "ours.json").write_text(json.dumps(json.loads(PARENT_RESULT), indent=2))
    assert main(["report", "--in", str(results), "--out", str(tmp_path / "report")]) == 0
    assert "| synth-demo | 72.34 |" in (tmp_path / "report.md").read_text()
    merged = json.loads((tmp_path / "report.json").read_text())
    assert json.dumps(merged["results"][0]) == PARENT_RESULT


def test_readme_config_with_single_source_string():
    config = from_json(ExperimentConfig, README_CONFIG)
    assert config.source == ("data/source.csv",) and config.target == ("data/target.csv",)
    assert (config.k, config.runs, config.evals, config.output) == (2, 10, 5, "results/ours.json")
    assert config.epochs == 100  # defaults fill the keys the file leaves out


def test_parent_spec_reencodes_identically(tmp_path):
    spec = SyntheticDomainSpec.create(**json.loads(PARENT_SPEC))
    assert json.dumps(to_json(spec)) == PARENT_SPEC
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(PARENT_SPEC)
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 0
    assert (tmp_path / "data" / "spec.json").read_text() == json.dumps(json.loads(PARENT_SPEC), indent=2)


# -- scalars must have their field's JSON type ------------------------------


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("epochs", "10", "ExperimentConfig.epochs: expected int, got str"),
        ("epochs", 10.0, "ExperimentConfig.epochs: expected int, got float"),
        ("epochs", None, "ExperimentConfig.epochs: expected int, got NoneType"),
        ("k", True, "ExperimentConfig.k: expected int, got bool"),
        ("standardize", "no", "ExperimentConfig.standardize: expected bool, got str"),
        ("standardize", 0, "ExperimentConfig.standardize: expected bool, got int"),
        ("dropout", "0.2", "ExperimentConfig.dropout: expected float, got str"),
        ("dropout", False, "ExperimentConfig.dropout: expected float, got bool"),
        ("method", 3, "ExperimentConfig.method: expected str, got int"),
        ("name", 3, "ExperimentConfig.name: expected str, got int"),
        ("drop_columns", ["t", 1], "ExperimentConfig.drop_columns[1]: expected str, got int"),
    ],
)
def test_scalar_of_wrong_type_is_rejected(key, value, message):
    obj = {"source": "a", "target": "b", "method": "lr"}
    obj[key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(ExperimentConfig, obj)


def test_scalar_checks_cover_other_classes():
    report = {
        "shot_accuracies": [0.5], "selected_run": "0", "eval_accuracies": [0.5],
        "mean_test_accuracy": 0.5, "eval_file_accuracies": [[0.5]],
    }
    with pytest.raises(ValueError, match=re.escape("SelectionReport.selected_run: expected int, got str")):
        from_json(SelectionReport, report)
    stump = {"feature": 0.0, "threshold": 1.0, "left_class": 1, "right_class": 2}
    with pytest.raises(ValueError, match=re.escape("Stump.feature: expected int, got float")):
        from_json(Stump, stump)


def test_int_for_float_field_stays_int():
    config = from_json(ExperimentConfig, {"source": "a", "target": "b", "method": "lr", "dropout": 0, "l2": 1})
    assert type(config.dropout) is int and type(config.l2) is int
    text = json.dumps(to_json(config))
    assert '"dropout": 0,' in text and '"l2": 1,' in text
    assert json.dumps(to_json(from_json(ExperimentConfig, json.loads(text)))) == text


def test_non_finite_floats_still_load():
    report = {
        "shot_accuracies": [0.5], "selected_run": 0, "eval_accuracies": [],
        "mean_test_accuracy": float("nan"), "eval_file_accuracies": [],
    }
    assert np.isnan(from_json(SelectionReport, json.loads(json.dumps(report))).mean_test_accuracy)
    obj = json.loads(PARENT_RESULT)
    obj["elapsed_seconds"] = float("inf")
    assert from_json(ExperimentResult, json.loads(json.dumps(obj))).elapsed_seconds == float("inf")


def test_mistyped_config_value_fails_the_run(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"source": "a", "target": "b", "method": "lr", "epochs": "10"}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "noseda: error: ExperimentConfig.epochs: expected int, got str" in capsys.readouterr().err
