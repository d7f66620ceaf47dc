"""The dataclass JSON codec: round trips, strict decoding, and files written
before the codec existed (results, configs, generator specs)."""

import dataclasses
import errno
import itertools
import json
import re
import stat
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from noseda import serialize, write_dataset_csv
from noseda.baselines import AdaBoostModel, Stump, adaboost_train, ss_init
from noseda.bench import ExperimentConfig, ExperimentResult, SyntheticDomainSpec, emit_report, run_experiment
from noseda.cli import build_parser, main
from noseda.gmm import GmmParams, VAR_FLOOR
from noseda.ingest import StandardizationStats
from noseda.nets.lstm import LstmParams, lstm_init
from noseda.nets.mlp import MlpParams, mlp_init
from noseda.nets.softmax_regression import SoftmaxRegressionParams
from noseda.pipeline import (
    ClusterExpert,
    HierarchicalModel,
    SelectionReport,
    load_model,
    model_to_json_bytes,
    save_model,
)
from noseda.serialize import from_json, json_chunks, to_json

from conftest import dataset_from_arrays

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


# -- the canonical text, a chunk at a time ------------------------------------


@dataclasses.dataclass(frozen=True)
class Leaf:
    values: np.ndarray
    flag: bool
    name: str
    count: int
    scale: float | None


@dataclasses.dataclass(frozen=True)
class Tree:
    leaves: tuple[Leaf, ...]
    by_class: dict[int, np.ndarray]
    labels: dict[str, float]
    child: "Tree | None"


# extremes a float's text must keep: signed zero, the least subnormal, the largest magnitudes, non-finites
edge_floats = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, float("nan"), float("inf")])
json_floats = st.floats() | edge_floats
array_shapes = st.lists(st.integers(0, 7), max_size=3).map(tuple)  # 0-d and empty arrays included
json_arrays = arrays(np.float64, array_shapes, elements=json_floats) | arrays(
    np.int64, array_shapes, elements=st.integers(-(2**63), 2**63 - 1)
)
leaves = st.builds(
    Leaf, values=json_arrays, flag=st.booleans(), name=st.text(), count=st.integers(-(2**70), 2**70),
    scale=st.none() | json_floats,
)
trees = st.deferred(
    lambda: st.builds(
        Tree,
        leaves=st.lists(leaves, max_size=3).map(tuple),
        by_class=st.dictionaries(st.integers(-3, 120), json_arrays, max_size=4),
        labels=st.dictionaries(st.text(max_size=4), json_floats, max_size=4),
        child=st.none() | trees,
    )
)


@settings(max_examples=150, deadline=None)
@given(tree=trees, chunk_items=st.integers(1, 12))
def test_chunks_join_to_the_canonical_text(tree, chunk_items):
    # arrays of up to 7 rows of up to 49 numbers straddle every block size drawn
    expected = json.dumps(to_json(tree), sort_keys=True)
    assert "".join(json_chunks(tree)) == expected
    default = serialize.CHUNK_ITEMS
    serialize.CHUNK_ITEMS = chunk_items
    try:
        assert "".join(json_chunks(tree)) == expected
    finally:
        serialize.CHUNK_ITEMS = default


def test_integer_keys_sort_as_numbers():
    tree = Tree(leaves=(), by_class={10: np.zeros(1), 2: np.ones(1), -1: np.array([])}, labels={}, child=None)
    text = "".join(json_chunks(tree))
    assert '"by_class": {"-1": [], "2": [1.0], "10": [0.0]}' in text
    assert text == json.dumps(to_json(tree), sort_keys=True)


def big_mlp():
    rng = np.random.default_rng(0)
    return MlpParams(*(rng.normal(size=a.shape) for a in mlp_init(12, seed=0).arrays()))


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_model_bytes_and_file_agree(tmp_path):
    model = big_mlp()
    data = model_to_json_bytes(model)
    assert data == json.dumps(to_json(model), sort_keys=True).encode("utf-8")
    save_model(model, tmp_path / "mlp.json")
    assert (tmp_path / "mlp.json").read_bytes() == data


def test_save_streams_the_model_bytes(tmp_path):
    model = big_mlp()
    size = len(model_to_json_bytes(model))
    _, peak = traced_peak(lambda: save_model(model, tmp_path / "mlp.json"))
    assert peak < size / 2, f"save peak {peak / size:.2f}x the model's bytes"


def test_large_model_bytes_stay_within_a_few_copies():
    # the whole-model json.dumps listed every number first and peaked at ~5x the bytes
    model = big_mlp()
    data, peak = traced_peak(lambda: model_to_json_bytes(model))
    assert len(data) > 1_000_000
    assert peak <= 3 * len(data), f"model bytes peak {peak / len(data):.2f}x their length"


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


def test_truncated_file_names_itself(tmp_path):
    path = tmp_path / "model.json"
    data = model_to_json_bytes(make_model())
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: Expecting ")):
        load_model(path)


def test_schema_error_names_the_file(tmp_path):
    obj = json.loads(model_to_json_bytes(make_model()))
    del obj["experts"][1]["expert_before"]["wx"]
    path = model_file(tmp_path, obj)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: LstmParams: missing keys ['wx']")):
        load_model(path)


def test_undecodable_file_names_itself(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"gmm": "\xff"}')
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: 'utf-8' codec can't decode")):
        load_model(path)


class FullDisk:
    """A file whose write number ``fail_at`` (the first by default) stores
    half of its text, then fails as a full disk does."""

    def __init__(self, fd, mode, fail_at=1, **kwargs):
        self.fh = open(fd, mode, **kwargs)
        self.writes_before_failure = fail_at - 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.writes_before_failure:
            self.writes_before_failure -= 1
            return self.fh.write(data)
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(make_model(), path)
    old = path.read_bytes()
    monkeypatch.setattr(serialize, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_model(make_model(k=3), path)
    assert path.read_bytes() == old
    assert [f.name for f in tmp_path.iterdir()] == ["model.json"]


def test_failed_save_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(serialize, "open", FullDisk, raising=False)
    with pytest.raises(OSError):
        save_model(make_model(), tmp_path / "model.json")
    assert list(tmp_path.iterdir()) == []


def test_save_replaces_an_existing_model(tmp_path):
    path = tmp_path / "model.json"
    save_model(make_model(k=3), path)
    path.chmod(0o640)
    save_model(make_model(k=1), path)
    assert path.read_bytes() == model_to_json_bytes(make_model(k=1))
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert [f.name for f in tmp_path.iterdir()] == ["model.json"]


def test_save_through_a_symlink_replaces_its_target(tmp_path):
    (tmp_path / "models").mkdir()
    target = tmp_path / "models" / "model.json"
    save_model(make_model(k=3), target)
    link = tmp_path / "latest.json"
    link.symlink_to(target)
    save_model(make_model(k=1), link)
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == model_to_json_bytes(make_model(k=1))
    assert [f.name for f in (tmp_path / "models").iterdir()] == ["model.json"]


def test_threads_saving_one_path_leave_one_whole_model(tmp_path):
    path = tmp_path / "model.json"
    models = [make_model(k=k) for k in (1, 2, 3, 4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            list(pool.map(lambda m: [save_model(m, path) for _ in range(5)], models, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert path.read_bytes() in [model_to_json_bytes(m) for m in models]
    assert [f.name for f in tmp_path.iterdir()] == ["model.json"]


def synth(out, seed):
    """``noseda synth`` of PARENT_SPEC with ``seed``, an error raised as it is."""
    spec = out.parent / f"spec{seed}.json"
    spec.write_text(json.dumps({**json.loads(PARENT_SPEC), "seed": seed}))
    args = build_parser().parse_args(["synth", "--spec", str(spec), "--out", str(out)])
    args.func(args)


def one_result(seed):
    return ExperimentResult(
        pair="p", method="lr", file_names=("t",), file_accuracies=(0.5,), pair_accuracy=0.5,
        file_macro_accuracies=(0.5,), pair_macro_accuracy=0.5, elapsed_seconds=seed, model_digest="d", config={},
    )


# every write of the package: (the file under test, how many files the call
# writes before it, which of its writes fails, the call writing version ``v`` into ``out``)
WRITES = {
    "save_model": ("model.json", 0, 2, lambda out, data, v: save_model(make_model(k=v + 1), out / "model.json")),
    "write_dataset_csv": (  # the failure comes with the second 4096-row chunk
        "frames.csv", 0, 3, lambda out, data, v: write_dataset_csv(
            dataset_from_arrays(np.full((5000, 2), v + 0.5), np.arange(5000) % 4 + 1), out / "frames.csv"
        ),
    ),
    "run_experiment": ("result.json", 0, 2, lambda out, data, v: run_experiment(ExperimentConfig(
        source=(str(data / "source.csv"),), target=(str(data / "target.csv"),), method="lr", epochs=1 + v,
        output=str(out / "result.json"),
    ))),
    "emit_report json": ("report.json", 0, 2, lambda out, data, v: emit_report([one_result(v)], out / "report")),
    "emit_report md": ("report.md", 1, 2, lambda out, data, v: emit_report([one_result(v)], out / "report")),
    "noseda synth spec.json": ("spec.json", 2, 2, lambda out, data, v: synth(out, v)),
}


@pytest.mark.parametrize("old", [True, False], ids=["over an old file", "into no file"])
@pytest.mark.parametrize("site", WRITES)
def test_a_failed_write_leaves_the_file_whole_or_absent(site, old, tmp_path, monkeypatch):
    name, files_before, fail_at, write = WRITES[site]
    data, out = tmp_path / "data", tmp_path / "out"
    synth(data, 0)  # run_experiment's input
    if old:
        write(out, data, 0)
    before = (out / name).read_bytes() if old else None
    opened = itertools.count()

    def fill_disk(file, mode="r", **kwargs):  # reads pass through
        if mode == "w" and next(opened) == files_before:
            return FullDisk(file, mode, fail_at, **kwargs)
        return open(file, mode, **kwargs)

    monkeypatch.setattr(serialize, "open", fill_disk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(out, data, 1)
    if old:
        assert (out / name).read_bytes() == before
    else:
        assert not (out / name).exists()
    assert sorted(tmp_path.rglob("*.tmp")) == []



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


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"file_names": ["a", "b"]}, "file_accuracies has 1 entries for 2 files"),
        ({"file_macro_accuracies": [0.5, 0.5]}, "file_macro_accuracies has 2 entries for 1 files"),
        ({"file_accuracies": [1.5]}, "file_accuracies 1.5 outside [0, 1]"),
        ({"pair_accuracy": -0.25}, "pair_accuracy -0.25 outside [0, 1]"),
        ({"file_macro_accuracies": [2.0]}, "file_macro_accuracies 2.0 outside [0, 1]"),
        ({"pair_macro_accuracy": 9.0}, "pair_macro_accuracy 9.0 outside [0, 1]"),
        ({"pair_macro_accuracy": float("nan")}, "pair_macro_accuracy nan outside [0, 1]"),
    ],
)
def test_result_checks_its_accuracies_per_field(fields, message):
    obj = {**json.loads(PARENT_RESULT), **fields}
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(ExperimentResult, obj)


def test_mistyped_config_value_fails_the_run(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"source": "a", "target": "b", "method": "lr", "epochs": "10"}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert f"noseda: error: {cfg_path}: ExperimentConfig.epochs: expected int, got str" in capsys.readouterr().err
