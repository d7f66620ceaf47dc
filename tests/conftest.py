import numpy as np
import pytest

from noseda.ingest import SequenceDataset, WindowSample


def dataset_from_arrays(features, labels, name="ds", feature_names=None):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(features.shape[1]))
    return SequenceDataset(
        name=name, feature_matrix=features, labels=labels, t=np.arange(len(labels)), feature_names=tuple(feature_names)
    )


def window(x, y, t=0):
    return WindowSample(x=np.asarray(x, dtype=np.float64), y=y, origin_t=t)


def windows_from_arrays(X, y):
    return [window(X[i], int(y[i]), t=i + 1) for i in range(len(y))]


@pytest.fixture
def rng():
    return np.random.default_rng(0)
