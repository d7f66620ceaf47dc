"""Loading, harmonizing, standardizing, windowing and splitting sensor CSV data.

A dataset is an ordered sequence of per-minute sensor frames with a 4-class
quality label, held as columns.  Classification operates on length-2 windows
labeled by their last timestep, so every file of N frames yields N-1
windows, held as arrays in a ``WindowSet``.  Windows never cross file
boundaries.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)

CLASS_LABELS = (1, 2, 3, 4)

# Channels removed so the gas-sensor feature set is uniform across datasets.
DEFAULT_DROP = ("humidity", "temperature", "MQ7", "MQ138", "MQ137")

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class SequenceDataset:
    """One recording as columns: row i is the reading at minute ``t[i]``."""

    name: str
    feature_matrix: np.ndarray  # (N, d) float64 gas-channel readings
    labels: np.ndarray  # (N,) int64 quality labels in 1..4
    t: np.ndarray  # (N,) int64 minute indexes, strictly increasing
    feature_names: tuple[str, ...]

    def __post_init__(self):
        # one layout for every dataset: reductions over the rows sum in memory
        # order, so a column slice must not change their bits
        F = np.ascontiguousarray(self.feature_matrix, dtype=np.float64)
        labels, t, d = np.asarray(self.labels), np.asarray(self.t), len(self.feature_names)
        if F.ndim != 2 or F.shape[1] != d:
            raise ValueError(f"{self.name}: feature matrix of shape {F.shape}, expected {d} columns")
        if not F.shape[0] == len(labels) == len(t):
            raise ValueError(
                f"{self.name}: columns of different length: {F.shape[0]} feature rows,"
                f" {len(labels)} labels, {len(t)} times"
            )
        bad = np.flatnonzero(~np.isin(labels, CLASS_LABELS))
        if bad.size:
            raise ValueError(f"{self.name}: frame {bad[0]} label {labels[bad[0]]} not in {CLASS_LABELS}")
        unordered = np.flatnonzero(np.diff(t) <= 0)
        if unordered.size:
            raise ValueError(f"{self.name}: frames not ordered by t at index {unordered[0] + 1}")
        object.__setattr__(self, "feature_matrix", F)
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))
        object.__setattr__(self, "t", t.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class WindowSample:
    """A 2-timestep slice of a sequence, labeled by its final frame."""

    x: np.ndarray  # (2, d)
    y: int
    origin_t: int

    def __post_init__(self):
        if self.x.ndim != 2 or self.x.shape[0] != 2:
            raise ValueError(f"window must be 2 x d, got shape {self.x.shape}")
        if self.y not in CLASS_LABELS:
            raise ValueError(f"window label {self.y} not in {CLASS_LABELS}")


@dataclass(frozen=True, eq=False)
class WindowSet:
    """n windows as arrays.  Window i stacks two consecutive frames in
    ``X[i]``, carries the label ``y[i]`` and minute ``origin_t[i]`` of the
    later one, and came from input file ``file_id[i]``.

    An integer index gives a ``WindowSample`` and iteration yields them, so
    code written for lists of windows keeps working; a slice, mask or index
    array gives a ``WindowSet``.
    """

    X: np.ndarray  # (n, 2, d)
    y: np.ndarray  # (n,) int64
    origin_t: np.ndarray  # (n,) int64
    file_id: np.ndarray  # (n,) int64

    def __post_init__(self):
        n = len(self.y)
        if self.X.ndim != 3 or self.X.shape[:2] != (n, 2) or len(self.origin_t) != n or len(self.file_id) != n:
            raise ValueError(
                f"window set columns disagree: X {self.X.shape}, {n} labels,"
                f" {len(self.origin_t)} origin times, {len(self.file_id)} file ids"
            )
        if not np.all(np.isin(self.y, CLASS_LABELS)):
            raise ValueError(f"window labels must be in {CLASS_LABELS}")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def flat(self) -> np.ndarray:
        """(n, 2d) view of the windows, the clustering/gating representation."""
        return self.X.reshape(len(self), 2 * self.X.shape[2])

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return WindowSample(x=self.X[index], y=int(self.y[index]), origin_t=int(self.origin_t[index]))
        if not isinstance(index, slice):
            index = np.asarray(index)
            if index.dtype != bool:
                index = index.astype(np.intp)
        return WindowSet(self.X[index], self.y[index], self.origin_t[index], self.file_id[index])

    def __iter__(self):
        for x, y, t in zip(self.X, self.y.tolist(), self.origin_t.tolist()):
            yield WindowSample(x=x, y=y, origin_t=t)

    @classmethod
    def concat(cls, sets: Sequence["WindowSet"]) -> "WindowSet":
        """Join sets end to end; the file ids number the sets in order."""
        return cls(
            X=np.concatenate([s.X for s in sets]),
            y=np.concatenate([s.y for s in sets]),
            origin_t=np.concatenate([s.origin_t for s in sets]),
            file_id=np.repeat(np.arange(len(sets)), [len(s) for s in sets]),
        )


Windows = WindowSet | Sequence[WindowSample]


def as_window_set(windows: Windows) -> WindowSet:
    """A WindowSet as it is, or a nonempty WindowSample sequence stacked once
    (all in file 0).  Every public call that takes windows converts here."""
    if isinstance(windows, WindowSet):
        return windows
    n = len(windows)
    if n == 0:
        raise ValueError("no windows")
    return WindowSet(
        X=np.stack([w.x for w in windows]),
        y=np.fromiter((w.y for w in windows), dtype=np.int64, count=n),
        origin_t=np.fromiter((w.origin_t for w in windows), dtype=np.int64, count=n),
        file_id=np.zeros(n, dtype=np.int64),
    )


@dataclass(frozen=True)
class FewShotSplit:
    shots: WindowSet
    test_pool: WindowSet
    n_classes: int
    # Positions of shots / test windows in the input, in the order above.
    shot_indices: tuple[int, ...]
    test_indices: tuple[int, ...]


@dataclass(frozen=True)
class StandardizationStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        for name in ("mean", "std"):  # a float64 array passes as is
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("standardization mean must be finite")
        if not np.all(np.isfinite(self.std)) or np.any(self.std <= 0):
            raise ValueError("standardization std must be finite and positive")

    @classmethod
    def identity(cls, d: int) -> "StandardizationStats":
        return cls(mean=np.zeros(d), std=np.ones(d))


def load_csv(path, label_column: str = "label") -> SequenceDataset:
    """Read one UTF-8 CSV file, with or without a byte order mark, into a
    SequenceDataset.

    The header names the columns; every column except ``label_column`` is a
    numeric feature, and there must be at least one.  Labels must be
    integers in 1..4; the first offending data row (1-based) is reported
    otherwise.  Blank lines are skipped but still counted, both in row
    numbers and in the frames' ``t``.  A byte that is not UTF-8 is reported
    with the header or the data row that holds it.

    Clean text is parsed in one ``np.loadtxt`` call (``_parse_text``); any
    other text takes the ``csv`` row walk (``_parse_walk``).
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh))
            body = fh.read()  # the lines after the header
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    header = [h.strip() for h in header]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise ValueError(f"{path}: repeated column name(s) {repeated} in header")
    if label_column not in header:
        raise ValueError(f"{path}: no column named {label_column!r} in header {header}")
    if len(header) == 1:
        raise ValueError(f"{path}: no feature column besides {label_column!r}")
    label_idx = header.index(label_column)
    features, labels, t = _parse_text(body, len(header), label_idx) or _parse_walk(path, body, header, label_idx)
    feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
    return SequenceDataset(name=path.stem, feature_matrix=features, labels=labels, t=t, feature_names=feature_names)


def _not_utf8(path: Path) -> ValueError:
    """The error for the file's first byte that is not UTF-8, naming the
    header or the data row (numbered as ``_parse_walk`` numbers them) it is in."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")  # not utf-8-sig: its error positions skip the BOM
    except UnicodeDecodeError as exc:
        # the CSV rows of the text before the byte, the byte's own row included
        before = raw[: exc.start].decode("utf-8") + "x"
        row_no = sum(1 for _ in csv.reader(io.StringIO(before, newline=""))) - 1
        where = f"row {row_no}" if row_no else "header"
        return ValueError(f"{path}: {where}: byte {raw[exc.start]:#04x} is not UTF-8 ({exc.reason})")
    return ValueError(f"{path}: not UTF-8 when first read, and changed since")


def _parse_text(body: str, n_cols: int, label_idx: int):
    """The CSV lines after the header at once, by ``np.loadtxt``: the
    features, labels and ``t`` as ``_parse_walk`` would return them, or None.

    None when the lines could read otherwise as CSV rows (a quote or a lone
    carriage return), when ``np.loadtxt`` refuses them, when a row fails the
    checks, or when a blank line comes before a data row: ``np.loadtxt``
    skips an empty line, which the row count then misses, and a
    whitespace-only line is one cell where there are at least two.  Blank
    lines after the last data row move no row number and no ``t``, so they
    are cut first.  The lines are split at ``\\n`` only, as the row walk
    splits them.
    """
    if not body or body.isspace() or '"' in body or body.count("\r") != body.count("\r\n"):
        return None  # no data rows (on which np.loadtxt would warn), or not clean
    lines = body.split("\n")
    while not lines[-1].strip():  # a line that is not blank ends the loop
        lines.pop()
    try:
        cells = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if cells.shape != (len(lines), n_cols):
        return None
    raw_labels = cells[:, label_idx]
    features = np.delete(cells, label_idx, axis=1)
    if not (np.all(np.isin(raw_labels, CLASS_LABELS)) and np.all(np.isfinite(features))):
        return None
    return features, raw_labels.astype(np.int64), np.arange(len(cells))


def _parse_walk(path: Path, body: str, header: list[str], label_idx: int):
    """The CSV lines after the header, one row at a time: the (N, d)
    features, the (N,) labels and each row's ``t`` (its number among the
    lines after the header, from 0, blank ones included).  Each row is
    converted and checked as it is read; the first bad one raises, with its
    row number and, for a bad cell, its column."""
    features, labels, t = [], [], []
    for row_no, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=1):  # the file's line breaks
        if not row or not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
        raw_label = row[label_idx].strip()
        try:
            label = int(float(raw_label))
        except (ValueError, OverflowError):  # OverflowError: an infinite label
            raise ValueError(f"{path}: row {row_no}: non-integer label {raw_label!r}") from None
        if label not in CLASS_LABELS or float(raw_label) != label:
            raise ValueError(f"{path}: row {row_no}: label {raw_label} outside {{1..4}}")
        values = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{path}: row {row_no}: non-numeric value {cell!r} in column {header[i]!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: row {row_no}: non-finite value {cell!r} in column {header[i]!r}")
            values.append(value)
        features.append(values)
        labels.append(label)
        t.append(row_no - 1)
    if not features:
        raise ValueError(f"{path}: no data rows")
    return np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64), np.array(t, dtype=np.int64)


def load_dataset(path, label_column: str = "label") -> list[SequenceDataset]:
    """Load a dataset from a single CSV file or a directory of CSV files.

    Directory contents are taken in lexicographic order, one SequenceDataset
    per file.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.csv"))
        if not files:
            raise FileNotFoundError(f"no .csv files in directory {path}")
        return [load_csv(f, label_column) for f in files]
    return [load_csv(path, label_column)]


def harmonize(ds: SequenceDataset, drop: Sequence[str] = DEFAULT_DROP) -> SequenceDataset:
    """Remove the named feature columns where present (case-insensitive).

    Absent names are skipped silently (logged).  Idempotent.  Dropping every
    column is an error.
    """
    drop_lower = {name.lower() for name in drop}
    keep = [i for i, name in enumerate(ds.feature_names) if name.lower() not in drop_lower]
    if len(keep) == len(ds.feature_names):
        if drop:
            log.debug("%s: none of %s present, nothing dropped", ds.name, sorted(drop_lower))
        return ds
    dropped = [n for n in ds.feature_names if n.lower() in drop_lower]
    if not keep:
        raise ValueError(f"{ds.name}: dropping columns {dropped} leaves no feature column")
    absent = sorted(drop_lower - {n.lower() for n in ds.feature_names})
    log.info("%s: dropped columns %s (absent: %s)", ds.name, dropped, absent)
    names = tuple(ds.feature_names[i] for i in keep)
    return replace(ds, feature_matrix=ds.feature_matrix[:, keep], feature_names=names)


def fit_standardizer(datasets: Sequence[SequenceDataset]) -> StandardizationStats:
    """Per-feature mean and population (N-divisor) std over a sequence of datasets.

    Stds are floored at 1e-8 so degenerate channels stay usable.
    """
    if not datasets or sum(len(ds) for ds in datasets) == 0:
        raise ValueError("cannot fit standardizer on empty data")
    X = np.concatenate([ds.feature_matrix for ds in datasets], axis=0)
    if X.shape[0] < 2:
        raise ValueError(f"need at least 2 frames to standardize, got {X.shape[0]}")
    mean = X.mean(axis=0)
    std = np.maximum(X.std(axis=0), STD_FLOOR)
    return StandardizationStats(mean=mean, std=std)


def apply_standardizer(ds: SequenceDataset, stats: StandardizationStats) -> SequenceDataset:
    d = len(ds.feature_names)
    if stats.mean.shape != (d,):
        raise ValueError(f"standardizer is {stats.mean.shape[0]}-dimensional, dataset has d={d}")
    return replace(ds, feature_matrix=(ds.feature_matrix - stats.mean) / stats.std)


def make_windows(ds: SequenceDataset) -> WindowSet:
    """Slice a sequence into N-1 overlapping 2-frame windows.

    Window i stacks frames (i, i+1) and carries the label and ``t`` of frame
    i+1.
    """
    n = len(ds)
    if n < 2:
        raise ValueError(f"{ds.name}: need at least 2 frames to window, got {n}")
    F = ds.feature_matrix
    X = np.empty((n - 1, 2, F.shape[1]))
    X[:, 0] = F[:-1]
    X[:, 1] = F[1:]
    return WindowSet(X=X, y=ds.labels[1:], origin_t=ds.t[1:], file_id=np.zeros(n - 1, dtype=np.int64))


def stack_windows(windows: Windows) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2, d) feature array and (n,) label array of the windows."""
    ws = as_window_set(windows)
    return ws.X, ws.y


def flatten_windows(windows: Windows) -> np.ndarray:
    """(n, 2d) matrix of flattened windows."""
    return as_window_set(windows).flat


def sample_few_shot(windows: Windows, per_class: int = 4, seed: int = 0) -> FewShotSplit:
    """Draw ``per_class`` labeled windows per present class, uniformly without
    replacement; everything else becomes the held-out test pool.

    Classes with fewer than ``per_class`` windows contribute all of theirs
    (logged).  Deterministic under a fixed seed.
    """
    if len(windows) == 0:
        raise ValueError("cannot split an empty window list")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    ws = as_window_set(windows)
    rng = np.random.default_rng(seed)
    classes = np.unique(ws.y).tolist()
    shot_idx: list[int] = []
    for c in classes:
        idx = np.flatnonzero(ws.y == c)
        if idx.size < per_class:
            log.warning("class %d has only %d windows (< %d); taking all", c, idx.size, per_class)
            chosen = idx
        else:
            chosen = rng.choice(idx, size=per_class, replace=False)
        shot_idx.extend(sorted(chosen.tolist()))
    is_test = np.ones(len(ws), dtype=bool)
    is_test[shot_idx] = False
    test_idx = np.flatnonzero(is_test)
    return FewShotSplit(
        shots=ws[shot_idx],
        test_pool=ws[test_idx],
        n_classes=len(classes),
        shot_indices=tuple(shot_idx),
        test_indices=tuple(test_idx.tolist()),
    )
