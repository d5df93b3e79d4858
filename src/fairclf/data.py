"""Immutable dataset container, sensitive-attribute encoding and train/test splits.

A :class:`Dataset` bundles a feature matrix, ±1 labels and a block of binary
sensitive columns that are kept strictly apart from the features: models in
this package never see the sensitive block at prediction time, which is what
rules out direct use of the protected attributes in decisions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "SplitPlan",
    "append_bias",
    "category_codes",
    "encode_sensitive",
    "split",
    "standardize_columns",
    "read_dataset_csv",
    "write_dataset_csv",
]

BIAS_NAME = "bias"


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, ±1 labels and binary sensitive columns for N rows.

    ``scale_columns`` lists feature columns that a training harness may
    re-standardize with training-split statistics (numeric columns of real
    datasets); it is empty for synthetic data, whose raw coordinates are
    meaningful as-is.
    """

    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray
    sensitive_names: tuple[str, ...]
    feature_names: tuple[str, ...]
    has_bias_column: bool = False
    scale_columns: tuple[int, ...] = ()

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        sensitive = np.asarray(self.sensitive, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        n = features.shape[0]
        if n < 1:
            raise ValueError("dataset needs at least one row")
        if labels.shape != (n,):
            raise ValueError("labels must be a length-N vector")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must take values in {-1, +1}")
        if sensitive.ndim != 2 or sensitive.shape[0] != n:
            raise ValueError("sensitive must be an N x K matrix")
        if not np.all(np.isin(sensitive, (0.0, 1.0))):
            raise ValueError("sensitive columns must take values in {0, 1}")
        if len(self.sensitive_names) != sensitive.shape[1]:
            raise ValueError("sensitive_names must match sensitive column count")
        if len(self.feature_names) != features.shape[1]:
            raise ValueError("feature_names must match feature column count")
        overlap = set(self.feature_names) & set(self.sensitive_names)
        if overlap:
            raise ValueError(f"feature and sensitive names must be disjoint, got {sorted(overlap)}")
        if self.has_bias_column:
            if features.shape[1] == 0 or not np.all(features[:, -1] == 1.0):
                raise ValueError("has_bias_column is set but last feature column is not all ones")
        if any(j < 0 or j >= features.shape[1] for j in self.scale_columns):
            raise ValueError("scale_columns index out of range")
        object.__setattr__(self, "features", _readonly(features))
        object.__setattr__(self, "labels", _readonly(labels))
        object.__setattr__(self, "sensitive", _readonly(sensitive))
        object.__setattr__(self, "sensitive_names", tuple(self.sensitive_names))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "scale_columns", tuple(self.scale_columns))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_sensitive(self) -> int:
        return self.sensitive.shape[1]

    def rows(self, index: np.ndarray) -> "Dataset":
        """Dataset restricted to the given row indices, metadata preserved."""
        return replace(
            self,
            features=self.features[index],
            labels=self.labels[index],
            sensitive=self.sensitive[index],
        )


@dataclass(frozen=True)
class SplitPlan:
    """Repeated train/test split description: fraction, repeat count, seed."""

    train_fraction: float = 0.7
    repeats: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def append_bias(dataset: Dataset) -> Dataset:
    """Append an all-ones column to the features so the intercept folds into theta.

    Raises ValueError if the dataset already carries a bias column.
    """
    if dataset.has_bias_column:
        raise ValueError("dataset already has a bias column")
    ones = np.ones((dataset.n, 1))
    return replace(
        dataset,
        features=np.hstack([dataset.features, ones]),
        feature_names=dataset.feature_names + (BIAS_NAME,),
        has_bias_column=True,
    )


def category_codes(values) -> tuple[np.ndarray, list]:
    """Integer codes of a column of strings, and its distinct values in ``sorted`` order.

    ``distinct[codes[i]] == values[i]``. Each row's value is looked up once
    in a dict of the distinct values, so no pass compares the whole column
    with each value.
    """
    distinct = sorted(set(values))
    index = {val: j for j, val in enumerate(distinct)}
    return np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values)), distinct


def encode_sensitive(
    raw, name: str, positive_value=None
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Encode a categorical column as binary sensitive columns.

    Two distinct values give a single 0/1 column; the value mapped to 1 is
    ``positive_value`` when supplied, otherwise the lexicographically larger
    one. More than two values give one 0/1 column per value (full one-hot,
    each value getting its own column). Column names are value-qualified as
    ``"name=value"`` so the mapping is recorded. A constant column is
    rejected: its covariance with anything is identically zero.
    """
    codes, distinct = category_codes([str(v) for v in raw])
    if len(distinct) < 2:
        raise ValueError(f"sensitive column {name!r} is constant; encoding would be vacuous")
    if len(distinct) == 2:
        if positive_value is not None:
            pos = str(positive_value)
            if pos not in distinct:
                raise ValueError(f"positive_value {pos!r} not among values {distinct}")
        else:
            pos = distinct[1]
        return (codes == distinct.index(pos)).astype(float).reshape(-1, 1), (f"{name}={pos}",)
    if positive_value is not None:
        raise ValueError("positive_value only applies to binary attributes")
    columns = np.zeros((codes.size, len(distinct)))
    columns[np.arange(codes.size), codes] = 1.0
    return columns, tuple(f"{name}={val}" for val in distinct)


def split(dataset: Dataset, plan: SplitPlan, repeat_index: int) -> tuple[Dataset, Dataset]:
    """Deterministic disjoint train/test row partition for one repeat.

    The permutation depends only on (seed, repeat_index, N), so datasets with
    equal row counts are partitioned identically regardless of their columns.
    """
    if not 0 <= repeat_index < plan.repeats:
        raise ValueError(f"repeat_index {repeat_index} out of range [0, {plan.repeats})")
    rng = np.random.default_rng([plan.seed, repeat_index])
    perm = rng.permutation(dataset.n)
    n_train = int(round(plan.train_fraction * dataset.n))
    n_train = min(max(n_train, 1), dataset.n - 1)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return dataset.rows(train_idx), dataset.rows(test_idx)


def standardize_columns(
    train: Dataset, test: Dataset | None = None
) -> tuple[Dataset, Dataset | None]:
    """Zero-mean / unit-variance rescale of ``scale_columns`` using train statistics.

    The test half, when given, is shifted and scaled with the training
    moments, never its own. Columns with zero variance are left untouched.
    """
    if not train.scale_columns:
        return train, test
    cols = list(train.scale_columns)
    mu = train.features[:, cols].mean(axis=0)
    sd = train.features[:, cols].std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)

    def apply(ds: Dataset) -> Dataset:
        feats = ds.features.copy()
        feats[:, cols] = (feats[:, cols] - mu) / sd
        return replace(ds, features=feats)

    return apply(train), (apply(test) if test is not None else None)


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write features, label and sensitive columns to CSV.

    Column order is features..., ``label``, sensitive...; the reader relies on
    the ``label`` column to tell the two blocks apart.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + ["label"] + list(dataset.sensitive_names))
        for i in range(dataset.n):
            row = ["%.17g" % v for v in dataset.features[i]]
            row.append("%d" % int(dataset.labels[i]))
            row.extend("%.17g" % v for v in dataset.sensitive[i])
            writer.writerow(row)


def read_dataset_csv(path) -> Dataset:
    """Read a dataset written by :func:`write_dataset_csv`."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if "label" not in header:
            raise ValueError(f"{path}: no 'label' column")
        label_pos = header.index("label")
        rows = [r for r in reader if r]
    feature_names = tuple(header[:label_pos])
    sensitive_names = tuple(header[label_pos + 1 :])
    data = np.array(rows, dtype=float)
    features = data[:, :label_pos]
    labels = data[:, label_pos]
    sensitive = data[:, label_pos + 1 :]
    has_bias = bool(feature_names) and feature_names[-1] == BIAS_NAME
    return Dataset(
        features=features,
        labels=labels,
        sensitive=sensitive,
        sensitive_names=sensitive_names,
        feature_names=feature_names,
        has_bias_column=has_bias,
    )
