"""Loaders for the UCI Adult income and Bank marketing files.

Files are never downloaded; callers pass paths to the canonical UCI data.
For Adult the expected input is the train and test portions concatenated into
one comma-separated file (lines starting with ``|`` and blank lines are
ignored, test-style labels with a trailing period are accepted, and any row
containing a ``?`` field is dropped as missing). The Bank loader reads the
semicolon-separated ``bank-additional-full.csv`` with quoted fields and keeps
every row.

Both loaders return a ready-to-train :class:`~fairclf.data.Dataset` - label,
sensitive block, one-hot categoricals, standardized numerics, bias column -
plus an :class:`IngestReport` with the row and per-group counts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, append_bias, encode_sensitive

__all__ = ["IngestReport", "load_adult", "load_bank"]

ADULT_COLUMNS = [
    "age", "workclass", "fnlwgt", "education", "education-num", "marital-status",
    "occupation", "relationship", "race", "sex", "capital-gain", "capital-loss",
    "hours-per-week", "native-country", "income",
]
ADULT_NUMERIC = ["age", "fnlwgt", "education-num", "capital-gain", "capital-loss", "hours-per-week"]

BANK_NUMERIC = [
    "age", "duration", "campaign", "pdays", "previous",
    "emp.var.rate", "cons.price.idx", "cons.conf.idx", "euribor3m", "nr.employed",
]
BANK_LABEL = "y"
BANK_AGE_NAME = "age=25-60"


@dataclass(frozen=True)
class IngestReport:
    """Row accounting and the per-group/per-class counts of a loaded file."""

    rows_read: int
    rows_dropped_missing: int
    rows_kept: int
    label_positive: int
    label_negative: int
    group_stats: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.rows_read != self.rows_kept + self.rows_dropped_missing:
            raise ValueError("rows_read must equal rows_kept + rows_dropped_missing")

    def to_json_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_dropped_missing": self.rows_dropped_missing,
            "rows_kept": self.rows_kept,
            "label_positive": self.label_positive,
            "label_negative": self.label_negative,
            "group_stats": {k: dict(v) for k, v in self.group_stats.items()},
        }


def _group_stats(names_values: dict[str, list[str]], labels: np.ndarray) -> dict[str, dict[str, int]]:
    stats: dict[str, dict[str, int]] = {}
    for column, values in names_values.items():
        arr = np.asarray(values)
        for value in sorted(set(values)):
            mask = arr == value
            positive = int(np.sum(labels[mask] == 1))
            stats[f"{column}={value}"] = {
                "total": int(mask.sum()),
                "positive": positive,
                "negative": int(mask.sum()) - positive,
            }
    return stats


def _assemble_features(
    numeric: dict[str, list[float]], categorical: dict[str, list[str]]
) -> tuple[np.ndarray, tuple[str, ...], tuple[int, ...]]:
    """Standardized numeric columns, then one-hot blocks, in declaration order.

    A column's one-hot block has one column per distinct value, in
    ``sorted`` order. Each row's value is looked up once in a dict of those
    columns, instead of comparing the whole column with every value.
    """
    blocks: list[np.ndarray] = []
    names: list[str] = []
    for column, values in numeric.items():
        arr = np.asarray(values, dtype=float)
        sd = arr.std()
        arr = (arr - arr.mean()) / (sd if sd > 0 else 1.0)
        blocks.append(arr.reshape(-1, 1))
        names.append(column)
    scale_columns = tuple(range(len(numeric)))
    for column, values in categorical.items():
        distinct = sorted(set(values))
        index = {val: j for j, val in enumerate(distinct)}
        codes = np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))
        onehot = np.zeros((len(values), len(distinct)))
        onehot[np.arange(len(values)), codes] = 1.0
        blocks.append(onehot)
        names.extend(f"{column}={val}" for val in distinct)
    return np.hstack(blocks), tuple(names), scale_columns


def load_adult(path, sensitive_choice: str = "gender") -> tuple[Dataset, IngestReport]:
    """Load the concatenated UCI Adult file.

    ``sensitive_choice`` is one of ``gender`` (binary column), ``race``
    (five one-hot columns) or ``gender+race`` (both blocks). The chosen
    attribute(s) are excluded from the features; the other stays available as
    an ordinary categorical feature. Label +1 means income above 50K.
    """
    if sensitive_choice not in ("gender", "race", "gender+race"):
        raise ValueError("sensitive_choice must be 'gender', 'race' or 'gender+race'")
    rows: list[list[str]] = []
    dropped = 0
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("|"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != len(ADULT_COLUMNS):
                raise ValueError(f"{path}:{lineno}: expected {len(ADULT_COLUMNS)} fields, got {len(fields)}")
            if "?" in fields:
                dropped += 1
                continue
            rows.append(fields)
    if not rows:
        raise ValueError(f"{path}: no usable rows")

    by_column = {name: [row[i] for row in rows] for i, name in enumerate(ADULT_COLUMNS)}
    labels = np.empty(len(rows))
    for i, token in enumerate(by_column["income"]):
        token = token.rstrip(".")
        if token == ">50K":
            labels[i] = 1.0
        elif token == "<=50K":
            labels[i] = -1.0
        else:
            raise ValueError(f"{path}: unknown label token {token!r}")

    sensitive_sources = {"gender": ["sex"], "race": ["race"], "gender+race": ["sex", "race"]}[sensitive_choice]
    sensitive_blocks = []
    sensitive_names: list[str] = []
    for source in sensitive_sources:
        block, names = encode_sensitive(by_column[source], source)
        sensitive_blocks.append(block)
        sensitive_names.extend(names)

    numeric = {c: [float(v) for v in by_column[c]] for c in ADULT_NUMERIC}
    categorical = {
        c: by_column[c]
        for c in ADULT_COLUMNS
        if c not in ADULT_NUMERIC and c != "income" and c not in sensitive_sources
    }
    features, feature_names, scale_columns = _assemble_features(numeric, categorical)

    dataset = Dataset(
        features=features,
        labels=labels,
        sensitive=np.hstack(sensitive_blocks),
        sensitive_names=tuple(sensitive_names),
        feature_names=feature_names,
        scale_columns=scale_columns,
    )
    dataset = append_bias(dataset)
    report = IngestReport(
        rows_read=len(rows) + dropped,
        rows_dropped_missing=dropped,
        rows_kept=len(rows),
        label_positive=int(np.sum(labels == 1)),
        label_negative=int(np.sum(labels == -1)),
        group_stats=_group_stats({"sex": by_column["sex"], "race": by_column["race"]}, labels),
    )
    return dataset, report


def load_bank(path) -> tuple[Dataset, IngestReport]:
    """Load the UCI bank-additional-full.csv file.

    Label +1 means the client subscribed. The sensitive column is 1 when
    25 <= age <= 60 (inclusive on both ends); raw age is excluded from the
    features since it is the sensitive source.
    """
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh, delimiter=";", quotechar='"')
        header = [h.strip().strip('"') for h in next(reader)]
        if BANK_LABEL not in header:
            raise ValueError(f"{path}: no '{BANK_LABEL}' column in header")
        rows = []
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}")
            rows.append([f.strip().strip('"') for f in fields])
    if not rows:
        raise ValueError(f"{path}: no usable rows")

    by_column = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    labels = np.empty(len(rows))
    for i, token in enumerate(by_column[BANK_LABEL]):
        if token == "yes":
            labels[i] = 1.0
        elif token == "no":
            labels[i] = -1.0
        else:
            raise ValueError(f"{path}: unknown label token {token!r}")

    try:
        ages = np.array([float(v) for v in by_column["age"]])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric age field: {exc}") from None
    z = ((ages >= 25) & (ages <= 60)).astype(float)

    numeric = {c: [float(v) for v in by_column[c]] for c in BANK_NUMERIC if c in header and c != "age"}
    categorical = {c: by_column[c] for c in header if c not in BANK_NUMERIC and c != BANK_LABEL}
    features, feature_names, scale_columns = _assemble_features(numeric, categorical)

    dataset = Dataset(
        features=features,
        labels=labels,
        sensitive=z.reshape(-1, 1),
        sensitive_names=(BANK_AGE_NAME,),
        feature_names=feature_names,
        scale_columns=scale_columns,
    )
    dataset = append_bias(dataset)
    in_group = z == 1
    group_values = np.where(in_group, "25-60", "other")
    report = IngestReport(
        rows_read=len(rows),
        rows_dropped_missing=0,
        rows_kept=len(rows),
        label_positive=int(np.sum(labels == 1)),
        label_negative=int(np.sum(labels == -1)),
        group_stats=_group_stats({"age": list(group_values)}, labels),
    )
    return dataset, report
