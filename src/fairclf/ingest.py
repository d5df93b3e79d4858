"""Loaders for the UCI Adult income and Bank marketing files.

Files are never downloaded; callers pass paths to the canonical UCI data.
For Adult the expected input is the train and test portions concatenated into
one comma-separated file (lines starting with ``|`` and blank lines are
ignored, test-style labels with a trailing period are accepted, and any row
containing a ``?`` field is dropped as missing). The Bank loader reads the
semicolon-separated ``bank-additional-full.csv`` with quoted fields and keeps
every row.

Each loader keeps only its own parsing: the line or ``csv`` rules, the label
tokens and the sensitive attribute. Both then share one pipeline from string
columns to a ready-to-train :class:`~fairclf.data.Dataset` - label, sensitive
block, standardized numerics, one-hot categoricals, bias column - plus an
:class:`IngestReport` with the row and per-group counts. Every categorical
column is coded once by :func:`~fairclf.data.category_codes`, the string
columns are released once coded, and the n x (d + 1) feature matrix is
allocated once and filled in place, bias column included.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import BIAS_NAME, Dataset, category_codes, encode_sensitive

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


def _group_stats(groups: dict, labels: np.ndarray) -> dict[str, dict[str, int]]:
    positive = labels == 1
    stats: dict[str, dict[str, int]] = {}
    for column, values in groups.items():
        codes, distinct = category_codes(values)
        totals = np.bincount(codes, minlength=len(distinct))
        positives = np.bincount(codes[positive], minlength=len(distinct))
        for value, total, pos in zip(distinct, totals.tolist(), positives.tolist()):
            stats[f"{column}={value}"] = {"total": total, "positive": pos, "negative": total - pos}
    return stats


def _labels(path, tokens, positive: str, negative: str) -> np.ndarray:
    """+1 for the ``positive`` token and -1 for the ``negative`` one; any other token is an error."""
    sign = {positive: 1.0, negative: -1.0}
    try:
        return np.fromiter(map(sign.__getitem__, tokens), dtype=float, count=len(tokens))
    except KeyError as exc:
        raise ValueError(f"{path}: unknown label token {exc.args[0]!r}") from None


def _dataset(
    columns: dict,
    numeric: list[str],
    labels: np.ndarray,
    sensitive: np.ndarray,
    sensitive_names: tuple[str, ...],
    groups: dict,
    rows_dropped: int,
) -> tuple[Dataset, IngestReport]:
    """The one pipeline from string columns to a ``Dataset`` with its bias column, and the report.

    ``columns`` holds the feature columns in declaration order and is
    emptied: the ``numeric`` ones become standardized columns, in that order,
    and the rest one-hot blocks with one column per distinct value in
    ``sorted`` order. Every column is coded before the matrix is allocated,
    so its strings are released first. ``groups`` are the columns whose
    per-value counts the report carries.
    """
    report = IngestReport(
        rows_read=labels.size + rows_dropped,
        rows_dropped_missing=rows_dropped,
        rows_kept=labels.size,
        label_positive=int(np.sum(labels == 1)),
        label_negative=int(np.sum(labels == -1)),
        group_stats=_group_stats(groups, labels),
    )
    numbers = [np.fromiter(map(float, columns.pop(c)), dtype=float, count=labels.size) for c in numeric]
    coded = [(c, *category_codes(columns.pop(c))) for c in list(columns)]
    names = list(numeric)
    names += [f"{c}={val}" for c, _, distinct in coded for val in distinct]
    names.append(BIAS_NAME)

    features = np.zeros((labels.size, len(names)))
    for j, arr in enumerate(numbers):
        sd = arr.std()
        features[:, j] = (arr - arr.mean()) / (sd if sd > 0 else 1.0)
    offset = len(numbers)
    rows = np.arange(labels.size)
    for _, codes, distinct in coded:
        features[rows, offset + codes] = 1.0
        offset += len(distinct)
    features[:, -1] = 1.0
    dataset = Dataset(
        features=features,
        labels=labels,
        sensitive=sensitive,
        sensitive_names=sensitive_names,
        feature_names=tuple(names),
        has_bias_column=True,
        scale_columns=tuple(range(len(numbers))),
    )
    return dataset, report


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
    columns = dict(zip(ADULT_COLUMNS, zip(*rows)))
    del rows

    labels = _labels(path, [token.rstrip(".") for token in columns.pop("income")], ">50K", "<=50K")
    groups = {"sex": columns["sex"], "race": columns["race"]}
    sources = {"gender": ["sex"], "race": ["race"], "gender+race": ["sex", "race"]}[sensitive_choice]
    blocks = [encode_sensitive(columns.pop(source), source) for source in sources]
    return _dataset(
        columns,
        ADULT_NUMERIC,
        labels,
        np.hstack([block for block, _ in blocks]),
        sum((names for _, names in blocks), ()),
        groups,
        dropped,
    )


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
    columns = dict(zip(header, zip(*rows)))
    del rows

    labels = _labels(path, columns.pop(BANK_LABEL), "yes", "no")
    try:
        ages = np.array([float(v) for v in columns.pop("age")])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric age field: {exc}") from None
    in_group = (ages >= 25) & (ages <= 60)
    return _dataset(
        columns,
        [c for c in BANK_NUMERIC if c in columns],
        labels,
        in_group.astype(float).reshape(-1, 1),
        (BANK_AGE_NAME,),
        {"age": ["25-60" if g else "other" for g in in_group]},
        0,
    )
