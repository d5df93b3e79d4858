"""Loaders for the UCI Adult income and Bank marketing files.

Files are never downloaded; callers pass paths to the canonical UCI data.
Both files are decoded as UTF-8, whatever the locale; a byte that does not
decode raises ValueError naming the file and line.

For Adult the expected input is the train and test portions concatenated into
one comma-separated file. It is read by the rules of a text-mode loop over
its lines with ``str.strip`` and ``split(",")``:

- a line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``;
- lines and fields are stripped of what ``str.strip`` removes, Unicode
  whitespace included;
- blank lines and lines starting with ``|`` are skipped;
- a row with a field that is exactly ``?`` is dropped as missing;
- labels lose their trailing periods (the test portion's ``>50K.``);
- numbers are read as ``float()`` reads them;
- categories are ordered as ``sorted`` orders their strings.

It applies them to whole arrays rather than line by line: the line ends,
commas and whitespace are found in a byte view of the file, some 64 KB of
lines at a time, each column's fields are gathered as zero-padded byte rows
and coded by one sort, and each distinct number is converted once. No
Python object is made per field.

The Bank loader reads the semicolon-separated ``bank-additional-full.csv``
with quoted fields through ``csv``, keeps every row and codes each column
with :func:`~fairclf.data.category_codes`.

Each loader keeps only its own parsing: the line or ``csv`` rules, the label
tokens and the sensitive attribute. Both then share one pipeline from coded
columns to a ready-to-train :class:`~fairclf.data.Dataset` - label, sensitive
block, standardized numerics, one-hot categoricals, bias column - plus an
:class:`IngestReport` with the row and per-group counts. A value that is not
a number, or a label that is neither token, raises ValueError naming
``path:line``, the column and the value. The n x (d + 1) feature matrix is
allocated once, after the parse's buffers are released, and filled in place,
bias column included.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import BIAS_NAME, Dataset, _encode_codes, _handed_over, category_codes

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
    for column, (codes, distinct) in groups.items():
        totals = np.bincount(codes, minlength=len(distinct))
        positives = np.bincount(codes[positive], minlength=len(distinct))
        for value, total, pos in zip(distinct, totals.tolist(), positives.tolist()):
            stats[f"{column}={value}"] = {"total": total, "positive": pos, "negative": total - pos}
    return stats


def _per_value(path, coded, lines: np.ndarray, convert, problem: str) -> np.ndarray:
    """Each row's value through ``convert``, which is called once per distinct value.

    ``coded`` is a column's codes and distinct values. A value that
    ``convert`` rejects (KeyError or ValueError) raises ValueError starting
    ``path:line`` of the first row that holds one, then ``problem`` and the
    value.
    """
    codes, distinct = coded
    values = np.empty(len(distinct))
    rejected = np.zeros(len(distinct), dtype=bool)
    for j, value in enumerate(distinct):
        try:
            values[j] = convert(value)
        except (KeyError, ValueError):
            rejected[j] = True
    if rejected.any():
        row = int(np.argmax(rejected[codes]))
        raise ValueError(f"{path}:{lines[row]}: {problem} {distinct[codes[row]]!r}")
    return values[codes]


def _labels(path, column: str, coded, lines: np.ndarray, positive: str, negative: str) -> np.ndarray:
    """+1 for the ``positive`` token and -1 for the ``negative`` one; any other token is an error."""
    sign = {positive: 1.0, negative: -1.0}
    return _per_value(path, coded, lines, sign.__getitem__, f"unknown label token in the {column} column:")


def _dataset(
    path,
    columns: dict,
    numeric: list[str],
    lines: np.ndarray,
    labels: np.ndarray,
    sensitive: np.ndarray,
    sensitive_names: tuple[str, ...],
    groups: dict,
    rows_dropped: int,
) -> tuple[Dataset, IngestReport]:
    """The one pipeline from coded columns to a ``Dataset`` with its bias column, and the report.

    ``columns`` maps the feature columns, in declaration order, to their
    codes and distinct values in ``sorted`` order, and is emptied: the
    ``numeric`` ones become standardized columns, in that order, and the
    rest one-hot blocks with one column per distinct value. ``lines`` are
    the rows' line numbers in ``path``, for the errors. ``groups`` are the
    coded columns whose per-value counts the report carries.
    """
    report = IngestReport(
        rows_read=labels.size + rows_dropped,
        rows_dropped_missing=rows_dropped,
        rows_kept=labels.size,
        label_positive=int(np.sum(labels == 1)),
        label_negative=int(np.sum(labels == -1)),
        group_stats=_group_stats(groups, labels),
    )
    numbers = [_per_value(path, columns.pop(c), lines, float, f"non-numeric {c} field") for c in numeric]
    coded = [(c, *columns.pop(c)) for c in list(columns)]
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
        features=_handed_over(features),
        labels=_handed_over(labels),
        sensitive=_handed_over(sensitive),
        sensitive_names=sensitive_names,
        feature_names=tuple(names),
        has_bias_column=True,
        scale_columns=tuple(range(len(numbers))),
    )
    return dataset, report


def _read_utf8(path) -> tuple[np.ndarray, int]:
    """The file's bytes followed by 8 zero bytes, and the file's size.

    The bytes are checked to decode as UTF-8; a byte that does not raises
    ValueError naming the file and line.
    """
    with Path(path).open("rb") as fh:
        data = np.zeros(os.fstat(fh.fileno()).st_size + 8, dtype=np.uint8)
        size = fh.readinto(data[:-8])
        rest = fh.read()  # what a pipe, or a file grown since, holds past that size
    if rest:
        data = np.concatenate([data[:size], np.frombuffer(rest, dtype=np.uint8), np.zeros(8, dtype=np.uint8)])
        size += len(rest)
    data = data[: size + 8]
    if data.max() >= 128:
        try:
            str(data[:size], "utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start].tobytes()
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ValueError(f"{path}:{line}: not UTF-8: byte {exc.start} ({exc.reason})") from None
    return data, size


# the bytes of the ASCII characters that str.strip removes, and its non-ASCII ones
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_UNICODE_SPACE = "\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u2028\u2029\u202f\u205f\u3000"

# bytes of lines parsed per pass: the parse's arrays stay this small, so that
# the heap they are allocated from stays small after they are freed
_PASS_BYTES = 1 << 16


def _space_test(data: np.ndarray, lo: int, hi: int):
    """A test of whether the bytes at given positions in ``data[lo:hi]`` belong to whitespace.

    Every byte of a multi-byte whitespace character passes, so stripping
    moves over such a character one byte at a time.
    """
    piece = data[lo:hi]
    if piece.max() < 128:
        return lambda at: _ASCII_SPACE[data[at]]
    wide = []
    for char in _UNICODE_SPACE:
        code = char.encode()
        at = lo + np.flatnonzero(piece == code[0])
        for k in range(1, len(code)):
            at = at[data[at + k] == code[k]]
        wide += [at + k for k in range(len(code))]
    wide = np.concatenate(wide)
    return lambda at: _ASCII_SPACE[data[at]] | np.isin(at, wide)


def _skip(bounds: np.ndarray, limits: np.ndarray, step: int, passes) -> None:
    """Move each bound by ``step`` towards its limit while the byte it steps over ``passes``."""
    ahead = 0 if step > 0 else -1
    todo = np.flatnonzero(bounds != limits)
    while todo.size:
        todo = todo[passes(bounds[todo] + ahead)]
        bounds[todo] += step
        todo = todo[bounds[todo] != limits[todo]]


def _line_ends(data: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Where the lines in ``data[lo:hi]`` end: at ``\\n``, and at a ``\\r`` not followed by ``\\n``."""
    piece = data[lo:hi]
    ends = piece == 10
    cr = np.flatnonzero(piece == 13)
    ends[cr[data[lo + cr + 1] != 10]] = True
    return lo + np.flatnonzero(ends)


def _parse_lines(path, data: np.ndarray, start: int, ends: np.ndarray, first_line: int):
    """The rows of the lines from ``start`` that end at ``ends``, the first being line ``first_line``.

    Returns the kept rows' line numbers, the starts and lengths of their
    fields (one row each, labels without their trailing periods), and how
    many rows had a ``?`` field. Field k is ``data[starts[k]:stops[k]]``;
    each ends at a comma or a line end.
    """
    is_stop = data[start : ends[-1] + 1] == ord(",")
    is_stop[ends - start] = True
    stops = start + np.flatnonzero(is_stop)
    last = np.flatnonzero(data[stops] != ord(","))  # each line's last field
    starts = np.empty_like(stops)
    starts[0] = start
    starts[1:] = stops[:-1] + 1
    space = _space_test(data, start, ends[-1] + 1)
    _skip(starts, stops, 1, space)
    _skip(stops, starts, -1, space)

    first = np.empty_like(last)
    first[0] = 0
    first[1:] = last[:-1] + 1
    counts = last - first + 1
    head, head_stop = starts[first], stops[first]
    blank = (counts == 1) & (head == head_stop)
    bar = (head < head_stop) & (data[head] == ord("|"))
    lines = np.flatnonzero(~(blank | bar))
    wrong = counts[lines] != len(ADULT_COLUMNS)
    if wrong.any():
        line = lines[np.argmax(wrong)]
        raise ValueError(f"{path}:{first_line + line}: expected {len(ADULT_COLUMNS)} fields, got {counts[line]}")
    fields = first[lines, None] + np.arange(len(ADULT_COLUMNS))
    starts, lengths = starts[fields], stops[fields] - starts[fields]
    missing = ((lengths == 1) & (data[starts] == ord("?"))).any(axis=1)
    lines, starts, lengths = lines[~missing], starts[~missing], lengths[~missing]
    label_stop = starts[:, -1] + lengths[:, -1]
    _skip(label_stop, starts[:, -1], -1, lambda at: data[at] == ord("."))
    lengths[:, -1] = label_stop - starts[:, -1]
    return first_line + lines, starts, lengths, int(missing.sum())


def _code_fields(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, codes: np.ndarray) -> list[str]:
    """The distinct values of the UTF-8 fields ``data[starts[i]:starts[i] + lengths[i]]``.

    They are returned in ``sorted`` order of their strings, and ``codes``
    is filled with each field's index among them. Each field is gathered
    as a zero-padded row of 8-byte words; read big-endian, the words and
    then the length order the rows as their bytes do, and UTF-8 bytes order
    as the code points do. ``data`` ends with 8 bytes that are in no field.
    """
    width = 8 * max(1, -(-int(lengths.max()) // 8))
    limit = data.size - width
    fields = sliding_window_view(data, width)[np.minimum(starts, limit)]
    for i in np.flatnonzero(starts > limit):  # a field too close to the end for a window of its own
        fields[i, : lengths[i]] = data[starts[i] : starts[i] + lengths[i]]
    fields *= np.arange(width) < lengths[:, None]
    words = fields.view(">u8").T
    order = np.lexsort((lengths, *words[::-1]))
    ranked = lengths[order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    for word in words:
        ranked = word[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    codes[order] = np.cumsum(first) - 1
    # the distinct fields' bytes end to end, decoded once and cut at the
    # character offsets of their ends (UTF-8 continuation bytes start none)
    sizes = lengths[order[first]]
    blob = fields[order[first]][np.arange(width) < sizes[:, None]]
    text = blob.tobytes().decode()
    chars = np.concatenate(([0], np.cumsum((blob & 0xC0) != 0x80)))[np.cumsum(sizes)].tolist()
    return [text[a:b] for a, b in zip([0] + chars, chars)]


def _read_adult(path) -> tuple[dict, np.ndarray, int]:
    """The kept rows' columns, coded; their line numbers; and how many rows had a ``?`` field.

    The lines are parsed about ``_PASS_BYTES`` at a time into arrays sized
    once, from the 14 commas that each kept row has of its own, and every
    column is then coded at once. A parse of the whole file in one pass
    takes about as long, but its freed arrays stay resident in the heap
    (some 20 MB on the census file) through the fits that follow.
    """
    data, size = _read_utf8(path)
    commas = sum(np.count_nonzero(data[at : at + _PASS_BYTES] == ord(",")) for at in range(0, size, _PASS_BYTES))
    most = commas // (len(ADULT_COLUMNS) - 1)
    lines = np.empty(most, dtype=np.intp)
    starts = np.empty((most, len(ADULT_COLUMNS)), dtype=np.intp)
    lengths = np.empty_like(starts)
    kept = dropped = 0
    start, line = 0, 1
    while start < size:
        stop = min(start + _PASS_BYTES, size)
        ends = _line_ends(data, start, stop)
        while not ends.size and stop < size:  # a line longer than a pass
            stop = min(start + 2 * (stop - start), size)
            ends = _line_ends(data, start, stop)
        if stop == size and not (ends.size and ends[-1] == size - 1):
            ends = np.append(ends, size)  # the last line has no line end
        rows, row_starts, row_lengths, missing = _parse_lines(path, data, start, ends, line)
        lines[kept : kept + rows.size] = rows
        starts[kept : kept + rows.size] = row_starts
        lengths[kept : kept + rows.size] = row_lengths
        kept, dropped = kept + rows.size, dropped + missing
        start, line = ends[-1] + 1, line + ends.size
    if not kept:
        raise ValueError(f"{path}: no usable rows")
    # one block for every column's codes, taken before the coding's own
    # arrays, so that no code array is left among the freed ones
    codes = np.empty((len(ADULT_COLUMNS), kept), dtype=np.intp)
    columns = {
        name: (codes[j], _code_fields(data, starts[:kept, j], lengths[:kept, j], codes[j]))
        for j, name in enumerate(ADULT_COLUMNS)
    }
    return columns, lines[:kept], dropped


def load_adult(path, sensitive_choice: str = "gender") -> tuple[Dataset, IngestReport]:
    """Load the concatenated UCI Adult file.

    ``sensitive_choice`` is one of ``gender`` (binary column), ``race``
    (five one-hot columns) or ``gender+race`` (both blocks). The chosen
    attribute(s) are excluded from the features; the other stays available as
    an ordinary categorical feature. Label +1 means income above 50K.
    """
    if sensitive_choice not in ("gender", "race", "gender+race"):
        raise ValueError("sensitive_choice must be 'gender', 'race' or 'gender+race'")
    columns, lines, dropped = _read_adult(path)
    labels = _labels(path, "income", columns.pop("income"), lines, ">50K", "<=50K")
    groups = {"sex": columns["sex"], "race": columns["race"]}
    sources = {"gender": ["sex"], "race": ["race"], "gender+race": ["sex", "race"]}[sensitive_choice]
    blocks = [_encode_codes(*columns.pop(source), source) for source in sources]
    return _dataset(
        path,
        columns,
        ADULT_NUMERIC,
        lines,
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
    data, size = _read_utf8(path)
    text = str(data[:size], "utf-8")
    del data
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=";", quotechar='"')
    del text
    try:
        header = [h.strip().strip('"') for h in next(reader)]
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    for column in (BANK_LABEL, "age"):
        if column not in header:
            raise ValueError(f"{path}: no '{column}' column in header")
    rows, lines = [], []
    for fields in reader:
        if not fields:
            continue
        if len(fields) != len(header):
            raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(fields)}")
        rows.append([f.strip().strip('"') for f in fields])
        lines.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: no usable rows")
    columns = {name: category_codes(values) for name, values in zip(header, zip(*rows))}
    del rows
    lines = np.array(lines)

    labels = _labels(path, BANK_LABEL, columns.pop(BANK_LABEL), lines, "yes", "no")
    ages = _per_value(path, columns.pop("age"), lines, float, "non-numeric age field")
    in_group = (ages >= 25) & (ages <= 60)
    return _dataset(
        path,
        columns,
        [c for c in BANK_NUMERIC if c in columns],
        lines,
        labels,
        in_group.astype(float).reshape(-1, 1),
        (BANK_AGE_NAME,),
        {"age": category_codes(["25-60" if g else "other" for g in in_group])},
        0,
    )
