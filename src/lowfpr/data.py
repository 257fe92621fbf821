"""Per-sample ensemble prediction records: loading, validation, filtering, writing.

A dataset row is one sample scored by T ensemble members. Two on-disk formats
are supported:

* CSV with header ``sample_id,label,split,family,m0,...,m{T-1}``, spelled by
  ``_csv_header`` alone (family empty for benign / untagged rows).
* JSON Lines with keys ``id`` (a string or an integer), ``label``, ``split``,
  ``family`` (a string, an integer or null) and ``scores`` (array of T floats).

Each input is parsed and validated once. JSON Lines has one loader, the row
path below; CSV has two. Its bulk path parses the file with one ``np.loadtxt``
call and hands the columns to one column check, ``_column_fault``, which holds
the schema's rules: labels are 0 or 1, splits are known, scores lie in [0, 1],
benign rows carry no family tag, ids are unique. It names the first offending
row; ``PredictionDataset(...)`` raises DatasetError with that message.

When that check fails, or a CSV holds anything that ``np.loadtxt`` might read
differently from ``csv.reader`` and ``float()`` (a quote, a carriage return
outside ``\r\n``, one of the separators ``\x1c``-``\x1f``, an overlong
line), the CSV is read again row by row. The row path is the only place a
load raises DatasetError for a broken rule, so every message names its line
and field. Each format's reader only splits its lines into records; one row
checker, ``_from_records``, applies the schema's rules to the records of both
formats. An unreadable or non-UTF-8 file raises DatasetError naming it.

Every loader fills the ``splits`` column with the three ``SPLIT_NAMES``
objects themselves, not one parsed string per row. Datasets are immutable;
all column arrays are read-only so downstream code can share them without
copying. ``PredictionDataset(...)`` validates and copies its columns. No
load validates twice: the loaders and ``filter_split`` build their results
from columns that are already valid through the private
``PredictionDataset._trusted``, which skips that validation.

Every CSV table the package writes, datasets and study results alike, goes
through ``_write_csv``. Both writers format each row with one %-template
built once per table (per file for JSON Lines), turning ``_WRITE_BLOCK`` rows
at a time into text column by column. A block's text fields get csv quoting
only when the block's joined text holds a character that needs it; JSON text
goes through json's own ``encode_basestring_ascii``, the escaping
``json.dumps`` applies.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

SPLIT_NAMES = ("train", "validation", "test")
# A split field's text -> its object in SPLIT_NAMES, so that a loaded split column holds three objects, not n strings.
_SHARED_SPLITS = {name: name for name in SPLIT_NAMES}

_FIXED_COLUMNS = ("sample_id", "label", "split", "family")
_MEMBER_COLUMN = "m{}"  # member k's CSV column, also its name in messages
_COLUMNS = ("sample_ids", "labels", "splits", "families", "scores")
_FORMATS = ("csv", "jsonl")

# np.loadtxt may read these differently from csv.reader and float(): quoting,
# a carriage return outside "\r\n", and the separators \x1c-\x1f, which numpy
# strips from a number as whitespace where float() rejects it.
_CSV_UNSAFE = ('"', "\r", "\x1c", "\x1d", "\x1e", "\x1f")
# Rows turned into Python objects at a time by the writers.
_WRITE_BLOCK = 4096


class DatasetError(ValueError):
    """An input file or record set violates the dataset schema."""


@dataclass(frozen=True)
class PredictionDataset:
    """Columnar store of ensemble member scores plus per-sample metadata.

    ``scores`` has shape (n_samples, member_count) with values in [0, 1].
    Labels are 0 (benign) and 1 (malicious). ``families`` holds ``None`` for
    benign or untagged rows; a family tag on a benign row is rejected.
    """

    sample_ids: np.ndarray
    labels: np.ndarray
    splits: np.ndarray
    families: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        ids = np.array([str(x) for x in np.asarray(self.sample_ids).ravel()], dtype=object)
        labels = np.asarray(self.labels).ravel()  # checked before the int64 cast, which truncates 0.5 to 0
        splits = np.array([str(x) for x in np.asarray(self.splits).ravel()], dtype=object)
        families = np.array(
            [None if f is None else str(f) for f in np.asarray(self.families, dtype=object).ravel()],
            dtype=object,
        )
        scores = np.array(self.scores, dtype=np.float64, copy=True)
        if scores.ndim != 2:
            raise DatasetError(f"scores must be 2-dimensional, got shape {scores.shape}")
        n, t = scores.shape
        if t < 1:
            raise DatasetError("member count must be at least 1")
        for name, col in (("sample_ids", ids), ("labels", labels), ("splits", splits), ("families", families)):
            if col.shape[0] != n:
                raise DatasetError(f"{name} has length {col.shape[0]}, expected {n}")
        if (fault := _column_fault(ids, labels, splits, families, scores)) is not None:
            raise DatasetError(fault)
        self._set_columns(ids, labels.astype(np.int64), splits, families, scores)

    def _set_columns(self, *columns: np.ndarray) -> None:
        for name, col in zip(_COLUMNS, columns, strict=True):
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    @classmethod
    def _trusted(
        cls,
        sample_ids: np.ndarray,
        labels: np.ndarray,
        splits: np.ndarray,
        families: np.ndarray,
        scores: np.ndarray,
    ) -> PredictionDataset:
        """Wrap columns that already pass every check of ``__post_init__``.

        They must have the types it produces: object arrays of ``str`` (and
        ``None`` families), int64 labels, 2-D float64 scores, and must be
        owned by no one else, because they are made read-only, not copied.
        """
        ds = object.__new__(cls)
        ds._set_columns(sample_ids, labels, splits, families, scores)
        return ds

    def __len__(self) -> int:
        return int(self.scores.shape[0])

    @property
    def member_count(self) -> int:
        return int(self.scores.shape[1])


def _bad_labels(labels: np.ndarray) -> np.ndarray:
    """Where the 1-D ``labels`` break the package's label rule: each entry, of any dtype, must equal 0 or 1
    and be neither complex nor a timedelta (1+0j and a 1 s timedelta equal 1)."""
    bad = ~np.isin(labels, (0, 1)) | (labels.dtype.kind in "cm")
    if labels.dtype.kind == "O":
        bad |= np.array([isinstance(x, (complex, np.complexfloating)) for x in labels.tolist()], dtype=bool)
    return bad


def _column_fault(ids, labels, splits, families, scores: np.ndarray) -> str | None:
    """The message for the first row that breaks a column rule, or None when every row keeps them.

    The rules, in the order they are checked: labels are 0 or 1, splits are
    known, scores lie in [0, 1], benign rows carry no family tag, ids are unique.
    """
    bad = _bad_labels(labels)
    if bad.any():
        i = int(np.argmax(bad))
        return f"label must be 0 or 1, got {labels[i : i + 1].tolist()[0]!r} for sample '{ids[i]}'"
    bad = ~np.isin(splits, SPLIT_NAMES)
    if bad.any():
        i = int(np.argmax(bad))
        return f"unknown split '{splits[i]}' for sample '{ids[i]}'"
    with np.errstate(invalid="ignore"):
        bad = ~((scores >= 0.0) & (scores <= 1.0))
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), scores.shape)
        return f"score {_MEMBER_COLUMN.format(j)}={float(scores[i, j])!r} outside [0, 1] for sample '{ids[i]}'"
    bad = (labels == 0) & (families != None)  # noqa: E711  (elementwise)
    if bad.any():
        i = int(np.argmax(bad))
        return f"benign sample '{ids[i]}' carries family tag '{families[i]}'"
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for s in ids:
            if s in seen:
                return f"duplicate sample_id '{s}'"
            seen.add(s)
    return None


def _read_json(path: str | Path):
    """Parse a JSON file; a missing or unreadable file, or text that is not JSON, raises DatasetError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DatasetError(f"{path}: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetError(f"{path}: invalid JSON: {exc}") from None


def _check_format(fmt: str) -> str:
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {fmt!r}")
    return fmt


def _csv_header(member_count: int) -> list[str]:
    """The CSV header of a dataset with ``member_count`` members: the fixed columns, then m0, m1, ..."""
    return [*_FIXED_COLUMNS, *map(_MEMBER_COLUMN.format, range(member_count))]


def _csv_columns(path: Path) -> PredictionDataset | None:
    """Parse a CSV in bulk; None when the row path has to read it."""
    text = path.read_bytes().decode("utf-8").replace("\r\n", "\n")
    if any(c in text for c in _CSV_UNSAFE):
        return None
    lines = text.split("\n")
    del text
    header = lines[0].split(",")
    t = len(header) - len(_FIXED_COLUMNS)
    if t < 1 or header != _csv_header(t):
        return None
    del lines[0]  # the body stays in this one list, freed as soon as it is parsed
    # A line no longer than csv's field limit holds no field over it.
    if not any(lines) or max(map(len, lines)) > csv.field_size_limit():
        return None
    dtype = np.dtype([(name, object) for name in _FIXED_COLUMNS] + [("scores", np.float64, (t,))])
    try:
        # Skips empty lines, as csv.reader does, and raises on a wrong field count. The split field (column 2)
        # becomes its SPLIT_NAMES object, or None when unknown, which the column check then rejects.
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1, converters={2: _SHARED_SPLITS.get})
    except ValueError:
        return None
    del lines
    # Only "0" and "1" pass as labels here ("1.0" is left to the row path).
    malicious = rows["label"] == "1"
    if not (malicious | (rows["label"] == "0")).all():
        return None
    ids, splits = np.array(rows["sample_id"], dtype=object), np.array(rows["split"], dtype=object)
    families = np.where(rows["family"] == "", None, rows["family"])
    scores = np.ascontiguousarray(rows["scores"], dtype=np.float64)
    del rows
    # The bools check as the labels would (False == 0, True == 1); int64 labels come after, off the memory peak.
    if _column_fault(ids, malicious, splits, families, scores) is not None:
        return None
    return PredictionDataset._trusted(ids, malicious.astype(np.int64), splits, families, scores)


def _csv_rows(path: Path) -> PredictionDataset:
    """Check a CSV's header, then hand its rows to ``_from_records``; a csv.Error in either names its line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if (header := next(reader, None)) is None:
                raise DatasetError(f"{path}: empty file, expected a header row")
            t = len(header) - len(_FIXED_COLUMNS)
            for k, name in enumerate(_csv_header(max(t, 1))):
                if (got := header[k] if k < len(header) else "<missing>") != name:
                    raise DatasetError(f"{path}: header column {k} must be '{name}', got '{got}'")

            def records():
                for lineno, row in enumerate(reader, start=2):
                    if not row:
                        continue
                    if len(row) != len(header):
                        raise DatasetError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
                    yield lineno, row[0], row[1], row[2], row[3] or None, row[4:]

            return _from_records(path, records(), _MEMBER_COLUMN, t)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None


def _jsonl_rows(path: Path) -> PredictionDataset:
    def records(lines):
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # also an int past the interpreter's digit limit
                raise DatasetError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise DatasetError(f"{path}: line {lineno}: expected a JSON object")
            try:
                sample_id, label, split, family, scores = obj["id"], obj["label"], obj["split"], obj["family"], obj["scores"]
            except KeyError as exc:
                raise DatasetError(f"{path}: line {lineno}: missing key '{exc.args[0]}'") from None
            if not _is_number(sample_id, (int, str)):
                raise DatasetError(f"{path}: line {lineno}: field id must be a string or an integer, got {sample_id!r}")
            if family is not None and not _is_number(family, (int, str)):
                raise DatasetError(
                    f"{path}: line {lineno}: field family must be a string, an integer or null, got {family!r}"
                )
            yield lineno, str(sample_id), str(label), str(split), None if family is None else str(family), scores

    with open(path, encoding="utf-8") as fh:
        return _from_records(path, records(fh), "scores[{}]", None)


def _is_number(value, kinds=(int, float)) -> bool:
    """A JSON value of one of ``kinds``, numbers by default; JSON's true and false are neither."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _from_records(path: Path, records, field_name: str, member_count: int | None) -> PredictionDataset:
    """Check row records against the schema, the first broken rule raising DatasetError naming its line.

    Each record is ``(lineno, sample_id, label_text, split, family, raw_scores)``
    with text fields and ``None`` for an untagged family. ``field_name`` formats
    score k's name in messages. A ``member_count`` of None is taken from the
    first record, and a file with no record cannot give one. A message's text
    is built only once its check has failed.
    """
    ids, malicious, splits, families = [], [], [], []
    scores = array("d")
    seen: dict[str, int] = {}
    t = member_count

    def fault(message: str) -> DatasetError:
        return DatasetError(f"{path}: line {lineno}: {message}")

    for lineno, sample_id, label, split, family, raw_scores in records:
        if sample_id in seen:
            raise fault(f"duplicate sample_id '{sample_id}' (first seen on line {seen[sample_id]})")
        seen[sample_id] = lineno
        if label not in ("0", "1"):
            raise fault(f"label must be 0 or 1, got {label!r}")
        if (shared_split := _SHARED_SPLITS.get(split)) is None:
            raise fault(f"unknown split {split!r}")
        if label == "0" and family is not None:
            raise fault(f"benign sample '{sample_id}' carries family tag '{family}'")
        if not isinstance(raw_scores, list):
            raise fault("field scores must be an array")
        if t is None:
            t = len(raw_scores)
            if t < 1:
                raise fault("field scores is empty")
        elif len(raw_scores) != t:
            raise fault(f"inconsistent member count for sample '{sample_id}': expected {t}, got {len(raw_scores)}")
        for k, raw in enumerate(raw_scores):
            try:
                value = float(None if raw.__class__ is bool else raw)  # JSON's true and false are no numbers
            except (TypeError, ValueError):
                raise fault(f"field {field_name.format(k)} is not a number: {raw!r}") from None
            except OverflowError:  # an int too large for a float
                value = math.inf
            if not (0.0 <= value <= 1.0):
                raise fault(f"field {field_name.format(k)}={raw!r} outside [0, 1]")
            scores.append(value)
        ids.append(sample_id)
        malicious.append(label == "1")
        splits.append(shared_split)
        families.append(family)
    if t is None:
        raise DatasetError(f"{path}: no records, cannot infer member count")
    ids, splits, families = (np.array(col, dtype=object) for col in (ids, splits, families))
    scores = np.frombuffer(scores, dtype=np.float64).reshape(len(ids), t)
    return PredictionDataset._trusted(ids, np.array(malicious, dtype=np.int64), splits, families, scores)


def load_dataset(path: str | Path, format: str = "csv") -> PredictionDataset:
    """Load and validate a dataset file. Schema violations and unreadable or non-UTF-8 files raise DatasetError."""
    path = Path(path)
    try:
        if _check_format(format) == "jsonl":
            return _jsonl_rows(path)
        ds = _csv_columns(path)
        return _csv_rows(path) if ds is None else ds
    except OSError as exc:
        raise DatasetError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def save_dataset(ds: PredictionDataset, path: str | Path, format: str = "csv") -> None:
    """Write a dataset to disk. Floats keep full round-trip precision."""
    path = Path(path)
    if _check_format(format) == "csv":
        _write_csv(path, _csv_header(ds.member_count), [ds.sample_ids, ds.labels, ds.splits, ds.families, *ds.scores.T])
        return
    scores = ", ".join(["%r"] * ds.member_count)
    template = f'{{"id": %s, "label": %d, "split": %s, "family": %s, "scores": [{scores}]}}\n'
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(ds), _WRITE_BLOCK):
            hi = lo + _WRITE_BLOCK
            ids, splits, families = (
                ["null" if v is None else encode_basestring_ascii(v) for v in col[lo:hi].tolist()]
                for col in (ds.sample_ids, ds.splits, ds.families)
            )
            rows = zip(ids, ds.labels[lo:hi].tolist(), splits, families, *ds.scores[lo:hi].T.tolist())
            fh.write("".join([template % row for row in rows]))


def _write_csv(path: str | Path, header, columns, lineterminator: str = "\r\n") -> None:
    """Write equal-length columns under a header row as a CSV table.

    One %-template formats every row: a float column as its repr, an int
    column as its str. The other columns become text ``_WRITE_BLOCK`` rows at
    a time: a bool column ``true`` or ``false``; in any other column None an
    empty field, a float its repr, anything else its str, quoted as csv's
    QUOTE_MINIMAL quotes it when it holds a comma, a double quote, "\r" or "\n".
    """
    columns = [np.asarray(col) for col in columns]
    template = ",".join("%r" if col.dtype.kind == "f" else "%s" for col in columns) + lineterminator
    special = (",", '"', "\r", "\n")

    def text_fields(values: list) -> list[str]:
        texts = ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in values]
        joined = "".join(texts)
        if any(c in joined for c in special):
            texts = ['"' + t.replace('"', '""') + '"' if any(c in t for c in special) else t for t in texts]
        return texts

    def block_fields(col: np.ndarray) -> list:
        if col.dtype == bool:
            return np.where(col, "true", "false").tolist()
        return col.tolist() if col.dtype.kind in "fiu" else text_fields(col.tolist())

    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(text_fields(list(header))) + lineterminator)
        for lo in range(0, len(columns[0]), _WRITE_BLOCK):
            rows = zip(*(block_fields(col[lo : lo + _WRITE_BLOCK]) for col in columns))
            fh.write("".join([template % row for row in rows]))


def _field_columns(rows, row_type) -> list[list]:
    """One list per field of the dataclass ``row_type``, in field order, over ``rows``."""
    return [[getattr(r, f.name) for r in rows] for f in fields(row_type)]


def filter_split(ds: PredictionDataset, split: str) -> PredictionDataset:
    """Select the rows of one split. The result may be empty."""
    if split not in SPLIT_NAMES:
        raise ValueError(f"unknown split {split!r}, expected one of {SPLIT_NAMES}")
    rows = ds.splits == split
    return PredictionDataset._trusted(*(getattr(ds, name)[rows] for name in _COLUMNS))
