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
row; ``PredictionDataset(...)`` raises DatasetError with that message. Ids
are checked for uniqueness on a sorted int64 array of their ``hash()``
values, 8 bytes a row, not on a set of the ids; only when two hashes are
equal does an in-order scan look for the first repeat.

The bulk path first checks the file's bytes, and decodes them only when they
are not ASCII: the file must be UTF-8 and hold nothing that ``np.loadtxt``
might read differently from ``csv.reader`` and ``float()`` (a quote, a
carriage return outside ``\r\n``, one of the separators ``\x1c``-``\x1f``,
an overlong line). It then frees them, and ``np.loadtxt`` reads the file
through a text handle. When a guard or the column check fails, the CSV is read
again row by row. The row path is the only place a load raises DatasetError
for a broken rule, so every message names its line and field. Each format's
reader only splits its lines into records; one row checker,
``_from_records``, applies the schema's rules to the records of both formats.
An unreadable or non-UTF-8 file raises DatasetError naming it.

Ids are held in a ``np.dtypes.StringDType()`` column: an id of up to 15
UTF-8 bytes sits inline in its 16-byte slot, with no Python object per row;
``tolist()`` and indexing give ``str``. An id or a family tag that is not
valid Unicode (a lone surrogate, which only a JSON escape or Python can make)
is a data error. Splits and families stay object arrays. Every loader fills
``splits`` with the three ``SPLIT_NAMES`` objects themselves and ``families``
with one ``str`` per distinct tag, not one string per row.
Datasets are immutable; all column arrays are read-only so downstream code
can share them without copying. ``PredictionDataset(...)`` validates and
copies its columns. Nothing validates twice: the loaders, ``filter_split``
and ``synth.generate`` wrap columns that are valid already or by construction
through the private ``PredictionDataset._trusted``, which skips validation.

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

_ID_DTYPE = np.dtypes.StringDType()
# np.loadtxt may read these differently from csv.reader and float(): quoting, and the separators \x1c-\x1f,
# which numpy strips from a number as whitespace where float() rejects it. A carriage return outside "\r\n"
# is the third case, tested apart. All are ASCII, so a test on a UTF-8 file's bytes is exact.
_CSV_UNSAFE = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Rows turned into Python objects at a time by the writers. A block of 1,024 rows holds ~0.5 MB of objects,
# and larger blocks write no faster.
_WRITE_BLOCK = 1024
# Bytes of a CSV file compared at a time by the bulk loader's guards.
_SCAN_BLOCK = 1 << 20


class DatasetError(ValueError):
    """An input file or record set violates the dataset schema."""


class _Shared(dict):
    """Looking up a text gives the first equal text looked up, so that equal family tags share one ``str``.

    ``__getitem__`` is a C method, which ``np.loadtxt`` calls per row as fast as it stores the field itself.
    """

    def __missing__(self, text: str) -> str:
        self[text] = text
        return text


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
        ids = _id_column(np.asarray(self.sample_ids).ravel())
        labels = np.asarray(self.labels).ravel()  # checked before the int64 cast, which truncates 0.5 to 0
        splits = np.array([str(x) for x in np.asarray(self.splits).ravel()], dtype=object)
        families = _family_column(np.asarray(self.families, dtype=object).ravel())
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

        They must have the types it produces: ``_ID_DTYPE`` ids, object
        arrays of ``str`` splits and families (and ``None`` families), int64
        labels, 2-D float64 scores, and must be owned by no one else, because
        they are made read-only, not copied.
        """
        ds = object.__new__(cls)
        ds._set_columns(sample_ids, labels, splits, families, scores)
        return ds

    def __len__(self) -> int:
        return int(self.scores.shape[0])

    @property
    def member_count(self) -> int:
        return int(self.scores.shape[1])


def _id_column(ids: np.ndarray) -> np.ndarray:
    """A ``_ID_DTYPE`` copy of the 1-D ``ids``, each its ``str()``; an id UTF-8 cannot hold raises DatasetError."""
    try:
        # Other dtypes go through str(): numpy's casts spell bytes without their b'' and fail apart on a surrogate.
        return np.array(ids if ids.dtype == _ID_DTYPE else [str(x) for x in ids], dtype=_ID_DTYPE)
    except UnicodeEncodeError:
        bad = next(s for s in map(str, ids) if not _is_unicode(s))
        raise DatasetError(f"sample_id {bad!r} is not valid Unicode") from None


def _family_column(families: np.ndarray) -> np.ndarray:
    """An object array of each family's ``str()``, None kept; a tag UTF-8 cannot hold raises DatasetError."""
    tags = [None if f is None else str(f) for f in families]
    for tag in tags:
        if tag is not None and not _is_unicode(tag):
            raise DatasetError(f"family {tag!r} is not valid Unicode")
    return np.array(tags, dtype=object)


def _is_unicode(text: str) -> bool:
    """Whether UTF-8, and so a ``_ID_DTYPE`` column or a written file, can hold ``text``: it has no lone surrogate."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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
    # Equal ids hash equal, so distinct sorted hashes mean unique ids. An equal pair, a repeat or a
    # hash collision, goes to the scan that names the first repeat.
    hashes = np.fromiter(map(hash, ids), np.int64, len(ids))
    hashes.sort()
    if (hashes[1:] == hashes[:-1]).any():
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
    raw = path.read_bytes()
    if not raw.isascii():
        raw.decode("utf-8")  # raises UnicodeDecodeError for a file that is not UTF-8
    if any(c in raw for c in _CSV_UNSAFE) or (end := raw.find(b"\n")) < 0:  # no "\n": a header alone
        return None
    header = raw[:end].removesuffix(b"\r").decode("utf-8").split(",")
    t = len(header) - len(_FIXED_COLUMNS)
    if t < 1 or header != _csv_header(t):
        return None
    view = np.frombuffer(raw, np.uint8)
    ends = _positions(view, ord("\n"))  # ends[0] == end
    crlf = view[ends - 1] == ord("\r")
    # Every "\r" must end a "\r\n", which the text handle below reads as "\n".
    if b"\r" in raw and _positions(view, ord("\r")).size != np.count_nonzero(crlf):
        return None
    # Each body line's length without its line ending, in bytes, which are at least its characters. np.loadtxt
    # warns on a body with no data line, and a line no longer than csv's field limit holds no field over it.
    lengths = np.diff(ends, append=len(raw)) - 1
    lengths[:-1] -= crlf[1:]
    if not 0 < lengths.max() <= csv.field_size_limit():
        return None
    del raw, view, ends, crlf, lengths
    dtype = np.dtype([(name, object) for name in _FIXED_COLUMNS] + [("scores", np.float64, (t,))])
    try:
        # Skips empty lines, as csv.reader does, and raises on a wrong field count. The split field (column 2)
        # becomes its SPLIT_NAMES object, or None when unknown, which the column check then rejects; the family
        # field (column 3) becomes the first object of its text.
        with open(path, encoding="utf-8") as fh:
            rows = np.loadtxt(
                fh, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1,
                converters={2: _SHARED_SPLITS.get, 3: _Shared().__getitem__},
            )
    except ValueError:
        return None
    # Only "0" and "1" pass as labels here ("1.0" is left to the row path).
    malicious = rows["label"] == "1"
    if not (malicious | (rows["label"] == "0")).all():
        return None
    splits = np.array(rows["split"], dtype=object)
    families = np.where(rows["family"] == "", None, rows["family"])
    scores = np.ascontiguousarray(rows["scores"], dtype=np.float64)
    # The bools check as the labels would (False == 0, True == 1). The ids are checked as str objects, which
    # hash faster than a StringDType column; int64 labels come after, off the memory peak.
    if _column_fault(rows["sample_id"], malicious, splits, families, scores) is not None:
        return None
    ids = rows["sample_id"].astype(_ID_DTYPE)
    del rows
    return PredictionDataset._trusted(ids, malicious.astype(np.int64), splits, families, scores)


def _positions(view: np.ndarray, byte: int) -> np.ndarray:
    """Where ``byte`` is in the uint8 ``view``, compared ``_SCAN_BLOCK`` bytes at a time: no mask is the file's size."""
    blocks = range(0, view.size, _SCAN_BLOCK)
    return np.concatenate([np.flatnonzero(view[lo : lo + _SCAN_BLOCK] == byte) + lo for lo in blocks])


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


def _integer(name: str, value, minimum: int = 0) -> int:
    """The package's one integer rule, for every integer it reads from Python or from JSON.

    ``value`` as an int when it is a Python or numpy integer, not a bool, of at least ``minimum``;
    anything else, a float or a string among them, raises ValueError naming ``name``.
    """
    if not _is_number(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def _from_records(path: Path, records, field_name: str, member_count: int | None) -> PredictionDataset:
    """Check row records against the schema, the first broken rule raising DatasetError naming its line.

    Each record is ``(lineno, sample_id, label_text, split, family, raw_scores)``
    with text fields and ``None`` for an untagged family. ``field_name`` formats
    score k's name in messages. A ``member_count`` of None is taken from the
    first record, and a file with no record cannot give one. A message's text
    is built only once its check has failed. Equal family tags share one
    ``str``, as splits share their ``SPLIT_NAMES`` object.
    """
    ids, malicious, splits, families = [], [], [], []
    scores = array("d")
    seen: dict[str, int] = {}
    tags = _Shared()
    t = member_count

    def fault(message: str) -> DatasetError:
        return DatasetError(f"{path}: line {lineno}: {message}")

    for lineno, sample_id, label, split, family, raw_scores in records:
        if not _is_unicode(sample_id):
            raise fault(f"sample_id {sample_id!r} is not valid Unicode")
        if sample_id in seen:
            raise fault(f"duplicate sample_id '{sample_id}' (first seen on line {seen[sample_id]})")
        seen[sample_id] = lineno
        if label not in ("0", "1"):
            raise fault(f"label must be 0 or 1, got {label!r}")
        if (shared_split := _SHARED_SPLITS.get(split)) is None:
            raise fault(f"unknown split {split!r}")
        if family is not None:
            if not _is_unicode(family):
                raise fault(f"family {family!r} is not valid Unicode")
            family = tags[family]
            if label == "0":
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
    scores = np.frombuffer(scores, dtype=np.float64).reshape(len(ids), t)
    ids, labels = np.array(ids, dtype=_ID_DTYPE), np.array(malicious, dtype=np.int64)
    splits, families = np.array(splits, dtype=object), np.array(families, dtype=object)
    return PredictionDataset._trusted(ids, labels, splits, families, scores)


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
