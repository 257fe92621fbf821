"""Per-sample ensemble prediction records: loading, validation, filtering, subsampling.

A dataset row is one sample scored by T ensemble members. Two on-disk formats
are supported:

* CSV with header ``sample_id,label,split,family,m0,...,m{T-1}`` (family empty
  for benign / untagged rows).
* JSON Lines with keys ``id``, ``label``, ``split``, ``family`` (nullable) and
  ``scores`` (array of T floats).

Each input is parsed and validated once, column by column. A CSV goes through
one ``np.loadtxt`` call; JSON Lines are decoded a chunk of lines at a time and
reduced to columns. The columns are then checked whole: labels, splits,
member counts, score ranges, family tags on benign rows and unique ids.

When a check fails, or a CSV holds anything that ``np.loadtxt`` might read
differently from ``csv.reader`` and ``float()`` (a quote, a carriage return
outside ``\r\n``, one of the separators ``\x1c``-``\x1f``, an overlong
line), the file is read again row by row. That row path is the only place a
load raises DatasetError, so every message names its line and field.

Datasets are immutable; all column arrays are read-only so downstream code can
share them without copying. ``PredictionDataset(...)`` validates and copies
its columns. The loaders, ``filter_split`` and ``subsample`` build their
results from columns that are already valid through the private
``PredictionDataset._trusted``, which skips that validation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLIT_NAMES = ("train", "validation", "test")

_FIXED_COLUMNS = ("sample_id", "label", "split", "family")
_COLUMNS = ("sample_ids", "labels", "splits", "families", "scores")
_FORMATS = ("csv", "jsonl")

# np.loadtxt may read these differently from csv.reader and float(): quoting,
# a carriage return outside "\r\n", and the separators \x1c-\x1f, which numpy
# strips from a number as whitespace where float() rejects it.
_CSV_UNSAFE = ('"', "\r", "\x1c", "\x1d", "\x1e", "\x1f")
# Bytes of JSON lines decoded before their objects are reduced to columns.
_JSONL_CHUNK = 1 << 20
# Rows turned into Python objects at a time by save_dataset.
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
    provenance: str = ""

    def __post_init__(self) -> None:
        ids = np.array([str(x) for x in np.asarray(self.sample_ids).ravel()], dtype=object)
        labels = np.asarray(self.labels).ravel().astype(np.int64)
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
        bad = ~np.isin(labels, (0, 1))
        if bad.any():
            i = int(np.argmax(bad))
            raise DatasetError(f"label must be 0 or 1, got {labels[i]} for sample '{ids[i]}'")
        bad = ~np.isin(splits, SPLIT_NAMES)
        if bad.any():
            i = int(np.argmax(bad))
            raise DatasetError(f"unknown split '{splits[i]}' for sample '{ids[i]}'")
        with np.errstate(invalid="ignore"):
            bad = ~((scores >= 0.0) & (scores <= 1.0))
        if bad.any():
            i, j = np.unravel_index(int(np.argmax(bad)), scores.shape)
            raise DatasetError(f"score m{j}={scores[i, j]!r} outside [0, 1] for sample '{ids[i]}'")
        tagged_benign = (labels == 0) & (families != None)  # noqa: E711  (elementwise)
        if tagged_benign.any():
            i = int(np.argmax(tagged_benign))
            raise DatasetError(f"benign sample '{ids[i]}' carries family tag '{families[i]}'")
        if len(set(ids)) != n:
            seen: set[str] = set()
            for s in ids:
                if s in seen:
                    raise DatasetError(f"duplicate sample_id '{s}'")
                seen.add(s)
        self._set_columns(ids, labels, splits, families, scores)

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
        provenance: str,
    ) -> PredictionDataset:
        """Wrap columns that already pass every check of ``__post_init__``.

        They must have the types it produces: object arrays of ``str`` (and
        ``None`` families), int64 labels, 2-D float64 scores, and must be
        owned by no one else, because they are made read-only, not copied.
        """
        ds = object.__new__(cls)
        ds._set_columns(sample_ids, labels, splits, families, scores)
        object.__setattr__(ds, "provenance", provenance)
        return ds

    def __len__(self) -> int:
        return int(self.scores.shape[0])

    @property
    def member_count(self) -> int:
        return int(self.scores.shape[1])


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


def _parse_label(raw: str, where: str) -> int:
    if raw not in ("0", "1"):
        raise DatasetError(f"{where}: label must be 0 or 1, got {raw!r}")
    return int(raw)


def _parse_split(raw: str, where: str) -> str:
    if raw not in SPLIT_NAMES:
        raise DatasetError(f"{where}: unknown split {raw!r}")
    return raw


def _parse_score(raw: object, field: str, where: str) -> float:
    try:
        value = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise DatasetError(f"{where}: field {field} is not a number: {raw!r}") from None
    if not (0.0 <= value <= 1.0):
        raise DatasetError(f"{where}: field {field}={raw!r} outside [0, 1]")
    return value


def _checked(ids, labels, splits, families, scores: np.ndarray, provenance: str) -> PredictionDataset | None:
    """Parsed columns as a dataset when they pass every check of the row path, else None.

    ``labels`` holds the label fields as text; ``families`` holds ``None`` for
    an untagged row.
    """
    ids = np.array(ids, dtype=object)
    labels = np.asarray(labels, dtype=object)
    splits = np.array(splits, dtype=object)
    families = np.array(families, dtype=object)
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    malicious = labels == "1"
    with np.errstate(invalid="ignore"):
        in_range = (scores >= 0.0) & (scores <= 1.0)
    if not (
        (malicious | (labels == "0")).all()
        and np.isin(splits, SPLIT_NAMES).all()
        and not ((families != None) & ~malicious).any()  # noqa: E711  (elementwise)
        and in_range.all()
        and len(set(ids)) == len(ids)
    ):
        return None
    return PredictionDataset._trusted(ids, malicious.astype(np.int64), splits, families, scores, provenance)


def _csv_columns(path: Path) -> PredictionDataset | None:
    """Parse a CSV in bulk; None when the row path has to read it."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        return None
    text = text.replace("\r\n", "\n")
    if any(c in text for c in _CSV_UNSAFE):
        return None
    lines = text.split("\n")
    del text
    header = lines[0].split(",")
    t = len(header) - len(_FIXED_COLUMNS)
    if t < 1 or header != [*_FIXED_COLUMNS, *(f"m{k}" for k in range(t))]:
        return None
    body = lines[1:]
    # A line no longer than csv's field limit holds no field over it.
    if not any(body) or max(map(len, body)) > csv.field_size_limit():
        return None
    dtype = np.dtype([(name, object) for name in _FIXED_COLUMNS] + [("scores", np.float64, (t,))])
    try:
        # Skips empty lines, as csv.reader does, and raises on a wrong field count.
        rows = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    del body
    families = np.where(rows["family"] == "", None, rows["family"])
    return _checked(rows["sample_id"], rows["label"], rows["split"], families, rows["scores"], str(path))


def _jsonl_columns(path: Path) -> PredictionDataset | None:
    """Decode JSON Lines into columns, a chunk at a time; None when the row path has to read them."""
    ids: list[str] = []
    labels: list[str] = []
    splits: list[str] = []
    families: list[str | None] = []
    blocks: list[np.ndarray] = []
    try:
        with open(path, encoding="utf-8") as fh:
            while lines := fh.readlines(_JSONL_CHUNK):
                objs = [json.loads(line) for line in lines if not line.isspace()]
                if not objs:
                    continue
                ids += [str(o["id"]) for o in objs]
                labels += [str(o["label"]) for o in objs]
                splits += [str(o["split"]) for o in objs]
                families += [None if o["family"] is None else str(o["family"]) for o in objs]
                # A number array only if every "scores" is a list of T numbers.
                blocks.append(np.array([o["scores"] for o in objs]))
    except (ValueError, TypeError, KeyError, RecursionError):
        return None
    t = blocks[0].shape[-1] if blocks else 0
    if t < 1 or any(b.ndim != 2 or b.shape[1] != t or b.dtype.kind not in "biuf" for b in blocks):
        return None
    return _checked(ids, labels, splits, families, np.concatenate(blocks), str(path))


def _csv_rows(path: Path) -> PredictionDataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected a header row") from None
        for k, name in enumerate(_FIXED_COLUMNS):
            if k >= len(header) or header[k] != name:
                got = header[k] if k < len(header) else "<missing>"
                raise DatasetError(f"{path}: header column {k} must be '{name}', got '{got}'")
        member_names = header[len(_FIXED_COLUMNS):]
        if not member_names:
            raise DatasetError(f"{path}: header has no member score columns (expected m0, m1, ...)")
        for k, name in enumerate(member_names):
            if name != f"m{k}":
                raise DatasetError(f"{path}: header column {k + len(_FIXED_COLUMNS)} must be 'm{k}', got '{name}'")
        t = len(member_names)
        ids: list[str] = []
        labels: list[int] = []
        splits: list[str] = []
        families: list[str | None] = []
        rows: list[list[float]] = []
        seen: dict[str, int] = {}
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}: line {lineno}"
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetError(f"{where}: expected {len(header)} fields, got {len(row)}")
            sample_id = row[0]
            if sample_id in seen:
                raise DatasetError(f"{where}: duplicate sample_id '{sample_id}' (first seen on line {seen[sample_id]})")
            seen[sample_id] = lineno
            label = _parse_label(row[1], where)
            split = _parse_split(row[2], where)
            family = row[3] if row[3] != "" else None
            if label == 0 and family is not None:
                raise DatasetError(f"{where}: benign sample '{sample_id}' carries family tag '{family}'")
            ids.append(sample_id)
            labels.append(label)
            splits.append(split)
            families.append(family)
            rows.append([_parse_score(raw, f"m{k}", where) for k, raw in enumerate(row[4:])])
    return PredictionDataset(
        sample_ids=np.array(ids, dtype=object),
        labels=np.array(labels, dtype=np.int64),
        splits=np.array(splits, dtype=object),
        families=np.array(families, dtype=object),
        scores=np.array(rows, dtype=np.float64).reshape(len(ids), t),
        provenance=str(path),
    )


def _jsonl_rows(path: Path) -> PredictionDataset:
    ids: list[str] = []
    labels: list[int] = []
    splits: list[str] = []
    families: list[str | None] = []
    rows: list[list[float]] = []
    seen: dict[str, int] = {}
    t: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{where}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise DatasetError(f"{where}: expected a JSON object")
            for key in ("id", "label", "split", "family", "scores"):
                if key not in obj:
                    raise DatasetError(f"{where}: missing key '{key}'")
            sample_id = str(obj["id"])
            if sample_id in seen:
                raise DatasetError(f"{where}: duplicate sample_id '{sample_id}' (first seen on line {seen[sample_id]})")
            seen[sample_id] = lineno
            label = _parse_label(str(obj["label"]), where)
            split = _parse_split(str(obj["split"]), where)
            family = obj["family"]
            if family is not None:
                family = str(family)
            if label == 0 and family is not None:
                raise DatasetError(f"{where}: benign sample '{sample_id}' carries family tag '{family}'")
            raw_scores = obj["scores"]
            if not isinstance(raw_scores, list):
                raise DatasetError(f"{where}: field scores must be an array")
            if t is None:
                t = len(raw_scores)
                if t < 1:
                    raise DatasetError(f"{where}: field scores is empty")
            elif len(raw_scores) != t:
                raise DatasetError(
                    f"inconsistent member count for sample '{sample_id}': expected {t}, got {len(raw_scores)}"
                )
            ids.append(sample_id)
            labels.append(label)
            splits.append(split)
            families.append(family)
            rows.append([_parse_score(raw, f"scores[{k}]", where) for k, raw in enumerate(raw_scores)])
    if t is None:
        raise DatasetError(f"{path}: no records, cannot infer member count")
    return PredictionDataset(
        sample_ids=np.array(ids, dtype=object),
        labels=np.array(labels, dtype=np.int64),
        splits=np.array(splits, dtype=object),
        families=np.array(families, dtype=object),
        scores=np.array(rows, dtype=np.float64).reshape(len(ids), t),
        provenance=str(path),
    )


def load_dataset(path: str | Path, format: str = "csv") -> PredictionDataset:
    """Load and validate a dataset file. Schema violations raise DatasetError."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    bulk, rows = (_csv_columns, _csv_rows) if _check_format(format) == "csv" else (_jsonl_columns, _jsonl_rows)
    ds = bulk(path)
    return rows(path) if ds is None else ds


def save_dataset(ds: PredictionDataset, path: str | Path, format: str = "csv") -> None:
    """Write a dataset to disk. Floats keep full round-trip precision."""
    path = Path(path)
    if _check_format(format) == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([*_FIXED_COLUMNS, *(f"m{k}" for k in range(ds.member_count))])
            for ids, labels, splits, families, scores in _row_blocks(ds):
                # csv writes a float as its repr and None as an empty field.
                writer.writerows(zip(ids, labels, splits, families, *scores.T.tolist()))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for block in _row_blocks(ds):
                fh.writelines(
                    json.dumps({"id": i, "label": label, "split": split, "family": family, "scores": scores.tolist()})
                    + "\n"
                    for i, label, split, family, scores in zip(*block)
                )


def _row_blocks(ds: PredictionDataset):
    """The columns of consecutive blocks of rows, all but the scores as lists of Python objects.

    Writing a block at a time keeps a writer from holding every row as Python objects.
    """
    for lo in range(0, len(ds), _WRITE_BLOCK):
        rows = slice(lo, lo + _WRITE_BLOCK)
        yield (
            ds.sample_ids[rows].tolist(),
            ds.labels[rows].tolist(),
            ds.splits[rows].tolist(),
            ds.families[rows].tolist(),
            ds.scores[rows],
        )


def filter_split(ds: PredictionDataset, split: str) -> PredictionDataset:
    """Select the rows of one split. The result may be empty."""
    if split not in SPLIT_NAMES:
        raise ValueError(f"unknown split {split!r}, expected one of {SPLIT_NAMES}")
    return _take(ds, ds.splits == split)


def subsample(ds: PredictionDataset, fraction: float, seed: int) -> PredictionDataset:
    """Uniform subsample without replacement, deterministic for a given seed.

    The subset size is round(fraction * n) under round-half-to-even, floored
    at 1 for nonempty input. Sampling is not stratified; class balance drifts
    at small fractions by design. fraction=1.0 keeps every record (the row
    order is still permuted, identically for identical seeds).
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    n = len(ds)
    if n == 0:
        return ds
    k = min(n, max(1, round(fraction * n)))
    rng = np.random.Generator(np.random.Philox(key=seed))
    return _take(ds, rng.permutation(n)[:k])


def _take(ds: PredictionDataset, rows: np.ndarray) -> PredictionDataset:
    """The rows of a dataset picked by a mask or by distinct positions; they are valid already."""
    return PredictionDataset._trusted(
        ds.sample_ids[rows], ds.labels[rows], ds.splits[rows], ds.families[rows], ds.scores[rows], ds.provenance
    )
