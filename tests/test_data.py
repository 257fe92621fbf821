import csv
import io
import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from lowfpr import data
from lowfpr.data import (
    DatasetError,
    PredictionDataset,
    filter_split,
    load_dataset,
    save_dataset,
)
from lowfpr.protocol import _cell_rows
from lowfpr.synth import default_scenario, generate


def make_dataset(n=12, t=3, seed=0, split="validation"):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    return PredictionDataset(
        sample_ids=np.array([f"s{i}" for i in range(n)], dtype=object),
        labels=labels,
        splits=np.array([split] * n, dtype=object),
        families=np.array([f"fam{i % 2}" if lab == 1 else None for i, lab in enumerate(labels)], dtype=object),
        scores=rng.uniform(0, 1, size=(n, t)),
    )


class TestRoundTrip:
    """Loading a saved dataset reproduces it bit for bit."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_round_trip(self, fmt, tmp_path):
        ds = make_dataset(seed=3)
        path = tmp_path / f"data.{fmt}"
        save_dataset(ds, path, fmt)
        back = load_dataset(path, fmt)
        assert list(back.sample_ids) == list(ds.sample_ids)
        assert list(back.labels) == list(ds.labels)
        assert list(back.splits) == list(ds.splits)
        assert list(back.families) == list(ds.families)
        np.testing.assert_array_equal(back.scores, ds.scores)

    def test_save_is_deterministic(self, tmp_path):
        ds = make_dataset(seed=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, a)
        save_dataset(ds, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "data.xml"
        message = "^format must be one of \\('csv', 'jsonl'\\), got 'xml'$"
        with pytest.raises(ValueError, match=message):
            save_dataset(make_dataset(), path, "xml")
        assert not path.exists()
        with pytest.raises(ValueError, match=message):
            load_dataset(path, "xml")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_missing_file_named_as_the_os_names_it(self, tmp_path, fmt):
        path = tmp_path / f"absent.{fmt}"
        with pytest.raises(DatasetError) as exc:
            load_dataset(path, fmt)
        assert str(exc.value) == f"{path}: No such file or directory"


class TestCsvValidation:
    HEADER = "sample_id,label,split,family,m0,m1\n"

    def load(self, tmp_path, body, fmt="csv"):
        path = tmp_path / "d.csv"
        path.write_text(self.HEADER + body)
        return load_dataset(path, fmt)

    def test_minimal_valid(self, tmp_path):
        ds = self.load(tmp_path, "a,0,train,,0.1,0.2\nb,1,test,famX,0.9,0.8\n")
        assert len(ds) == 2 and ds.member_count == 2
        assert ds.families[0] is None and ds.families[1] == "famX"

    def test_score_out_of_range_cites_line(self, tmp_path):
        with pytest.raises(DatasetError, match="line 3.*m1.*1.2"):
            self.load(tmp_path, "a,0,train,,0.1,0.2\nb,1,test,famX,0.9,1.2\n")

    def test_malformed_number_cites_line_and_field(self, tmp_path):
        with pytest.raises(DatasetError, match="line 2.*m0"):
            self.load(tmp_path, "a,0,train,,abc,0.2\n")

    def test_wrong_field_count_cites_line(self, tmp_path):
        with pytest.raises(DatasetError, match="line 2: expected 6 fields, got 5"):
            self.load(tmp_path, "a,0,train,,0.1\n")

    def test_missing_header_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,family,m0\nx,0,,0.5\n")
        with pytest.raises(DatasetError, match="split"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("sample_id,label,family,m0", "header column 2 must be 'split', got 'family'"),
            ("sample_id,label,split", "header column 3 must be 'family', got '<missing>'"),
            ("sample_id,label,split,family", "header column 4 must be 'm0', got '<missing>'"),
            ("sample_id,label,split,family,x", "header column 4 must be 'm0', got 'x'"),
            ("sample_id,label,split,family,m0,m2", "header column 5 must be 'm1', got 'm2'"),
        ],
        ids=["fixed column", "fixed column missing", "no member column", "member column", "member order"],
    )
    def test_header_checked_against_the_written_header(self, tmp_path, header, message):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n")
        with pytest.raises(DatasetError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_bad_label(self, tmp_path):
        with pytest.raises(DatasetError, match="label"):
            self.load(tmp_path, "a,2,train,,0.1,0.2\n")

    def test_bad_split(self, tmp_path):
        with pytest.raises(DatasetError, match="split"):
            self.load(tmp_path, "a,0,dev,,0.1,0.2\n")

    def test_family_on_benign_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="benign.*'a'.*famX"):
            self.load(tmp_path, "a,0,train,famX,0.1,0.2\n")

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="duplicate sample_id 'a'"):
            self.load(tmp_path, "a,0,train,,0.1,0.2\na,0,train,,0.3,0.4\n")

    def test_boundary_scores_accepted(self, tmp_path):
        ds = self.load(tmp_path, "a,0,train,,0.0,1.0\n")
        assert ds.scores[0, 0] == 0.0 and ds.scores[0, 1] == 1.0


class TestJsonlValidation:
    def load_lines(self, tmp_path, lines):
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return load_dataset(path, "jsonl")

    def test_member_count_mismatch_names_sample(self, tmp_path):
        lines = [
            '{"id": "a", "label": 1, "split": "test", "family": "f1", "scores": [0.1, 0.2, 0.3, 0.4, 0.5]}',
            '{"id": "b", "label": 0, "split": "test", "family": null, "scores": [0.1, 0.2, 0.3, 0.4]}',
        ]
        with pytest.raises(DatasetError) as exc:
            self.load_lines(tmp_path, lines)
        path = tmp_path / "d.jsonl"
        assert str(exc.value) == f"{path}: line 2: inconsistent member count for sample 'b': expected 5, got 4"

    def test_missing_key_cites_line(self, tmp_path):
        with pytest.raises(DatasetError, match="line 1.*'split'"):
            self.load_lines(tmp_path, ['{"id": "a", "label": 0, "family": null, "scores": [0.5]}'])

    def test_invalid_json_cites_line(self, tmp_path):
        with pytest.raises(DatasetError, match="line 2"):
            self.load_lines(
                tmp_path,
                ['{"id": "a", "label": 0, "split": "train", "family": null, "scores": [0.5]}', "{not json"],
            )

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="no records"):
            load_dataset(path, "jsonl")


class TestFilterSplit:
    def test_partition(self):
        rng = np.random.default_rng(7)
        n = 60
        splits = rng.choice(["train", "validation", "test"], size=n)
        ds = PredictionDataset(
            sample_ids=np.array([f"s{i}" for i in range(n)], dtype=object),
            labels=np.zeros(n, dtype=np.int64),
            splits=splits,
            families=np.array([None] * n, dtype=object),
            scores=rng.uniform(0, 1, (n, 2)),
        )
        parts = [filter_split(ds, s) for s in ("train", "validation", "test")]
        assert sum(len(p) for p in parts) == n
        collected = sorted(sid for p in parts for sid in p.sample_ids)
        assert collected == sorted(ds.sample_ids)

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError, match="unknown split"):
            filter_split(make_dataset(), "dev")

    def test_empty_result_allowed(self):
        assert len(filter_split(make_dataset(split="test"), "train")) == 0


class TestSubsample:
    """The study's draw, ``protocol._cell_rows``: seeded, size-exact under round-half-to-even, uniform."""

    def test_round_half_to_even(self):
        assert len(_cell_rows(10, 0.25, 0, 0)) == 2  # 2.5 rounds to 2
        assert len(_cell_rows(10, 0.35, 0, 0)) == 4  # 3.5 rounds to 4
        assert len(_cell_rows(10, 0.5, 0, 0)) == 5

    def test_at_least_one_record(self):
        assert len(_cell_rows(9, 0.01, 1, 0)) == 1

    def test_same_seed_same_subset(self):
        a = _cell_rows(50, 0.3, 11, 2)
        np.testing.assert_array_equal(a, _cell_rows(50, 0.3, 11, 2))
        assert list(a) != list(_cell_rows(50, 0.3, 12, 2))
        assert list(a) != list(_cell_rows(50, 0.3, 11, 3))

    def test_fraction_one_keeps_every_record(self):
        rows = _cell_rows(23, 1.0, 9, 0)
        assert sorted(rows) == list(range(23))
        np.testing.assert_array_equal(rows, _cell_rows(23, 1.0, 9, 0))

    def test_draw_is_pinned(self):
        # A Philox generator keyed on SeedSequence([seed, fraction index]) permutes the rows; the first k are kept.
        for n, fraction, seed, fi in [(40, 0.5, 3, 0), (40, 0.5, 3, 1), (1000, 0.013, 7, 4), (5, 1.0, 0, 2)]:
            key = int(np.random.SeedSequence([seed, fi]).generate_state(1, np.uint64)[0])
            want = np.random.Generator(np.random.Philox(key=key)).permutation(n)[: round(fraction * n)]
            np.testing.assert_array_equal(_cell_rows(n, fraction, seed, fi), want)
        assert _cell_rows(10, 0.5, 3, 1).tolist() == [3, 7, 4, 2, 0]


COLUMNS = ("sample_ids", "labels", "splits", "families", "scores")


@pytest.mark.parametrize("fmt, load", [("csv", load_dataset), ("csv", data._csv_rows), ("jsonl", load_dataset)])
def test_loaded_splits_are_the_shared_names(tmp_path, fmt, load):
    """Every loader's split column holds the three SPLIT_NAMES objects, not one string per row."""
    path = tmp_path / f"data.{fmt}"
    config = replace(default_scenario(seed=2), n_benign=60, n_malicious=60, split_fractions=(0.4, 0.3, 0.3))
    save_dataset(generate(config), path, fmt)
    ds = load(path, fmt) if load is load_dataset else load(path)
    assert {id(s) for s in ds.splits} == {id(name) for name in data.SPLIT_NAMES}


@pytest.mark.parametrize("fmt, load", [("csv", load_dataset), ("csv", data._csv_rows), ("jsonl", load_dataset)])
def test_loaded_families_share_one_string_per_tag(tmp_path, fmt, load):
    """Every loader's family column points at one str object per distinct tag, as generate's does."""
    path = tmp_path / f"data.{fmt}"
    save_dataset(generate(replace(default_scenario(seed=5), n_benign=1000, n_malicious=1000)), path, fmt)
    ds = load(path, fmt) if load is load_dataset else load(path)
    tags = [f for f in ds.families if f is not None]
    assert len(tags) == 1000
    assert len({id(f) for f in tags}) == len(set(tags)) == 8


def assert_same_columns(got, want):
    """Equal values, dtypes, layout and element types, column by column."""
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.c_contiguous and not a.flags.writeable, name
        np.testing.assert_array_equal(a, b)
        assert [type(x) for x in a.ravel()[:50]] == [type(x) for x in b.ravel()[:50]], name


class TestImmutability:
    def test_columns_are_read_only(self):
        ds = make_dataset()
        for col in (ds.scores, ds.labels, ds.splits, ds.families, ds.sample_ids):
            with pytest.raises(ValueError):
                col[0] = col[0]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_derived_datasets_match_public_construction(self, fmt, tmp_path):
        ds = make_dataset(n=40, seed=6)
        path = tmp_path / f"d.{fmt}"
        save_dataset(ds, path, fmt)
        derived = [load_dataset(path, fmt), filter_split(ds, "validation")]
        for got in derived:
            public = PredictionDataset(**{name: getattr(got, name) for name in COLUMNS})
            assert_same_columns(got, public)
            for col in (getattr(got, name) for name in COLUMNS):
                with pytest.raises(ValueError):
                    col[0] = col[0]

    def test_selection_and_bulk_loading_skip_revalidation(self, tmp_path, monkeypatch):
        ds = make_dataset(n=30, seed=2)
        path, jsonl, quoted = tmp_path / "d.csv", tmp_path / "d.jsonl", tmp_path / "q.csv"
        save_dataset(ds, path)
        save_dataset(ds, jsonl, "jsonl")
        with open(path, newline="") as fh, open(quoted, "w", newline="") as out:
            csv.writer(out, quoting=csv.QUOTE_ALL).writerows(csv.reader(fh))

        def revalidate(self):
            raise AssertionError("dataset validated again")

        monkeypatch.setattr(PredictionDataset, "__post_init__", revalidate)
        assert len(filter_split(ds, "validation")) == 30
        assert len(load_dataset(path)) == 30
        assert len(load_dataset(jsonl, "jsonl")) == 30
        assert_same_columns(load_dataset(quoted), ds)  # quotes send a CSV down the row path


def reference_csv(ds):
    """The row-by-row CSV writer that save_dataset must match byte for byte."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["sample_id", "label", "split", "family"] + [f"m{k}" for k in range(ds.member_count)])
    for i in range(len(ds)):
        family = ds.families[i] if ds.families[i] is not None else ""
        writer.writerow([ds.sample_ids[i], int(ds.labels[i]), ds.splits[i], family] + [repr(float(s)) for s in ds.scores[i]])
    return out.getvalue().encode("utf-8")


def reference_jsonl(ds):
    """The row-by-row JSON Lines writer that save_dataset must match byte for byte."""
    lines = []
    for i in range(len(ds)):
        row = {
            "id": ds.sample_ids[i],
            "label": int(ds.labels[i]),
            "split": ds.splits[i],
            "family": ds.families[i],
            "scores": [float(s) for s in ds.scores[i]],
        }
        lines.append(json.dumps(row) + "\n")
    return "".join(lines).encode("utf-8")


class TestWriters:
    # Ids and families (on odd, malicious rows) that need csv quoting or JSON
    # escaping: characters json.dumps escapes (control, DEL, non-ASCII, an
    # astral character it writes as a surrogate pair) and ones csv quotes.
    ODD_IDS = [
        "plain", "com,ma", 'quo"te', "new\nline", "cr\rret", " pad ", "ünï", "日本", "",
        "back\\slash", "tab\tx", "nul\x00x", "us\x1fx", "del\x7fx", "ls\u2028x", "smile😀",
        "clean0", "clean1", "clean2", "clean3", "clean4", "clean5",
    ]
    ODD_FAMILIES = [
        None, 'fam,"x', None, "f2", None, "tab\tfam", None, "\u2028", None, "nul\x00",
        None, "😀", None, "f2", None, "back\\fam",
        # the ids of these blocks need neither quoting nor escaping, at either block size
        None, "\x7f", None, 'fam,"x', None, "😀",
    ]

    def odd_dataset(self):
        n = len(self.ODD_IDS)
        rng = np.random.default_rng(4)
        labels = np.arange(n) % 2
        scores = rng.uniform(0, 1, (n, 3))
        scores[0] = [0.0, 1.0, 1e-300]
        return PredictionDataset(
            sample_ids=np.array(self.ODD_IDS, dtype=object),
            labels=labels,
            splits=np.array([data.SPLIT_NAMES[k % 3] for k in range(n)], dtype=object),
            families=np.array(self.ODD_FAMILIES, dtype=object),
            scores=scores,
        )

    @pytest.mark.parametrize("fmt, reference", [("csv", reference_csv), ("jsonl", reference_jsonl)])
    def test_matches_row_writer(self, fmt, reference, tmp_path, monkeypatch):
        for block in (3, 4):  # several blocks, the last one partial
            monkeypatch.setattr(data, "_WRITE_BLOCK", block)
            for ds in (self.odd_dataset(), make_dataset(n=23, seed=9)):
                path = tmp_path / f"d.{fmt}"
                save_dataset(ds, path, fmt)
                assert path.read_bytes() == reference(ds), block
                assert_same_columns(load_dataset(path, fmt), ds)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_synth_file_reloads_and_saves_byte_identically(self, fmt, tmp_path):
        ds = generate(replace(default_scenario(seed=3), n_benign=300, n_malicious=300))
        first, second = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        save_dataset(ds, first, fmt)
        save_dataset(load_dataset(first, fmt), second, fmt)
        assert second.read_bytes() == first.read_bytes()


def load_outcome(load, *args):
    try:
        return load(*args)
    except Exception as exc:  # the loaders must fail alike, whatever the exception
        return type(exc), str(exc)


def assert_loaders_agree(path):
    """load_dataset gives what the CSV row path gives: equal columns, or the same error."""
    want = load_outcome(data._csv_rows, path)
    got = load_outcome(load_dataset, path)
    if isinstance(want, PredictionDataset):
        assert isinstance(got, PredictionDataset), got
        assert_same_columns(got, want)
    else:
        assert got == want


class TestLoaderEquivalence:
    """The bulk CSV loader agrees with the row path on every input; JSON Lines outcomes are pinned."""

    HEADER = "sample_id,label,split,family,m0,m1\n"
    VALID = "a,0,train,,0.1,0.2\nb,1,test,famX,0.9,0.8\n"
    CSV_BODIES = {
        "valid": VALID,
        "blank lines": "\n" + VALID.replace("\n", "\n\n", 1) + "\n\n",
        "crlf": VALID.replace("\n", "\r\n"),
        "lone cr": VALID.replace("\n", "\r"),
        "mixed endings": "a,0,train,,0.1,0.2\r\nb,1,test,famX,0.9,0.8\n",
        "no final newline": VALID.rstrip("\n"),
        "non-ascii ids": "ünï,0,train,,0.1,0.2\n日本,1,test,famé,0.9,0.8\n",
        "whitespace line": VALID + " \n",
        "short row": VALID + "c,0,train,,0.5\n",
        "long row": VALID + "c,0,train,,0.5,0.5,0.5\n",
        "label with space": VALID + "c, 1,train,,0.5,0.5\n",
        "label as float": VALID + "c,1.0,train,,0.5,0.5\n",
        "bad split": VALID + "c,0,dev,,0.5,0.5\n",
        "tagged benign": VALID + "c,0,train,f,0.5,0.5\n",
        "duplicate id": VALID + "a,0,train,,0.5,0.5\n",
        "out of range": VALID + "c,0,train,,0.5,1.5\n",
        "hash in field": VALID + "c#1,0,train,,0.5,0.5#\n",
        "quoted fields": '"a",0,train,,0.1,0.2\n"b""c",1,test,"famX",0.9,0.8\n',
    }
    SPELLINGS = [" 0.5", "0.5 ", "1_0", "0_5", "nan", "inf", "-inf", "1e-400", "+.5", "-0", "5e-1", "٠.٥", "\x1c0.5", "0.5\x1f", ""]

    def write(self, tmp_path, text, suffix="csv"):
        path = tmp_path / f"d.{suffix}"
        path.write_bytes(text.encode("utf-8"))
        return path

    @pytest.mark.parametrize("body", list(CSV_BODIES.values()), ids=list(CSV_BODIES))
    def test_csv_inputs(self, tmp_path, body):
        assert_loaders_agree(self.write(tmp_path, self.HEADER + body))

    @pytest.mark.parametrize("text", ["", "\n", "\n" + HEADER, HEADER, "\ufeff" + HEADER + VALID, HEADER.replace("m1", "m2") + VALID])
    def test_csv_headers(self, tmp_path, text):
        assert_loaders_agree(self.write(tmp_path, text))

    def test_csv_quoted_fields(self, tmp_path):
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(self.HEADER.strip().split(","))
        for k, sample_id in enumerate(["com,ma", 'quo"te', "new\nline", "cr\rret", "plain"]):
            writer.writerow([sample_id, 1, "test", 'f,"x', 0.5, k / 10])
        assert_loaders_agree(self.write(tmp_path, out.getvalue()))

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_csv_score_spellings(self, tmp_path, spelling):
        assert_loaders_agree(self.write(tmp_path, self.HEADER + self.VALID + f"c,0,train,,{spelling},0.5\n"))

    def test_csv_one_character_around_a_score(self, tmp_path):
        # Every ASCII character and every character float() may strip as
        # whitespace, before and after a score.
        chars = [chr(c) for c in range(128)] + [chr(c) for c in range(128, 0x3001) if chr(c).isspace()]
        for c in chars:
            for score in (c + "0.5", "0.5" + c):
                assert_loaders_agree(self.write(tmp_path, self.HEADER + f"a,0,train,,0.25,{score}\n"))

    def test_csv_overlong_field(self, tmp_path):
        long_id = "x" * (csv.field_size_limit() + 1)
        assert_loaders_agree(self.write(tmp_path, self.HEADER + f"{long_id},0,train,,0.1,0.2\n"))

    @staticmethod
    def record(sample_id="a", label=0, split="train", family=None, scores=(0.1, 0.2), **extra):
        return json.dumps(dict(id=sample_id, label=label, split=split, family=family, scores=list(scores), **extra))

    def jsonl_cases(self):
        r = self.record
        valid = [r(), r("b", 1, "test", "famX", (0.9, 0.8))]
        cases = {
            "valid": valid,
            "blank lines": ["", valid[0], "  ", "", valid[1], ""],
            "label 1": [r(label=1)],
            'label "1"': [r(label="1")],
            "label true": [r(label=True)],
            "label 1.0": [r(label=1.0)],
            "odd ids": [r('com,ma "quo"\nnl'), r("ünï"), json.dumps({"id": "日本", "label": 0, "split": "test", "family": None, "scores": [0.5, 0.5]}, ensure_ascii=False)],
            "numeric ids": [r(7), r("7")],
            "empty family tag": [r(family="")],
            "numeric family": [r(label=1, family=3)],
            "null id": [r(None)],
            "object id": [r({"a": 1})],
            "bool id": [r(True)],
            "float id": [r(7.0)],
            "list family": [r(label=1, family=["x"])],
            "bool family": [r(label=1, family=False)],
            "object family": [r(label=1, family={})],
            "int and bool scores": [r(scores=(0, 1)), r("b", scores=(True, 0.5))],
            "string scores": [r(scores=(" 0.5", "1_0")), r("b", scores=("+.5", "1e-400"))],
            "tiny score": ['{"id": "a", "label": 0, "split": "train", "family": null, "scores": [1e-400, 0.5]}'],
            "nan score": ['{"id": "a", "label": 0, "split": "train", "family": null, "scores": [NaN, 0.5]}'],
            "nan second score": ['{"id": "a", "label": 0, "split": "train", "family": null, "scores": [0.5, NaN]}'],
            "inf score": ['{"id": "a", "label": 0, "split": "train", "family": null, "scores": [Infinity, 0.5]}'],
            "string nan": [r(scores=("nan", 0.5))],
            "null score": [r(scores=(None, 0.5))],
            "nested scores": [r(scores=([0.5], [0.5]))],
            "object in scores": [r(scores=({}, 0.5))],
            "scores not a list": [r(scores=()).replace("[]", '"0.5"')],
            "empty scores": [r(scores=())],
            "ragged scores": [r(), r("b", scores=(0.1, 0.2, 0.3))],
            "not an object": ["[1, 2]"],
            "missing key": [r().replace('"split": "train", ', "")],
            "invalid json": [valid[0], "{not json"],
            "two values on a line": [valid[0] + " " + valid[1]],
            "value across lines": [valid[0][:-1] + ', "x": [{}', "{}]}"],
            "extra key": [r(extra=1)],
            "leading space": [" " + valid[0]],
            "huge int id": [r(0).replace('"id": 0', '"id": ' + "9" * 5000)],
            "huge int score": [r(scores=(0.5, 0)).replace("0]", "1" + "0" * 400 + "]")],
            "huge int after a bad score": [r(scores=(1.5, 0)).replace("0]", "1" + "0" * 400 + "]")],
        }
        return cases

    # What load_dataset gives for each JSON Lines case, whatever the line
    # ending: the row count, or the exception's type and message (for a
    # message that ends in the interpreter's words, its start and a part of
    # those words).
    JSONL_OUTCOMES = {
        "valid": 2,
        "blank lines": 2,
        "label 1": 1,
        'label "1"': 1,
        "label true": (DatasetError, "{path}: line 1: label must be 0 or 1, got 'True'"),
        "label 1.0": (DatasetError, "{path}: line 1: label must be 0 or 1, got '1.0'"),
        "odd ids": 3,
        "numeric ids": (DatasetError, "{path}: line 2: duplicate sample_id '7' (first seen on line 1)"),
        "empty family tag": (DatasetError, "{path}: line 1: benign sample 'a' carries family tag ''"),
        "numeric family": 1,
        "null id": (DatasetError, "{path}: line 1: field id must be a string or an integer, got None"),
        "object id": (DatasetError, "{path}: line 1: field id must be a string or an integer, got {{'a': 1}}"),
        "bool id": (DatasetError, "{path}: line 1: field id must be a string or an integer, got True"),
        "float id": (DatasetError, "{path}: line 1: field id must be a string or an integer, got 7.0"),
        "list family": (DatasetError, "{path}: line 1: field family must be a string, an integer or null, got ['x']"),
        "bool family": (DatasetError, "{path}: line 1: field family must be a string, an integer or null, got False"),
        "object family": (DatasetError, "{path}: line 1: field family must be a string, an integer or null, got {{}}"),
        "int and bool scores": (DatasetError, "{path}: line 2: field scores[0] is not a number: True"),
        "string scores": (DatasetError, "{path}: line 1: field scores[1]='1_0' outside [0, 1]"),
        "tiny score": 1,
        "nan score": (DatasetError, "{path}: line 1: field scores[0]=nan outside [0, 1]"),
        "nan second score": (DatasetError, "{path}: line 1: field scores[1]=nan outside [0, 1]"),
        "inf score": (DatasetError, "{path}: line 1: field scores[0]=inf outside [0, 1]"),
        "string nan": (DatasetError, "{path}: line 1: field scores[0]='nan' outside [0, 1]"),
        "null score": (DatasetError, "{path}: line 1: field scores[0] is not a number: None"),
        "nested scores": (DatasetError, "{path}: line 1: field scores[0] is not a number: [0.5]"),
        "object in scores": (DatasetError, "{path}: line 1: field scores[0] is not a number: {{}}"),
        "scores not a list": (DatasetError, "{path}: line 1: field scores must be an array"),
        "empty scores": (DatasetError, "{path}: line 1: field scores is empty"),
        "ragged scores": (DatasetError, "{path}: line 2: inconsistent member count for sample 'b': expected 2, got 3"),
        "not an object": (DatasetError, "{path}: line 1: expected a JSON object"),
        "missing key": (DatasetError, "{path}: line 1: missing key 'split'"),
        "invalid json": (
            DatasetError,
            "{path}: line 2: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        "two values on a line": (DatasetError, "{path}: line 1: invalid JSON: Extra data: line 1 column 81 (char 80)"),
        "value across lines": (DatasetError, "{path}: line 1: invalid JSON: Expecting ',' delimiter: line 2 column 1 (char 89)"),
        "extra key": 1,
        "leading space": 1,
        # json.loads raises a plain ValueError for an int past the interpreter's
        # digit limit (PYTHONINTMAXSTRDIGITS, -X int_max_str_digits; 0 lifts it).
        "huge int id": (
            (DatasetError, "{path}: line 1: invalid JSON: ", "integer string conversion")
            if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000
            else 1
        ),
        "huge int score": (DatasetError, "{path}: line 1: field scores[1]=1" + "0" * 400 + " outside [0, 1]"),
        "huge int after a bad score": (DatasetError, "{path}: line 1: field scores[0]=1.5 outside [0, 1]"),
    }

    def jsonl_outcome(self, path):
        got = load_outcome(load_dataset, path, "jsonl")
        return len(got) if isinstance(got, PredictionDataset) else got

    def test_jsonl_inputs(self, tmp_path):
        cases = self.jsonl_cases()
        assert cases.keys() == self.JSONL_OUTCOMES.keys()
        for name, lines in cases.items():
            outcome = self.JSONL_OUTCOMES[name]
            for ending in ("\n", "\r\n", "\r"):
                path = self.write(tmp_path, ending.join(lines) + ending, "jsonl")
                got = self.jsonl_outcome(path)
                if isinstance(outcome, int):
                    assert got == outcome, (name, ending)
                elif len(outcome) == 2:
                    assert got == (outcome[0], outcome[1].format(path=path)), (name, ending)
                else:
                    kind, start, part = outcome
                    assert got[0] is kind, (name, ending)
                    assert got[1].startswith(start.format(path=path)) and part in got[1], (name, ending)

    def test_jsonl_empty_file(self, tmp_path):
        path = self.write(tmp_path, "", "jsonl")
        assert self.jsonl_outcome(path) == (DatasetError, f"{path}: no records, cannot infer member count")

    def test_empty_files(self, tmp_path):
        # A header-only CSV is an empty dataset with the header's members;
        # JSON Lines without a record cannot tell the member count.
        for text in (self.HEADER, self.HEADER + "\n\n"):
            ds = load_dataset(self.write(tmp_path, text))
            assert (len(ds), ds.member_count, ds.scores.shape) == (0, 2, (0, 2))
        for text in ("", "\n \n"):
            path = self.write(tmp_path, text, "jsonl")
            with pytest.raises(DatasetError) as exc:
                load_dataset(path, "jsonl")
            assert str(exc.value) == f"{path}: no records, cannot infer member count"

    def test_plain_files_skip_the_row_path(self, tmp_path, monkeypatch):
        # A plain CSV never reaches the CSV row path; JSON Lines, whose one
        # loader is the row path, read each file in one pass and build the
        # dataset without the constructor's second validation.
        ds = generate(replace(default_scenario(seed=4), n_benign=150, n_malicious=150))
        paths = {}
        for fmt in ("csv", "jsonl"):
            paths[fmt] = tmp_path / f"synth.{fmt}"
            save_dataset(ds, paths[fmt], fmt)
        crlf_blank = self.write(tmp_path, self.HEADER + "\n" + self.VALID.replace("\n", "\r\n\n"))
        blank_jsonl = self.write(tmp_path, "\n".join(["", self.record(), " ", self.record("b"), ""]), "jsonl")
        read_jsonl, jsonl_reads = data._jsonl_rows, []

        def row_path(path):
            raise AssertionError(f"{path} went through the row path")

        def jsonl_rows(path):
            jsonl_reads.append(path)
            return read_jsonl(path)

        def revalidate(self):
            raise AssertionError("dataset validated again")

        monkeypatch.setattr(data, "_csv_rows", row_path)
        monkeypatch.setattr(data, "_jsonl_rows", jsonl_rows)
        monkeypatch.setattr(PredictionDataset, "__post_init__", revalidate)
        for fmt, path in paths.items():
            assert_same_columns(load_dataset(path, fmt), ds)
        assert len(load_dataset(crlf_blank)) == 2
        assert len(load_dataset(blank_jsonl, "jsonl")) == 2
        assert jsonl_reads == [paths["jsonl"], blank_jsonl]

    def test_every_source_gives_one_id_column(self, tmp_path, monkeypatch):
        # The ids the bulk path can read (no csv quoting, no separator \x1c-\x1f), NUL, emoji, empty and
        # 16+-byte ids among them, then generate's own.
        odd = [s for s in TestWriters.ODD_IDS if not any(c in s for c in ',"\r\n\x1c\x1d\x1e\x1f')]
        synth = generate(replace(default_scenario(seed=4), n_benign=5, n_malicious=5))
        ids = [*odd, "sixteen-plus-bytes", *synth.sample_ids.tolist()]
        n = len(ids)
        ds = PredictionDataset(sample_ids=ids, labels=[0] * n, splits=["test"] * n, families=[None] * n, scores=np.full((n, 1), 0.5))
        csv_path, jsonl_path = tmp_path / "d.csv", tmp_path / "d.jsonl"
        save_dataset(ds, csv_path)
        save_dataset(ds, jsonl_path, "jsonl")
        columns = {"row path": data._csv_rows(csv_path).sample_ids, "jsonl": load_dataset(jsonl_path, "jsonl").sample_ids}
        monkeypatch.setattr(data, "_csv_rows", None)  # the bulk path must read it
        columns["bulk"] = load_dataset(csv_path).sample_ids
        columns["generate"] = synth.sample_ids
        for name, col in columns.items():
            assert col.dtype == np.dtypes.StringDType() == ds.sample_ids.dtype, name
            assert np.array_equal(col, ds.sample_ids[-len(col) :]), name
        assert ds.sample_ids.tolist() == ids and type(ds.sample_ids[0]) is str


class TestIdsAreUnicode:
    """An id that UTF-8 cannot hold, one with a lone surrogate, is a data error wherever it enters."""

    def test_jsonl_row_names_its_path_line_and_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [json.dumps(dict(id=i, label=0, split="train", family=None, scores=[0.5])) for i in ("a", "b\ud800")]
        path.write_text("\n".join(lines) + "\n")  # json.dumps escapes the surrogate as \ud800
        with pytest.raises(DatasetError) as exc:
            load_dataset(path, "jsonl")
        assert str(exc.value) == f"{path}: line 2: sample_id 'b\\ud800' is not valid Unicode"

    @pytest.mark.parametrize(
        "ids",
        [["a", "b\ud800"], np.array(["a", "b\ud800"]), np.array(["a", "b\ud800"], dtype=object)],
        ids=["list", "str-array", "object-array"],
    )
    def test_constructor(self, ids):
        with pytest.raises(DatasetError) as exc:
            PredictionDataset(sample_ids=ids, labels=[0, 0], splits=["train"] * 2, families=[None] * 2, scores=[[0.5], [0.5]])
        assert str(exc.value) == "sample_id 'b\\ud800' is not valid Unicode"


class TestFamilyTagsAreUnicode:
    """A family tag that UTF-8 cannot hold, one with a lone surrogate, is a data error, as such an id is."""

    def test_jsonl_row_names_its_path_line_and_tag(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [("a", "f"), ("b", "f\ud800")]
        lines = [json.dumps(dict(id=i, label=1, split="train", family=f, scores=[0.5])) for i, f in rows]
        path.write_text("\n".join(lines) + "\n")  # json.dumps escapes the surrogate as \ud800
        with pytest.raises(DatasetError) as exc:
            load_dataset(path, "jsonl")
        assert str(exc.value) == f"{path}: line 2: family 'f\\ud800' is not valid Unicode"

    def test_constructor(self):
        with pytest.raises(DatasetError) as exc:
            PredictionDataset(
                sample_ids=["a", "b"], labels=[1, 1], splits=["train"] * 2, families=["f", "f\ud800"], scores=[[0.5], [0.5]]
            )
        assert str(exc.value) == "family 'f\\ud800' is not valid Unicode"


class TestColumnRules:
    """One column check serves the constructor and the bulk CSV loader.

    The constructor raises its message; a load raises the row path's message,
    which names the line, for CSV and JSON Lines alike.
    """

    VALID = [("a", 0, "train", None, (0.1, 0.2)), ("b", 1, "test", "famX", (0.9, 0.8))]
    # bad row, constructor message, CSV row-path message, JSON Lines row-path message
    RULES = {
        "label": (
            ("c", 2, "train", None, (0.5, 0.5)),
            "label must be 0 or 1, got 2 for sample 'c'",
            "line 4: label must be 0 or 1, got '2'",
            "line 3: label must be 0 or 1, got '2'",
        ),
        "fractional label": (
            ("c", 0.5, "train", None, (0.5, 0.5)),
            "label must be 0 or 1, got 0.5 for sample 'c'",
            "line 4: label must be 0 or 1, got '0.5'",
            "line 3: label must be 0 or 1, got '0.5'",
        ),
        "split": (
            ("c", 0, "dev", None, (0.5, 0.5)),
            "unknown split 'dev' for sample 'c'",
            "line 4: unknown split 'dev'",
            "line 3: unknown split 'dev'",
        ),
        "score range": (
            ("c", 0, "train", None, (0.5, 1.5)),
            "score m1=1.5 outside [0, 1] for sample 'c'",
            "line 4: field m1='1.5' outside [0, 1]",
            "line 3: field scores[1]=1.5 outside [0, 1]",
        ),
        "tagged benign": (
            ("c", 0, "train", "famY", (0.5, 0.5)),
            "benign sample 'c' carries family tag 'famY'",
            "line 4: benign sample 'c' carries family tag 'famY'",
            "line 3: benign sample 'c' carries family tag 'famY'",
        ),
        "duplicate id": (
            ("a", 0, "train", None, (0.5, 0.5)),
            "duplicate sample_id 'a'",
            "line 4: duplicate sample_id 'a' (first seen on line 2)",
            "line 3: duplicate sample_id 'a' (first seen on line 1)",
        ),
    }

    @pytest.mark.parametrize(
        "rule, fmt",
        [
            pytest.param(rule, fmt, id=rule if fmt == "csv" else f"jsonl-{rule}")
            for rule in RULES
            for fmt in ("csv", "jsonl")
        ],
    )
    def test_constructor_and_loader(self, tmp_path, monkeypatch, rule, fmt):
        bad_row, constructor_message, csv_message, jsonl_message = self.RULES[rule]
        rows = [*self.VALID, bad_row]
        ids, labels, splits, families, scores = (list(col) for col in zip(*rows))
        with pytest.raises(DatasetError) as exc:
            PredictionDataset(sample_ids=ids, labels=labels, splits=splits, families=families, scores=scores)
        assert str(exc.value) == constructor_message

        path = tmp_path / f"d.{fmt}"
        if fmt == "csv":
            lines = ["sample_id,label,split,family,m0,m1"]
            lines += [f"{i},{lab},{s},{f or ''},{a!r},{b!r}" for i, lab, s, f, (a, b) in rows]
        else:
            lines = [json.dumps(dict(id=i, label=lab, split=s, family=f, scores=list(sc))) for i, lab, s, f, sc in rows]
        path.write_text("\n".join(lines) + "\n")
        row_path, name = [], f"_{fmt}_rows"
        read_rows = getattr(data, name)

        def spy(p):
            row_path.append(p)
            return read_rows(p)

        monkeypatch.setattr(data, name, spy)
        with pytest.raises(DatasetError) as exc:
            load_dataset(path, fmt)
        assert str(exc.value) == f"{path}: {csv_message if fmt == 'csv' else jsonl_message}"
        assert row_path == [path]

    @pytest.mark.parametrize(
        "columns, message",
        [
            (dict(scores=[0.1, 0.2, 0.3]), "scores must be 2-dimensional, got shape (3,)"),
            (dict(labels=[0, 0, 0]), "labels has length 3, expected 2"),
        ],
        ids=["1-D scores", "column length"],
    )
    def test_constructor_shape_rules(self, columns, message):
        valid = dict(sample_ids=["a", "b"], labels=[0, 1], splits=["train", "test"], families=[None, None], scores=[[0.1], [0.9]])
        with pytest.raises(DatasetError) as exc:
            PredictionDataset(**{**valid, **columns})
        assert str(exc.value) == message

    def test_bool_and_whole_float_labels_accepted(self):
        for labels in ([False, True], [0.0, 1.0]):
            ds = PredictionDataset(
                sample_ids=["a", "b"], labels=labels, splits=["train", "test"], families=[None, "famX"], scores=[[0.1], [0.9]]
            )
            assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "labels", [[1 + 0j, 0], np.array([1 + 0j, 0], dtype=object)], ids=["complex", "object-holding-complex"]
    )
    def test_complex_labels_rejected(self, labels):
        # 1+0j == 1, so only a kind check keeps it out; the int64 cast would drop the imaginary part
        with pytest.raises(DatasetError) as exc:
            PredictionDataset(sample_ids=["a", "b"], labels=labels, splits=["train", "test"], families=[None, None], scores=[[0.9], [0.1]])
        assert str(exc.value) == "label must be 0 or 1, got (1+0j) for sample 'a'"

    @pytest.mark.parametrize("label, shown", [("0", "'0'"), (None, "None"), (float("nan"), "nan"), (np.int8(3), "3")])
    def test_label_message_shows_the_raw_value(self, label, shown):
        with pytest.raises(DatasetError) as exc:
            PredictionDataset(sample_ids=["a"], labels=[label], splits=["train"], families=[None], scores=[[0.1]])
        assert str(exc.value) == f"label must be 0 or 1, got {shown} for sample 'a'"


class TestIdUniqueness:
    """Ids are unique when their sorted hashes hold no equal neighbours; an equal pair is settled by an in-order scan."""

    N = 50

    def dataset(self, ids):
        n = len(ids)
        return PredictionDataset(
            sample_ids=ids, labels=[0] * n, splits=["train"] * n, families=[None] * n, scores=np.full((n, 1), 0.5)
        )

    @pytest.mark.parametrize(
        "repeats, named",
        [({1: 0}, "s0"), ({25: 7}, "s7"), ({N - 1: 3}, "s3"), ({30: 5, 40: 2, 12: 11, 49: 0}, "s11")],
        ids=["first-row", "middle-row", "last-row", "several"],
    )
    @pytest.mark.parametrize("hashes", ["real", "all-equal"])
    def test_first_repeat_is_named(self, monkeypatch, hashes, repeats, named):
        if hashes == "all-equal":
            monkeypatch.setattr(data, "hash", lambda _: 0, raising=False)
        ids = [f"s{i}" for i in range(self.N)]
        for row, source in repeats.items():
            ids[row] = ids[source]
        with pytest.raises(DatasetError) as exc:
            self.dataset(ids)
        assert str(exc.value) == f"duplicate sample_id '{named}'"

    def test_unique_ids_pass_when_every_hash_is_equal(self, tmp_path, monkeypatch):
        hashed = []
        monkeypatch.setattr(data, "hash", lambda s: hashed.append(s) or 0, raising=False)
        ids = [f"s{i}" for i in range(self.N)]
        ds = self.dataset(ids)
        assert ds.sample_ids.tolist() == ids and hashed == ids
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        monkeypatch.setattr(data, "_csv_rows", None)  # the bulk path must read it
        assert_same_columns(load_dataset(path), ds)
