import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from benford import (
    Base,
    analyze,
    cli,
    digit_histogram,
    distance_to_nb,
    gen_sequence,
    nb_entropy_closed,
    sample_nb,
    significand,
    wrapped_lognormal_pdf,
)
from benford.cli import _RECORD_FIELDS, emit_records, main, parse_records
from benford.errors import BenfordError, DomainError
from benford.nb_core import first_digit_probs
from test_golden import clear_caches
from test_significand import FULL_RANGE_BASES, FULL_RANGE_VALUES, exact_decomposition

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "data"))
import make_golden  # noqa: E402

entropy_module = importlib.import_module("benford.entropy")
wrapping_module = importlib.import_module("benford.wrapping")
conformance_module = importlib.import_module("benford.conformance")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_of(out):
    return parse_records(out)


def field(records, name):
    for rec in records:
        if rec[0] == name:
            return rec[1:]
    raise KeyError(name)


def write_csv(path, values, header="value"):
    lines = [header] + [str(v) for v in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestDigits:
    def test_human_table(self, capsys):
        code, out, _ = run(capsys, "digits", "--base", "10")
        assert code == 0
        assert "0.301029995664" in out
        assert "1.000000000000" in out

    def test_base2_records(self, capsys):
        code, out, _ = run(capsys, "digits", "--base", "2", "--format", "records")
        assert code == 0
        recs = records_of(out)
        digits = [r for r in recs if r[0] == "digit"]
        assert digits == [("digit", 1, 1.0)]

    def test_base16_sums_to_one(self, capsys):
        code, out, _ = run(capsys, "digits", "--base", "16", "--format", "records")
        assert code == 0
        recs = records_of(out)
        assert abs(field(recs, "digit_sum")[0] - 1.0) < 1e-12

    def test_bad_base_is_usage_error(self, capsys):
        code, _, err = run(capsys, "digits", "--base", "1")
        assert code == 2
        assert "base" in err


class TestRoundTrip:
    def test_all_commands_round_trip(self, capsys, tmp_path):
        f = tmp_path / "data.csv"
        write_csv(f, sample_nb(200, Base(10), seed=5))
        invocations = [
            ("digits", "--base", "10"),
            ("fit", str(f), "--column", "value"),
            ("wrap", "lognormal", "0", "2", "--grid-points", "16"),
            ("entropy", "lognormal", "0.5", "1"),
            ("sequence", "pow2", "--n", "500"),
        ]
        for argv in invocations:
            code, out, _ = run(capsys, *argv, "--format", "records")
            assert code == 0, argv
            assert emit_records(parse_records(out)) == out, argv

    def test_path_with_spaces_round_trips(self, capsys, tmp_path):
        d = tmp_path / "my data"
        d.mkdir()
        f = d / "in put.csv"
        write_csv(f, sample_nb(100, Base(10), seed=6))
        code, out, _ = run(capsys, "fit", str(f), "--format", "records")
        assert code == 0
        assert emit_records(parse_records(out)) == out

    def test_line_separators_in_a_field_round_trip(self, capsys, tmp_path):
        # str.splitlines also ends a line at each of these
        column = "a\x85b\u2028c\x0bd\x1ce"
        f = tmp_path / "data.csv"
        write_csv(f, sample_nb(100, Base(10), seed=6), header=column)
        code, out, _ = run(capsys, "fit", str(f), "--column", column, "--format", "records")
        assert code == 0
        assert ("param", "column", column) in parse_records(out)
        assert emit_records(parse_records(out)) == out


class TestFit:
    def test_csv_by_name_and_index(self, capsys, tmp_path):
        f = tmp_path / "two_cols.csv"
        f.write_text("id,amount\n1,123.4\n2,27\n3,0.9\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "fit", str(f), "--column", "amount", "--format", "records"
        )
        assert code == 3  # too few rows for chi-square, a data error
        f2 = tmp_path / "many.csv"
        write_csv(f2, sample_nb(100, Base(10), seed=8), header="x")
        code, out, _ = run(capsys, "fit", str(f2), "--column", "0", "--format", "records")
        assert code == 0
        assert field(records_of(out), "total") == (100,)

    def test_skip_accounting(self, capsys, tmp_path):
        f = tmp_path / "junk.csv"
        values = list(sample_nb(60, Base(10), seed=2)) + [-3, 0, "oops", "nan"]
        write_csv(f, values)
        code, out, _ = run(capsys, "fit", str(f), "--format", "records")
        assert code == 0
        recs = records_of(out)
        assert field(recs, "skipped_nonpositive") == (2,)
        assert field(recs, "skipped_nonfinite") == (2,)
        assert field(recs, "total") == (60,)

    def test_absolute_value_reduces_skips(self, capsys, tmp_path):
        f = tmp_path / "negatives.csv"
        values = [(-1) ** i * v for i, v in enumerate(sample_nb(120, Base(10), seed=3))]
        write_csv(f, values)
        code, out, _ = run(capsys, "fit", str(f), "--format", "records")
        assert code == 0
        skipped_plain = field(records_of(out), "skipped_nonpositive")[0]
        code, out, _ = run(
            capsys, "fit", str(f), "--absolute-value", "--format", "records"
        )
        assert code == 0
        skipped_abs = field(records_of(out), "skipped_nonpositive")[0]
        assert skipped_plain > skipped_abs
        assert skipped_abs == 0

    def test_jsonl(self, capsys, tmp_path):
        f = tmp_path / "data.jsonl"
        rows = [json.dumps({"v": float(x)}) for x in sample_nb(80, Base(10), seed=9)]
        rows.insert(3, "{broken json")
        f.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "fit",
            str(f),
            "--column",
            "v",
            "--input-format",
            "jsonl",
            "--format",
            "records",
        )
        assert code == 0
        recs = records_of(out)
        assert field(recs, "total") == (80,)
        assert field(recs, "skipped_nonfinite") == (1,)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fit", "/no/such/file.csv")
        assert code == 3
        assert "/no/such/file.csv" in err

    def test_missing_column(self, capsys, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, [1, 2, 3])
        code, _, err = run(capsys, "fit", str(f), "--column", "absent")
        assert code == 3
        assert "absent" in err

    def test_all_zeros_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "zeros.csv"
        write_csv(f, [0] * 50)
        code, _, _ = run(capsys, "fit", str(f))
        assert code == 3

    def test_exit_zero_even_when_nonconforming(self, capsys, tmp_path):
        f = tmp_path / "flat.csv"
        write_csv(f, [5.0 + 0.001 * i for i in range(100)])
        code, out, _ = run(capsys, "fit", str(f), "--format", "records")
        assert code == 0
        assert field(records_of(out), "chi_square_pvalue")[0] < 1e-6

    def test_nb_sample_passes(self, capsys, tmp_path):
        f = tmp_path / "nb.csv"
        write_csv(f, sample_nb(100_000, Base(10), seed=7))
        code, out, _ = run(capsys, "fit", str(f), "--format", "records")
        assert code == 0
        recs = records_of(out)
        assert field(recs, "chi_square_pvalue")[0] > 0.01
        assert field(recs, "tv_distance")[0] < 0.01

    def test_pow2_significand_file(self, capsys, tmp_path):
        f = tmp_path / "pow2.csv"
        write_csv(f, gen_sequence("pow2", 100_000, Base(10)))
        code, out, _ = run(capsys, "fit", str(f), "--format", "records")
        assert code == 0
        assert field(records_of(out), "tv_distance")[0] < 0.005

    @pytest.mark.parametrize("b", FULL_RANGE_BASES)
    def test_full_float_range(self, capsys, tmp_path, b):
        # repeated so the chi-square minimum of 5 (b - 1) entries is met
        reps = -(-5 * (b - 1) // len(FULL_RANGE_VALUES))
        f = tmp_path / "extremes.csv"
        write_csv(f, [repr(v) for v in FULL_RANGE_VALUES] * reps)
        code, out, err = run(capsys, "fit", str(f), "--base", str(b), "--format", "records")
        assert code == 0, err
        want = [0] * (b - 1)
        for v in FULL_RANGE_VALUES:
            want[exact_decomposition(v, b)[1] - 1] += reps
        bins = [rec for rec in records_of(out) if rec[0] == "bin"]
        assert [rec[2] for rec in bins] == want

    def test_chi_square_in_base_20000_matches_scipy(self, capsys, tmp_path):
        # 19998 degrees of freedom, a statistic near its mean
        values = sample_nb(200_000, Base(20_000), 1)
        f = tmp_path / "nb20k.csv"
        write_csv(f, values, header="a")
        code, out, err = run(
            capsys, "fit", str(f), "--column", "a", "--base", "20000", "--format", "records"
        )
        assert code == 0, err
        rep = analyze(values, Base(20_000))
        assert abs(rep.chi_square_pvalue - scipy_stats.chi2.sf(rep.chi_square, 19998)) < 1e-12
        (p,) = field(records_of(out), "chi_square_pvalue")
        assert p == float("%.12g" % rep.chi_square_pvalue)


class TestIngestErrors:
    @pytest.mark.parametrize(
        "fmt, body",
        [("csv", b"a\n1.5\n2\xff\n3\n"), ("jsonl", b'{"a": 1.5}\n{"a": "2\xff"}\n')],
    )
    def test_non_utf8_file_is_data_error(self, capsys, tmp_path, fmt, body):
        f = tmp_path / f"latin1.{fmt}"
        f.write_bytes(body)
        code, out, err = run(capsys, "fit", str(f), "--column", "a", "--input-format", fmt)
        assert code == 3
        assert out == ""
        assert "not UTF-8" in err and str(f) in err
        assert "Traceback" not in err

    def test_csv_field_over_the_field_limit_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "wide.csv"
        f.write_text('a\n1\n"' + "7" * 200_000 + '"\n', encoding="utf-8")
        code, out, err = run(capsys, "fit", str(f), "--column", "a")
        assert code == 3
        assert out == ""
        assert "field larger than field limit" in err and "line 3" in err

    @pytest.mark.parametrize("block", [cli._CSV_BLOCK, 1024])
    def test_non_utf8_byte_past_the_first_text_chunk(
        self, capsys, tmp_path, monkeypatch, block
    ):
        # csv.reader decodes its text 8 KiB at a time, so the bad byte is
        # met while rows are read, not with the header
        f = tmp_path / "late_latin1.csv"
        f.write_bytes(b"a\n" + b"1.5\n" * 5000 + b"caf\xe9\n2\n")
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        code, out, err = run(capsys, "fit", str(f), "--column", "a")
        assert code == 3
        assert out == ""
        assert "not UTF-8" in err and str(f) in err

    @pytest.mark.parametrize("bad_first", [False, True])
    def test_the_first_bad_line_gives_the_error(self, tmp_path, monkeypatch, bad_first):
        # csv.reader meets a line that is not UTF-8 in line order with a
        # field over the field limit, however the bytes are split between
        # the block reader and csv.reader
        wide, latin1 = b"7" * (csv.field_size_limit() + 1) + b"\n", b"caf\xe9\n"
        f = tmp_path / "bad.csv"
        f.write_bytes(b"a\n1\n" + (latin1 + wide if bad_first else wide + latin1) + b"2\n")
        want = "not UTF-8 text" if bad_first else "line 3: field larger than field limit"
        for block in (16, 64, cli._CSV_BLOCK):
            monkeypatch.setattr(cli, "_CSV_BLOCK", block)
            got = outcome(read_csv, str(f), "a")
            assert got == outcome(reference_csv, str(f), "a")
            assert got[0] == "IngestError" and want in got[1], block

    def test_field_over_the_limit_in_a_late_block_names_its_line(
        self, capsys, tmp_path, monkeypatch
    ):
        f = tmp_path / "late_wide.csv"
        f.write_text("a\n" + "1\n" * 40 + "7" * 200_000 + "\n", encoding="utf-8")
        monkeypatch.setattr(cli, "_CSV_BLOCK", 16)  # blocks parse lines 1-41 first
        code, out, err = run(capsys, "fit", str(f), "--column", "a")
        assert code == 3
        assert "field larger than field limit" in err and "line 42" in err


class TestJsonlCrashes:
    """Lines that used to end `fit --input-format jsonl` with a traceback
    count as skipped_nonfinite, as a 400-digit CSV cell does."""

    def fit_with(self, capsys, tmp_path, bad_line):
        good = [json.dumps({"a": float(x)}) for x in sample_nb(60, Base(10), seed=6)]
        f = tmp_path / "crash.jsonl"
        f.write_text("\n".join(good[:30] + [bad_line] + good[30:]) + "\n", encoding="utf-8")
        code, out, err = run(
            capsys, "fit", str(f), "--column", "a", "--input-format", "jsonl",
            "--format", "records",
        )
        assert code == 0, err
        recs = records_of(out)
        assert field(recs, "total") == (60,)
        assert field(recs, "skipped_nonfinite") == (1,)

    def test_integer_too_large_for_a_double(self, capsys, tmp_path):
        self.fit_with(capsys, tmp_path, '{"a": ' + "1" * 400 + "}")

    def test_integer_over_the_int_digit_limit(self, capsys, tmp_path):
        self.fit_with(capsys, tmp_path, '{"a": ' + "7" * 5000 + "}")

    def test_deeply_nested_array(self, capsys, tmp_path):
        self.fit_with(capsys, tmp_path, "[" * 100_000)


def joined(blocks):
    """The float64 blocks a reader yields, in one array."""
    return np.concatenate([np.empty(0), *blocks])


def read_csv(path, column):
    return joined(cli._read_csv(path, column))


def outcome(read, *args):
    """A reader's float64 bits, or the error it raised."""
    try:
        return read(*args).tobytes()
    except BenfordError as exc:
        return type(exc).__name__, str(exc)


def _decline(head, path, column):
    """A header reader that reads no header, so no block is parsed."""
    return None


def reference_csv(path, column):
    """_read_csv with the header declined: the csv.reader path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_csv_header", _decline)
        return read_csv(path, column)


def run_blocks(fh, stop, parse):
    """The values _blocks parsed, and what it returned: their number and
    the bytes it read and did not parse."""
    gen, parts = cli._blocks(fh, stop, parse), []
    while True:
        try:
            parts.append(next(gen))
        except StopIteration as end:
            return joined(parts), *end.value


def csv_blocks(path, column):
    """The values the block parser parsed, the lines it parsed, the
    header among them, and the first byte it did not parse."""
    with open(path, "rb") as fh:
        parse = cli._csv_header(fh.readline(), str(path), column)
        if parse is None:
            return joined([]), 0, 0
        values, n, rest = run_blocks(fh, None, parse)
        return values, 1 + n, fh.tell() - len(rest)


class _NotedReads(io.BufferedReader):
    """A binary file that counts its readline calls."""

    lines = 0

    def readline(self, size=-1):
        self.lines += 1
        return super().readline(size)


# cells csv.reader and comma splitting read alike, and cells on which
# they may not; the latter stop the block reader at their block
_SAFE_CELLS = (
    st.floats().map(repr)
    | st.integers(-(10**30), 10**30).map(str)
    | st.text(alphabet=" \t.-_e0123456789nafix\xa0\u0661\u3000\xe9", max_size=8)
    | st.sampled_from(["1.5", " 2.5 ", "\t3", "1_000", "nan", "-inf", "oops", ""])
)
_UNSAFE_CELLS = st.sampled_from(
    ['"8,5"', '"9.5"', '""', "\x00", "\x1c4.5", "4.5\x1f", "\r", "7" * 80]
)
_DEFECTS = st.lists(
    st.sampled_from(["cell", "short", "long", "blank", "crlf", "no_eol", "latin1"]),
    max_size=2,
)


class TestCsvBlockReader:
    """The block reader returns the csv.reader path's bits, or declines."""

    @settings(
        deadline=None, max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        data=st.data(),
        ncols=st.integers(1, 4),
        block=st.integers(16, 128),
        chunk=st.integers(1, 4),
    )
    def test_matches_csv_reader(self, tmp_path, data, ncols, block, chunk):
        header = ["a", "b", " c ", "d"][:ncols]
        names = [h.strip() for h in header] + [str(i) for i in range(ncols)]
        column = data.draw(st.sampled_from(names + ["x", " c ", str(ncols), "-1"]))
        rows = data.draw(
            st.lists(st.lists(_SAFE_CELLS, min_size=ncols, max_size=ncols), max_size=12)
        )
        # no defect in about half the files, so that those take the block path
        defects = data.draw(st.just([]) | _DEFECTS)
        if rows and "cell" in defects:
            rows[-1][-1] = data.draw(_UNSAFE_CELLS)
        if rows and "short" in defects:
            rows[0] = rows[0][:-1]
        if rows and "long" in defects:
            rows[-1] = rows[-1] + ["9"]
        if "blank" in defects:
            rows.insert(len(rows) // 2, [])
        eol = "\r\n" if "crlf" in defects else "\n"
        text = eol.join([",".join(header)] + [",".join(r) for r in rows])
        if "no_eol" not in defects:
            text += eol
        f = tmp_path / "prop.csv"
        f.write_bytes(text.encode("utf-8") + (b"\xe9,1\n" if "latin1" in defects else b""))
        limit = csv.field_size_limit(64)  # so that "7" * 80 is oversized
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "_CSV_BLOCK", block)
                mp.setattr(cli, "_CHUNK_ROWS", chunk)
                got = outcome(read_csv, str(f), column)
            assert got == outcome(reference_csv, str(f), column)
        finally:
            csv.field_size_limit(limit)

    def blocks(self, path, column="v"):
        return csv_blocks(path, column)

    def test_reads_plain_files_across_block_boundaries(self, tmp_path, monkeypatch):
        f = tmp_path / "plain.csv"
        cells = ["1.5", " 2 ", "", "oops", "1_000", "١", "-inf", "\xa03e-5"] * 20
        text = "id, v \n" + "".join(f"{i},{c}\n" for i, c in enumerate(cells))
        f.write_text(text, encoding="utf-8")
        monkeypatch.setattr(cli, "_CSV_BLOCK", 16)
        got, nlines, _ = self.blocks(f)
        assert nlines == len(cells) + 1
        assert got.tobytes() == reference_csv(str(f), "v").tobytes()
        assert self.blocks(f, "1")[0].tobytes() == got.tobytes()

    @pytest.mark.parametrize("block", [16, cli._CSV_BLOCK])
    def test_reads_a_last_line_without_a_newline(self, tmp_path, monkeypatch, block):
        f = tmp_path / "no_eol.csv"
        f.write_text("a,v\n1,1.5\n2,2.5\n3,oops\n4,7", encoding="utf-8")
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        got, nlines, _ = self.blocks(f)
        assert nlines == 5
        assert got.tobytes() == reference_csv(str(f), "v").tobytes()
        assert got[-1] == 7.0

    @pytest.mark.parametrize(
        "body, column",
        [
            ('v\n"1.5"\n', "v"),  # quote
            ("v\n1.5\r2.5\n", "v"),  # a carriage return that ends no \r\n
            ("v\n1.5\x00\n", "v"),  # NUL
            ("v\n\x1c1.5\n", "v"),  # stripped by str.strip, rejected by float
            ("a,v\n1,2\n3\n", "v"),  # short row
            ("a,v\n1,2\n3,4,5\n", "v"),  # long row
            ("a,v\n1,2\n\n", "v"),  # blank line in a two-column file
            ("\nv\n1.5\n", "0"),  # empty header line: csv.reader sees no column
            ("\r\nv\n1.5\n", "0"),  # the same, ended by \r\n
            ("v\n" + "7" * (csv.field_size_limit() + 1) + "\n", "v"),  # over the field limit
            ("a,b\n1,2\n", "v"),  # no such column
            ("", "v"),  # empty file
        ],
    )
    def test_declines_what_it_cannot_prove(self, tmp_path, body, column):
        # the header line is read on its own, before any row; where it does
        # not name the column, csv.reader reads the file from its first byte
        f = tmp_path / "odd.csv"
        f.write_text(body, encoding="utf-8", newline="")
        got, nlines, stop = self.blocks(f, column)
        assert got.size == 0
        header = column in body.split("\n")[0].split(",")
        assert (nlines, stop) == ((1, body.index("\n") + 1) if header else (0, 0))

    @pytest.mark.parametrize("block", [16, cli._CSV_BLOCK])
    def test_reads_crlf_line_ends(self, tmp_path, monkeypatch, block):
        # every carriage return directly precedes a newline
        f = tmp_path / "crlf.csv"
        body = "a,v\r\n" + "".join(f"{i},{i}.5\r\n" for i in range(40)) + "7,oops\n8,7\r\n"
        f.write_bytes(body.encode())
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        got, nlines, stop = self.blocks(f)
        assert (nlines, stop) == (43, len(body))
        assert got.tobytes() == reference_csv(str(f), "v").tobytes()

    def test_stops_at_a_lone_carriage_return_in_a_late_block(self, tmp_path, monkeypatch):
        # csv.reader reads on from the block's first byte of the file, counting
        # the carriage returns of the blocks before
        f = tmp_path / "late_cr.csv"
        body = "v\r\n" + "1.5\r\n" * 20 + "2.5\r3.5\n" + "4.5\r\n" * 5
        f.write_bytes(body.encode())
        monkeypatch.setattr(cli, "_CSV_BLOCK", 16)
        got, nlines, stop = self.blocks(f)
        assert 0 < nlines <= 21 and got.size == nlines - 1
        assert stop == len("v\r\n" + "1.5\r\n" * (nlines - 1))
        want = reference_csv(str(f), "v")
        assert want.size == 27
        assert read_csv(str(f), "v").tobytes() == want.tobytes()

    def test_declines_non_utf8(self, tmp_path):
        # in a row, the header alone is parsed; in the header, nothing is
        f = tmp_path / "latin1.csv"
        f.write_bytes(b"v\n1.5\n2\xff\n")
        assert self.blocks(f)[1:] == (1, 2)
        f.write_bytes(b"v\xff\n1.5\n")
        assert self.blocks(f)[1:] == (0, 0)

    def test_stops_at_a_late_block_and_csv_reader_reads_on(self, tmp_path, monkeypatch):
        f = tmp_path / "late_quote.csv"
        body = "v\n" + "1.5\n" * 20 + '"2.5"\n' + "3.5\n" * 5
        f.write_text(body, encoding="utf-8")
        monkeypatch.setattr(cli, "_CSV_BLOCK", 16)
        got, nlines, stop = self.blocks(f)
        # stopped on a line boundary before the quote, with every line before it parsed
        assert 0 < nlines <= 21 and got.size == nlines - 1
        assert stop == len("v\n" + "1.5\n" * (nlines - 1))
        want = reference_csv(str(f), "v")
        assert want.size == 26
        assert read_csv(str(f), "v").tobytes() == want.tobytes()

    @pytest.mark.parametrize("stop", [None, "mid-file"])
    @pytest.mark.parametrize("block", [7, 13, 23])
    def test_returns_the_declined_block_to_its_line_end(self, tmp_path, monkeypatch, stop, block):
        # no read ends at a line end, so the declined block's read cuts a
        # line, which _blocks reads to its end: rest is every byte it read
        # and did not parse, and the file stands just after it
        body = b"v\n" + b"1.5\n" * 20 + b'"2.5"\n' + b"3.5\n" * 20
        if stop:
            stop = body.index(b"3.5\n") + 4 * 2  # two lines past the quote
        f = tmp_path / "late_quote.csv"
        f.write_bytes(body)
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        with _NotedReads(io.FileIO(f)) as fh:
            parse = cli._csv_header(fh.readline(), str(f), "v")
            values, n, rest = run_blocks(fh, stop, parse)
            assert fh.lines == 2  # the header, and the declined block's cut line
            end = fh.tell()
        start = len(b"v\n" + b"1.5\n" * n)  # the declined block's first byte
        assert values.tolist() == [1.5] * n
        assert body[start:end] == rest and b'"' in rest
        assert rest.endswith(b"\n") and end <= (stop or len(body))

    def test_reads_a_line_that_two_reads_do_not_end(self, tmp_path, monkeypatch):
        f = tmp_path / "long.csv"
        f.write_text("v\n1.5\n" + "2" * 100 + "\n3\n")
        monkeypatch.setattr(cli, "_CSV_BLOCK", 32)  # no read of 64 bytes ends the line
        got, nlines, stop = self.blocks(f)
        assert (got.tolist(), nlines, stop) == ([1.5, float("2" * 100), 3.0], 4, 109)
        assert read_csv(str(f), "v").tobytes() == reference_csv(str(f), "v").tobytes()


def jsonl_oracle(lines, column):
    """json.loads per line, as the reader did before it scanned lines; an
    integer that float() cannot hold is +-inf (call with Python's int digit
    limit lifted)."""
    out, seen = [], False
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            out.append(math.nan)
            continue
        v = obj.get(column) if isinstance(obj, dict) else None
        if v is None:
            out.append(math.nan)
            continue
        seen = True
        if isinstance(v, bool):
            out.append(math.nan)
        elif isinstance(v, int):
            try:
                out.append(float(v))
            except OverflowError:
                out.append(math.inf if v > 0 else -math.inf)
        elif isinstance(v, float):
            out.append(v)
        elif isinstance(v, str):
            try:
                out.append(float(v))
            except ValueError:
                out.append(math.nan)
        else:
            out.append(math.nan)
    if out and not seen:
        raise cli.IngestError(f"p: no field named {column!r} in any record")
    return np.array(out, dtype=np.float64)


_JSON_VALUES = st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | st.text(
    alphabet=" .-_e0123456789naifx١", max_size=8
) | st.lists(st.integers(), max_size=2) | st.sampled_from([0, -0.0, "-0", " 1.5 ", "1_000"])
_JSON_LINES = (
    st.dictionaries(st.sampled_from(["a", "b"]), _JSON_VALUES, max_size=2).map(json.dumps)
    | _JSON_VALUES.map(json.dumps)
    | st.sampled_from(
        [
            '{"a":1}, {"a":2',  # with the next line, one valid JSON text
            '"x":3}',
            "{broken",
            "",
            "   ",
            '  {"a": 1} ',
            '﻿{"a": 1}',
            '{"a": -0}',
            '{"a": -0.0}',
            '{"a": 1e400}',
            '{"a": NaN}',
            '{"a": 1} x',
            "[" * 50,
            '{"a": ' + "9" * 400 + "}",
            '{"a": -' + "9" * 4400 + "}",
            # str.splitlines ends a line at each of these; "\n" alone does not
            '{"a": 1.5, "b": "x\u2028y"}',
            '{"a": "2.5\x85"}',
            '{"a": 3.5, "b": "\x0b"}',
            '{"b": "\x0c", "a": 4.5}',
            '{"a": 5.5, "b": "x\ry"}',
        ]
    )
)


class TestJsonlScanner:
    @settings(
        deadline=None, max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(_JSON_LINES, max_size=10),
        st.sampled_from(["a", "b"]),
        st.integers(16, 256),
        st.booleans(),
    )
    def test_matches_json_loads_per_line(self, tmp_path, lines, column, block, final_newline):
        # blocks this small cut the file anywhere, and no read ends the longest lines
        text = "\n".join(lines) + ("\n" if final_newline else "")
        (tmp_path / "p").write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp_path)  # the oracle names the file "p"
            mp.setattr(cli, "_CSV_BLOCK", block)
            got = outcome(lambda *a: joined(cli._read_jsonl(*a)), "p", column)
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert got == outcome(jsonl_oracle, lines, column)
        finally:
            sys.set_int_max_str_digits(digits)

    def test_lines_are_not_joined(self, tmp_path):
        # batched into one array the lines are valid JSON; each alone is not
        lines = ['{"a":1}, {"a":2', '"x":3}', '{"a": 4}']
        batch = json.loads("[" + ",".join(lines) + "]")
        assert batch == [{"a": 1}, {"a": 2, "x": 3}, {"a": 4}]
        f = tmp_path / "split.jsonl"
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = joined(cli._read_jsonl(str(f), "a"))
        assert np.isnan(got[:2]).all() and got[2] == 4.0

    def test_records_end_at_a_newline_only(self, tmp_path):
        # a bare carriage return ends no record, as in JSON Lines: the first
        # line holds two objects and is malformed
        body = b'{"a": 1.5}\r{"a": 2.5}\n{"a": 3.5}\n'
        f = tmp_path / "cr.jsonl"
        f.write_bytes(body)
        got = joined(cli._read_jsonl(str(f), "a"))
        assert got.size == 2 and np.isnan(got[0]) and got[1] == 3.5
        want = jsonl_oracle(body.decode().split("\n"), "a")
        assert got.tobytes() == want.tobytes()


def _main(argv):
    """main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def split_reads(split=True):
    """Every ``fit`` file read in two halves, or in one piece. Yields a log
    of the forks and of the child's answers the parent waited for."""
    log = []
    fork, take = os.fork, cli._take

    def spy_fork():
        log.append("fork")
        return fork()

    def spy_take(pipe):
        answer = take(pipe)
        log.append("declined" if answer is None else "ok")
        return answer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SPLIT_BYTES", 1 if split else 1 << 62)
        mp.setattr(os, "fork", spy_fork)
        mp.setattr(cli, "_take", spy_take)
        yield log


def _split_and_sequential(argv):
    """main's outcome with the file read in two halves, and in one piece,
    and the log of the split read."""
    with split_reads() as log:
        got = _main(argv)
    with split_reads(False) as none:
        want = _main(argv)
    assert none == []
    return got, want, log


def _streamed_inputs():
    """Files of about 20,000 rows, larger than one default CSV block, whose
    CSV ones stop the block reader after row 15,000, so that csv.reader
    reads the rest."""
    x = sample_nb(20_000, Base(10), seed=11) * np.where(np.arange(20_000) % 97, 1.0, -1.0)
    cells = [repr(v) for v in x.tolist()]
    cells[7::1000] = ["oops"] * 20
    rows = [f"{i},{c}" for i, c in enumerate(cells)]
    quoted = rows[:15_000] + ['15000,"2.5"'] + rows[15_001:]
    crlf = "\r\n".join(rows[:15_000]) + "\r\n15000,2.5\r15001,3.5\n" + "\n".join(rows[15_002:])
    jsonl = [f'{{"a": {c}}}' if c != "oops" else "{broken" for c in cells]
    return {
        "late_quote.csv": ("id,a\n" + "\n".join(quoted) + "\n").encode(),
        "late_cr.csv": ("id,a\r\n" + crlf + "\n").encode(),
        "rows.jsonl": ("\n".join(jsonl) + "\n").encode(),
    }


def _fit_argv(path, *extra):
    fmt = ["--input-format", "jsonl"] if str(path).endswith(".jsonl") else []
    return ["fit", str(path), "--column", "a", *fmt, *extra, "--format", "records"]


class TestStreamedFit:
    """``fit`` folds its readers' blocks into the statistics one at a time;
    no block or chunk size changes a byte of its output or its errors."""

    @contextlib.contextmanager
    def sizes(self, tiny):
        with pytest.MonkeyPatch.context() as mp:
            if tiny:
                mp.setattr(cli, "_CSV_BLOCK", 64)
                mp.setattr(cli, "_CHUNK_ROWS", 3)
            yield

    @pytest.mark.parametrize("name", sorted(_streamed_inputs()))
    @pytest.mark.parametrize("tiny", [False, True])
    def test_split_read_matches_the_sequential_one(self, tmp_path, name, tiny):
        f = tmp_path / name
        f.write_bytes(_streamed_inputs()[name])
        argv = _fit_argv(f)
        with self.sizes(tiny):
            got, want, log = _split_and_sequential(argv)
        assert got == want and got[0] == 0
        # the CSV files stop the child's fast path at row 15,000 of 20,000
        assert log == (["fork", "ok"] if name.endswith(".jsonl") else ["fork", "declined"])

    @pytest.mark.parametrize("name", sorted(_streamed_inputs()))
    @pytest.mark.parametrize("extra", [(), ("--absolute-value",), ("--base", "16")])
    def test_records_match_the_library_at_any_block_size(self, capsys, tmp_path, name, extra):
        f = tmp_path / name
        f.write_bytes(_streamed_inputs()[name])
        argv = _fit_argv(f, *extra)
        # the column read in one piece, by csv.reader or json.loads per line
        if name.endswith(".csv"):
            values = reference_csv(str(f), "a")
            nlines = csv_blocks(f, "a")[1]
            assert 0 < nlines <= 15_001  # the block reader stopped before row 15,000
        else:
            values = jsonl_oracle(f.read_bytes().decode().split("\n"), "a")
        if "--absolute-value" in extra:
            values = np.abs(values)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        base = Base(int(extra[1]) if "--base" in extra else 10)
        stats = [r for r in parse_records(out) if r[0] not in ("schema", "command", "param")]
        want = cli._conformance_records(analyze(values, base), base)
        assert stats == parse_records(emit_records(want))
        with self.sizes(tiny=True):
            assert run(capsys, *argv) == (0, out, err)
            args = cli.build_parser().parse_args(argv)
            joined = np.concatenate([np.empty(0), *cli._value_blocks(args)])
            assert joined.tobytes() == values.tobytes()

    def test_holds_one_full_length_buffer(self, capsys, tmp_path):
        # the significands, 8 bytes a row, and their join, 8 more; a
        # block of the file and its temporaries do not grow with it
        n = 300_000
        f = tmp_path / "big.csv"
        x = sample_nb(n, Base(10), seed=12)
        f.write_text("id,a\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(x.tolist())))
        argv = _fit_argv(f)
        assert run(capsys, *argv)[0] == 0
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 24 * n

    @pytest.mark.parametrize(
        "name, body, message",
        [
            ("header.csv", b"id,a\n", "no usable entries"),
            ("empty.csv", b"", "empty file"),
            ("negative.csv", b"a\n" + b"-1.5\n" * 70_000, "no usable entries"),
            ("late_latin1.csv", b"a\n" + b"1.5\n" * 70_000 + b"caf\xe9\n2\n", "not UTF-8"),
            ("late_wide.csv", b"a\n" + b"1\n" * 70_000 + b'"' + b"7" * 200_000 + b'"\n', "line 70002"),
            ("no_field.jsonl", b'{"b": 1.5}\n' * 20_000, "no field named 'a'"),
            ("late_latin1.jsonl", b'{"a": 1.5}\n' * 20_000 + b'{"a": "\xe9"}\n', "not UTF-8"),
        ],
    )
    @pytest.mark.parametrize("tiny", [False, True])
    def test_errors_keep_their_precedence(self, tmp_path, name, body, message, tiny):
        # a reader's error comes before the fold's EmptyData, and the
        # blocks folded before it print nothing, whether or not the file
        # is read in two halves
        f = tmp_path / name
        f.write_bytes(body)
        with self.sizes(tiny):
            (code, out, err), want, _ = _split_and_sequential(_fit_argv(f))
        assert (code, out, err) == want
        assert (code, out) == (3, "")
        assert message in err and "Traceback" not in err


def _two_halves(fmt: str, defect: str, where: str) -> bytes:
    """A file of 4,000 rows, with a defect in the row a quarter or three
    quarters of the way in: a quote, a lone carriage return, a byte that
    is not UTF-8, or none."""
    cells = [repr(v) for v in sample_nb(4000, Base(10), seed=5).tolist()]
    if fmt == "csv":
        lines = [b"id,a"] + [b"%d,%s" % (i, c.encode()) for i, c in enumerate(cells)]
    else:
        lines = [b'{"id": %d, "a": %s}' % (i, c.encode()) for i, c in enumerate(cells)]
    i = len(lines) // 4 if where == "first" else 3 * len(lines) // 4
    if defect == "quote":
        lines[i] = b'%d,"%s"' % (i, cells[i].encode())  # "1.5" reads as 1.5
    elif defect == "lone_cr":
        lines[i] += b"\r" + lines[i]  # a line end for csv.reader
    elif defect == "latin1":
        lines[i] = lines[i].replace(b"id", b"\xe9d") if fmt == "jsonl" else lines[i] + b"\xe9"
    return b"\n".join(lines) + b"\n"


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitRead:
    """A file read in two halves, the second by a forked child, gives what
    the sequential read gives, to the byte, and leaves no child behind."""

    @pytest.mark.parametrize(
        "fmt, defect, where, log",
        [
            ("csv", None, None, ["fork", "ok"]),
            ("jsonl", None, None, ["fork", "ok"]),
            # the child declines, and the parent reads on from the split
            ("csv", "quote", "second", ["fork", "declined"]),
            ("csv", "lone_cr", "second", ["fork", "declined"]),
            ("csv", "latin1", "second", ["fork", "declined"]),
            ("jsonl", "latin1", "second", ["fork", "declined"]),
            # the parent's fast path stops, or it raises, before the split
            ("csv", "quote", "first", ["fork"]),
            ("csv", "lone_cr", "first", ["fork"]),
            ("csv", "latin1", "first", ["fork"]),
            ("jsonl", "latin1", "first", ["fork"]),
        ],
    )
    @pytest.mark.parametrize("extra", [(), ("--absolute-value", "--base", "16")])
    def test_matches_the_sequential_read(self, tmp_path, fmt, defect, where, log, extra):
        f = tmp_path / f"halves.{fmt}"
        f.write_bytes(_two_halves(fmt, defect, where))
        got, want, seen = _split_and_sequential(_fit_argv(f, *extra))
        assert got == want
        assert seen == log
        assert got[0] == (3 if defect == "latin1" else 0), got[2]
        _assert_no_child()

    @pytest.mark.parametrize(
        "first, second, code",
        [
            (('{"b": 1.5}', 3000), ('{"a": 2.5}', 1000), 0),  # the field only in the child's half
            (('{"a": 2.5}', 1000), ('{"b": 1.5}', 3000), 0),  # only in the parent's
            (("   ", 6000), ('{"b": 1.5}', 1000), 3),  # no field, and non-blank lines only in the child's
        ],
        ids=["child-half", "parent-half", "no-field"],
    )
    def test_jsonl_field_flags_join_both_halves(self, tmp_path, first, second, code):
        # the file's middle lies in the lines of ``first``
        f = tmp_path / "flags.jsonl"
        f.write_text("\n".join([first[0]] * first[1] + [second[0]] * second[1]) + "\n", encoding="utf-8")
        got, want, log = _split_and_sequential(_fit_argv(f))
        assert got == want and got[0] == code, got[2]
        assert log == ["fork", "ok"]

    def test_boundary_corpus_values_are_bit_identical(self):
        path = os.path.join(os.path.dirname(__file__), "data", "golden", "boundary.csv")
        args = cli.build_parser().parse_args(["fit", path, "--column", "amount"])
        with split_reads() as log:
            got = joined(cli._value_blocks(args))
        assert log == ["fork", "ok"]
        with split_reads(False):
            want = joined(cli._value_blocks(args))
        assert got.size == want.size > 5000
        assert got.tobytes() == want.tobytes()
        _assert_no_child()

    def test_child_values_come_in_chunks(self, tmp_path, monkeypatch):
        f = tmp_path / "halves.csv"
        f.write_bytes(_two_halves("csv", None, None))
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
        args = cli.build_parser().parse_args(_fit_argv(f))
        with split_reads() as log:
            sizes = [b.size for b in cli._value_blocks(args)]
        assert log == ["fork", "ok"]
        # the parent's half in file blocks, the child's in chunks of 7 values
        assert max(sizes[-100:]) == 7 and sum(sizes) == 4000

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("extra", [(), ("--absolute-value",)])
    def test_a_dropped_reader_reaps_its_child(self, tmp_path, fmt, extra):
        f = tmp_path / f"halves.{fmt}"
        f.write_bytes(_two_halves(fmt, None, None))
        args = cli.build_parser().parse_args(_fit_argv(f, *extra))
        with split_reads() as log:
            blocks = cli._value_blocks(args)
            assert next(blocks).size
            if not extra:
                blocks.close()  # as a consumer that stops early does
            del blocks  # --absolute-value's map over the reader is dropped
        assert log == ["fork"]
        _assert_no_child()

    @pytest.mark.parametrize(
        "head, code",
        [(b'id,"a"', 0), (b"\xe9d,a", 3), (b"", 3), (b"id,b", 3)],
        ids=["quoted", "latin1", "empty", "no-column"],
    )
    def test_no_child_where_the_header_defeats_the_fast_path(self, tmp_path, head, code):
        # csv.reader reads such a file from its first line, in one piece
        body = _two_halves("csv", None, None)
        f = tmp_path / "header.csv"
        f.write_bytes(head + body[body.index(b"\n") :])
        with split_reads():
            assert cli._split_at(str(f)) is not None
        got, want, log = _split_and_sequential(_fit_argv(f))
        assert got == want and got[0] == code, got[2]
        assert log == []
        _assert_no_child()

    @pytest.mark.parametrize(
        "body",
        [
            b'{"a": 1}\n\xe2\x82',  # cut off by the end of the file
            b'{"a": 1}\n' * 3 + b'{"a": "\xe2\x82x"}\n{"a": 2}\n',  # in a line
            b'{"a": 1}\n' * 3 + b'{"a": "\xff"}\n{"a": 2}\n',
            b'{"a": 1}\n' * 3 + b'{"a": 1}\xe2\x82\n{"a": 2}\n',  # at a line end
        ],
        ids=["eof", "continuation", "start", "line-end"],
    )
    def test_utf8_errors_give_the_text_readers_reason(self, tmp_path, monkeypatch, body):
        # the oracle reads the same bytes as one text; every block size
        # from 16 bytes puts a read's edge at each byte of the bad sequence
        with pytest.raises(UnicodeDecodeError) as exc:
            io.TextIOWrapper(io.BytesIO(body), encoding="utf-8", newline="\n").read()
        f = tmp_path / "bad.jsonl"
        f.write_bytes(body)
        want = f"benford fit: {f}: not UTF-8 text ({exc.value.reason})\n"
        for block in range(16, 16 + len(body)):
            monkeypatch.setattr(cli, "_CSV_BLOCK", block)
            got, sequential, _ = _split_and_sequential(_fit_argv(f))
            assert got == sequential == (3, "", want), block
        _assert_no_child()

    @pytest.mark.parametrize(
        "fmt, defect, too_long",
        [
            ("csv", None, False),
            ("jsonl", None, False),
            # the fast path declines the header, or a quoted cell in a late block,
            # and csv.reader reads on from the bytes it took from the pipe, to the
            # end or to a field too long for it
            ("csv", "quoted_header", False),
            ("csv", "quoted_header", True),
            ("csv", "late_quote", False),
            ("csv", "late_quote", True),
        ],
        ids=[
            "csv",
            "jsonl",
            "quoted_header",
            "quoted_header-csv_error",
            "late_quote",
            "late_quote-csv_error",
        ],
    )
    def test_reads_a_pipe_to_its_end(self, tmp_path, monkeypatch, fmt, defect, too_long):
        # a pipe can neither tell nor seek; csv.reader reads the declined bytes,
        # then the pipe on from them
        body = _two_halves(fmt, "quote" if defect == "late_quote" else None, "second")
        if defect == "quoted_header":
            body = b'"id","a"' + body[body.index(b"\n") :]
        if too_long:
            body += b'4000,"' + b"1" * (csv.field_size_limit() + 1) + b'"\n'  # csv.Error
        if defect == "late_quote":
            monkeypatch.setattr(cli, "_CSV_BLOCK", 4096)  # the quote is in block 17 of 23
        f, fifo = tmp_path / f"file.{fmt}", tmp_path / f"fifo.{fmt}"
        f.write_bytes(body)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(body,), daemon=True)
        writer.start()
        with split_reads() as log:
            got = _main(_fit_argv(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert log == []
        code, out, err = _main(_fit_argv(f))
        assert got == (code, out.replace(str(f), str(fifo)), err.replace(str(f), str(fifo)))
        if too_long:
            assert code == 3 and ": line 4002: field larger than field limit" in err, err
        else:
            assert code == 0, err

    def test_small_files_pipes_and_threads_read_in_one_piece(self, tmp_path):
        f = tmp_path / "halves.csv"
        f.write_bytes(_two_halves("csv", None, None))
        assert cli._split_at(str(f)) is None  # under _SPLIT_BYTES
        with split_reads():
            assert cli._split_at(str(f)) == f.read_bytes().index(b"\n", f.stat().st_size // 2) + 1
            os.mkfifo(tmp_path / "fifo")
            assert cli._split_at(str(tmp_path / "fifo")) is None
            assert cli._split_at(str(tmp_path / "missing")) is None
            (tmp_path / "one_line").write_bytes(b"a" * 100 + b"\n")
            assert cli._split_at(str(tmp_path / "one_line")) is None
            stop = threading.Event()
            thread = threading.Thread(target=stop.wait)
            thread.start()
            try:
                assert cli._split_at(str(f)) is None
            finally:
                stop.set()
                thread.join()


_CSV_HEADER = st.lists(
    st.sampled_from(["a", "v", " v ", "", '"v"', "1", "\ufeffv"]), min_size=1, max_size=4
)
_GOOD_NUMBERS = st.floats(1e-6, 1e6).map(repr)
_CSV_ROW = st.lists(_GOOD_NUMBERS | _SAFE_CELLS | _UNSAFE_CELLS | st.just("9" * 400), max_size=4)


@st.composite
def _fit_file(draw, column: str, is_csv: bool) -> bytes:
    """CSV or JSONL bytes for ``fit --column column``: one good number per
    line under that name, or noise (blank and ragged rows, unsafe cells,
    JSON of any shape); three kinds of line end; and maybe a BOM, a byte
    that is not UTF-8, no final newline, or any bytes at all.  The lines
    repeat, so that many files hold enough values for the analysis."""
    defects = draw(
        st.lists(st.sampled_from(["noise", "bom", "not_utf8", "no_eol", "raw"]), max_size=2)
    )
    if "raw" in defects:
        return draw(st.binary(max_size=96), label="raw")
    repeat = draw(st.integers(1, 40), label="repeat")
    if "noise" in defects and is_csv:
        rows = draw(st.lists(_CSV_ROW, max_size=12), label="rows") * repeat
        lines = [",".join(row) for row in [draw(_CSV_HEADER, label="header")] + rows]
    elif "noise" in defects:
        lines = draw(st.lists(_JSON_LINES, max_size=12), label="jsonl") * repeat
    else:
        values = draw(st.lists(_GOOD_NUMBERS, max_size=12), label="values") * repeat
        key = json.dumps(column)
        lines = [column] + values if is_csv else ["{%s: %s}" % (key, v) for v in values]
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    data = "".join(line + draw(ends, label="end") for line in lines).encode("utf-8")
    if "bom" in defects:
        data = b"\xef\xbb\xbf" + data
    if "not_utf8" in defects:
        i = draw(st.integers(0, len(data)), label="at")
        data = data[:i] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[i:]
    if "no_eol" in defects:
        data = data.rstrip(b"\r\n")
    return data


# names and indices, each about as likely as an arbitrary text
_FIT_COLUMNS = st.one_of(
    *map(st.just, ["0", "1", "3", "-1", "", "a", "v", " v ", "9" * 30, "a\nb", "0\n"]),
    st.text(max_size=3),
)


def _assert_records_round_trip(argv, code, out):
    """An argument with a newline is a usage error; every stream of a run
    that succeeded parses back and re-emits byte for byte."""
    if any("\n" in a for a in argv):
        assert code == 2, (argv, code)
    if code == 0:
        assert emit_records(parse_records(out)) == out, argv


def _draw_fit_argv(data, tmp_path) -> list[str]:
    """A ``fit`` call on a drawn file, written to tmp_path."""
    column = data.draw(_FIT_COLUMNS, label="column")
    fmt, other = data.draw(st.sampled_from([("csv", "jsonl"), ("jsonl", "csv")]))
    body = data.draw(_fit_file(column, fmt == "csv"), label="file")
    f = tmp_path / "input"
    f.write_bytes(body)
    argv = ["fit", str(f), "--column", column]
    read_as = data.draw(st.sampled_from([fmt, fmt, fmt, other]), label="read as")
    if read_as == "jsonl" or data.draw(st.booleans(), label="explicit csv"):
        argv += ["--input-format", read_as]
    if data.draw(st.booleans(), label="absolute value"):
        argv.append("--absolute-value")
    if data.draw(st.booleans(), label="with base"):
        base = st.sampled_from([2, 3, 10, 16, 1000]) | st.integers(-1, 40)
        argv += ["--base", str(data.draw(base, label="base"))]
    return argv + ["--format", "records"]


_FUZZ_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


class TestFitFuzz:
    @settings(_FUZZ_SETTINGS, max_examples=250)
    @given(data=st.data(), block=st.integers(16, 64))
    def test_exit_codes(self, tmp_path, monkeypatch, data, block):
        # blocks this small put the seam between the block reader and
        # csv.reader anywhere in the file
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        argv = _draw_fit_argv(data, tmp_path)
        code, out, err = _main(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in err
        _assert_records_round_trip(argv, code, out)

    @settings(_FUZZ_SETTINGS, max_examples=100)
    @given(data=st.data(), block=st.integers(16, 64))
    def test_split_read_matches_the_sequential_one(self, tmp_path, monkeypatch, data, block):
        # each half stops its fast path anywhere, or not at all
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        argv = _draw_fit_argv(data, tmp_path)
        got, want, _ = _split_and_sequential(argv)
        assert got == want, argv


_CAP_ARGVS = [
    "digits --base 100000000000000000000",
    "digits --base 1000001",
    "sequence pow2 --n 100 --base 100000000000000000000",
    "sequence pow2 --n 10000001",
    "sequence pow2 --n 1000000000000",
    "wrap lognormal 0 1 --grid-points 1000001",
    "fit x.csv --base 1000001",
    "wrap lognormal 0 1 --grid-points 0",
    "wrap lognormal 0 1 --grid-points -3",
    "sequence pow2 --n 0",
    "digits --base 1",
]
_NEWLINE_ARGVS = [
    ["wrap", "lognormal", "0\n", "1"],
    ["entropy", "mixture", "1", "0", "1\n"],
    ["fit", "quoted.csv", "--column", "a\nb", "--input-format", "jsonl"],
    ["fit", "in\nput.csv"],
    ["sequence", "geometric", "--ratio", "1.1\n"],
    ["digits", "--base", "10\n"],
]


class TestParser:
    def test_seed_flag_is_gone(self, capsys):
        code, out, err = run(capsys, "digits", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "--seed" in err

    @pytest.mark.parametrize("verb", ["digits", "fit x.csv", "sequence pow2"])
    def test_tol_is_a_usage_error_where_unread(self, capsys, verb):
        code, out, err = run(capsys, *verb.split(), "--tol", "1e-9")
        assert code == 2
        assert out == ""
        assert "--tol" in err

    @pytest.mark.parametrize("verb", ["wrap lognormal 0 1 --grid-points 4", "entropy nb"])
    def test_tol_is_echoed_where_read(self, capsys, verb):
        code, out, _ = run(capsys, *verb.split(), "--tol", "1e-7", "--format", "records")
        assert code == 0
        assert "param tol 1e-07\n" in out

    @pytest.mark.parametrize("argv", _CAP_ARGVS)
    def test_sizes_above_the_caps_are_usage_errors(self, capsys, monkeypatch, argv):
        # rejected while parsing, as are sizes below the least: no handler
        # allocates or loops at that size, or checks it again
        monkeypatch.setattr(cli, "_HANDLERS", {})
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        below = int(argv.split()[-1]) < 2
        assert ("below the least value" if below else "above the limit") in err

    def test_sizes_at_the_caps_parse(self):
        parse = cli._parser().parse_args
        assert parse(["digits", "--base", str(cli._MAX_BASE)]).base == 10**6
        assert parse(["sequence", "pow2", "--n", str(cli._MAX_N)]).n == 10**7
        args = parse(["wrap", "nb", "--grid-points", str(cli._MAX_GRID_POINTS)])
        assert args.grid_points == 10**6

    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "signed.csv"
        write_csv(f, [(-1) ** i * v for i, v in enumerate(sample_nb(90, Base(10), seed=4))])
        calls = [
            ("digits", "--no-such-flag"),
            ("fit", str(f), "--absolute-value", "--format", "records"),
            ("fit", str(f), "--format", "records"),
            ("digits", "--base", "16", "--format", "records"),
            ("wrap", "lognormal", "0", "2", "--grid-points", "16", "--format", "records"),
            ("entropy", "mixture", "0.5", "0", "0.5", "0.5", "1", "1", "--format", "records"),
            ("sequence", "geometric", "--n", "300", "--ratio", "1.1", "--format", "records"),
            ("sequence", "pow2", "--n", "300"),
            ("digits",),
        ]
        reused = [run(capsys, *argv) for argv in calls]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run(capsys, *argv) for argv in calls]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2] + [0] * (len(calls) - 1)
        assert "param absolute_value false" in reused[2][1]

    @pytest.mark.parametrize("argv", _NEWLINE_ARGVS)
    def test_newline_in_an_argument_is_a_usage_error(self, capsys, argv):
        # float and int strip it, but an echoed token would end its record
        code, out, err = run(capsys, *argv, "--format", "records")
        assert (code, out) == (2, "")
        assert "holds a newline" in err


def _parsed(argv, reference):
    """main's exit code, stdout and stderr, and the Namespaces its handlers
    got, with every handler replaced by one that returns no record; parsed
    by ArgumentParser.parse_args itself where ``reference``. An argv of
    None is read from sys.argv."""
    seen = []
    handlers = {verb: lambda args: seen.append(args) or [] for verb in cli._HANDLERS}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_HANDLERS", handlers)
        if reference:
            mp.setattr(cli._Parser, "parse_args", argparse.ArgumentParser.parse_args)
        return (*_main(argv), seen)


# argvs that fail while parsing or in a handler: each call that a test of
# this file expects to exit 2
_USAGE_ERRORS = [
    *(argv.split() for argv in _CAP_ARGVS),
    *_NEWLINE_ARGVS,
    ["digits", "--seed", "1"],
    *([*verb.split(), "--tol", "1e-9"] for verb in ("digits", "fit x.csv", "sequence pow2")),
    ["digits", "--no-such-flag"],
    ["wrap", "lognormal", "0", "1", "--tol", "-1e-9"],
    ["wrap", "lognormal", "0", "1e-9"],
    ["wrap", "lognormal", "1"],
    ["wrap", "cauchy", "0", "1"],
    ["wrap", "mixture", *["0.0588", "0", "1"] * 17],
    ["sequence", "geometric", "--ratio", "10"],
    ["sequence", "primes"],
    ["sequence", "pow2", "--n", "100", "--ratio", "3"],
]
_PARSER_EDGES = [
    [],
    ["-h"],
    ["--help"],
    ["wrap", "-h"],
    ["entropy", "--he"],
    ["primes"],
    ["Wrap", "lognormal", "0", "1"],
    ["--", "wrap", "lognormal", "0", "1"],
    ["wrap", "--", "lognormal", "0", "1"],
    ["wrap", "lognormal", "0", "1", "--", "--grid-points", "8"],
    ["wrap", "lognormal", "0", "1", "--grid", "8"],
    ["wrap", "lognormal", "0", "1", "--grid-points=8", "--form", "records"],
    ["wrap", "lognormal", "0", "1", "--bogus"],
    ["wrap", "lognormal", "0", "1", "--bogus", "x", "-y"],
    ["digits", "extra"],
    ["digits", "--base", "16", "--base", "8"],
    ["fit", "a.csv", "b.csv"],
    ["sequence", "pow2", "--n"],
    *(
        [*argv[:i], argv[i] + "\n", *argv[i + 1 :]]
        for argv in (["wrap", "lognormal", "0", "1", "--base", "2"],)
        for i in range(6)
    ),
]
_GOLDEN_ARGVS = [
    [*argv, "--format", fmt]
    for calls, fmt in (
        (make_golden.GOLDEN_CALLS + make_golden.DENSITY_CALLS, "records"),
        (make_golden.HUMAN_CALLS, "human"),
    )
    for _, argv in calls
]
# tokens of every kind the parsers tell apart, and some text
_TOKENS = st.sampled_from(
    [
        "digits", "fit", "wrap", "entropy", "sequence", "-h", "--help", "--", "-", "--base",
        "--base=16", "--format", "records", "human", "--grid", "--grid-points", "--tol",
        "--n", "--ratio", "--column", "--input-format", "--absolute-value", "--bogus", "-x",
        "lognormal", "mixture", "nb", "pow2", "x.csv", "0", "1", "2", "0.5", "-1e-05", "a\nb",
    ]
) | st.text(max_size=4)


class TestVerbParsing:
    """An argv that starts with a verb is parsed by the verb's parser alone,
    to what ArgumentParser.parse_args on the top-level parser gives: the
    same exit code, output and Namespace, on this interpreter's argparse."""

    def test_build_parser_keeps_each_verbs_parser(self):
        parser = cli.build_parser()
        assert sorted(parser.verbs) == sorted(cli._HANDLERS)
        assert all(p.prog == f"benford {verb}" for verb, p in parser.verbs.items())

    @pytest.mark.parametrize("argv", _GOLDEN_ARGVS + _USAGE_ERRORS + _PARSER_EDGES)
    def test_matches_the_top_level_parse(self, argv):
        assert _parsed(argv, False) == _parsed(argv, True)

    @pytest.mark.parametrize("argv", [["wrap", "lognormal", "0", "1"], ["wrap", "-h"], ["nope"]])
    def test_reads_sys_argv_on_the_top_level_path(self, monkeypatch, argv):
        # main reads sys.argv itself, so the console script parses as in-process calls do
        monkeypatch.setattr(sys, "argv", ["benford", *argv])
        assert _parsed(None, False) == _parsed(None, True)

    def test_unrecognized_tokens_name_the_top_level_usage(self):
        code, out, err, seen = _parsed(["wrap", "lognormal", "0", "1", "--bogus"], False)
        assert (code, out, seen) == (2, "", [])
        assert err.startswith("usage: benford [-h] {digits,fit,wrap,entropy,sequence}")
        assert err.endswith("benford: error: unrecognized arguments: --bogus\n")

    @settings(deadline=None, max_examples=300)
    @given(argv=st.lists(_TOKENS, max_size=8))
    def test_matches_on_any_tokens(self, argv):
        assert _parsed(argv, False) == _parsed(argv, True)


def _fmt_oracle(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit_oracle(records) -> str:
    """The per-value renderer emit_records must reproduce byte for byte."""
    return "".join(" ".join(_fmt_oracle(v) for v in rec) + "\n" for rec in records)


def _human_oracle(name, rows) -> str:
    """The aligned rows of a table of record name, rendered value by value."""
    specs = [">16" if kind == "int" else "16.12f" for kind in _RECORD_FIELDS[name]]
    return "".join(
        "  ".join(format(v, spec) for v, spec in zip(row, specs)) + "\n" for row in rows
    )


# st.floats() draws NaN, infinities and subnormals too; the list pins the
# edge cases of 12-digit rendering
_FLOATS = st.floats() | st.sampled_from(
    [
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        0.0,
        5e-324,
        2.2250738585072014e-308,
        1.7976931348623157e308,
        0.1 + 0.2,
        -1.2345678901234567e-05,
        9.99999999999949e-6,
        999999999999.5,
    ]
)
_KIND_VALUES = {
    "int": st.integers(),
    "float": _FLOATS,
    "bool": st.booleans(),
    "str": st.text(),
}

_COLUMN_VALUES = {"int": st.integers(-(2**63), 2**63 - 1), "float": _FLOATS}
_COLUMN_DTYPES = {"int": np.int64, "float": np.float64}


class TestRenderer:
    @pytest.mark.parametrize("name", sorted(_RECORD_FIELDS))
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_matches_per_value_renderer(self, name, data):
        record = st.tuples(st.just(name), *(_KIND_VALUES[k] for k in _RECORD_FIELDS[name]))
        records = data.draw(st.lists(record, max_size=5))
        assert emit_records(records) == _emit_oracle(records)

    def test_other_records_use_the_per_value_renderer(self):
        records = [("custom", 1, 0.1 + 0.2, True, "x y"), ("entropy",), ("param", "a", "b", 2.5)]
        assert emit_records(records) == _emit_oracle(records)

    @pytest.mark.parametrize("name", sorted(cli._TABLE_HEADERS))
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_table_matches_its_rows(self, name, data):
        # int columns are int64 arrays, float columns float64 ones
        kinds = _RECORD_FIELDS[name]
        n = data.draw(st.integers(1, 20) | st.sampled_from([1, 3, 4]))
        values = [
            data.draw(st.lists(_COLUMN_VALUES[k], min_size=n, max_size=n)) for k in kinds
        ]
        columns = tuple(np.array(v, dtype=_COLUMN_DTYPES[k]) for k, v in zip(kinds, values))
        table = cli._Table(name, columns)
        rows = [(name, *row) for row in zip(*values)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_TABLE_ROWS", 3)  # blocks of 3 rows, the last one short
            assert emit_records([table]) == _emit_oracle(rows)
            human = "".join(cli._table_chunks(table, human=True))
            assert human == _human_oracle(name, zip(*values))

    # each _Constant column by the kind of its record's field
    CONSTANTS = {
        "row": ("x", None, "nb_pdf", None),
        "bin": ("digit", None, None, "nb_prob"),
        "digit": ("digit", "nb_prob"),
    }

    T, F = cli._TABLE_ROWS, cli._FORMAT_ROWS

    @pytest.mark.parametrize("name", sorted(cli._TABLE_HEADERS))
    @pytest.mark.parametrize("human", [False, True])
    @pytest.mark.parametrize(
        "block, n", [(5, 1), (5, 5), (5, 6), (T, 1), (T, F), (T, F + 1), (T, T), (T, T + 1)]
    )
    @pytest.mark.parametrize("limit", [None, 0, T + 1])  # None: the real _FORMAT_ROWS
    def test_chunks_equal_per_row_rendering(self, name, human, block, n, limit, monkeypatch):
        # a table of _TABLE_ROWS row chunks, each rendered by one % on the
        # row template repeated per row or by one % per row, gives the text
        # of _Constant columns and the values of arrays row by row
        b = n + 1  # a digit table has b - 1 rows
        rng = np.random.default_rng(n)
        columns, values = [], []
        for kind, constant in zip(_RECORD_FIELDS[name], self.CONSTANTS[name]):
            if constant is not None:
                columns.append(cli._Constant(constant, b, n))
                values.append(cli._CONSTANT_VALUES[constant](b, n).tolist())
            elif kind == "int":
                columns.append(rng.integers(0, 10**6, n))
                values.append(columns[-1].tolist())
            else:
                columns.append(rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n))
                values.append(columns[-1].tolist())
        monkeypatch.setattr(cli, "_TABLE_ROWS", block)
        if limit is not None:
            monkeypatch.setattr(cli, "_FORMAT_ROWS", limit)
        got = "".join(cli._table_chunks(cli._Table(name, tuple(columns)), human))
        rows = list(zip(*values))
        want = _human_oracle(name, rows) if human else _emit_oracle((name, *r) for r in rows)
        assert got == want


class TestCachedText:
    """Arrays and column text kept per base, size and format give every
    table as it is rendered from a cold start, and as it is rendered with
    no column text kept at all."""

    @staticmethod
    def _argv(verb: str, b: int, rows: int) -> list[str]:
        if verb == "wrap":
            return ["wrap", "mixture", "0.4", "0.3", "0.05", "0.6", "1", "3",
                    "--base", str(b), "--grid-points", str(rows)]
        if verb == "sequence":  # chi-square needs 5 terms per digit
            return ["sequence", "fibonacci", "--n", str(5 * b), "--base", str(b)]
        return ["digits", "--base", str(b)]

    @settings(deadline=None, max_examples=80)
    @given(
        verb=st.sampled_from(["wrap", "digits", "sequence"]),
        b=st.integers(2, 2049) | st.sampled_from([2, 10, 16, 1000, 2049]),
        wide_b=st.integers(2050, cli._MAX_BASE),
        rows=st.integers(1, 2048) | st.sampled_from([1, 256, 2048]),
    )
    def test_warm_equals_cold(self, verb, b, wide_b, rows):
        if verb == "wrap" and rows % 2:
            b = wide_b  # the grid of a base above the digit tables' bound
        argv = self._argv(verb, b, rows)
        formats = ("records", "human")
        # both formats in turn, twice; keys of earlier examples stay cached
        warm = [make_golden.run(argv, fmt) for _ in range(2) for fmt in formats]
        clear_caches()
        cold = [make_golden.run(argv, fmt) for fmt in formats]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_TEXT_ROWS", 0)
            plain = [make_golden.run(argv, fmt) for fmt in formats]
        assert warm[0][0] == 0
        assert warm[:2] == warm[2:] == cold == plain

    def test_cached_arrays_are_read_only(self):
        clear_caches()
        for b in (2, 10, 1000):
            for argv in (
                self._argv("wrap", b, 256),
                self._argv("digits", b, 0),
                ["entropy", "lognormal", "0.3", "0.05", "--base", str(b)],
            ):
                assert make_golden.run(argv)[0] == 0
        tables = [value for value, _ in significand._table.entries.values()]
        arrays = [
            a
            for value in tables
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)
        ]
        # the wrap grid, trapezoid nodes and digit tables of every base
        assert len(arrays) >= 3 * (2 + 2 + 1)
        assert not any(a.flags.writeable for a in arrays)
        for b in (2, 10, 1000):
            grid = wrapping_module._grid(b, 256)
            assert any(value is grid for value in tables)
            assert any(value is first_digit_probs(Base(b)) for value in tables)
        # column text is a tuple of strings, immutable by its type
        assert type(cli._constant_text("x", 10, 256, "%.12g")) is tuple


class TestClosedPipe:
    """A reader that closes stdout early, as ``| head -1`` does, ends the
    call with exit 0 and nothing on stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["digits", "--base", "100000", "--format", "records"],
            ["wrap", "lognormal", "0", "1", "--grid-points", "100000"],
        ],
    )
    def test_exits_0_quietly(self, argv, tmp_path):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        err = tmp_path / "stderr"
        with err.open("wb") as fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "benford.cli", *argv],
                stdout=subprocess.PIPE, stderr=fh, env=env,
            )
            first = proc.stdout.readline()
            proc.stdout.close()  # the output is far longer than a pipe's buffer
            code = proc.wait(timeout=60)
        assert first  # the call wrote before the pipe closed
        assert (code, err.read_text()) == (0, "")


class TestWrap:
    def test_plans_the_density_once(self, capsys, monkeypatch):
        # the distances and the table share one plan, and print what the
        # public functions give
        of, plans = cli._WrappedLogNormal.of, []
        monkeypatch.setattr(
            cli._WrappedLogNormal, "of", lambda *args: plans.append(args) or of(*args)
        )
        dist = ["mixture", "0.5", "0", "0.3", "0.5", "1", "2"]
        code, out, _ = run(capsys, "wrap", *dist, "--grid-points", "16", "--format", "records")
        assert code == 0 and len(plans) == 1
        monkeypatch.undo()
        params, base = cli._parse_dist(dist, ("mixture",)), Base(10)
        recs = records_of(out)
        pdf = wrapped_lognormal_pdf(cli._grid(base.b, 16).x[cli._DISTANCE_GRID :], params, base)
        assert [r[2] for r in recs if r[0] == "row"] == [_printed(v) for v in pdf.tolist()]
        sup, tv = distance_to_nb(params, base)
        assert field(recs, "sup_distance") + field(recs, "tv_distance") == (
            _printed(sup),
            _printed(tv),
        )

    # a mixture of direct and dual components; the fewest table points
    # whose grid record, the distance points then the table's, passes the
    # table cache's cap
    MIX = ["mixture", "0.2", "0.4", "0.1", "0.5", "-2.2", "0.9", "0.3", "5.0", "3.0"]
    PAST_CAP = (significand._TABLE_BYTES // 16 - 56) // 16 + 1 - cli._DISTANCE_GRID

    @pytest.mark.parametrize("b", [2, 10, 1000, 10**6])
    @pytest.mark.parametrize("n", [1, 256, 2048, PAST_CAP])
    def test_one_evaluation_equals_the_public_functions_bitwise(self, b, n):
        # the distances and the table read one evaluation over one grid
        args = argparse.Namespace(base=b, dist=self.MIX, tol=1e-9, grid_points=n)
        recs = cli._cmd_wrap(args)
        table = next(r for r in recs if isinstance(r, cli._Table))
        params, base = cli._parse_dist(self.MIX, ("mixture",)), Base(b)
        x = np.array([float(b) ** ((i + 0.5) / n) for i in range(n)])
        assert cli._grid(b, n).x[cli._DISTANCE_GRID :].tobytes() == x.tobytes()
        assert table.columns[1].tobytes() == wrapped_lognormal_pdf(x, params, base).tobytes()
        assert (field(recs, "sup_distance") + field(recs, "tv_distance")) == distance_to_nb(
            params, base
        )

    def test_summary_small_for_wide_scale(self, capsys):
        code, out, _ = run(
            capsys, "wrap", "lognormal", "0", "4", "--grid-points", "8",
            "--format", "records",
        )
        assert code == 0
        recs = records_of(out)
        assert field(recs, "tv_distance")[0] < 1e-3
        assert len([r for r in recs if r[0] == "row"]) == 8

    def test_location_periodicity_identical_tables(self, capsys):
        code, out1, _ = run(
            capsys, "wrap", "lognormal", "0.3", "1", "--grid-points", "32",
            "--format", "records",
        )
        assert code == 0
        shifted = str(0.3 + math.log(10.0))
        code, out2, _ = run(
            capsys, "wrap", "lognormal", shifted, "1", "--grid-points", "32",
            "--format", "records",
        )
        assert code == 0
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("param dist")
        ]
        assert strip(out1) == strip(out2)

    def test_scale_below_floor_rejected(self, capsys):
        code, _, err = run(capsys, "wrap", "lognormal", "0", "1e-9")
        assert code == 2
        assert "scale" in err

    def test_mixture(self, capsys):
        code, out, _ = run(
            capsys, "wrap", "mixture", "0.5", "0", "4", "0.5", "1", "4",
            "--grid-points", "4", "--format", "records",
        )
        assert code == 0
        assert field(records_of(out), "tv_distance")[0] < 1e-3

    def test_bad_spec(self, capsys):
        code, _, _ = run(capsys, "wrap", "lognormal", "1")
        assert code == 2
        code, _, _ = run(capsys, "wrap", "cauchy", "0", "1")
        assert code == 2


def _printed(v: float) -> float:
    """v as the records stream prints it."""
    return float(format(v, ".12g"))


class TestEntropyCmd:
    def test_nb_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "entropy", "nb", "--format", "records")
        assert code == 0
        recs = records_of(out)
        assert field(recs, "entropy")[0] == _printed(nb_entropy_closed(Base(10)))
        assert field(recs, "constraint_met") == (True,)

    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "entropy", "uniform", "--format", "records")
        assert code == 0
        recs = records_of(out)
        assert field(recs, "entropy")[0] == _printed(math.log(9.0))
        assert field(recs, "constraint_met") == (False,)

    @pytest.mark.parametrize("b", [2, 10, 16, 1000, 10**6])
    @pytest.mark.parametrize("kind", ["nb", "uniform"])
    def test_named_densities_need_no_quadrature(self, capsys, monkeypatch, kind, b):
        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature on the CLI path")

        monkeypatch.setattr(entropy_module, "integrate", refuse)
        code, out, err = run(capsys, "entropy", kind, "--base", str(b), "--format", "records")
        assert (code, err) == (0, "")
        assert field(records_of(out), "quadrature_error_estimate") == (1e-12,)

    def test_lognormal_bound_holds(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "lognormal", "0", "1", "--format", "records"
        )
        assert code == 0
        recs = records_of(out)
        assert field(recs, "entropy")[0] <= field(recs, "gibbs_bound")[0] + (
            field(recs, "quadrature_error_estimate")[0]
        )

    def test_mixture_spec(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "mixture", "0.4", "0", "0.8", "0.6", "1", "0.6",
            "--format", "records",
        )
        assert code == 0


class TestSequenceCmd:
    def test_pow2(self, capsys):
        code, out, _ = run(
            capsys, "sequence", "pow2", "--n", "20000", "--format", "records"
        )
        assert code == 0
        recs = records_of(out)
        assert field(recs, "tv_distance")[0] < 0.01
        assert field(recs, "total") == (20000,)

    def test_factorial_no_overflow(self, capsys):
        code, out, _ = run(
            capsys, "sequence", "factorial", "--n", "10000", "--format", "records"
        )
        assert code == 0
        assert field(records_of(out), "total") == (10000,)

    @pytest.mark.parametrize(
        "kind,n,b,ratio",
        [
            ("pow2", 3000, 10, None),
            ("fibonacci", 3000, 16, None),
            ("factorial", 5000, 1000, None),
            ("geometric", 3000, 10, 1.1),
            ("geometric", 3000, 8, 4.0),  # log_8 4 = 2/3: the closed form
        ],
    )
    def test_never_decomposes_generator_output(self, capsys, monkeypatch, kind, n, b, ratio):
        argv = ["sequence", kind, "--n", str(n), "--base", str(b), "--format", "records"]
        if ratio is not None:
            argv += ["--ratio", repr(ratio)]
        code, want, _ = run(capsys, *argv)
        assert code == 0
        # the stream the old path gave: filter and decompose the significands
        report = conformance_module.analyze(gen_sequence(kind, n, Base(b), ratio=ratio), Base(b))
        assert want.endswith(emit_records(cli._conformance_records(report, Base(b))))

        def refuse(*args):
            raise AssertionError("sequence output decomposed again")

        monkeypatch.setattr(conformance_module, "_usable_logs", refuse)
        assert run(capsys, *argv) == (0, want, "")

    def test_geometric_degenerate_ratio(self, capsys):
        code, _, err = run(capsys, "sequence", "geometric", "--ratio", "10")
        assert code == 2
        assert "power" in err

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sequence", "primes")
        assert code == 2

    def test_ratio_on_other_kinds_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sequence", "pow2", "--n", "100", "--ratio", "3")
        assert code == 2
        assert out == ""
        assert "ratio" in err


# --ratio texts: non-finite and nonpositive values, the extreme doubles,
# neighbours of 1, hex floats (which float() does not parse) and garbage
_RATIO_TEXTS = st.sampled_from(
    [
        "nan", "-nan", "inf", "-inf", "Infinity", "0", "-0.0", "-2", "1",
        "0x1p-1074", "0x1.8p+1", "5e-324", "1e-320", "2.2250738585072014e-308",
        "1e308", "1.7976931348623157e308", repr(math.nextafter(1.0, 2.0)),
        repr(math.nextafter(1.0, 0.0)), "4", "0.25", "1.1", "", "abc", "1e", "--",
    ]
) | st.floats(min_value=5e-324).map(repr) | st.floats().map(float.hex) | st.text(max_size=6)
_SEQ_BASES = st.sampled_from([2, 3, 8, 10, 12, 16, 1000, 1024]) | st.integers(-2, cli._MAX_BASE + 2)
_RUN_N = 10**4  # larger --n draws go through the parser only


def _power_ratio_texts(b: int):
    """Exact powers of b as doubles, and their neighbours."""
    powers = st.integers(-40, 40).map(lambda k: float(b) ** k if b > 1 else 2.0)
    return powers.flatmap(
        lambda x: st.sampled_from([x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)])
    ).map(repr)


class TestLargeBaseCounts:
    # in a base above 2**14 each fit block adds its digits into the b cells
    # of one count array, and the sequence kernel counts its sorted u
    # against edges built for the call; the bin table
    # must still count every term and value once, in its exact cell.  The
    # CLI runs in base 40000, where 200000 terms meet chi-square's
    # 5 (b - 1); base 10**6, which would need 4999995, runs through the
    # same library calls
    N = 200_000

    @staticmethod
    def bins(out):
        return np.array([rec[2] for rec in records_of(out) if rec[0] == "bin"])

    @staticmethod
    def exact_digit(x, b):
        """The leading digit of the positive integer x in base b."""
        power = b ** max(0, int((x.bit_length() - 1) * math.log(2) / math.log(b)) - 1)
        while power * b <= x:
            power *= b
        return x // power

    def test_sequence_counts(self, capsys):
        argv = ["sequence", "pow2", "--n", str(self.N), "--base", "40000", "--format", "records"]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        library = conformance_module._sequence_logs("pow2", self.N, Base(10**6))[1].counts
        picks = np.random.default_rng(5).integers(1, self.N + 1, 40).tolist() + [1, self.N]
        for b, counts in ((40_000, self.bins(out)), (10**6, library)):
            digits = gen_sequence("pow2", self.N, Base(b)).astype(np.int64)
            assert np.array_equal(counts, np.bincount(digits, minlength=b)[1:])
            for t in picks:
                assert digits[t - 1] == self.exact_digit(2**t, b), (b, t)

    def test_fit_counts(self, capsys, tmp_path):
        values = sample_nb(self.N, Base(10**6), 3) * np.exp(
            np.random.default_rng(4).uniform(-50.0, 50.0, self.N)
        )
        f = tmp_path / "values.csv"
        write_csv(f, values.tolist())
        code, out, err = run(capsys, "fit", str(f), "--base", "40000", "--format", "records")
        assert code == 0, err
        library = digit_histogram(values, Base(10**6))[0].counts
        picks = np.random.default_rng(6).integers(0, self.N, 40).tolist()
        for b, counts in ((40_000, self.bins(out)), (10**6, library)):
            digits = significand.decompose_array(values, Base(b)).digit
            assert np.array_equal(counts, np.bincount(digits, minlength=b)[1:])
            for i in picks:
                assert digits[i] == exact_decomposition(values[i], b)[1], (b, values[i])


class TestSequenceFuzz:
    @settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_codes(self, data):
        kind = data.draw(st.sampled_from(cli.SEQUENCE_KINDS + ("primes",)), label="kind")
        n = data.draw(st.integers(-3, _RUN_N) | st.integers(_RUN_N + 1, 10**13), label="n")
        base = data.draw(_SEQ_BASES, label="base")
        argv = ["sequence", kind, "--n", str(n), "--base", str(base), "--format", "records"]
        if data.draw(st.booleans(), label="with ratio"):
            text = data.draw(_RATIO_TEXTS | _power_ratio_texts(base), label="ratio")
            argv[2:2] = ["--ratio", text]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if n > _RUN_N:
                try:
                    cli._parser().parse_args(argv)
                    code = 0
                except SystemExit as exc:
                    code = exc.code
                if n > cli._MAX_N:
                    assert code == 2
            else:
                code = main(argv)
        assert code in (0, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == 3:
            # the only data error: too few terms for the chi-square cells
            assert "chi-square needs total" in err.getvalue(), (argv, err.getvalue())
            assert n < 5 * (base - 1)
        if code == 0 and n <= _RUN_N:
            assert field(records_of(out.getvalue()), "total") == (n,)

    @settings(deadline=None, max_examples=5)
    @given(
        kind=st.sampled_from(["pow2", "fibonacci", "geometric"]),
        base=st.integers(10**4, cli._MAX_BASE),
    )
    @example(kind="fibonacci", base=200_000)  # its statistic sits near the mean
    def test_chi_square_at_large_bases(self, kind, base):
        # the fewest terms chi-square accepts, at up to 10^6 - 2 degrees of freedom
        argv = ["sequence", kind, "--n", str(5 * (base - 1)), "--base", str(base)]
        if kind == "geometric":
            argv += ["--ratio", "1.1"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--format", "records"])
        assert (code, err.getvalue()) == (0, ""), argv
        tail = out.getvalue()[-4096:]  # the summary records follow the b - 1 bins
        (p,) = field(records_of(tail[tail.index("\n") + 1 :]), "chi_square_pvalue")
        assert 0.0 <= p <= 1.0, argv


# M, s, weight and --tol texts: non-finite values, the extreme and
# subnormal doubles, negatives, and garbage
_DENSITY_TEXTS = st.sampled_from(
    [
        "nan", "inf", "-inf", "0", "-0.0", "-1", "-2.5", "0.5", "1", "3", "1e-6", "2e-6",
        "5e-324", "1e-320", "2.2250738585072014e-308", "1e300", "1e308",
        "1.7976931348623157e308", "-1e308", "1e-9", "", "abc", "1e", "--", "0\n", "\n1",
    ]
) | st.floats().map(repr) | st.text(max_size=6)
# valid values, common ones and the whole range: any finite M, any s
# above S_MIN, any positive finite tol
_VALID_TEXTS = {
    "M": st.floats(-10.0, 10.0) | st.floats(allow_nan=False, allow_infinity=False),
    "s": st.floats(1e-6, 10.0, exclude_min=True)
    | st.floats(min_value=1e-6, exclude_min=True, allow_infinity=False),
    "tol": st.floats(1e-15, 1e-3) | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
}
_VALID_TEXTS = {name: values.map(repr) for name, values in _VALID_TEXTS.items()}
_DENSITY_BASES = st.sampled_from([2, 3, 10, 16, 1000]) | st.integers(-2, cli._MAX_BASE + 2)
_RUN_ROWS = 10**4  # larger --grid-points, and digits at larger bases, go through the parser only


class TestDensityArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            "wrap lognormal 0 1 --tol 1e-320",
            "wrap lognormal 1e308 1e308 --grid-points 4",
            "entropy lognormal 0 1e308",
            "entropy lognormal 1e308 1e308 --tol 5e-324",
        ],
    )
    def test_overflowing_scale_or_tolerance_runs(self, capsys, argv):
        code, out, err = run(capsys, *argv.split(), "--format", "records")
        assert (code, err) == (0, "")
        assert records_of(out)[-1][0] in ("tv_distance", "quadrature_error_estimate")

    @pytest.mark.parametrize("verb", ["wrap", "entropy"])
    def test_mixtures_above_the_cap_are_usage_errors(self, capsys, verb):
        def mixture(n):
            return ["mixture"] + [v for j in range(n) for v in (repr(1.0 / n), str(j), "1")]

        code, out, err = run(capsys, verb, *mixture(cli._MAX_COMPONENTS + 1))
        assert (code, out) == (2, "")
        assert "above the limit of 16" in err
        code, _, _ = run(capsys, verb, *mixture(cli._MAX_COMPONENTS), "--format", "records")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            "wrap lognormal -1e-05 1",
            "wrap mixture 0.5 -2e+3 1 0.5 0 1",
            "entropy lognormal -1E-3 0.5",
        ],
    )
    def test_negative_numbers_in_exponent_notation_are_values(self, capsys, argv):
        code, out, err = run(capsys, *argv.split(), "--format", "records")
        assert (code, err) == (0, "")
        assert f"param dist {argv.split(maxsplit=1)[1]}\n" in out

    @pytest.mark.parametrize("verb", ["wrap", "entropy"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_scale_is_named_as_such(self, capsys, verb, value):
        code, out, err = run(capsys, verb, "lognormal", "0", value)
        assert (code, out) == (2, "")
        assert err == f"benford {verb}: scale must be finite and exceed 1e-06, got {value}\n"

    @pytest.mark.parametrize("verb", ["wrap", "entropy"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_weight_is_named_as_such(self, capsys, verb, value):
        code, out, err = run(capsys, verb, "mixture", value, "0", "1", "0.5", "1", "1")
        assert (code, out) == (2, "")
        assert err == f"benford {verb}: mixture weight {value} must be finite and nonnegative\n"

    def test_negative_tolerance_in_exponent_notation_is_read(self, capsys):
        code, out, err = run(capsys, "wrap", "lognormal", "0", "1", "--tol", "-1e-9")
        assert (code, out) == (2, "")
        assert "tolerance must be a positive real, got -1e-09" in err

    @settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_codes(self, data):
        verb = data.draw(st.sampled_from(["digits", "wrap", "entropy"]), label="verb")
        base = data.draw(_DENSITY_BASES, label="base")
        argv = [verb, "--base", str(base), "--format", "records"]
        rows = base if verb == "digits" else 0
        # a draw of known kind, no bad text and sizes within the caps runs
        valid = 2 <= base <= cli._MAX_BASE
        if verb != "digits":
            kinds = ["lognormal", "mixture", "cauchy"]
            if verb == "entropy":
                kinds += ["nb", "uniform"]
            kind = data.draw(st.sampled_from(kinds), label="kind")
            n = data.draw(st.integers(1, 20), label="components") if kind == "mixture" else 1
            valid &= kind != "cauchy" and n <= cli._MAX_COMPONENTS
            names = {"mixture": ["w", "M", "s"] * n, "lognormal": ["M", "s"], "cauchy": ["M", "s"]}
            spec = [kind] + [
                repr(1.0 / n) if name == "w" else data.draw(_VALID_TEXTS[name], label=name)
                for name in names.get(kind, [])
            ]
            if data.draw(st.booleans(), label="with tol"):
                spec += ["--tol", data.draw(_VALID_TEXTS["tol"], label="tol")]
            if len(spec) > 1 and data.draw(st.booleans(), label="one bad text"):
                i = data.draw(st.integers(1, len(spec) - 1), label="position")
                spec[i] = data.draw(_DENSITY_TEXTS, label="bad text")
                valid = False
            argv[1:1] = spec
            if verb == "wrap" and data.draw(st.booleans(), label="with grid points"):
                rows = data.draw(st.integers(-2, _RUN_ROWS) | st.integers(_RUN_ROWS + 1, 10**7))
                argv += ["--grid-points", str(rows)]
                valid &= 1 <= rows <= cli._MAX_GRID_POINTS
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if rows > _RUN_ROWS:
                try:
                    cli._parser().parse_args(argv)
                    code = 0
                except SystemExit as exc:
                    code = exc.code
            else:
                code = main(argv)
        assert code in ((0, 4) if valid else (0, 2, 3, 4)), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        _assert_records_round_trip(argv, code, out.getvalue())


class TestRecordsFormat:
    def test_floats_printed_at_twelve_significant_digits(self, capsys):
        code, out, _ = run(capsys, "digits", "--format", "records")
        assert code == 0
        assert "digit 1 0.301029995664" in out

    def test_parse_rejects_unknown_records(self):
        with pytest.raises(Exception):
            parse_records("bogus 1 2\n")

    @pytest.mark.parametrize(
        "text",
        [
            "total x",
            "chi_square 1.2.3",
            "constraint_met maybe",
            # tokens that parse but would re-emit as other bytes
            "total 1_000",
            "total +5",
            "total 05",
            "chi_square 1.50",
            "chi_square NaN",
            "total 5\r",
        ],
        ids=["int", "float", "bool", "int-underscore", "int-plus", "int-leading-zero",
             "float-trailing-zero", "float-NaN", "int-carriage-return"],
    )
    def test_parse_rejects_malformed_fields_with_their_line(self, text):
        with pytest.raises(DomainError, match="^line 2: bad "):
            parse_records("total 3\n" + text + "\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("total 3\n\ntotal 4\n", 2),
            ("total 3\n \ntotal 4\n", 2),
            ("total 3\n\r\n", 2),
            ("total 3", 1),
        ],
        ids=["blank", "whitespace", "carriage-return", "no-final-newline"],
    )
    def test_parse_rejects_text_that_would_re_emit_otherwise(self, text, line):
        with pytest.raises(DomainError, match=f"^line {line}: "):
            parse_records(text)

    def test_parse_reads_the_empty_stream(self):
        assert parse_records("") == [] and emit_records([]) == ""

    def test_sequence_consistent_with_library(self, capsys):
        sig = gen_sequence("fibonacci", 3000, Base(10))
        code, out, _ = run(
            capsys, "sequence", "fibonacci", "--n", "3000", "--format", "records"
        )
        recs = records_of(out)
        rep = analyze(sig, Base(10))
        assert field(recs, "chi_square")[0] == pytest.approx(rep.chi_square, rel=1e-12)
