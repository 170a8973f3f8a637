"""Command-line front end: digit tables, dataset conformance, wrapped-density
curves, entropy reports, and deterministic sequence analysis.

Machine-readable output is a line-oriented record stream (``--format
records``): one record per line, space-separated tokens, first token the
record name, floats rendered with 12 significant digits.  The stream starts
with ``schema nb-report/1``, the command name, and the effective parameters.
Parsing and re-emitting a stream reproduces it byte for byte.

Exit codes: 0 analysis ran, 2 usage error, 3 data error, 4 numeric failure.
Statistical verdicts never drive exit codes; thresholds are the analyst's
job.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import json.scanner
import math
import os
import re
import signal
import stat
import struct
import sys
import threading
from typing import Generator, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .conformance import (
    ConformanceReport,
    SEQUENCE_KINDS,
    _report,
    _sequence_logs,
    _usable_logs,
)
from .entropy import analyze_entropy
from .errors import (
    BenfordError,
    DomainError,
    EmptyData,
    InsufficientData,
    NonPositiveInput,
    NotNormalized,
    QuadratureError,
    TruncationError,
    UnsupportedRatio,
)
from .nb_core import first_digit_probs
from .significand import Base, _table
from .wrapping import (
    _DISTANCE_GRID,
    LogNormalParams,
    MixtureParams,
    _distances,
    _grid,
    _law,
    _WrappedLogNormal,
)

__all__ = ["main", "entrypoint", "emit_records", "parse_records"]

SCHEMA_VERSION = "nb-report/1"

_KS_HELP = (
    "KS p-values are not computed; compare the statistic against the "
    "asymptotic critical values 1.36/sqrt(n) (5%) and 1.63/sqrt(n) (1%)."
)


class IngestError(BenfordError):
    """The input file lacks the requested column."""


# --------------------------------------------------------------------------
# record stream: emit and parse
# --------------------------------------------------------------------------

# field kinds per record name; a trailing "str" absorbs the rest of the line
_RECORD_FIELDS: dict[str, tuple[str, ...]] = {
    "schema": ("str",),
    "command": ("str",),
    "param": ("str", "str"),
    "digit": ("int", "float"),
    "digit_sum": ("float",),
    "total": ("int",),
    "skipped_nonpositive": ("int",),
    "skipped_nonfinite": ("int",),
    "bin": ("int", "int", "float", "float"),
    "chi_square": ("float",),
    "chi_square_pvalue": ("float",),
    "ks_stat": ("float",),
    "tv_distance": ("float",),
    "row": ("float", "float", "float", "float"),
    "sup_distance": ("float",),
    "entropy": ("float",),
    "mean_log": ("float",),
    "gibbs_bound": ("float",),
    "constraint_met": ("bool",),
    "quadrature_error_estimate": ("float",),
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


_KIND_FORMATS = {"str": "%s", "int": "%s", "float": "%.12g"}
# parse_records' converter per field kind; each raises KeyError or ValueError
_KIND_PARSERS = {
    "str": str, "int": int, "float": float, "bool": {"true": True, "false": False}.__getitem__
}

# one %-template per record name whose fields all render without _fmt's
# per-value dispatch; "%.12g" renders a float exactly as _fmt does
_TEMPLATES: dict[str, tuple[int, str]] = {
    name: (len(kinds) + 1, " ".join([name, *(_KIND_FORMATS[k] for k in kinds)]) + "\n")
    for name, kinds in _RECORD_FIELDS.items()
    if "bool" not in kinds
}


class _Constant(NamedTuple):
    """A table column that depends only on the base b and its n rows: the
    table points "x" of the grid _grid(b, n), past its _DISTANCE_GRID
    distance points, or the law "nb_pdf" on them, or the digits
    1..b-1, "digit", or their probabilities, "nb_prob" (n = b - 1)."""

    kind: str
    b: int
    n: int


_CONSTANT_VALUES = {
    "x": lambda b, n: _grid(b, n).x[_DISTANCE_GRID:],
    "nb_pdf": lambda b, n: _law(_grid(b, n).x[_DISTANCE_GRID:], Base(b)),
    "digit": lambda b, n: np.arange(1, b),
    "nb_prob": lambda b, n: first_digit_probs(Base(b)),
}
# the most rows of a column whose text is kept, by _constant_text
_TEXT_ROWS = _DISTANCE_GRID


def _column(kind: str, b: int, values: np.ndarray) -> np.ndarray | _Constant:
    """The values of the _Constant column kind of base b, or for at most
    _TEXT_ROWS rows its key, whose text _chunks renders once per format."""
    return _Constant(kind, b, len(values)) if len(values) <= _TEXT_ROWS else values


@_table
def _constant_text(kind: str, b: int, n: int, fmt: str) -> tuple[str, ...]:
    """The text of each row of the _Constant column (kind, b, n) in the
    %-format fmt."""
    return tuple(map(fmt.__mod__, _CONSTANT_VALUES[kind](b, n).tolist()))


class _Table(NamedTuple):
    """A table record: its name, and one column per field of
    _RECORD_FIELDS, all of one length, that hold its rows: an array, or
    a _Constant."""

    name: str
    columns: tuple[np.ndarray | _Constant, ...]


_TABLE_HEADERS = {
    "digit": ("digit", "probability"),
    "bin": ("digit", "count", "frequency", "nb_prob"),
    "row": ("x", "wrapped_pdf", "nb_pdf", "difference"),
}
_HUMAN_FORMATS = {"int": "%16s", "float": "%16.12f"}
# a table is rendered and written this many rows at a time
_TABLE_ROWS = 1 << 13
# a table of at most this many rows, wrap's default grid, is rendered by
# one %; see _table_chunks
_FORMAT_ROWS = 1 << 8


def _chunks(records: Iterable[tuple], human: bool) -> Iterator[str]:
    """The text of a stream, one record or one block of _TABLE_ROWS table
    rows at a time: the records format, or the aligned human one, which
    drops the schema and heads each table with its column names."""
    for rec in records:
        name = rec[0]
        if isinstance(rec, _Table):
            if human:
                yield "  ".join("%16s" % h for h in _TABLE_HEADERS[name]) + "\n"
            yield from _table_chunks(rec, human)
        elif not human:
            arity, template = _TEMPLATES.get(name, (0, ""))
            yield template % rec[1:] if len(rec) == arity else " ".join(map(_fmt, rec)) + "\n"
        elif name == "command":
            yield f"command: {rec[1]}\n"
        elif name == "param":
            yield f"  {rec[1]} = {rec[2]}\n"
        elif name == "digit_sum":
            yield f"{'sum':>16}  {rec[1]:>16.12f}\n"
        elif name != "schema":
            yield f"{name} = {_fmt(rec[1])}\n"


def _table_chunks(table: _Table, human: bool) -> Iterator[str]:
    """The rows of a table, _TABLE_ROWS at a time: a _Constant column's
    text comes from _constant_text, an array's is rendered here.

    A table of at most _FORMAT_ROWS rows is rendered by one % on the row
    template repeated per row, which saves the call of one % per row.  A
    longer one takes one % per row: % grows the text it makes a quarter at
    a time on the heap, and with one % per chunk a process that keeps the
    text, as io.StringIO does, was seen to peak up to 3 MiB higher after a
    10^6-row table.
    """
    formats = _HUMAN_FORMATS if human else _KIND_FORMATS
    fields, columns = [], []
    for column, kind in zip(table.columns, _RECORD_FIELDS[table.name]):
        if isinstance(column, _Constant):
            fields.append("%s")
            columns.append(_constant_text(*column, formats[kind]))
        else:
            fields.append(formats[kind])
            columns.append(column)
    template = "  ".join(fields) if human else " ".join([table.name, *fields])
    template += "\n"
    n, size = _TABLE_ROWS, len(columns[0])
    for i in range(0, size, n):
        rows = zip(*(c[i : i + n] if type(c) is tuple else c[i : i + n].tolist() for c in columns))
        if size <= _FORMAT_ROWS:
            yield (template * min(n, size - i)) % tuple(itertools.chain.from_iterable(rows))
        else:
            yield "".join(map(template.__mod__, rows))


def emit_records(records: Sequence[tuple]) -> str:
    """Render records as the line-oriented stream, one record per line.

    Field values are of the kinds listed in _RECORD_FIELDS, as parse_records
    returns them; boolean records and unknown names are rendered by _fmt.
    A _Table renders as one record per row.
    """
    return "".join(_chunks(records, human=False))


def parse_records(text: str) -> list[tuple]:
    """Parse a record stream back into typed tuples.

    Inverse of emit_records: re-emitting the parse reproduces the input
    byte for byte.  Records end at "\n" alone, so a field keeps any other
    character, such as U+0085 or U+2028 in a column name; a blank line, or
    text after the last "\n", is no record.
    """
    out: list[tuple] = []
    *lines, last = text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise DomainError(f"line {lineno}: blank line")
        tokens = line.split(" ")
        name = tokens[0]
        kinds = _RECORD_FIELDS.get(name)
        if kinds is None:
            raise DomainError(f"line {lineno}: unknown record {name!r}")
        values = tokens[1:]
        if kinds and kinds[-1] == "str" and len(values) > len(kinds):
            head = values[: len(kinds) - 1]
            values = head + [" ".join(values[len(kinds) - 1 :])]
        if len(values) != len(kinds):
            raise DomainError(
                f"line {lineno}: record {name!r} expects {len(kinds)} fields"
            )
        rec: list = [name]
        for kind, tok in zip(kinds, values):
            try:
                value = _KIND_PARSERS[kind](tok)
            except (KeyError, ValueError):
                value = None
            # a number must be in the form emit_records writes it: "5" and
            # "1.5", not "05", "+5", "1_000", "1.50" or "NaN"
            if value is None or kind in _KIND_FORMATS and _KIND_FORMATS[kind] % value != tok:
                raise DomainError(f"line {lineno}: bad {kind} field {tok!r}")
            rec.append(value)
        out.append(tuple(rec))
    if last:
        raise DomainError(f"line {len(lines) + 1}: no newline at the end")
    return out


# --------------------------------------------------------------------------
# ingestion
# --------------------------------------------------------------------------


def _not_utf8(path: str, exc: UnicodeDecodeError) -> IngestError:
    return IngestError(f"{path}: not UTF-8 text ({exc.reason})")


def _floats(cells: Iterable[str]) -> list[float]:
    """float(cell) for every cell, NaN where that fails."""
    out: list[float] = []
    it = iter(cells)
    while True:
        try:
            out.extend(map(float, it))  # keeps what it appended before a failure
            return out
        except UnicodeDecodeError:
            raise  # from the file under a generator of cells, not from float
        except ValueError:
            out.append(math.nan)  # unparseable cells skip as nonfinite


def _column_index(header: list[str], path: str, column: str) -> int:
    header = [h.strip() for h in header]
    if column in header:
        return header.index(column)
    try:
        idx = int(column)
    except ValueError:
        raise IngestError(f"{path}: no column named {column!r}") from None
    if not 0 <= idx < len(header):
        raise IngestError(
            f"{path}: column index {idx} out of range (file has "
            f"{len(header)} columns)"
        )
    return idx


# _blocks reads this many bytes at a time; a block is one read and the
# unfinished line carried over from the last one, unless a line is longer.
_CSV_BLOCK = 1 << 18
# csv.reader's rows and the child's values are passed on this many at a time.
_CHUNK_ROWS = 1 << 13
# Bytes on which csv.reader and plain comma splitting could disagree:
# quotes and NUL change how csv.reader splits, and 0x1c-0x1f are stripped
# by str.strip but rejected by float.  A carriage return is safe only
# just before a newline; see _csv_text.
_CSV_UNSAFE = b'"\x00\x1c\x1d\x1e\x1f'


def _blocks(fh, stop: int | None, parse) -> Generator[np.ndarray, None, tuple[int, bytes]]:
    """Yield ``parse(block)`` for the lines of the binary file ``fh`` from
    where it stands up to the offset ``stop``, a line boundary, or to EOF.

    A block is one read of _CSV_BLOCK bytes and the unfinished line carried
    over from the last one, cut at its last newline; a line that they do
    not end is read to its end. The last line of the file may lack its
    newline. ``parse`` returns the block's float64 values, or None to
    decline it, which stops the loop.

    Returns the number of values yielded and ``rest``, the bytes read and
    not parsed: none at ``stop`` or EOF, else the declined block and the
    rest of its last line, so that ``rest`` ends at a line boundary too.
    ``fh`` is left just after ``rest``; it is read forward only, and only
    ``stop`` needs a file that can tell.
    """

    def line_end() -> bytes:  # the rest of the line fh stands in
        return fh.readline(-1 if stop is None else stop - fh.tell())

    n, tail = 0, b""
    while True:
        block = tail + fh.read(_CSV_BLOCK if stop is None else min(_CSV_BLOCK, stop - fh.tell()))
        if cut := block.rfind(b"\n") + 1:
            block, tail = block[:cut], block[cut:]
        else:  # no newline: a line longer than the read, the last line, or EOF
            block, tail = block + line_end(), b""
        if not block:
            return n, b""
        values = parse(block)
        if values is None:
            return n, block + tail + (line_end() if tail else b"")
        n += values.size
        yield values


def _csv_text(block: bytes, ncols: int) -> str | None:
    """The text of a block of whole lines if csv.reader provably splits
    each of them into ``ncols`` cells at its commas; else None.

    That holds if the block is UTF-8 text without a byte of _CSV_UNSAFE,
    every carriage return in it is directly followed by a newline (it is
    left in the text, where float and the header's strip drop it, as
    csv.reader drops it), and every line in it has ``ncols - 1`` commas
    and is no longer than csv.field_size_limit(). A last line without a
    newline gets one, as csv.reader ends it at EOF as at a newline.
    """
    if not block.endswith(b"\n"):
        block += b"\n"
    if any(c in block for c in _CSV_UNSAFE):
        return None
    a = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(a == 10)
    # the block ends with a newline, so no carriage return is its last byte
    if b"\r" in block and (a[np.flatnonzero(a == 13) + 1] != 10).any():
        return None
    if np.diff(ends, prepend=-1).max() > csv.field_size_limit() + 1:
        return None
    # commas before each line end, then commas on each line
    commas = np.diff(np.searchsorted(np.flatnonzero(a == 44), ends), prepend=0)
    if (commas != ncols - 1).any():
        return None
    try:
        return block.decode("utf-8")
    except UnicodeDecodeError:
        return None


class _CsvRows:
    """The ``parse`` of _blocks for a CSV file's rows: the cells of column
    ``idx`` of a block that _csv_text reads, split at commas and converted
    by _floats; None for any other block. Each row gives one value."""

    seen = True  # the header names the column

    def __init__(self, idx: int, ncols: int) -> None:
        self.idx, self.ncols = idx, ncols

    def __call__(self, block: bytes) -> np.ndarray | None:
        text = _csv_text(block, self.ncols)
        if text is None:
            return None
        cells = text.replace("\n", ",").split(",")[self.idx : -1 : self.ncols]
        return np.array(_floats(cells), dtype=np.float64)


def _csv_header(head: bytes, path: str, column: str) -> _CsvRows | None:
    """The parser of a CSV file's rows, built from ``head``, the bytes of
    its header line. None where _csv_text does not read the line, the line
    is empty, or it does not resolve the column: csv.reader then reads the
    whole file."""
    ncols = head.count(b",") + 1
    text = _csv_text(head, ncols)
    if text is not None and text.rstrip("\r\n"):
        try:
            return _CsvRows(_column_index(text.split(","), path, column), ncols)
        except IngestError:
            pass  # csv.reader raises it, unless it fails first
    return None


def _read_csv(path: str, column: str) -> Iterator[np.ndarray]:
    """The column's values as float64 blocks: _split_read's, then
    csv.reader's, _CHUNK_ROWS rows at a time, from the first line the block
    parser declined, or from the header if it could not read it. csv.reader
    reads the bytes the block parser read and declined, then the file on
    from them, so the file is read once, forward only, pipe or not."""
    with open(path, "rb") as fh:
        rest = fh.readline()
        parse = _csv_header(rest, path, column)
        lines = 0
        if parse is not None:
            n, rest = yield from _split_read(fh, path, parse)
            if not rest:
                return
            lines = 1 + n
        reader = csv.reader(itertools.chain.from_iterable(_line_batches(rest, fh)))
        try:
            if parse is None:
                yield from _parse_csv(reader, path, column)
            else:
                yield from _csv_column(reader, parse.idx)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        except csv.Error as exc:
            raise IngestError(f"{path}: line {lines + reader.line_num}: {exc}") from None


def _strict(text: str) -> str:
    """text, if its bytes are UTF-8; else UnicodeDecodeError, as a text reader's."""
    text.encode("utf-8", "surrogateescape").decode("utf-8")
    return text


def _line_batches(rest: bytes, fh) -> Iterator[Iterable[str]]:
    """The lines of ``rest``, then of ``fh`` from where it stands, split as
    csv.reader needs them (newline=""), in batches of about 64 KiB. Since
    ``rest`` ends at a newline or at EOF, they are the lines of the two as
    one text. A batch that is not UTF-8 is checked again line by line as it
    is read, so a data error is that of the first bad line, wherever the
    text is cut."""
    for f in (io.BytesIO(rest), fh):
        text = io.TextIOWrapper(f, encoding="utf-8", errors="surrogateescape", newline="")
        while batch := text.readlines(1 << 16):
            joined = "".join(batch)
            if not joined.isascii():
                try:
                    _strict(joined)
                except UnicodeDecodeError:
                    batch = map(_strict, batch)
            yield batch


def _parse_csv(reader, path: str, column: str) -> Iterator[np.ndarray]:
    """The reference reader: a header row, then the column of every row."""
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyData(f"{path}: empty file") from None
    yield from _csv_column(reader, _column_index(header, path, column))


def _csv_column(reader, idx: int) -> Iterator[np.ndarray]:
    cells = (row[idx].strip() if idx < len(row) else "" for row in reader)
    while values := _floats(itertools.islice(cells, _CHUNK_ROWS)):
        yield np.array(values, dtype=np.float64)


def _json_int(text: str) -> float:
    """An integer literal as float(int(text)), without building the int:
    no digit limit, and +-inf past the double range."""
    return float(text) or 0.0  # "-0" is the int 0


# One scanner for every line; integers come out as floats, so no literal
# raises on its size.
_SCAN = json.scanner.make_scanner(json.JSONDecoder(parse_int=_json_int))


class _JsonlRows:
    """The ``parse`` of _blocks for a JSON-lines file: one float per
    non-blank line, the ``column`` field of a line that is exactly one JSON
    object, else NaN. A line ends at "\\n" alone, as in JSON Lines and
    parse_records. ``seen`` tells whether a line had the field. A block
    that is not UTF-8 raises UnicodeDecodeError."""

    def __init__(self, column: str) -> None:
        self.column, self.seen = column, False

    def __call__(self, block: bytes) -> np.ndarray:
        column = self.column
        values: list[float] = []
        seen = False
        for line in block.decode("utf-8").split("\n"):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _SCAN(line, 0)
            except (StopIteration, json.JSONDecodeError, RecursionError):
                # no value, malformed, or nested deeper than the scanner recurses
                values.append(math.nan)
                continue
            v = obj.get(column) if end == len(line) and type(obj) is dict else None
            if v is None:
                values.append(math.nan)
                continue
            seen = True
            t = type(v)
            if t is float:
                values.append(v)
            elif t is str:
                try:
                    values.append(float(v))
                except ValueError:
                    values.append(math.nan)
            else:  # bool, array or object
                values.append(math.nan)
        self.seen = self.seen or seen
        return np.array(values, dtype=np.float64)


def _read_jsonl(path: str, column: str) -> Iterator[np.ndarray]:
    """The column's values as float64 blocks, by _split_read; a file whose
    every non-blank line lacks the field is a data error."""
    parse = _JsonlRows(column)
    with open(path, "rb") as fh:
        try:
            n, _ = yield from _split_read(fh, path, parse)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    if n and not parse.seen:
        raise IngestError(f"{path}: no field named {column!r} in any record")


# A regular file of at least this many bytes is read in two halves at
# once, the second by a forked child; see _split_read.
_SPLIT_BYTES = 1 << 20


def _split_at(path: str) -> int | None:
    """The offset just past the first newline from the middle of the file
    on, where _split_read splits it; None where the file is read in one
    piece. That is a file under _SPLIT_BYTES, one whose size is not known
    (stdin, a pipe), one with no newline in its second half, or any file
    where os.fork is missing or other threads run, since a child forked
    from them could deadlock."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    try:
        info = os.stat(path)  # opens no pipe, which would take its writer's data
        if not stat.S_ISREG(info.st_mode) or info.st_size < _SPLIT_BYTES:
            return None
        with open(path, "rb") as fh:
            pos = info.st_size // 2
            while chunk := os.pread(fh.fileno(), 1 << 16, pos):
                if (i := chunk.find(b"\n")) >= 0:
                    return pos + i + 1 if pos + i + 1 < info.st_size else None
                pos += len(chunk)
    except OSError:
        pass  # the reader raises it
    return None


# the child's "ok": its parser's seen and its number of values, which
# follow as float64 bytes; it declines by writing nothing
_OK = struct.Struct("=?q")


def _answer(out: int, path: str, split: int, parse) -> None:
    """The child's side of _split_read: the values of the lines from
    ``split`` to EOF, written to the pipe ``out`` after _OK; nothing if
    ``parse`` declines a block, and an error of any kind escapes to the
    caller."""
    with open(path, "rb") as fh:  # an offset of its own, not the parent's
        fh.seek(split)
        blocks, gen = [], _blocks(fh, None, parse)
        try:
            while True:
                blocks.append(next(gen))
        except StopIteration as stop:
            n, rest = stop.value
    if rest:
        return  # parse declined a block, which csv.reader reads
    with open(out, "wb") as pipe:
        pipe.write(_OK.pack(parse.seen, n))
        for b in blocks:
            pipe.write(b)


def _received(pipe, n: int) -> Iterator[np.ndarray]:
    """The child's n values, read from the pipe _CHUNK_ROWS at a time."""
    for start in range(0, n, _CHUNK_ROWS):
        block = np.empty(min(_CHUNK_ROWS, n - start))
        if pipe.readinto(block) < block.nbytes:
            raise OSError("the reader of the file's second half ended early")
        yield block


def _take(pipe) -> tuple[bool, int] | None:
    """The child's answer, waited for: its parser's seen and its number of
    values, which _received reads; None if it declined."""
    ok = pipe.read(_OK.size)
    return _OK.unpack(ok) if len(ok) == _OK.size else None


def _split_read(fh, path: str, parse) -> Generator[np.ndarray, None, tuple[int, bytes]]:
    """What _blocks(fh, None, parse) yields and returns, with the lines
    from _split_at's offset on parsed meanwhile by a forked child.

    The parent parses the lines before the split. It takes the child's
    values only if it reached the split and the child did not decline;
    otherwise it reads on from where it stopped, so every value, error,
    line number and byte of ``rest`` is the sequential read's, and ``fh``
    moves forward only. The child leaves only by os._exit: it flushes no
    stdio and runs no atexit hook. The parent reaps it, killed if need be,
    however the blocks end.
    """
    split = _split_at(path)
    if split is None:
        return (yield from _blocks(fh, None, parse))
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: read in one piece
        os.close(r)
        os.close(w)
        return (yield from _blocks(fh, None, parse))
    if pid == 0:
        try:
            os.close(r)
            _answer(w, path, split, parse)
        finally:
            os._exit(0)
    os.close(w)
    pipe = open(r, "rb")
    try:
        n, rest = yield from _blocks(fh, split, parse)
        if rest:
            return n, rest  # parse declined a block before the split
        answer = _take(pipe)
        if answer is None:  # the child declined one: read on from the split
            m, rest = yield from _blocks(fh, None, parse)
            return n + m, rest
        seen, m = answer
        yield from _received(pipe, m)
        parse.seen = parse.seen or seen
        return n + m, b""
    finally:
        pipe.close()
        os.kill(pid, signal.SIGKILL)  # a child that has exited stays a zombie until reaped
        os.waitpid(pid, 0)


def _value_blocks(args) -> Iterator[np.ndarray]:
    """``fit``'s column as float64 blocks in file order, magnitudes with
    --absolute-value; no reader holds the whole column."""
    blocks = (_read_csv if args.input_format == "csv" else _read_jsonl)(args.path, args.column)
    return map(np.abs, blocks) if args.absolute_value else blocks


# --------------------------------------------------------------------------
# distribution specs shared by wrap and entropy
# --------------------------------------------------------------------------


def _parse_floats(tokens: Sequence[str], what: str) -> list[float]:
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise DomainError(f"{what}: expected numbers, got {list(tokens)!r}") from None


def _parse_dist(tokens: Sequence[str], allow: tuple[str, ...]):
    """Parse ``nb | uniform | lognormal M s | mixture w M s [w M s ...]``
    into a density as analyze_entropy takes it: a name or parameters."""
    kind = tokens[0]
    if kind not in allow:
        raise DomainError(f"unsupported distribution {kind!r}; expected one of {allow}")
    rest = tokens[1:]
    if kind in ("nb", "uniform"):
        if rest:
            raise DomainError(f"{kind} takes no parameters, got {list(rest)!r}")
        return kind
    if kind == "lognormal":
        if len(rest) != 2:
            raise DomainError("lognormal needs exactly: M s")
        m, s = _parse_floats(rest, "lognormal")
        return LogNormalParams(m, s)
    # mixture: weight/location/scale triples
    if not rest or len(rest) % 3 != 0:
        raise DomainError("mixture needs weight M s triples")
    if len(rest) // 3 > _MAX_COMPONENTS:
        raise DomainError(
            f"mixture has {len(rest) // 3} components, above the limit of {_MAX_COMPONENTS}"
        )
    vals = _parse_floats(rest, "mixture")
    comps = tuple(
        (vals[i], LogNormalParams(vals[i + 1], vals[i + 2]))
        for i in range(0, len(vals), 3)
    )
    return MixtureParams(comps)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _conformance_records(report: ConformanceReport, base: Base) -> list[tuple]:
    hist, b = report.histogram, base.b
    return [
        ("total", hist.total),
        ("skipped_nonpositive", report.n_skipped_nonpositive),
        ("skipped_nonfinite", report.n_skipped_nonfinite),
        _Table(
            "bin",
            (
                _column("digit", b, np.arange(1, b)),
                hist.counts,
                hist.counts / hist.total,
                _column("nb_prob", b, first_digit_probs(base)),
            ),
        ),
        ("chi_square", report.chi_square),
        ("chi_square_pvalue", report.chi_square_pvalue),
        ("ks_stat", report.ks_stat),
        ("tv_distance", report.tv_distance),
    ]


def _cmd_digits(args) -> list[tuple]:
    b = args.base
    probs = first_digit_probs(Base(b))
    columns = (_column("digit", b, np.arange(1, b)), _column("nb_prob", b, probs))
    return [_Table("digit", columns), ("digit_sum", math.fsum(probs))]


def _cmd_fit(args) -> list[tuple]:
    base = Base(args.base)
    report = _report(base, *_usable_logs(_value_blocks(args), base))
    return [
        ("param", "input", args.path),
        ("param", "input_format", args.input_format),
        ("param", "column", str(args.column)),
        ("param", "absolute_value", "true" if args.absolute_value else "false"),
        *_conformance_records(report, base),
    ]


def _cmd_wrap(args) -> list[tuple]:
    base = Base(args.base)
    wl = _WrappedLogNormal.of(_parse_dist(args.dist, ("lognormal", "mixture")), base, args.tol)
    grid = _grid(base.b, args.grid_points)
    sup, tv, w = _distances(wl, base, grid)
    x = grid.x[_DISTANCE_GRID:]
    law = _law(x, base)
    columns = (_column("x", base.b, x), w, _column("nb_pdf", base.b, law), w - law)
    return [
        ("param", "tol", str(args.tol)),
        ("param", "grid_points", str(args.grid_points)),
        ("param", "dist", " ".join(args.dist)),
        _Table("row", columns),
        ("sup_distance", sup),
        ("tv_distance", tv),
    ]


def _cmd_entropy(args) -> list[tuple]:
    density = _parse_dist(args.dist, ("nb", "uniform", "lognormal", "mixture"))
    report = analyze_entropy(density, Base(args.base), args.tol)
    return [
        ("param", "tol", str(args.tol)),
        ("param", "dist", " ".join(args.dist)),
        ("entropy", report.entropy),
        ("mean_log", report.mean_log),
        ("gibbs_bound", report.gibbs_bound),
        ("constraint_met", report.constraint_met),
        ("quadrature_error_estimate", report.quadrature_error_estimate),
    ]


def _cmd_sequence(args) -> list[tuple]:
    base = Base(args.base)
    report = _report(base, *_sequence_logs(args.kind, args.n, base, args.ratio), 0, 0)
    recs: list[tuple] = [("param", "kind", args.kind), ("param", "n", str(args.n))]
    if args.ratio is not None:
        recs.append(("param", "ratio", str(args.ratio)))
    return recs + _conformance_records(report, base)


# --------------------------------------------------------------------------
# parser and dispatch
# --------------------------------------------------------------------------


# Caps on the arguments that size what the CLI allocates and loops over,
# so that no argument can make it run out of memory or time; the library
# takes any size.
_MAX_BASE = 10**6
_MAX_N = 10**7
_MAX_GRID_POINTS = 10**6
_MAX_COMPONENTS = 16


def _int_in(least: int, cap: int):
    """An argparse type: an integer in [least, cap]."""

    def parse(text: str) -> int:
        value = int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"{value} is above the limit of {cap}")
        if value < least:
            raise argparse.ArgumentTypeError(f"{value} is below the least value of {least}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


# argparse (Python 3.10-3.13) takes a token for a value only if it looks
# like -12 or -1.5; -1e-05, as repr writes small negatives, would be an
# unknown option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the subparsers it makes, that read every
    negative number in decimal or exponent notation as a value, and refuse
    any argument with a newline, which would end a record it is echoed in.

    ``verbs`` maps each verb to its parser: build_parser sets it to the
    ``choices`` of its subparsers action, argparse's own map.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER
        self.verbs: dict[str, _Parser] = {}

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        for arg in args:
            if "\n" in arg:
                self.error(f"argument {arg!r} holds a newline")
        return super().parse_known_args(args, namespace)

    def parse_args(self, args=None, namespace=None):
        """ArgumentParser.parse_args, which hands every token after the verb
        to the verb's parser: an argv that starts with a verb goes to that
        parser alone. The top-level parse still takes any argv with no verb
        first or with a newline, whose error names the top-level usage, and
        one with tokens the verb's parser leaves, which it refuses."""
        verb = self.verbs.get(args[0]) if args and namespace is None else None
        if verb is not None and not any("\n" in arg for arg in args):
            parsed, extras = verb.parse_known_args(args[1:])
            if not extras:
                parsed.cmd = args[0]
                return parsed
        return super().parse_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="benford",
        description="First-digit statistics in arbitrary base: digit tables, "
        "dataset conformance, wrapped densities, and entropy reports.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--base", type=_int_in(2, _MAX_BASE), default=10, help="radix, default 10"
    )
    common.add_argument(
        "--format",
        choices=("human", "records"),
        default="human",
        help="output style; records is the machine-readable stream",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sub.add_parser("digits", parents=[common], help="print the first-digit table")

    fit = sub.add_parser(
        "fit", parents=[common], help="test a dataset for conformance", epilog=_KS_HELP
    )
    fit.add_argument("path", help="input file")
    fit.add_argument(
        "--column", default="0", help="column name or zero-based index (default 0)"
    )
    fit.add_argument(
        "--input-format", choices=("csv", "jsonl"), default="csv", dest="input_format"
    )
    fit.add_argument(
        "--absolute-value",
        action="store_true",
        dest="absolute_value",
        help="analyze magnitudes instead of skipping negatives",
    )

    wrap = sub.add_parser(
        "wrap", parents=[common], help="tabulate a wrapped density against the law"
    )
    wrap.add_argument(
        "dist", nargs="+", help="lognormal M s | mixture w M s [w M s ...]"
    )
    wrap.add_argument(
        "--grid-points", type=_int_in(1, _MAX_GRID_POINTS), default=256, dest="grid_points"
    )

    ent = sub.add_parser(
        "entropy", parents=[common], help="entropy report for a significand density"
    )
    ent.add_argument(
        "dist", nargs="+", help="nb | uniform | lognormal M s | mixture w M s ..."
    )
    for verb in (wrap, ent):
        verb.add_argument(
            "--tol", type=float, default=1e-9, help="series truncation tolerance"
        )

    seq = sub.add_parser(
        "sequence", parents=[common], help="conformance of a deterministic sequence"
    )
    seq.add_argument("kind", choices=SEQUENCE_KINDS)
    seq.add_argument(
        "--n", type=_int_in(1, _MAX_N), default=10000, help="number of terms"
    )
    seq.add_argument("--ratio", type=float, default=None, help="geometric ratio")

    parser.verbs = sub.choices
    return parser


# each returns the records that follow the schema, command and base
# records, which main writes first
_HANDLERS = {
    "digits": _cmd_digits,
    "fit": _cmd_fit,
    "wrap": _cmd_wrap,
    "entropy": _cmd_entropy,
    "sequence": _cmd_sequence,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses on every call, built on the first."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI on ``argv``, or on sys.argv[1:] where it is None; the
    exit code."""
    try:
        args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        records = _HANDLERS[args.cmd](args)
    except (DomainError, NonPositiveInput, UnsupportedRatio) as exc:
        print(f"benford {args.cmd}: {exc}", file=sys.stderr)
        return 2
    except (OSError, EmptyData, InsufficientData, IngestError) as exc:
        print(f"benford {args.cmd}: {exc}", file=sys.stderr)
        return 3
    except (TruncationError, QuadratureError, NotNormalized) as exc:
        print(f"benford {args.cmd}: numeric failure: {exc}", file=sys.stderr)
        return 4
    # every number is computed before the first byte is written
    head = [("schema", SCHEMA_VERSION), ("command", args.cmd), ("param", "base", str(args.base))]
    sys.stdout.writelines(_chunks(head + records, human=args.format == "human"))
    return 0


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: not a failure of the
        # call; stdout goes to devnull so that the interpreter's last flush
        # cannot fail again (Python's "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
