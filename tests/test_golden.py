"""Output guard: records and human streams and ratio rejections stay as
captured in tests/data/golden (see tests/data/make_golden.py)."""

import json
import math
import sys
from pathlib import Path

import pytest

from benford import cli, significand
from benford.cli import parse_records


DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(DATA))
import make_golden  # noqa: E402

# density fields compared within 1e-12 absolute, and within the reported
# quadrature error; each printed value may also sit one rounding of the
# 12-significant-digit rendering away from the unrounded one
SERIES_ABS = 1e-12
SERIES_FIELDS = {"sup_distance", "tv_distance"}
ENTROPY_FIELDS = {"entropy", "mean_log", "gibbs_bound"}


def _print_half_ulp(v: float) -> float:
    return 0.0 if v == 0.0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 11)


def _near(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol + _print_half_ulp(got) + _print_half_ulp(want)


@pytest.mark.parametrize(
    "name,argv", make_golden.GOLDEN_CALLS, ids=[c[0] for c in make_golden.GOLDEN_CALLS]
)
def test_records_byte_identical(name, argv, monkeypatch):
    monkeypatch.chdir(make_golden.GOLDEN)
    want = (make_golden.GOLDEN / f"{name}.records").read_text(encoding="utf-8")
    assert make_golden.output(argv) == want


@pytest.mark.parametrize(
    "name,argv", make_golden.HUMAN_CALLS, ids=[c[0] for c in make_golden.HUMAN_CALLS]
)
def test_human_byte_identical(name, argv, monkeypatch):
    monkeypatch.chdir(make_golden.GOLDEN)
    want = (make_golden.GOLDEN / f"{name}.human").read_text(encoding="utf-8")
    assert make_golden.output(argv, "human") == want


# every golden call in each format it is captured in
BLOCK_CASES = [
    (name, argv, "records") for name, argv in make_golden.GOLDEN_CALLS + make_golden.DENSITY_CALLS
] + [(name, argv, "human") for name, argv in make_golden.HUMAN_CALLS]


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize(
    "name,argv,fmt", BLOCK_CASES, ids=[f"{c[0]}.{c[2]}" for c in BLOCK_CASES]
)
def test_streams_unchanged_at_any_table_block(name, argv, fmt, rows, monkeypatch):
    # tables are written _TABLE_ROWS rows at a time; the bytes do not
    # depend on where the blocks end
    monkeypatch.chdir(make_golden.GOLDEN)
    want = make_golden.run(argv, fmt)
    monkeypatch.setattr(cli, "_TABLE_ROWS", rows)
    assert make_golden.run(argv, fmt) == want


# every golden fit call in each format it is captured in
FIT_CASES = [case for case in BLOCK_CASES if case[1][0] == "fit"]


@pytest.mark.parametrize("name,argv,fmt", FIT_CASES, ids=[f"{c[0]}.{c[2]}" for c in FIT_CASES])
def test_fit_streams_unchanged_when_read_in_two_halves(name, argv, fmt, monkeypatch):
    # the golden inputs are under the size at which a file is split
    monkeypatch.chdir(make_golden.GOLDEN)
    monkeypatch.setattr(cli, "_SPLIT_BYTES", 1)
    want = (make_golden.GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert make_golden.output(argv, fmt) == want


def test_ratio_rejections_unchanged():
    want = json.loads((make_golden.GOLDEN / "ratio_rejections.json").read_text())
    assert make_golden.ratio_rejections() == want


@pytest.mark.parametrize(
    "name,argv", make_golden.DENSITY_CALLS, ids=[c[0] for c in make_golden.DENSITY_CALLS]
)
def test_density_records_match(name, argv):
    assert_density_matches(name, *make_golden.run(argv))


def assert_density_matches(name: str, code: int, got_text: str) -> None:
    """The exit code and records stream of a density golden call match
    its golden: x, nb_pdf and the other records byte for byte, the series
    and entropy fields within their tolerances."""
    codes = json.loads((make_golden.GOLDEN / "density_exit_codes.json").read_text())
    want_text = (make_golden.GOLDEN / f"{name}.records").read_text(encoding="utf-8")
    assert code == codes[name]
    want_lines, got_lines = want_text.splitlines(), got_text.splitlines()
    assert [ln.split(" ")[0] for ln in got_lines] == [ln.split(" ")[0] for ln in want_lines]
    want = parse_records(want_text)
    err = next((r[1] for r in want if r[0] == "quadrature_error_estimate"), None)
    for g_line, w_line, g, w in zip(got_lines, want_lines, parse_records(got_text), want):
        kind = w[0]
        if kind == "row":
            # x and nb_pdf byte for byte; wrapped_pdf and difference close
            gx, _, gn, _ = g_line.split(" ")[1:]
            wx, _, wn, _ = w_line.split(" ")[1:]
            assert (gx, gn) == (wx, wn), (g_line, w_line)
            assert _near(g[2], w[2], SERIES_ABS), (g_line, w_line)
            assert _near(g[4], w[4], SERIES_ABS), (g_line, w_line)
        elif kind in SERIES_FIELDS:
            assert _near(g[1], w[1], SERIES_ABS), (g_line, w_line)
        elif kind in ENTROPY_FIELDS:
            assert _near(g[1], w[1], err), (g_line, w_line)
        elif kind != "quadrature_error_estimate":
            # schema, command, param and constraint_met records
            assert g_line == w_line


def clear_caches() -> None:
    """Empty the table cache that main fills per base, size or format."""
    significand._table.clear()


def test_streams_unchanged_when_run_twice_in_one_process(monkeypatch):
    # the second pass runs in reverse order, so that bases, grid sizes and
    # both formats interleave with the keys the first pass left cached
    monkeypatch.chdir(make_golden.GOLDEN)
    density = dict(make_golden.DENSITY_CALLS)
    clear_caches()
    for name, argv, fmt in BLOCK_CASES + BLOCK_CASES[::-1]:
        code, text = make_golden.run(argv, fmt)
        if fmt == "records" and name in density:
            assert_density_matches(name, code, text)
        else:
            want = (make_golden.GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
            assert (code, text) == (0, want), (name, fmt)
