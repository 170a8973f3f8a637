"""Write the byte-identity corpus checked by tests/test_golden.py.

    PYTHONPATH=src python tests/data/make_golden.py

Writes two small seeded input files (CSV and JSONL, with negatives and
junk cells) and a CSV of round numbers and their neighbours, the
``--format records`` output of every call in ``GOLDEN_CALLS`` and
``DENSITY_CALLS`` (``<name>.records``), the
``--format human`` output of every call in ``HUMAN_CALLS``
(``<name>.human``), the exit codes of the density calls
(``density_exit_codes.json``), and which ratios near powers of the base
the geometric generator rejects (``ratio_rejections.json``), into
``tests/data/golden/``.  Density records streams are compared with
tolerances (see tests/test_golden.py), the others byte for byte; the
human streams of the density calls are compared byte for byte too, so an
intended change to a density's numbers re-captures them as well.
Rerun it only when a change to these outputs is intended; the tests exist
to catch unintended ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from benford import Base, UnsupportedRatio, gen_sequence
from benford.cli import main as cli_main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

# (output name, argv relative to GOLDEN); fit paths are relative so the
# echoed ``param input`` does not depend on the checkout location
GOLDEN_CALLS = [
    ("fit_csv_b10", ["fit", "fit.csv", "--column", "amount", "--base", "10"]),
    ("fit_csv_abs_b16", ["fit", "fit.csv", "--column", "amount", "--base", "16",
                         "--absolute-value"]),
    ("fit_jsonl_b16", ["fit", "fit.jsonl", "--column", "amount", "--input-format",
                       "jsonl", "--base", "16"]),
]
# round numbers d * b**k of bases 3, 10 and 1000 sit on digit-cell edges
for _b in (3, 10, 1000):
    GOLDEN_CALLS.append(
        (f"fit_boundary_b{_b}",
         ["fit", "boundary.csv", "--column", "amount", "--base", str(_b)])
    )
for _b in (10, 16, 1000):
    for _kind in ("pow2", "fibonacci", "factorial"):
        GOLDEN_CALLS.append(
            (f"sequence_{_kind}_b{_b}", ["sequence", _kind, "--n", "10000", "--base", str(_b)])
        )
    for _tag, _ratio in (("1.1", 1.1), ("3root7", 3.0 ** (1.0 / 7.0))):
        GOLDEN_CALLS.append(
            (f"sequence_geometric{_tag}_b{_b}",
             ["sequence", "geometric", "--n", "10000", "--base", str(_b),
              "--ratio", repr(_ratio)])
        )

# wrap and entropy: log-normals at small, medium and large s, and 2- and
# 3-component mixtures, in each base
DENSITY_BASES = (2, 10, 16, 1000)
DENSITY_GRID_POINTS = 64
DENSITY_DISTS = [
    ("ln_small", ["lognormal", "0.3", "0.05"]),
    ("ln_medium", ["lognormal", "-1.7", "0.8"]),
    ("ln_large", ["lognormal", "3.2", "5.0"]),
    ("mix2", ["mixture", "0.35", "-1.3", "0.4", "0.65", "2.1", "1.5"]),
    ("mix3", ["mixture", "0.2", "0.4", "0.1", "0.5", "-2.2", "0.9", "0.3", "5.0", "3.0"]),
]
DENSITY_CALLS = []
for _b in DENSITY_BASES:
    for _tag, _dist in DENSITY_DISTS:
        DENSITY_CALLS.append(
            (f"wrap_{_tag}_b{_b}",
             ["wrap", *_dist, "--base", str(_b), "--grid-points", str(DENSITY_GRID_POINTS)])
        )
        DENSITY_CALLS.append((f"entropy_{_tag}_b{_b}", ["entropy", *_dist, "--base", str(_b)]))
# cases that used to fail: a scale past the direct sum's truncation cap
# (exit 4; the dual series gives the law), a narrow peak the adaptive
# tree's first panels missed (exit 4), and a narrow peak whose entropy it
# got wrong by 6.8e-7 (exit 0); the trapezoidal rule in ln x now matches
# scipy.integrate.quad in ln x on both peaks
DENSITY_CALLS += [
    ("wrap_ln_huge_b10", ["wrap", "lognormal", "0", "1e5", "--grid-points", "8"]),
    ("entropy_ln_missed_b1000", ["entropy", "lognormal", "1.066357757671799", "0.05",
                                 "--base", "1000"]),
    ("entropy_ln_inaccurate_b1000", ["entropy", "lognormal", "-0.2659741224283465", "0.05",
                                     "--base", "1000"]),
]

# human-format streams: every records call but the density ones, the
# digit table, and wrap and entropy for two densities in two bases
_HUMAN_DENSITY = {
    f"{verb}_{tag}_b{b}"
    for verb in ("wrap", "entropy")
    for tag in ("ln_medium", "mix2")
    for b in (10, 1000)
}
HUMAN_CALLS = GOLDEN_CALLS + [
    (f"digits_b{_b}", ["digits", "--base", str(_b)]) for _b in (2, 10, 1000)
]
HUMAN_CALLS += [call for call in DENSITY_CALLS if call[0] in _HUMAN_DENSITY]


RATIO_BASES = (3, 10, 16, 1000)
RATIO_EXPONENTS = range(-40, 41)
RATIO_ULPS = 4


def ratio_corpus(b: int) -> list[float]:
    """float(b)**k, the correctly rounded b**k, and their neighbours."""
    out: set[float] = set()
    for k in RATIO_EXPONENTS:
        for x in (float(b) ** k, float(Fraction(b) ** k)):
            for direction in (0.0, math.inf):
                y = x
                for _ in range(RATIO_ULPS + 1):
                    out.add(y)
                    y = math.nextafter(y, direction)
    return sorted(out)


def ratio_rejections() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for b in RATIO_BASES:
        rejected = []
        for x in ratio_corpus(b):
            try:
                gen_sequence("geometric", 1, Base(b), ratio=x)
            except UnsupportedRatio:
                rejected.append(x.hex())
        out[str(b)] = rejected
    return out


BOUNDARY_DIGITS = {3: (1, 2), 10: tuple(range(1, 10)),
                   1000: (1, 2, 3, 5, 9, 10, 99, 100, 101, 500, 998, 999)}
BOUNDARY_STRIDES = {3: 20, 10: 12, 1000: 4}  # every n-th exponent k
BOUNDARY_ULPS = 2


def boundary_values() -> list[float]:
    """d * b**k correctly rounded and its neighbours up to BOUNDARY_ULPS
    ulps away, over the whole double range, in each base of
    BOUNDARY_DIGITS; plus subnormals and the neighbours of DBL_MIN and
    DBL_MAX."""
    out: set[float] = set()
    for b, digits in BOUNDARY_DIGITS.items():
        kmin = math.floor(math.log(5e-324) / math.log(b)) - 1
        kmax = math.ceil(math.log(sys.float_info.max) / math.log(b)) + 1
        for k in range(kmin, kmax + 1, BOUNDARY_STRIDES[b]):
            for d in digits:
                try:
                    x = float(d * Fraction(b) ** k)
                except OverflowError:
                    continue
                for direction in (0.0, math.inf):
                    y = x
                    for _ in range(BOUNDARY_ULPS + 1):
                        if 0.0 < y < math.inf:
                            out.add(y)
                        y = math.nextafter(y, direction)
    tiny, dbl_min, dbl_max = 5e-324, sys.float_info.min, sys.float_info.max
    out.update([tiny, 2 * tiny, 3 * tiny, 1000 * tiny, dbl_min, dbl_max,
                math.nextafter(dbl_min, 0.0), math.nextafter(dbl_min, 1.0),
                math.nextafter(dbl_max, 0.0)])
    return sorted(out)


def write_inputs(n: int = 3000, seed: int = 20261018) -> None:
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(-8.0, 8.0, n) + 2.0 * rng.standard_normal(n))
    cells = [repr(v) for v in values.tolist()]
    for j in rng.choice(n, 60, replace=False):
        cells[j] = repr(-float(values[j]))
    csv_junk = ("nan", "inf", "-inf", "", "oops", "0", "-0.0")
    json_junk = ("NaN", "Infinity", '""', '"oops"', "null", "true", "[1]", '"2.5e3"', "0")
    csv_cells, json_cells = list(cells), list(cells)
    for t, j in enumerate(rng.choice(n, 40, replace=False)):
        csv_cells[j] = csv_junk[t % len(csv_junk)]
        json_cells[j] = json_junk[t % len(json_junk)]
    (GOLDEN / "fit.csv").write_text(
        "id,amount\n" + "".join(f"{i},{c}\n" for i, c in enumerate(csv_cells)),
        encoding="utf-8",
    )
    (GOLDEN / "fit.jsonl").write_text(
        "".join(f'{{"id": {i}, "amount": {c}}}\n' for i, c in enumerate(json_cells))
        + "not json\n",
        encoding="utf-8",
    )
    (GOLDEN / "boundary.csv").write_text(
        "id,amount\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(boundary_values())),
        encoding="utf-8",
    )


def run(argv: list[str], fmt: str = "records") -> tuple[int, str]:
    """Exit code and ``--format fmt`` stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv + ["--format", fmt])
    return code, out.getvalue()


def output(argv: list[str], fmt: str = "records") -> str:
    """``--format fmt`` stdout of one CLI call that must exit 0."""
    code, out = run(argv, fmt)
    if code != 0:
        raise SystemExit(f"{argv}: exit {code}")
    return out


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    write_inputs()
    (GOLDEN / "ratio_rejections.json").write_text(
        json.dumps(ratio_rejections(), indent=0) + "\n", encoding="utf-8"
    )
    os.chdir(GOLDEN)
    for name, argv in GOLDEN_CALLS:
        (GOLDEN / f"{name}.records").write_text(output(argv), encoding="utf-8")
    for name, argv in HUMAN_CALLS:
        (GOLDEN / f"{name}.human").write_text(output(argv, "human"), encoding="utf-8")
    codes = {}
    for name, argv in DENSITY_CALLS:
        codes[name], out = run(argv)
        (GOLDEN / f"{name}.records").write_text(out, encoding="utf-8")
    (GOLDEN / "density_exit_codes.json").write_text(
        json.dumps(codes, indent=0) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
