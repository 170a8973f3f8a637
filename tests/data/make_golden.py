"""Write the byte-identity corpus checked by tests/test_golden.py.

    PYTHONPATH=src python tests/data/make_golden.py

Writes two small seeded input files (CSV and JSONL, with negatives and
junk cells), the ``--format records`` output of every call in
``GOLDEN_CALLS`` and ``DENSITY_CALLS``, the exit codes of the density
calls (``density_exit_codes.json``), and which ratios near powers of the
base the geometric generator rejects (``ratio_rejections.json``), into
``tests/data/golden/``.  Density streams are compared with tolerances
(see tests/test_golden.py), the others byte for byte.
Rerun it only when a change to these outputs is intended; the tests exist
to catch unintended ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
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
# numeric failures (exit 4): a scale past the truncation cap, and a narrow
# peak the initial quadrature panels miss; and a narrow peak whose entropy
# is inaccurate although it exits 0 (ROADMAP: quadrature defects)
DENSITY_CALLS += [
    ("wrap_ln_huge_b10", ["wrap", "lognormal", "0", "1e5", "--grid-points", "8"]),
    ("entropy_ln_missed_b1000", ["entropy", "lognormal", "1.066357757671799", "0.05",
                                 "--base", "1000"]),
    ("entropy_ln_inaccurate_b1000", ["entropy", "lognormal", "-0.2659741224283465", "0.05",
                                     "--base", "1000"]),
]


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


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and ``--format records`` stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv + ["--format", "records"])
    return code, out.getvalue()


def records(argv: list[str]) -> str:
    code, out = run(argv)
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
        (GOLDEN / f"{name}.records").write_text(records(argv), encoding="utf-8")
    codes = {}
    for name, argv in DENSITY_CALLS:
        codes[name], out = run(argv)
        (GOLDEN / f"{name}.records").write_text(out, encoding="utf-8")
    (GOLDEN / "density_exit_codes.json").write_text(
        json.dumps(codes, indent=0) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
