"""Seeded inputs and expected outputs for the three benchmark workloads.

Run as a script in its own process, before anything is timed:

    python3 bench/workloads.py <fit|sequence|density> <seed> <outdir> [--quick]

It writes the input files into ``outdir`` and ``outdir/plan.json``: the
CLI argv of every call, the call's item count, and the expected records
computed by the oracles.  Keeping generation out of the workload process
keeps its memory out of the workload's peak RSS.

Why these workloads (each stresses modules the others leave idle):

- ``fit``: the analyst's path and the only one that reads files.  Ingest
  (``cli``) and the analysis pipeline (``conformance``, ``significand``)
  do nearly all the work.  File sizes span 10^3 to 10^5.5 rows, so both
  per-call overhead and per-row cost show.  One boundary-corpus call per
  base holds exact powers of b, d*b^k and their neighbours, subnormals
  and values near DBL_MAX.
- ``sequence``: the same ``conformance`` analysis fed by the generators
  instead of a file, so a generator or ingest gain can be told apart from
  an analysis gain.
- ``density``: ``wrap``, ``entropy`` and ``digits``; exercises
  ``wrapping``, ``_quadrature``, ``entropy`` and ``nb_core`` and never
  touches ingest or ``conformance``.  Large s in base 2 needs the most
  series terms and makes the tail.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

DBL_MAX = sys.float_info.max
DBL_TRUE_MIN = 5e-324
RECORDS = ["--format", "records"]


# --------------------------------------------------------------------------
# fit
# --------------------------------------------------------------------------

# log10 of the data file sizes: many small files, few large ones.  The
# largest is 10^5.5 rows, not 10^6: a pass must stay near 4 s so that a
# 30 s run repeats every call about seven times (see run.py on host noise).
FIT_LOG_SIZES = (
    [3.0 + 0.05 * i for i in range(12)]
    + [3.5 + 0.05 * i for i in range(10)]
    + [4.0 + 0.1 * i for i in range(5)]
    + [4.5, 5.0, 5.5]
)
BOUNDARY_BASES = (2, 10, 16, 1000)
NEGATIVE_SHARE = 0.01
JUNK_SHARE = 0.005
CSV_JUNK = ("nan", "inf", "-inf", "", "oops")
JSONL_JUNK = ("NaN", "Infinity", "-Infinity", '""', '"oops"', "null")


def _fit_file_layout(i: int, n: int) -> tuple[str, int]:
    """Format and base of data file i: one in five JSONL; mostly base 10."""
    fmt = "jsonl" if i % 5 == 2 else "csv"
    if i % 3 == 0 and n >= 10_000:  # base 1000 needs >= 4995 rows for chi-square
        base = 1000
    elif i % 4 == 2:
        base = 16
    else:
        base = 10
    return fmt, base


def _exact_digits(values: np.ndarray, b: int) -> np.ndarray:
    return np.fromiter((oracles.exact_digit(v, b) for v in values.tolist()),
                       dtype=np.int64, count=len(values))


def _fit_call(path: Path, fmt: str, base: int, rows: int, expect: dict) -> dict:
    argv = ["fit", str(path), "--column", "amount", "--input-format", fmt,
            "--base", str(base)] + RECORDS
    return {
        "argv": argv,
        "items": rows,
        "label": f"fit {fmt} b{base} n{rows}",
        "expect": {
            "command": "fit",
            "base": base,
            "params": {"base": str(base), "input": str(path), "input_format": fmt,
                       "column": "amount", "absolute_value": "false"},
            "conformance": expect,
        },
    }


def _data_file(rng: np.random.Generator, path: Path, n: int, fmt: str, base: int) -> dict:
    M = rng.uniform(-15.0, 15.0)
    s = rng.uniform(0.3, 4.0)
    values = np.exp(M + s * rng.standard_normal(n))
    n_neg = round(NEGATIVE_SHARE * n)
    n_junk = max(1, round(JUNK_SHARE * n))
    perm = rng.permutation(n)
    neg, junk = perm[:n_neg], perm[n_neg:n_neg + n_junk]
    cells = [repr(v) for v in values.tolist()]
    for j in neg:
        cells[j] = repr(-float(values[j]))
    tokens = CSV_JUNK if fmt == "csv" else JSONL_JUNK
    for t, j in enumerate(junk):
        cells[j] = tokens[t % len(tokens)]
    if fmt == "csv":
        text = "id,amount\n" + "".join(f"{i},{c}\n" for i, c in enumerate(cells))
    else:
        text = "".join(f'{{"id": {i}, "amount": {c}}}\n' for i, c in enumerate(cells))
    path.write_text(text, encoding="utf-8")
    keep = np.ones(n, dtype=bool)
    keep[neg] = False
    keep[junk] = False
    good = values[keep]
    digits = _exact_digits(good, base)
    u = np.log(good) / math.log(base)
    u = oracles.clip_to_digits(u - np.floor(u), digits, base)
    counts = np.bincount(digits, minlength=base)[1:]
    return oracles.conformance_expect(counts, u, base, n_neg, n_junk)


def boundary_values(b: int, target: int = 6000) -> list[float]:
    """Exact powers of b, d*b^k and their float neighbours over the whole
    double range, subnormals, and values near DBL_MAX."""
    fb = Fraction(b)
    kmin = math.floor(math.log(DBL_TRUE_MIN) / math.log(b)) - 1
    kmax = math.ceil(math.log(DBL_MAX) / math.log(b)) + 1
    digits = list(range(1, b)) if b <= 16 else [1, 2, 3, 5, 9, 10, 99, 100, 101, 500, 998, 999]
    ks = list(range(kmin, kmax + 1))
    stride = max(1, round(len(ks) * len(digits) * 3 / target))
    ks = sorted(set(ks[::stride]) | set(ks[:3]) | set(ks[-3:]) | {-1, 0, 1})
    out: set[float] = set()
    for k in ks:
        for d in digits:
            try:
                x = float(d * fb**k)
            except OverflowError:
                continue
            for v in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)):
                if 0.0 < v <= DBL_MAX:
                    out.add(v)
    min_normal = sys.float_info.min
    specials = [DBL_TRUE_MIN, 2 * DBL_TRUE_MIN, 3 * DBL_TRUE_MIN, 1000 * DBL_TRUE_MIN,
                min_normal, math.nextafter(min_normal, 0.0), math.nextafter(min_normal, 1.0),
                DBL_MAX, math.nextafter(DBL_MAX, 0.0), DBL_MAX / 2, DBL_MAX / b]
    out.update(specials)
    return sorted(out)


def _boundary_file(rng: np.random.Generator, path: Path, b: int) -> tuple[int, dict]:
    values = boundary_values(b)
    order = rng.permutation(len(values))
    vals = [values[j] for j in order]
    path.write_text("id,amount\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(vals)),
                    encoding="utf-8")
    arr = np.array(vals)
    digits = _exact_digits(arr, b)
    u = np.array([oracles.exact_u(v, b) for v in vals])
    counts = np.bincount(digits, minlength=b)[1:]
    return len(vals), oracles.conformance_expect(counts, u, b, 0, 0)


def fit_plan(rng: np.random.Generator, outdir: Path, quick: bool) -> list[dict]:
    calls = []
    sizes = [round(10**e) for e in FIT_LOG_SIZES]
    if quick:
        sizes = [1000, 2000, 12_000]
    for i, n in enumerate(sizes):
        fmt, base = _fit_file_layout(i, n)
        path = outdir / f"data{i:02d}.{fmt}"
        calls.append(_fit_call(path, fmt, base, n, _data_file(rng, path, n, fmt, base)))
    for b in BOUNDARY_BASES:
        path = outdir / f"boundary_b{b}.csv"
        rows, expect = _boundary_file(rng, path, b)
        call = _fit_call(path, "csv", b, rows, expect)
        call["label"] = f"fit boundary b{b} n{rows}"
        calls.append(call)
    return calls


# --------------------------------------------------------------------------
# sequence
# --------------------------------------------------------------------------

# (kind, n, ratio, bases).  pow2 runs at 3 * 10^5 terms, not 10^6, and
# each 10^5-term kind in one base, so a pass stays near 4 s and a 30 s run
# repeats every call about seven times (see run.py on host noise).
SEQUENCE_CALLS = (
    ("pow2", 300_000, None, (10,)),
    ("fibonacci", 100_000, None, (16,)),
    ("factorial", 10_000, None, (10, 16, 1000)),
    ("geometric", 100_000, 1.1, (1000,)),
    ("geometric", 100_000, 3.0 ** (1.0 / 7.0), (10,)),
)
SEQUENCE_SAMPLE = 200  # terms per call re-derived in Decimal


def sequence_plan(rng: np.random.Generator, outdir: Path, quick: bool) -> list[dict]:
    calls = []
    for kind, n, ratio, bases in SEQUENCE_CALLS:
        if quick:
            n = min(n, 5000)
        for b in bases:
            oracle = oracles.SequenceOracle(kind, n, b, ratio)
            digits, u = oracle.digits(rng.choice(n, size=min(n, SEQUENCE_SAMPLE), replace=False))
            counts = np.bincount(digits, minlength=b)[1:]
            argv = ["sequence", kind, "--n", str(n), "--base", str(b)]
            params = {"base": str(b), "kind": kind, "n": str(n)}
            if ratio is not None:
                argv += ["--ratio", repr(ratio)]
                params["ratio"] = repr(ratio)
            calls.append({
                "argv": argv + RECORDS,
                "items": n,
                "label": f"sequence {kind} b{b} n{n}" + (f" r{ratio:.6g}" if ratio else ""),
                "expect": {
                    "command": "sequence",
                    "base": b,
                    "params": params,
                    "conformance": oracles.conformance_expect(counts, u, b, 0, 0),
                },
            })
    return calls


# --------------------------------------------------------------------------
# density
# --------------------------------------------------------------------------

DENSITY_BASES = (2, 10, 16, 1000)
S_GRID = np.geomspace(0.05, 6.0, 16)
MIXTURES_PER_BASE = 8
GRID_POINTS = 256
DISTANCE_GRID = 2048  # the CLI's sup/TV grid


def _density_call(verb: str, dist: list[str], b: int, comps, items: int) -> dict:
    argv = [verb] + dist + ["--base", str(b)]
    params = {"base": str(b), "tol": "1e-09", "dist": " ".join(dist)}
    exp = {"command": verb, "base": b, "params": params}
    if verb == "wrap":
        argv += ["--grid-points", str(GRID_POINTS)]
        params["grid_points"] = str(GRID_POINTS)
        exp["wrap"] = oracles.wrap_expect(comps, b, GRID_POINTS, DISTANCE_GRID)
    else:
        exp["entropy"] = oracles.entropy_expect(dist[0], comps, b)
    return {"argv": argv + RECORDS, "items": items,
            "label": f"{verb} {dist[0]} b{b}", "expect": exp}


def _mixture(rng: np.random.Generator, j: int) -> list[tuple[float, float, float]]:
    n = 2 + j % 2
    w = rng.dirichlet(np.ones(n)).tolist()
    w[-1] = 1.0 - math.fsum(w[:-1])
    picks = [(3 * j + 5 * c) % len(S_GRID) for c in range(n)]
    return [(w[c], float(rng.uniform(-5.0, 5.0)), float(S_GRID[picks[c]])) for c in range(n)]


def density_plan(rng: np.random.Generator, outdir: Path, quick: bool) -> list[dict]:
    calls = []
    s_grid = S_GRID[::5] if quick else S_GRID
    for b in DENSITY_BASES:
        for s in s_grid:
            for verb in ("wrap", "entropy"):
                M = float(rng.uniform(-5.0, 5.0))
                comps = [(1.0, M, float(s))]
                items = GRID_POINTS if verb == "wrap" else 1
                calls.append(_density_call(verb, ["lognormal", repr(M), repr(float(s))],
                                           b, comps, items))
        for j in range(2 if quick else MIXTURES_PER_BASE):
            for verb in ("wrap", "entropy"):
                comps = _mixture(rng, j)
                dist = ["mixture"] + [repr(v) for c in comps for v in c]
                items = GRID_POINTS if verb == "wrap" else 1
                calls.append(_density_call(verb, dist, b, comps, items))
        for kind in ("nb", "uniform"):
            calls.append(_density_call("entropy", [kind], b, None, 1))
        calls.append({
            "argv": ["digits", "--base", str(b)] + RECORDS,
            "items": b - 1,
            "label": f"digits b{b}",
            "expect": {"command": "digits", "base": b, "params": {"base": str(b)}},
        })
    return calls


PLANS = {"fit": fit_plan, "sequence": sequence_plan, "density": density_plan}


def generate(workload: str, seed: int, outdir: Path, quick: bool) -> dict:
    """Write the inputs and return the plan: calls in their seeded order."""
    rng = np.random.default_rng([seed, sorted(PLANS).index(workload)])
    calls = PLANS[workload](rng, outdir, quick)
    order = rng.permutation(len(calls)).tolist()
    calls = [calls[j] for j in order]
    warmup = min(range(len(calls)), key=lambda j: (calls[j]["items"], j))
    return {"workload": workload, "seed": seed, "quick": quick, "warmup": warmup,
            "calls": calls}


def main(argv: list[str]) -> int:
    workload, seed, outdir = argv[0], int(argv[1]), Path(argv[2])
    quick = "--quick" in argv[3:]
    plan = generate(workload, seed, outdir, quick)
    (outdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
