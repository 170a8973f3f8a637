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
import json
import math
import sys
from typing import Sequence

import numpy as np

from .conformance import ConformanceReport, SEQUENCE_KINDS, analyze, gen_sequence
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
from .nb_core import NBDistribution, first_digit_prob, nb_pdf
from .significand import Base
from .wrapping import (
    LogNormalParams,
    MixtureParams,
    distance_to_nb,
    wrap_mixture_pdf,
    wrapped_lognormal_pdf,
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


def emit_records(records: Sequence[tuple]) -> str:
    """Render records as the line-oriented stream, one record per line."""
    return "".join(" ".join(_fmt(v) for v in rec) + "\n" for rec in records)


def parse_records(text: str) -> list[tuple]:
    """Parse a record stream back into typed tuples.

    Inverse of emit_records: re-emitting the parse reproduces the input
    byte for byte.
    """
    out: list[tuple] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
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
            if kind == "int":
                rec.append(int(tok))
            elif kind == "float":
                rec.append(float(tok))
            elif kind == "bool":
                if tok not in ("true", "false"):
                    raise DomainError(f"line {lineno}: bad boolean {tok!r}")
                rec.append(tok == "true")
            else:
                rec.append(tok)
        out.append(tuple(rec))
    return out


_TABLE_HEADERS = {
    "digit": ("digit", "probability"),
    "bin": ("digit", "count", "frequency", "nb_prob"),
    "row": ("x", "wrapped_pdf", "nb_pdf", "difference"),
}


def _render_human(records: Sequence[tuple]) -> str:
    lines: list[str] = []
    last_table = None
    for rec in records:
        name = rec[0]
        if name == "schema":
            continue
        if name in _TABLE_HEADERS:
            if last_table != name:
                lines.append("  ".join(f"{h:>16}" for h in _TABLE_HEADERS[name]))
                last_table = name
            cells = []
            for v in rec[1:]:
                if isinstance(v, float):
                    cells.append(f"{v:>16.12f}")
                else:
                    cells.append(f"{v:>16}")
            lines.append("  ".join(cells))
            continue
        last_table = None
        if name == "command":
            lines.append(f"command: {rec[1]}")
        elif name == "param":
            lines.append(f"  {rec[1]} = {rec[2]}")
        elif name == "digit_sum":
            lines.append(f"{'sum':>16}  {rec[1]:>16.12f}")
        else:
            lines.append(f"{name} = {_fmt(rec[1])}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# ingestion
# --------------------------------------------------------------------------


def _read_csv(path: str, column: str) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyData(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if column in header:
            idx = header.index(column)
        else:
            try:
                idx = int(column)
            except ValueError:
                raise IngestError(f"{path}: no column named {column!r}") from None
            if not 0 <= idx < len(header):
                raise IngestError(
                    f"{path}: column index {idx} out of range (file has "
                    f"{len(header)} columns)"
                )
        values: list[float] = []
        for row in reader:
            cell = row[idx].strip() if idx < len(row) else ""
            try:
                values.append(float(cell))
            except ValueError:
                values.append(math.nan)  # unparseable cells skip as nonfinite
    return values


def _read_jsonl(path: str, column: str) -> list[float]:
    values: list[float] = []
    seen = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                values.append(math.nan)
                continue
            v = obj.get(column) if isinstance(obj, dict) else None
            if v is None:
                values.append(math.nan)
                continue
            seen = True
            if isinstance(v, bool):
                values.append(math.nan)
            elif isinstance(v, (int, float)):
                values.append(float(v))
            elif isinstance(v, str):
                try:
                    values.append(float(v))
                except ValueError:
                    values.append(math.nan)
            else:
                values.append(math.nan)
    if values and not seen:
        raise IngestError(f"{path}: no field named {column!r} in any record")
    return values


def _read_values(args) -> list[float]:
    if args.input_format == "csv":
        values = _read_csv(args.path, args.column)
    else:
        values = _read_jsonl(args.path, args.column)
    if args.absolute_value:
        values = [abs(v) for v in values]
    return values


# --------------------------------------------------------------------------
# distribution specs shared by wrap and entropy
# --------------------------------------------------------------------------


def _parse_floats(tokens: Sequence[str], what: str) -> list[float]:
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise DomainError(f"{what}: expected numbers, got {list(tokens)!r}") from None


def _parse_dist(tokens: Sequence[str], allow: tuple[str, ...]):
    """Parse ``nb | uniform | lognormal M s | mixture w M s [w M s ...]``."""
    if not tokens:
        raise DomainError(f"missing distribution spec; expected one of {allow}")
    kind = tokens[0]
    if kind not in allow:
        raise DomainError(f"unsupported distribution {kind!r}; expected one of {allow}")
    rest = tokens[1:]
    if kind in ("nb", "uniform"):
        if rest:
            raise DomainError(f"{kind} takes no parameters, got {list(rest)!r}")
        return kind, None
    if kind == "lognormal":
        if len(rest) != 2:
            raise DomainError("lognormal needs exactly: M s")
        m, s = _parse_floats(rest, "lognormal")
        return kind, LogNormalParams(m, s)
    # mixture: weight/location/scale triples
    if not rest or len(rest) % 3 != 0:
        raise DomainError("mixture needs weight M s triples")
    vals = _parse_floats(rest, "mixture")
    comps = tuple(
        (vals[i], LogNormalParams(vals[i + 1], vals[i + 2]))
        for i in range(0, len(vals), 3)
    )
    return kind, MixtureParams(comps)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _conformance_records(report: ConformanceReport, base: Base) -> list[tuple]:
    dist = NBDistribution(base)
    hist = report.histogram
    recs: list[tuple] = [
        ("total", hist.total),
        ("skipped_nonpositive", report.n_skipped_nonpositive),
        ("skipped_nonfinite", report.n_skipped_nonfinite),
    ]
    for d, count in enumerate(hist.counts, start=1):
        recs.append(("bin", d, count, count / hist.total, first_digit_prob(d, dist)))
    recs.extend(
        [
            ("chi_square", report.chi_square),
            ("chi_square_pvalue", report.chi_square_pvalue),
            ("ks_stat", report.ks_stat),
            ("tv_distance", report.tv_distance),
        ]
    )
    return recs


def _cmd_digits(args) -> list[tuple]:
    base = Base(args.base)
    dist = NBDistribution(base)
    recs: list[tuple] = [
        ("schema", SCHEMA_VERSION),
        ("command", "digits"),
        ("param", "base", str(args.base)),
    ]
    probs = [first_digit_prob(d, dist) for d in range(1, base.b)]
    for d, p in enumerate(probs, start=1):
        recs.append(("digit", d, p))
    recs.append(("digit_sum", math.fsum(probs)))
    return recs


def _cmd_fit(args) -> list[tuple]:
    base = Base(args.base)
    values = _read_values(args)
    report = analyze(values, base)
    recs: list[tuple] = [
        ("schema", SCHEMA_VERSION),
        ("command", "fit"),
        ("param", "base", str(args.base)),
        ("param", "input", args.path),
        ("param", "input_format", args.input_format),
        ("param", "column", str(args.column)),
        ("param", "absolute_value", "true" if args.absolute_value else "false"),
    ]
    recs.extend(_conformance_records(report, base))
    return recs


def _cmd_wrap(args) -> list[tuple]:
    base = Base(args.base)
    if args.grid_points < 1:
        raise DomainError(f"grid points must be >= 1, got {args.grid_points}")
    kind, params = _parse_dist(args.dist, ("lognormal", "mixture"))
    pdf = wrapped_lognormal_pdf if kind == "lognormal" else wrap_mixture_pdf
    sup, tv = distance_to_nb(params, base, args.tol)
    recs: list[tuple] = [
        ("schema", SCHEMA_VERSION),
        ("command", "wrap"),
        ("param", "base", str(args.base)),
        ("param", "tol", str(args.tol)),
        ("param", "grid_points", str(args.grid_points)),
        ("param", "dist", " ".join(args.dist)),
    ]
    n = args.grid_points
    b = float(base.b)
    # Python's pow, not numpy's, which differs from it in the last ulp
    x = np.array([b ** ((i + 0.5) / n) for i in range(n)])
    w = pdf(x, params, base, args.tol)
    r = nb_pdf(x, NBDistribution(base))
    recs.extend(
        ("row", *row) for row in zip(x.tolist(), w.tolist(), r.tolist(), (w - r).tolist())
    )
    recs.append(("sup_distance", sup))
    recs.append(("tv_distance", tv))
    return recs


def _cmd_entropy(args) -> list[tuple]:
    base = Base(args.base)
    kind, params = _parse_dist(args.dist, ("nb", "uniform", "lognormal", "mixture"))
    dist = NBDistribution(base)
    if kind == "nb":
        pdf = lambda x: nb_pdf(x, dist)
    elif kind == "uniform":
        height = 1.0 / (base.b - 1)
        pdf = lambda x: height
    elif kind == "lognormal":
        pdf = lambda x: wrapped_lognormal_pdf(x, params, base, args.tol)
    else:
        pdf = lambda x: wrap_mixture_pdf(x, params, base, args.tol)
    report = analyze_entropy(pdf, base)
    return [
        ("schema", SCHEMA_VERSION),
        ("command", "entropy"),
        ("param", "base", str(args.base)),
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
    sig = gen_sequence(args.kind, args.n, base, ratio=args.ratio)
    report = analyze(sig, base)
    recs: list[tuple] = [
        ("schema", SCHEMA_VERSION),
        ("command", "sequence"),
        ("param", "base", str(args.base)),
        ("param", "kind", args.kind),
        ("param", "n", str(args.n)),
    ]
    if args.ratio is not None:
        recs.append(("param", "ratio", str(args.ratio)))
    recs.extend(_conformance_records(report, base))
    return recs


# --------------------------------------------------------------------------
# parser and dispatch
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benford",
        description="First-digit statistics in arbitrary base: digit tables, "
        "dataset conformance, wrapped densities, and entropy reports.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--base", type=int, default=10, help="radix, default 10")
    common.add_argument(
        "--tol", type=float, default=1e-9, help="series/quadrature tolerance"
    )
    common.add_argument(
        "--seed", type=int, default=0, help="seed for sampling-based inputs"
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
    wrap.add_argument("--grid-points", type=int, default=256, dest="grid_points")

    ent = sub.add_parser(
        "entropy", parents=[common], help="entropy report for a significand density"
    )
    ent.add_argument(
        "dist", nargs="+", help="nb | uniform | lognormal M s | mixture w M s ..."
    )

    seq = sub.add_parser(
        "sequence", parents=[common], help="conformance of a deterministic sequence"
    )
    seq.add_argument("kind", choices=SEQUENCE_KINDS)
    seq.add_argument("--n", type=int, default=10000, help="number of terms")
    seq.add_argument("--ratio", type=float, default=None, help="geometric ratio")

    return parser


_HANDLERS = {
    "digits": _cmd_digits,
    "fit": _cmd_fit,
    "wrap": _cmd_wrap,
    "entropy": _cmd_entropy,
    "sequence": _cmd_sequence,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    if args.format == "records":
        sys.stdout.write(emit_records(records))
    else:
        sys.stdout.write(_render_human(records))
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
