"""Span tracing installed from outside the package.

``Tracer.install`` re-binds selected ``benford`` functions, in every
``benford`` module namespace that holds them, to wrappers that record
timings; ``Tracer.uninstall`` puts the originals back.  Nothing inside
``src/benford`` is changed.

Coarse functions get one span per call (name, parent, CLI call id, start,
end).  Per-element functions, called once per value or per quadrature
node, only add a count and a time to the innermost open span, so memory
stays bounded by the number of coarse calls.  A span's self time is its
duration minus its child spans and its outermost per-element calls.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    call: int
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    # per-element aggregates: name -> [count, seconds]
    elements: dict[str, list] = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


# Extra counters read from a call's arguments and result; each returns a
# {counter: amount} dict added to the tracer's counters.
Extra = Callable[[tuple, object], dict]


def _rows(args, result) -> dict:
    return {"cli.read_values.rows": len(result)}


def _analyze_sizes(args, result) -> dict:
    return {
        "conformance.analyze.values": len(args[0]),
        "conformance.analyze.usable": result.histogram.total,
    }


def _series_terms(args, result) -> dict:
    return {"wrapping.series_terms": 2 * args[4] + 1}  # _wl_pdf_at(x, m, s, L, K)


# (module, function, per-element?, span/element name, extra counters)
TRACED: tuple[tuple[str, str, bool, str, Extra | None], ...] = (
    ("cli", "build_parser", False, "cli.build_parser", None),
    ("cli", "_read_values", False, "cli.read_values", _rows),
    ("cli", "emit_records", False, "cli.emit", None),
    ("cli", "_grid_distance", False, "wrapping.distance", None),
    ("conformance", "analyze", False, "conformance.analyze", _analyze_sizes),
    ("conformance", "_split_usable", False, "conformance.split_usable", None),
    ("conformance", "digit_histogram", False, "conformance.digit_histogram", None),
    ("conformance", "ks_uniform", False, "conformance.ks_uniform", None),
    ("conformance", "chi_square", False, "conformance.chi_square", None),
    ("conformance", "tv_to_nb", False, "conformance.tv_to_nb", None),
    ("conformance", "gen_sequence", False, "conformance.gen_sequence", None),
    ("significand", "decompose", True, "significand.decompose", None),
    ("significand", "first_digit", True, "significand.first_digit", None),
    ("significand", "log_map", True, "significand.log_map", None),
    ("nb_core", "nb_pdf", True, "nb_core.nb_pdf", None),
    ("nb_core", "first_digit_prob", True, "nb_core.first_digit_prob", None),
    ("wrapping", "distance_to_nb", False, "wrapping.distance", None),
    ("wrapping", "wrapped_lognormal_pdf", True, "wrapping.wrapped_lognormal_pdf", None),
    ("wrapping", "wrap_mixture_pdf", True, "wrapping.wrap_mixture_pdf", None),
    ("wrapping", "_lognormal_trunc", True, "wrapping.trunc", None),
    ("wrapping", "_wl_pdf_at", True, "wrapping.wl_pdf_at", _series_terms),
    ("_quadrature", "integrate", False, "quadrature.integrate", None),
    ("_quadrature", "_panel", True, "quadrature.panel", None),
    ("entropy", "analyze_entropy", False, "entropy.analyze_entropy", None),
    ("_special", "chi2_sf", False, "special.chi2_sf", None),
)


class Tracer:
    """Collects spans and per-element counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._element_depth = 0
        self._call = 0
        self._scales: dict[int, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _count(self, extra: Extra, args, result) -> None:
        for k, v in extra(args, result).items():
            self.counters[k] = self.counters.get(k, 0) + v

    def span(self, name: str, fn: Callable, extra: Extra | None = None) -> Callable:
        stack = self._stack

        def wrapper(*args, **kwargs):
            rec = Span(name, self._call, stack[-1] if stack else None)
            stack.append(rec)
            rec.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = perf_counter()
                stack.pop()
                self.spans.append(rec)
                if rec.parent is not None:
                    rec.parent.child_time += rec.end - rec.start
            if extra is not None:
                self._count(extra, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def element(self, name: str, fn: Callable, extra: Extra | None = None) -> Callable:
        stack = self._stack

        def wrapper(*args, **kwargs):
            self._element_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._element_depth -= 1
                if stack:
                    top = stack[-1]
                    agg = top.elements.get(name)
                    if agg is None:
                        agg = top.elements[name] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += dt
                    if self._element_depth == 0:
                        top.child_time += dt
            if extra is not None:
                self._count(extra, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn: Callable, *args):
        """Run one CLI call as a root span with a fresh call id."""
        self._call += 1
        return self.span(name, fn)(*args)

    def scale_last_call(self, factor: float) -> None:
        """Scale the last call's times by ``factor`` in ``totals`` (host-speed correction)."""
        self._scales[self._call] = factor

    # -- installation ------------------------------------------------------

    def _rebind(self, original: object, wrapper: object) -> int:
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "benford" or modname.startswith("benford.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    n += 1
        return n

    def install(self) -> None:
        """Wrap every function in TRACED; absent ones are listed in ``missing``."""
        for modname, fname, per_element, name, extra in TRACED:
            mod = sys.modules.get(f"benford.{modname}")
            original = getattr(mod, fname, None) if mod is not None else None
            if original is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            make = self.element if per_element else self.span
            self._rebind(original, make(name, original, extra))
        cli = sys.modules["benford.cli"]
        handlers = getattr(cli, "_HANDLERS", {})
        for verb, fn in list(handlers.items()):
            self._patches.append((handlers, verb, fn))
            handlers[verb] = self.span("cli.handler", fn)
        # parse_args is a method of the parser that build_parser returns
        build = cli.build_parser

        def build_traced():
            parser = build()
            parser.parse_args = self.span("cli.parse_args", parser.parse_args)
            return parser

        self._rebind(build, build_traced)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span or element name: calls, inclusive and self seconds, each
        call's times scaled by its ``scale_last_call`` factor.

        Per-element functions have no spans of their own, so their self
        time is not known and reads 0.
        """
        out: dict[str, dict[str, float]] = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})

        for sp in self.spans:
            k = self._scales.get(sp.call, 1.0)
            t = entry(sp.name)
            t["calls"] += 1
            t["time_s"] += k * (sp.end - sp.start)
            t["self_s"] += k * sp.self_time
            for ename, (count, secs) in sp.elements.items():
                e = entry(ename)
                e["calls"] += count
                e["time_s"] += k * secs
        return out

    def dump_spans(self) -> list[dict]:
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        return [
            {
                "id": i,
                "name": sp.name,
                "call": sp.call,
                "scale": self._scales.get(sp.call, 1.0),
                "parent": index.get(id(sp.parent)) if sp.parent is not None else None,
                "start": sp.start,
                "end": sp.end,
                "self_s": sp.self_time,
                "elements": {k: {"calls": c, "time_s": t} for k, (c, t) in sp.elements.items()},
            }
            for i, sp in enumerate(self.spans)
        ]
