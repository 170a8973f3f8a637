"""End-to-end benchmark of the ``benford`` CLI.

    python3 bench/run.py --workload <fit|sequence|density> --seed N --seconds S --trace <0|1>
    python3 bench/run.py --self-check

Run from anywhere inside a checkout: paths are resolved from this file.
One caller in one process and one thread drives ``benford.cli.main(argv)``
in process as a closed loop, with stdout captured, over a seeded list of
calls (see ``workloads.py``).  Inputs and expected outputs are generated
in a separate process before timing; every call's records stream is
checked against them after the call returns, outside its timed region.

A run repeats whole passes over the call list while at least half of
another pass fits in ``--seconds`` (at least one pass), so every pass has
the same composition and per-pass figures do not depend on where the clock
stops.  Call times are rescaled by a speed probe run between calls (see
PROBE_OBJECTS) and each call is represented by its median over the passes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes one
untraced reference pass, then traced passes, and reports per-module
metrics per pass plus the trace overhead.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
full results, the environment and (traced) the spans go to
``.bench_results/``.  A call fails if it raises, exits non-zero, or its
output disagrees with the oracle; ``correct`` is false only when an output
contradicts an exact or closed-form oracle (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_SAMPLES = 3  # before the passes; one more follows each pass
# The host's speed drifts by up to 2x over tens of seconds (other tenants),
# in plain Python code as much as in the CLI.  Each call is bracketed by a
# probe that allocates PROBE_OBJECTS small objects and sums over them, as
# the CLI does per value; the call's time is rescaled to the speed at which
# the probe takes PROBE_REF_S, its uncontended time on the 2-core Xeon host
# this benchmark was built on.
PROBE_OBJECTS = 4000
PROBE_REF_S = 0.00105
TAIL_BEYOND = 10  # calls per pass that must lie beyond the tail percentile
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
import oracles  # noqa: E402
import tracing  # noqa: E402

# setup_s: a fresh interpreter imports benford and makes one warm-up call
SETUP_CODE = r"""
import contextlib, io, json, sys, time
argv = json.loads(sys.argv[1])
t0 = time.perf_counter()
import benford
from benford.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(argv)
print(repr(time.perf_counter() - t0))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def generate(workload: str, seed: int, workdir: Path, quick: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed), str(workdir)]
    if quick:
        cmd.append("--quick")
    subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, env=_child_env())
    return json.loads((workdir / "plan.json").read_text(encoding="utf-8"))


def measure_setup(argv: list[str]) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, json.dumps(argv)],
        check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env=_child_env(), cwd=str(ROOT),
    )
    return float(proc.stdout.strip().splitlines()[-1])


class _Pair:
    __slots__ = ("x", "k")

    def __init__(self, x: float, k: int):
        self.x = x
        self.k = k


def probe() -> float:
    """Seconds for the fixed probe, best of two: the host's current speed."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        pairs = [_Pair(0.5 * i, i) for i in range(PROBE_OBJECTS)]
        acc = 0.0
        for p in pairs:
            acc += p.x * p.k
        del pairs
        best = min(best, time.perf_counter() - t0)
    return best


class Runner:
    """Makes CLI calls in process and checks each against its oracle."""

    def __init__(self, cli, calls: list[dict]):
        self.cli = cli
        self.calls = calls
        # bound before tracing so the checks never show up in the trace
        self.parse = cli.parse_records
        self.emit = cli.emit_records

    def invoke(self, argv: list[str], tracer: tracing.Tracer | None = None):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.call("cli.main", self.cli.main, argv)
            except Exception as e:  # a crash is a failed call, counted below
                rc, exc = None, e
            dt = time.perf_counter() - t0
        return dt, rc, exc, out.getvalue(), err.getvalue()

    def verdict(self, call: dict, rc, exc, text: str, err: str) -> tuple[str, str]:
        """('ok' | 'crash' | 'exit' | 'inaccurate' | 'mismatch', detail)."""
        if exc is not None:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            return "crash", (f"{type(exc).__name__}: {exc} at "
                             f"{Path(where.filename).name}:{where.lineno} in {where.name}")
        if rc != 0:
            return "exit", f"exit {rc}: {err.strip()[:200]}"
        try:
            records = self.parse(text)
            if self.emit(records) != text:
                raise oracles.Mismatch("records stream does not round-trip byte for byte")
            oracles.check_records(records, call["expect"])
        except oracles.Inaccurate as e:
            return "inaccurate", str(e)
        except Exception as e:  # any other parse or oracle failure is a wrong answer
            return "mismatch", f"{type(e).__name__}: {e}"
        return "ok", ""

    def run_passes(self, budget_s: float, tracer: tracing.Tracer | None = None,
                   max_passes: int | None = None, between=None) -> dict:
        """Whole passes over the calls while another pass fits in the budget.

        ``between`` runs after each pass, outside the budget's timed calls.
        """
        outcomes = []  # (call index, wall s, reference s, status, detail)
        pass_times = []
        start = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            call_time = 0.0
            speed = probe()
            for j, call in enumerate(self.calls):
                gc.collect()
                dt, rc, exc, text, err = self.invoke(call["argv"], tracer)
                before, speed = speed, probe()
                scale = PROBE_REF_S / (0.5 * (before + speed))
                ref = dt * scale
                if tracer is not None:
                    tracer.scale_last_call(scale)
                call_time += dt
                status, detail = self.verdict(call, rc, exc, text, err)
                outcomes.append((j, dt, ref, status, detail))
            pass_times.append(call_time)
            if between is not None:
                between()
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - p0
            # start another pass if at least half of it fits
            if elapsed + last / 2 > budget_s or (max_passes and len(pass_times) >= max_passes):
                break
        return {"outcomes": outcomes, "pass_times": pass_times}


def tail_percentile(n: int) -> int:
    """Highest whole percentile of n per-call times with TAIL_BEYOND beyond it.

    Set by the workload's composition, not by how many passes fit, so it
    stays the same from run to run; never below the median.
    """
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / n)))


def nearest_rank(sorted_vals: list[float], pct: float) -> float:
    k = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[k - 1]


def failed_calls(outcomes) -> tuple[set[int], set[int]]:
    """Indices of the calls that failed in any pass, and of those that mismatched."""
    bad = {j for j, _, _, status, _ in outcomes if status != "ok"}
    wrong = {j for j, _, _, status, _ in outcomes if status == "mismatch"}
    return bad, wrong


def summarize(calls: list[dict], phase: dict) -> dict:
    """End-to-end figures from each call's median reference time over passes.

    Latency figures use calls that passed in every pass; rates charge every
    call's time, failed ones too.  Wall-clock medians are kept beside them.
    ``attempted`` and ``failed`` count distinct calls of the plan, not
    invocations, so they depend on the seed and the program only, not on
    how many passes fit in the run.
    """
    outcomes = phase["outcomes"]
    ref: dict[int, list[float]] = {}
    wall: dict[int, list[float]] = {}
    bad, wrong = failed_calls(outcomes)
    for j, dt, r, _, _ in outcomes:
        ref.setdefault(j, []).append(r)
        wall.setdefault(j, []).append(dt)
    ok = set(ref) - bad
    per_call = {j: statistics.median(v) for j, v in ref.items()}
    durations = sorted(per_call[j] for j in ok)
    pass_s = sum(per_call.values())
    pct = tail_percentile(len(durations))
    tail = nearest_rank(durations, pct) if durations else math.nan
    return {
        "attempted": len(ref),
        "ok": len(ok),
        "failed": len(bad),
        "mismatched": len(wrong),
        "invocations": len(outcomes),
        "failed_invocations": sum(1 for o in outcomes if o[3] != "ok"),
        "passes": len(phase["pass_times"]),
        "pass_times_s": phase["pass_times"],
        "pass_ref_s": pass_s,
        "pass_wall_median_s": sum(statistics.median(v) for v in wall.values()),
        "calls_per_s": len(ok) / pass_s,
        "items_per_s": sum(calls[j]["items"] for j in ok) / pass_s,
        "call_p50_s": statistics.median(durations) if durations else math.nan,
        "call_tail_s": tail,
        "tail_percentile": pct,
        "tail_calls_beyond": sum(1 for d in durations if d > tail),
        "success_frac": len(ok) / len(ref),
        "calls": {calls[j]["label"]: {"ref_s": per_call[j], "wall_s": wall[j]} for j in ref},
    }


def per_layer(tracer: tracing.Tracer, passes: int, overhead: float) -> dict:
    tot = tracer.totals()
    cnt = tracer.counters

    def secs(*names):
        return sum(tot.get(n, {}).get("time_s", 0.0) for n in names) / passes

    def calls(name):
        return tot.get(name, {}).get("calls", 0) // passes

    def ratio(num, den):
        return num / den if den else 0.0

    analyze_values = cnt.get("conformance.analyze.values", 0)
    return {
        "cli.parse_args_s": secs("cli.build_parser", "cli.parse_args"),
        "cli.read_values_s": secs("cli.read_values"),
        "cli.read_values.rows": cnt.get("cli.read_values.rows", 0) // passes,
        "cli.emit_s": secs("cli.emit"),
        "cli.self_s": sum(tot.get(n, {}).get("self_s", 0.0) for n in ("cli.main", "cli.handler"))
        / passes,
        "conformance.analyze_s": secs("conformance.analyze"),
        "conformance.split_usable_s": secs("conformance.split_usable"),
        "conformance.split_usable.calls_per_analyze": ratio(
            calls("conformance.split_usable"), calls("conformance.analyze")),
        "conformance.digit_histogram_s": secs("conformance.digit_histogram"),
        "conformance.ks_uniform_s": secs("conformance.ks_uniform"),
        "conformance.chi_square_s": secs("conformance.chi_square"),
        "conformance.values_usable_frac": ratio(cnt.get("conformance.analyze.usable", 0),
                                                analyze_values),
        "conformance.gen_sequence_s": secs("conformance.gen_sequence"),
        "significand.decompose.calls": calls("significand.decompose"),
        "significand.first_digit.calls": calls("significand.first_digit"),
        "significand.log_map.calls": calls("significand.log_map"),
        "significand.decompose_per_value": ratio(tot.get("significand.decompose", {}).get(
            "calls", 0), analyze_values),
        "nb_core.nb_pdf.calls": calls("nb_core.nb_pdf"),
        "nb_core.first_digit_prob.calls": calls("nb_core.first_digit_prob"),
        "wrapping.distance_s": secs("wrapping.distance"),
        "wrapping.wrapped_lognormal_pdf.calls": calls("wrapping.wrapped_lognormal_pdf"),
        "wrapping.wrap_mixture_pdf.calls": calls("wrapping.wrap_mixture_pdf"),
        "wrapping.trunc.calls": calls("wrapping.trunc"),
        "wrapping.trunc_per_eval": ratio(calls("wrapping.trunc"), calls("wrapping.wl_pdf_at")),
        "wrapping.series_terms": cnt.get("wrapping.series_terms", 0) // passes,
        "quadrature.integrate_s": secs("quadrature.integrate"),
        "quadrature.integrate.calls": calls("quadrature.integrate"),
        "quadrature.panels": calls("quadrature.panel"),
        "quadrature.panels_per_integrate": ratio(calls("quadrature.panel"),
                                                 calls("quadrature.integrate")),
        "entropy.analyze_entropy_s": secs("entropy.analyze_entropy"),
        "entropy.integrals_per_report": ratio(calls("quadrature.integrate"),
                                              calls("entropy.analyze_entropy")),
        "special.chi2_sf_s": secs("special.chi2_sf"),
        "trace.overhead": overhead,
    }


def environment(workload: str, seed: int, seconds: int, trace_on: bool) -> dict:
    import numpy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace_on,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cores": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
        "git_commit": commit,
    }


UNITS = {"setup_s": "s", "items_per_s": "1/ref_s", "calls_per_s": "1/ref_s",
         "call_p50_s": "ref_s", "call_tail_s": "ref_s", "peak_rss_mb": "MB",
         "success_frac": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "ref_s"
    if name.endswith((".calls", ".rows", ".panels", "series_terms")):
        return "count"
    return "ratio"


def failures(calls: list[dict], phase: dict) -> dict[str, str]:
    seen = {}
    for j, _, _, status, detail in phase["outcomes"]:
        if status != "ok":
            seen.setdefault(calls[j]["label"], f"{status}: {detail}")
    return seen


def run_workload(cli, plan: dict, seconds: int, trace_on: bool) -> tuple[dict, dict]:
    calls = plan["calls"]
    runner = Runner(cli, calls)
    warm = calls[plan["warmup"]]["argv"]
    # set-up samples before the passes and after each one, so they span the run
    setup = [measure_setup(warm) for _ in range(SETUP_SAMPLES)]

    def sample_setup():
        setup.append(measure_setup(warm))

    runner.invoke(warm)
    gc.collect()
    gc.freeze()  # the benchmark's own objects stay out of the program's collections
    detail: dict = {"setup_samples_s": setup}
    if not trace_on:
        phase = runner.run_passes(seconds, between=sample_setup)
        s = summarize(calls, phase)
        detail.update(summary=s, failures=failures(calls, phase))
        metrics = {
            "setup_s": statistics.median(setup),
            "items_per_s": s["items_per_s"],
            "calls_per_s": s["calls_per_s"],
            "call_p50_s": s["call_p50_s"],
            "call_tail_s": s["call_tail_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_frac": s["success_frac"],
        }
        counts = (s["attempted"], s["failed"], s["mismatched"])
    else:
        ref = runner.run_passes(0.0, max_passes=1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            phase = runner.run_passes(seconds, tracer)
        finally:
            tracer.uninstall()
        passes = len(phase["pass_times"])
        s_ref, s = summarize(calls, ref), summarize(calls, phase)
        metrics = per_layer(tracer, passes, s["pass_ref_s"] / s_ref["pass_ref_s"])
        detail.update(summary=s, reference_summary=s_ref, failures=failures(calls, phase),
                      traced_passes=passes, untraced_pass_ref_s=s_ref["pass_ref_s"],
                      missing_functions=tracer.missing, totals=tracer.totals(),
                      spans=tracer.dump_spans())
        bad, wrong = failed_calls(ref["outcomes"] + phase["outcomes"])
        counts = (len(calls), len(bad), len(wrong))
    attempted, failed, mismatched = counts
    result = {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k) or layer_unit(k)}
                    for k, v in metrics.items()},
    }
    return result, detail


def report(result: dict, detail: dict, env: dict) -> None:
    print(f"benford benchmark: workload={env['workload']} seed={env['seed']} "
          f"seconds={env['seconds']} trace={int(env['trace'])}")
    print(f"  python {env['python']}, numpy {env['numpy']}, {env['cores']} cores, "
          f"{env['cpu_model']}, commit {env['git_commit']}")
    s = detail["summary"]
    print(f"  {s['passes']} pass(es) of {s['attempted']} calls taking "
          + ", ".join(f"{t:.3f}" for t in s["pass_times_s"])
          + f" s wall; a pass of per-call medians is {s['pass_wall_median_s']:.3f} s wall, "
          f"{s['pass_ref_s']:.3f} ref_s")
    print(f"  tail = p{s['tail_percentile']} of per-call median times "
          f"({s['tail_calls_beyond']} ok calls of a pass beyond it)")
    if "untraced_pass_ref_s" in detail:
        print(f"  untraced pass {detail['untraced_pass_ref_s']:.3f} ref_s; "
              f"missing traced functions: {detail['missing_functions'] or 'none'}")
    for label, why in detail["failures"].items():
        print(f"  FAILED {label}: {why}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")


def self_check() -> int:
    """Tiny run of every workload, then show the oracle rejects corruption."""
    import benford.cli as cli

    ok = True
    for workload in ("fit", "sequence", "density"):
        workdir = WORK / f"selfcheck-{workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            plan = generate(workload, 0, workdir, quick=True)
            runner = Runner(cli, plan["calls"])
            phase = runner.run_passes(0.0, max_passes=1)
            s = summarize(plan["calls"], phase)
            fails = failures(plan["calls"], phase)
            print(f"{workload}: {s['ok']}/{s['attempted']} calls ok")
            for label, why in fails.items():
                print(f"  failed {label}: {why}")
            if s["mismatched"]:
                ok = False
            # corrupt one passing stream and make sure the oracle notices
            j = next(o[0] for o in phase["outcomes"] if o[3] == "ok")
            call = plan["calls"][j]
            _, rc, exc, text, err = runner.invoke(call["argv"])
            what, bad = corrupt(text)
            status, why = runner.verdict(call, rc, exc, bad, err)
            print(f"  {call['label']} with {what}: {status} ({why[:80]})")
            ok &= status == "mismatch"
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = runner.run_passes(0.0, tracer, max_passes=1)
            finally:
                tracer.uninstall()
            layers = per_layer(tracer, 1, 1.0)
            busy = sorted((v, k) for k, v in layers.items() if k.endswith("_s"))[-3:]
            print(f"  traced pass: {summarize(plan['calls'], traced)['ok']} ok; busiest "
                  + ", ".join(f"{k} {v:.3f} ref_s" for v, k in reversed(busy)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def corrupt(text: str) -> tuple[str, str]:
    """Corrupt one token of a records stream: a bin count off by one, or a value nudged."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        tok = line.split(" ")
        if tok[0] == "bin":
            tok[2] = str(int(tok[2]) + 1)
        elif tok[0] in ("row", "digit", "entropy"):
            k = 1 if tok[0] == "entropy" else 2
            tok[k] = format(float(tok[k]) + 1e-6, ".12g")
        else:
            continue
        lines[i] = " ".join(tok)
        return f"{tok[0]} corrupted", "\n".join(lines)
    raise ValueError("nothing to corrupt")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Benchmark the benford CLI end to end.")
    p.add_argument("--workload", choices=("fit", "sequence", "density"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="tiny run of every workload plus an oracle corruption test")
    args = p.parse_args(argv)
    if not (SRC / "benford" / "__init__.py").is_file():
        print(f"bench: no benford sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload is None:
        p.error("--workload is required")
    import benford.cli as cli

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = generate(args.workload, args.seed, workdir, quick=False)
        result, detail = run_workload(cli, plan, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, "result": result, **detail}, indent=1),
                   encoding="utf-8")
    report(result, detail, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
