#!/usr/bin/env python3
"""robustmech benchmark.

    python3 bench/run.py --workload {solve-mix,cli,sample-scale} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from
``src/``.  One client runs a fixed list of operations (a pass) in a closed
loop for S seconds; every output is checked against an oracle.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds details
(pass counts, tail percentile, residuals, versions).  Traced runs write their
spans to ``.bench_out/``.  See ``bench/NOTES.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("solve-mix", "cli", "sample-scale")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *cmd], capture_output=True, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter, measured inside it."""
    if workload == "cli":
        cmd = [str(BENCH / "cli_launcher.py"), "--import-only"]
    else:
        cmd = [str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    proc = run_child(cmd)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer the maximum is reported as the 100th percentile."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


class CliLauncher:
    """Starts one cold CLI process per operation and keeps what it reports."""

    def __init__(self, tag: str):
        self.tag = tag
        self.spans_dir: Path | None = None
        self.records: list[dict] = []

    def __call__(self, kind: str, argv) -> tuple[int, bytes]:
        i = len(self.records)
        meta = OUT / f"{self.tag}-cli{i}-meta.json"
        cmd = [str(BENCH / "cli_launcher.py"), "--meta", str(meta)]
        spans_path = None
        if self.spans_dir is not None:
            spans_path = self.spans_dir / f"{self.tag}-cli{i}-spans.csv.gz"
            cmd += ["--spans", str(spans_path)]
        proc = run_child([*cmd, "--", *argv])
        record = {"kind": kind, "traced": spans_path is not None, "spans": spans_path,
                  "bytes": len(proc.stdout)}
        if meta.exists():
            record.update(json.loads(meta.read_text()))
            meta.unlink()
        self.records.append(record)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode, proc.stdout


class SetupProbes:
    """Set-up probes spread evenly over the measured time, run between operations.

    The host's speed drifts over tens of seconds, so probes taken back to back
    would all see one moment of it."""

    def __init__(self, workload: str, seed: int, count: int, span_s: float):
        self.workload, self.seed = workload, seed
        self.due = [span_s * k / count for k in range(count)]
        self.start = perf_counter()
        self.samples: list[float] = []

    def __call__(self, finish: bool = False) -> None:
        while self.due and (finish or perf_counter() - self.start >= self.due[0]):
            self.due.pop(0)
            self.samples.append(setup_probe(self.workload, self.seed))


def run_pass(state, tracer=None, between_ops=None):
    """One pass; its wall time is the sum of the operations' times, so work done
    between operations (set-up probes) is not counted."""
    outputs, times = [], []
    env: dict = {}
    for i, op in enumerate(state.ops):
        if between_ops is not None:
            between_ops()
        if tracer is not None:
            tracer.current_op = i
        t0 = perf_counter()
        try:
            out = op.run(env)
        except Exception as exc:  # a raising operation is counted as failed
            out = exc
        times.append(perf_counter() - t0)
        outputs.append(out)
    return math.fsum(times), outputs, times


def run_passes(state, budget_s, min_passes, make_tracer=None, on_pass_end=None, between_ops=None):
    """Passes until the next one would overrun the budget (at least ``min_passes``)."""
    walls, outputs, times, tracers = [], [], [], []
    start = perf_counter()
    while True:
        tracer = make_tracer() if make_tracer else None
        if tracer is not None:
            tracer.install()
        try:
            wall, outs, ts = run_pass(state, tracer, between_ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        walls.append(wall)
        outputs.append(outs)
        times.append(ts)
        tracers.append(tracer)
        if on_pass_end:
            on_pass_end()
        elapsed = perf_counter() - start
        if len(walls) >= min_passes and elapsed + statistics.median(walls) > budget_s:
            return walls, outputs, times, tracers


def same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return repr(a) == repr(b)
    return a == b


def count_failures(state, outputs):
    """Oracles on the first pass; every later pass must return the same outputs.

    Returns (attempted, failed, failures, checks' environment)."""
    import workloads

    problems, env = workloads.check_pass(state, outputs[0])
    attempted = failed = 0
    failures = []
    for k, outs in enumerate(outputs):
        for i, (op, out) in enumerate(zip(state.ops, outs)):
            attempted += 1
            why = problems[i] if same(out, outputs[0][i]) else ["output differs from the first pass"]
            if isinstance(out, BaseException):
                why = [f"raised {type(out).__name__}: {out}"]
            if why:
                failed += 1
                failures.append({"pass": k, "op": op.label, "problems": why[:3]})
    return attempted, failed, failures, env


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpus": os.cpu_count()}


def layer_metrics(workload, state, untraced_walls, traced_walls, tracers, cache_delta, launcher):
    import spans

    if workload == "cli":
        passes: dict[int, list] = {}
        for rec in launcher.records:
            if rec["traced"]:
                passes.setdefault(rec["pass"], []).append(spans.Tracer.load(rec["spans"]))
        span_sets = list(passes.values())
        traced_recs = [r for r in launcher.records if r["traced"]]
        hits = sum(r["cache_hits"] for r in traced_recs)
        misses = sum(r["cache_misses"] for r in traced_recs)
        first_pass = min(passes)
        report_bytes = sum(r["bytes"] for r in traced_recs if r["pass"] == first_pass)
        import_s = statistics.median(r["import_s"] for r in traced_recs)
    else:
        span_sets = [[t] for t in tracers]
        hits, misses = cache_delta
        report_bytes, import_s = 0, 0.0
    first = spans.SpanStats(span_sets[0])
    every = spans.SpanStats([t for s in span_sets for t in s])
    n = len(span_sets)

    def self_s(name):
        return every.self_s.get(name, 0.0) / n

    def rate(name):
        t = every.self_s.get(name, 0.0)
        return every.work.get(name, 0) / t if t > 0 else 0.0

    ro_searches = ("ro_solver.solve_ro", "ro_solver.build_ro_mechanism", "ro_solver.tau_equiv")
    searches = sum(first.outer_calls.get(s, 0) for s in ro_searches)
    gap_calls = sum(first.within.get((s, "ro_solver.gap_only"), 0) for s in ro_searches)
    cut = "isorevenue.cut"
    m = {
        "isorevenue.cut.calls": (first.count(cut), "count"),
        "isorevenue.cut.self_s": (self_s(cut), "s"),
        "isorevenue.cut.us_p50": (every.p50(cut) * 1e6, "us"),
        "rs_solver.solve.cut_calls_per_solve": (first.per_call(cut, "rs_solver.solve"), "count"),
        "rs_solver.solve.self_s": (self_s("rs_solver.solve"), "s"),
        "rs_solver.solve.ms_p50": (every.p50("rs_solver.solve") * 1e3, "ms"),
        "pp_solver.solve_pp.cut_calls_per_solve": (first.per_call(cut, "pp_solver.solve_pp"), "count"),
        "numerics.bisect_root.calls": (first.count("numerics.bisect_root"), "count"),
        "numerics.bisect_root.iterations": (first.work.get("numerics.bisect_root", 0), "count"),
        "distributions.ccdf_integral.calls": (first.outer_calls.get("distributions.ccdf_integral", 0), "count"),
        "distributions.ccdf_integral.self_s": (self_s("distributions.ccdf_integral"), "s"),
        "pp_solver.solve_pp.self_s": (self_s("pp_solver.solve_pp"), "s"),
        "pp_solver.solve_pp.ms_p50": (every.p50("pp_solver.solve_pp") * 1e3, "ms"),
        "pp_solver.rho_pp.calls_per_solve": (first.per_call("pp_solver.rho_pp", "pp_solver.solve_pp"), "count"),
        "ro_solver.solve_ro.self_s": (self_s("ro_solver.solve_ro"), "s"),
        "ro_solver.tau_equiv.self_s": (self_s("ro_solver.tau_equiv"), "s"),
        "ro_solver.gap_only.calls_per_solve": (gap_calls / searches if searches else 0.0, "count"),
        "distributions.sample.self_s": (self_s("distributions.sample"), "s"),
        "distributions.sample.draws": (first.work.get("distributions.sample", 0), "count"),
        "distributions.sample.draws_per_s": (rate("distributions.sample"), "1/s"),
        "mechanisms.payment.self_s": (self_s("mechanisms.payment"), "s"),
        "mechanisms.payment.values": (first.work.get("mechanisms.payment", 0), "count"),
        "mechanisms.payment.values_per_s": (rate("mechanisms.payment"), "1/s"),
        "distributions.wasserstein_distance.calls": (first.count("distributions.wasserstein_distance"), "count"),
        "distributions.wasserstein_distance.self_s": (self_s("distributions.wasserstein_distance"), "s"),
        "evaluation.expected_revenue.quadrature.calls": (first.count("evaluation.expected_revenue.quadrature"), "count"),
        "evaluation.expected_revenue.quadrature.self_s": (self_s("evaluation.expected_revenue.quadrature"), "s"),
        "evaluation.expected_revenue.monte_carlo.self_s": (self_s("evaluation.expected_revenue.monte_carlo"), "s"),
        "evaluation.beta_sweep.self_s": (self_s("evaluation.beta_sweep"), "s"),
        "evaluation.beta_sweep.cut_calls": (first.within.get(("evaluation.beta_sweep", cut), 0), "count"),
        "distributions.max_posted_revenue.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "distributions.empirical_build_s": (state.empirical_build_s, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "trace.spans_per_pass": (first.spans, "count"),
        "trace.overhead_s": (statistics.median(traced_walls) - statistics.median(untraced_walls), "s"),
    }
    counts_repeat = all(
        spans.SpanStats(s).calls == first.calls for s in span_sets[1:]
    )
    return m, {"traced_passes": n, "counts_repeat_across_traced_passes": counts_repeat}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "robustmech" / "__init__.py").is_file():
        print(f"error: no robustmech sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        t0 = perf_counter()
        import workloads

        workloads.SETUPS[args.workload](args.seed)
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    for stale in OUT.glob(f"{tag}-*"):
        stale.unlink()
    is_cli = args.workload == "cli"

    launcher = None
    t0 = perf_counter()
    import workloads

    if is_cli:
        launcher = CliLauncher(tag)
        state = workloads.setup_cli(launcher)
    else:
        state = workloads.SETUPS[args.workload](args.seed)
    # this process's own set-up is one sample; the others come from fresh
    # interpreters during the untraced passes (a traced run reports no set-up)
    setup_samples = [] if is_cli else [perf_counter() - t0]

    from robustmech.distributions import max_posted_revenue
    import spans

    # the CLI rerun check needs two passes
    min_passes = 2 if is_cli else 1
    budget = args.seconds / 2 if args.trace else args.seconds
    pass_counter = [0]

    def end_pass():
        if launcher is not None:
            for rec in launcher.records:
                rec.setdefault("pass", pass_counter[0])
        pass_counter[0] += 1

    probes = None
    if not args.trace:
        probes = SetupProbes(args.workload, args.seed, SETUP_SAMPLES - len(setup_samples), budget)
    walls, outputs, times, _ = run_passes(
        state, budget, 1 if args.trace else min_passes, on_pass_end=end_pass, between_ops=probes
    )
    if probes is not None:
        probes(finish=True)
        setup_samples += probes.samples
    untraced_passes = len(walls)
    traced_walls, tracers = [], []
    cache_delta = (0, 0)
    if args.trace:
        if launcher is not None:
            launcher.spans_dir = OUT
        before = max_posted_revenue.cache_info()
        traced_walls, t_outputs, _, tracers = run_passes(
            state, budget, 1,
            make_tracer=None if is_cli else spans.Tracer, on_pass_end=end_pass,
        )
        after = max_posted_revenue.cache_info()
        cache_delta = (after.hits - before.hits, after.misses - before.misses)
        outputs += t_outputs
    leftover = spans.patched_names()

    attempted, failed, failures, env = count_failures(state, outputs)
    if leftover:
        failed += 1
        attempted += 1
        failures.append({"op": "untrace", "problems": [f"wrappers left installed: {leftover}"]})

    kinds = {"solve-mix": "rs", "sample-scale": "rs", "cli": "solve-rs"}
    solve_s = [
        t for ts in times for op, t in zip(state.ops, ts) if op.kind == kinds[args.workload]
    ]
    tail_value, tail_pct = tail(solve_s)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "untraced_passes": untraced_passes, "traced_passes": len(traced_walls),
        "pass_walls_s": walls, "setup_samples_s": setup_samples,
        # per-call RS latency: too noisy on a shared 2-vCPU host for a bounded
        # metric at the parent commit's few solves per run, so reported here
        "solve_ms_p50": statistics.median(solve_s) * 1e3, "solve_ms_tail": tail_value * 1e3,
        "solve_tail_percentile": tail_pct, "solve_samples": len(solve_s),
        "op_ms_median": {
            op.label: statistics.median(ts[i] for ts in times) * 1e3 for i, op in enumerate(state.ops)
        },
        "failures": failures[:20], "versions": versions(), **state.info,
        **workloads.worst_residuals(state, outputs[0], env),
    }
    if is_cli:
        untraced = [r for r in launcher.records if not r["traced"]]
        for kind, _ in workloads.CLI_COMMANDS:
            info[f"cli_{kind.replace('-', '_')}_s"] = statistics.median(
                t for ts in times for op, t in zip(state.ops, ts) if op.kind == kind
            )
        peak_rss = max(r.get("peak_rss_mb", 0.0) for r in untraced)
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics, trace_info = layer_metrics(
            args.workload, state, walls, traced_walls, tracers, cache_delta, launcher
        )
        info.update(trace_info)
        for k, t in enumerate(tracers):
            if t is not None:
                t.dump(OUT / f"{tag}-pass{k}-spans.csv.gz")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
