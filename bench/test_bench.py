"""Tests of the benchmark itself, not of robustmech.

    PYTHONPATH=src python3 -m pytest -q bench

The end-to-end tests start the benchmark as a separate process, as its users
do (about a minute together); the rest run in-process in a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from robustmech import Beta, Empirical, cli, distributions, evaluation, rs_solver  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = _bench(ROOT, "--workload", "cli", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_the_library_sources():
    lone = ROOT / ".bench_out" / "without-sources"
    shutil.rmtree(lone, ignore_errors=True)
    (lone / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", lone)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, lone / "bench")
    try:
        proc = _bench(lone, "--workload", "solve-mix", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(lone)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _uniform_ops():
    state = workloads.setup_solve_mix(5)
    return workloads.State([op for op in state.ops if op.label.split(":", 1)[1].startswith("uniform@")])


PERTURB = {
    "rs": lambda o: dataclasses.replace(o, k_star=o.k_star * (1.0 + 1e-6)),
    "pp": lambda o: dataclasses.replace(o, p_pp=o.p_pp + 1e-6),
    "ro": lambda o: (o[0], dataclasses.replace(o[1], pi_ro_star=o[1].pi_ro_star * (1.0 + 1e-6))),
    "te": lambda o: o + 1e-6,
}


def test_a_perturbed_result_counts_as_a_failure():
    state = _uniform_ops()
    _, outputs, _ = run.run_pass(state)
    attempted, failed, _, _ = run.count_failures(state, [outputs])
    assert (attempted, failed) == (len(state.ops), 0)
    for i, op in enumerate(state.ops):
        bad = list(outputs)
        bad[i] = PERTURB[op.kind](outputs[i])
        _, failed, failures, _ = run.count_failures(state, [bad])
        assert failed >= 1 and failures[0]["op"] == op.label
    # a rerun whose output differs from the first pass fails even if the
    # oracle cannot tell
    rerun = list(outputs)
    rerun[-1] = outputs[-1] + 1e-12
    attempted, failed, failures, _ = run.count_failures(state, [outputs, rerun])
    assert (attempted, failed) == (2 * len(state.ops), 1)
    assert failures[0]["problems"] == ["output differs from the first pass"]


def test_a_raising_operation_counts_as_a_failure():
    state = _uniform_ops()
    outputs = [ValueError("boom")] * len(state.ops)
    _, failed, _, _ = run.count_failures(state, [outputs])
    assert failed == len(state.ops)


def test_cli_report_oracles(capsys):
    assert cli.main(["solve-rs", "--reference", workloads.UNIFORM_JSON, "--tau", "0.2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert workloads._check_solve_rs(report) == []
    report["k_star"] *= 1.0 + 1e-6
    assert workloads._check_solve_rs(report)


def test_sample_scale_oracles_agree_with_the_library_and_catch_perturbations():
    values = np.sort(np.random.default_rng(0).beta(2.0, 5.0, 50))
    masses = np.full(50, 1.0 / 50)
    ref = Empirical(tuple((float(v), 1.0 / 50) for v in values))
    truth = Beta(2.0, 5.0)
    w1 = oracles.w1_empirical_beta(values, masses, 2.0, 5.0)
    assert abs(distributions.wasserstein_distance(ref, truth) - w1) <= oracles.TOL
    mech = rs_solver.solve(ref, 0.3 * distributions.max_posted_revenue(ref)[0]).mechanism
    exact = evaluation.expected_revenue(mech, truth).expected_revenue
    assert abs(oracles.beta_menu_revenue(mech.intervals, mech.slope, 2.0, 5.0) - exact) <= oracles.TOL
    mc = evaluation.expected_revenue(mech, truth, "monte_carlo", mc_n=20_000, seed=1)
    assert oracles.check_monte_carlo(mc.expected_revenue, mc.standard_error, exact) == []
    assert oracles.check_monte_carlo(mc.expected_revenue + 5 * mc.standard_error, mc.standard_error, exact)


def test_tracer_records_spans_only_while_installed():
    ref = Empirical(((0.3, 0.5), (0.7, 0.5)))
    assert spans.patched_names() == []
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "robustmech.rs_solver.cut" in spans.patched_names()
        rs_solver.solve(ref, 0.1)
    finally:
        tracer.uninstall()
    assert spans.patched_names() == []
    n = len(tracer)
    rs_solver.solve(ref, 0.1)
    assert len(tracer) == n
    stats = spans.SpanStats([tracer])
    assert stats.count("rs_solver.solve") == 1
    assert stats.per_call("isorevenue.cut", "rs_solver.solve") == stats.count("isorevenue.cut") > 0
    assert stats.work["numerics.bisect_root"] > stats.count("numerics.bisect_root") > 0
    # self times add up to the root span's duration
    root = tracer.end[0] - tracer.start[0]
    assert sum(stats.self_s.values()) == pytest.approx(root, rel=1e-9)


def test_seed_jitters_targets_off_dyadic_fractions():
    a, b = workloads.target_fracs(1), workloads.target_fracs(2)
    assert a == workloads.target_fracs(1) and a != b
    for fracs in (a, b):
        for x, base in zip(fracs, workloads.BASE_FRACS):
            assert abs(x / base - 1.0) <= workloads.JITTER
            assert not workloads._is_near_dyadic(x)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(i) for i in range(40)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 75.0
