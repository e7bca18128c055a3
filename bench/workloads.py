"""The benchmark's workloads: inputs made from the seed, one pass of
operations, and the checks on what the operations returned.

Each workload is a closed loop run by one client: the next operation starts
only after the previous one returns.  A ``setup_*`` function builds the
inputs, warms the caches the operations reuse and returns a ``State`` whose
``ops`` are one pass; each ``Op`` carries its own check, and ``check_pass``
returns the problems found in one pass's outputs (an empty list per
operation means it passed).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracles
from robustmech import distributions, evaluation, isorevenue, pp_solver, ro_solver, rs_solver

# ---- solve-mix ----------------------------------------------------------------

#: nominal targets as fractions of the reference's maximum posted revenue pi0;
#: the seed jitters them by up to 1% and keeps them off dyadic fractions, where
#: the RO bisection over [0, pi0] would land on the root at once
BASE_FRACS = (0.05, 0.45, 0.95)
JITTER = 0.01
BIMODAL = ((2.0, 10.0), (10.0, 2.0), (0.85, 0.15))


def bimodal_mixture():
    (a1, b1), (a2, b2), weights = BIMODAL
    return distributions.Mixture((distributions.Beta(a1, b1), distributions.Beta(a2, b2)), weights)


def solve_mix_references(two_point):
    return {
        "uniform": distributions.Uniform(),
        "power3": distributions.Power(3.0),
        "texp1": distributions.TruncatedExponential(1.0),
        "beta2_5": distributions.Beta(2.0, 5.0),
        "beta.5_.5": distributions.Beta(0.5, 0.5),
        "mixture": bimodal_mixture(),
        "two_point": two_point,
    }


def _is_near_dyadic(x: float) -> bool:
    return any(abs(x - round(x * 2**m) / 2**m) < 1e-4 for m in range(1, 11))


def target_fracs(seed: int) -> tuple[float, ...]:
    rng = random.Random(seed)
    fracs = []
    for base in BASE_FRACS:
        x = base
        while x == base or _is_near_dyadic(x):
            x = base * (1.0 + rng.uniform(-JITTER, JITTER))
        fracs.append(x)
    return tuple(fracs)


@dataclass
class Op:
    kind: str
    label: str
    run: object  # callable(env) -> output
    check: object  # callable(output, env) -> list of problems


@dataclass
class State:
    ops: list
    info: dict = field(default_factory=dict)
    empirical_build_s: float = 0.0


def setup_solve_mix(seed: int) -> State:
    v1, a1, v2, a2 = oracles.TWO_POINT
    t0 = perf_counter()
    two_point = distributions.Empirical(((v1, a1), (v2, a2)))
    build_s = perf_counter() - t0
    refs = solve_mix_references(two_point)
    fracs = target_fracs(seed)
    ops = []
    for name, ref in refs.items():
        pi0, _ = distributions.max_posted_revenue(ref)
        for frac in fracs:
            ops.extend(_instance_ops(name, ref, pi0, frac * pi0))
    return State(ops, info={"target_fracs": list(fracs)}, empirical_build_s=build_s)


def _instance_ops(name, ref, pi0, tau):
    key = f"{name}@{tau!r}"

    def rs(env):
        return rs_solver.solve(ref, tau)

    def pp(env):
        return pp_solver.solve_pp(ref, tau)

    def check_rs(out, env):
        env["rs_out", key] = out
        problems = oracles.check_rho(tau, out.rho_at_solution)
        if name == "uniform":
            problems += oracles.check_uniform_rs(
                tau, out.k_star, out.pi_star, out.intervals, out.rho_at_solution
            )
        return problems

    def check_pp(out, env):
        problems = oracles.check_rho(tau, out.rho_at_solution)
        if name == "uniform":
            problems += oracles.check_uniform_pp(tau, out.k_pp, out.p_pp)
        if name == "two_point":
            closed = pp_solver.solve_pp_two_point(*oracles.TWO_POINT, tau)
            problems += oracles.mismatch("two-point PP k", out.k_pp, closed.k_pp, oracles.TWO_POINT_TOL)
            problems += oracles.mismatch("two-point PP price", out.p_pp, closed.p_pp, oracles.TWO_POINT_TOL)
        return problems + oracles.check_fragility_order(env["rs_out", key].k_star, out.k_pp)

    return [
        Op("rs", f"rs:{key}", rs, check_rs),
        Op("pp", f"pp:{key}", pp, check_pp),
        *_ro_ops(key, ref, tau, pi0, uniform=name == "uniform"),
    ]


def _ro_ops(key, ref, tau, pi0, uniform=False):
    """RO at the radius whose worst-case revenue is tau, then tau_equiv there."""

    def ro(env):
        r = ro_solver.radius_for_target(ref, tau)
        env["r", key] = r
        return r, ro_solver.solve_ro(ref, r)

    def te(env):
        return ro_solver.tau_equiv(ref, env["r", key])

    def check_ro(out, env):
        r, rep = out
        env["ro_out", key] = out
        gap = isorevenue.gap_only(ref, rep.pi_ro_star)
        env["gap_rel", key] = abs(gap - r) / r
        problems = oracles.check_gap(r, gap)
        if uniform:
            problems += oracles.check_uniform_ro(r, rep.pi_ro_star)
            problems += oracles.mismatch("uniform RO radius", r, oracles.uniform_radius(tau), oracles.TOL)
        return problems

    def check_te(out, env):
        r, rep = env["ro_out", key]
        problems = []
        if not rep.pi_ro_star - oracles.TOL <= out < pi0:
            problems.append(f"tau_equiv {out!r} outside [pi_ro_star, pi0)")
        if uniform:
            problems += oracles.mismatch(
                "uniform tau_equiv", out, oracles.uniform_tau_equiv(r, rep.pi_ro_star), oracles.TOL
            )
        return problems

    return [Op("ro", f"ro:{key}", ro, check_ro), Op("te", f"te:{key}", te, check_te)]


# ---- sample-scale -------------------------------------------------------------

SAMPLE_SIZES = (300, 1000)
PP_SIZE = 300
TRUTH = (2.0, 5.0)
MC_N = 100_000
SAMPLE_FRAC = 0.45


def _draws(seed: int, stream: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([seed, stream])
    return np.sort(rng.beta(*TRUTH, size=n))


def setup_sample_scale(seed: int) -> State:
    truth = distributions.Beta(*TRUTH)
    mixture = bimodal_mixture()
    t0 = perf_counter()
    samples = {n: _draws(seed, 1, n) for n in SAMPLE_SIZES}
    held_values = _draws(seed, 2, max(SAMPLE_SIZES))
    refs = {n: _empirical(v) for n, v in samples.items()}
    held_out = _empirical(held_values)
    build_s = perf_counter() - t0
    for d in (*refs.values(), held_out, truth, mixture):
        distributions.max_posted_revenue(d)
    ops = []
    for n, ref in refs.items():
        pi0, _ = distributions.max_posted_revenue(ref)
        ops.extend(_sample_ops(n, ref, samples[n], pi0, truth, held_out, held_values))
    big = max(SAMPLE_SIZES)
    for label, dist, mc_seed in (("beta", truth, 10 * seed + 1), ("mixture", mixture, 10 * seed + 2)):
        ops.append(_monte_carlo_op(label, big, dist, mc_seed))
    return State(ops, info={"sample_sizes": list(SAMPLE_SIZES), "mc_n": MC_N}, empirical_build_s=build_s)


def _empirical(values: np.ndarray):
    m = 1.0 / len(values)
    return distributions.Empirical(tuple((float(v), m) for v in values))


def _sample_ops(n, ref, values, pi0, truth, held_out, held_values):
    key = f"n={n}"
    tau = SAMPLE_FRAC * pi0
    masses = np.full(len(values), 1.0 / len(values))
    held_masses = np.full(len(held_values), 1.0 / len(held_values))

    def rs(env):
        env["rs", n] = out = rs_solver.solve(ref, tau)
        return out

    def pp(env):
        return pp_solver.solve_pp(ref, tau)

    def exact_truth(env):
        return evaluation.expected_revenue(env["rs", n].mechanism, truth)

    def exact_held_out(env):
        return evaluation.expected_revenue(env["rs", n].mechanism, held_out)

    def w1(env):
        return distributions.wasserstein_distance(ref, truth)

    def check_rs(out, env):
        env["rs_out", n] = out
        return oracles.check_rho(tau, out.rho_at_solution)

    def check_pp(out, env):
        return oracles.check_rho(tau, out.rho_at_solution) + oracles.check_fragility_order(
            env["rs_out", n].k_star, out.k_pp
        )

    def check_exact_truth(out, env):
        mech = env["rs_out", n].mechanism
        want = oracles.beta_menu_revenue(mech.intervals, mech.slope, *TRUTH)
        return oracles.mismatch("exact revenue under Beta truth", out.expected_revenue, want, oracles.TOL)

    def check_exact_held_out(out, env):
        mech = env["rs_out", n].mechanism
        want = oracles.empirical_menu_revenue(mech.intervals, mech.slope, held_values, held_masses)
        return oracles.mismatch("exact revenue under held-out sample", out.expected_revenue, want, oracles.TOL)

    def check_w1(out, env):
        want = oracles.w1_empirical_beta(values, masses, *TRUTH)
        return oracles.mismatch("Wasserstein distance to Beta truth", out, want, oracles.TOL)

    # per-call solve latency is reported for the large sample only, so its
    # median and tail describe one size rather than a mix of two
    ops = [
        Op("rs" if n == max(SAMPLE_SIZES) else "rs-small", f"rs:{key}", rs, check_rs),
        *_ro_ops(key, ref, tau, pi0),
    ]
    if n == PP_SIZE:
        ops.append(Op("pp", f"pp:n={n}", pp, check_pp))
    ops += [
        Op("exact", f"exact-truth:{key}", exact_truth, check_exact_truth),
        Op("exact", f"exact-held-out:{key}", exact_held_out, check_exact_held_out),
        Op("w1", f"w1:{key}", w1, check_w1),
    ]
    return ops


def _monte_carlo_op(label, n, dist, mc_seed):
    def mc(env):
        return evaluation.expected_revenue(
            env["rs", n].mechanism, dist, "monte_carlo", mc_n=MC_N, seed=mc_seed
        )

    def check(out, env):
        mech = env["rs_out", n].mechanism
        if label == "beta":
            exact = oracles.beta_menu_revenue(mech.intervals, mech.slope, *TRUTH)
        else:
            (a1, b1), (a2, b2), (w1, w2) = BIMODAL
            exact = w1 * oracles.beta_menu_revenue(mech.intervals, mech.slope, a1, b1) + (
                w2 * oracles.beta_menu_revenue(mech.intervals, mech.slope, a2, b2)
            )
        return oracles.check_monte_carlo(out.expected_revenue, out.standard_error, exact)

    return Op("mc", f"mc-{label}:n={n}", mc, check)


# ---- cli ----------------------------------------------------------------------

UNIFORM_JSON = '{"kind": "uniform"}'
BETA_JSON = '{"kind": "beta", "alpha": 2.0, "beta": 5.0}'
CLI_TAU = 0.2
CLI_COMMANDS = (
    ("solve-rs", ("solve-rs", "--reference", UNIFORM_JSON, "--tau", repr(CLI_TAU))),
    ("compare", ("compare", "--reference", UNIFORM_JSON, "--tau", repr(CLI_TAU), "--true", BETA_JSON)),
    ("sweep", ("sweep", "--reference", UNIFORM_JSON)),
)
SWEEP_CELLS = 11 * 11 * 9


def setup_cli(launch) -> State:
    """``launch(kind, argv)`` runs one cold CLI process and returns (exit code, stdout)."""
    checks = {"solve-rs": _check_solve_rs, "compare": _check_compare, "sweep": _check_sweep}
    ops = [
        Op(kind, kind, (lambda env, kind=kind, argv=argv: launch(kind, argv)), _cli_check(checks[kind]))
        for kind, argv in CLI_COMMANDS
    ]
    return State(ops, info={"commands": [list(argv) for _, argv in CLI_COMMANDS]})


def _cli_check(check):
    def run(out, env):
        code, stdout = out
        if code != 0:
            return [f"exit code {code}"]
        return check(json.loads(stdout))

    return run


def _check_solve_rs(rep):
    return oracles.check_uniform_rs(
        CLI_TAU, rep["k_star"], rep["pi_star"], [tuple(iv) for iv in rep["intervals"]], rep["rho_at_solution"]
    )


def _check_compare(rep):
    rs, pp, ro = rep["rs"], rep["pp"], rep["ro_mechanism"]
    a, b = 2.0, 5.0
    problems = _check_solve_rs(rs)
    problems += oracles.check_uniform_pp(CLI_TAU, pp["k_pp"], pp["p_pp"])
    problems += oracles.mismatch("compare radius", rep["r"], oracles.uniform_radius(CLI_TAU), oracles.TOL)
    problems += oracles.check_uniform_ro(rep["r"], ro["cut_level"])
    oos = rep["out_of_sample"]
    for key, mech in (("rev_rs", rs["mechanism"]), ("rev_ro", ro)):
        want = oracles.beta_menu_revenue([tuple(iv) for iv in mech["intervals"]], mech["slope"], a, b)
        problems += oracles.mismatch(f"compare {key}", oos[key], want, oracles.TOL)
    problems += oracles.mismatch("compare rev_pp", oos["rev_pp"], oracles.beta_posted_revenue(pp["p_pp"], a, b), oracles.TOL)
    return problems


def _check_sweep(rep):
    cells = rep["cells"]
    problems = []
    if len(cells) != SWEEP_CELLS:
        problems.append(f"sweep returned {len(cells)} cells, expected {SWEEP_CELLS}")
    skipped = sum(1 for c in cells if c["skipped"])
    if skipped:
        problems.append(f"{skipped} sweep cells skipped")
    for c in cells:
        if c["skipped"]:
            continue
        a, b = c["alpha"], c["beta"]
        # uniform posted price 2 tau (criterion 03), its revenue error bounded by
        # the price tolerance times the revenue curve's slope
        p = 2.0 * c["tau_over_pi0"] * 0.25
        slope = 1.0 + p * float(np.exp((a - 1) * np.log(p) + (b - 1) * np.log1p(-p) - oracles.special.betaln(a, b)))
        problems += oracles.mismatch(f"sweep rev_pp at {(a, b, c['tau_over_pi0'])}", c["rev_pp"],
                                 oracles.beta_posted_revenue(p, a, b), oracles.TOL * slope)
        mean = a / (a + b)
        for key in ("rev_rs", "rev_ro"):
            if not 0.0 <= c[key] <= mean:
                problems.append(f"sweep {key} {c[key]!r} outside [0, mean {mean!r}]")
    return problems


SETUPS = {"solve-mix": setup_solve_mix, "sample-scale": setup_sample_scale}


def check_pass(state: State, outputs: list) -> tuple[list, dict]:
    """Run every operation's oracle on one pass's outputs.

    Returns the problems per operation and the checks' environment (worst
    relative residuals are kept there for the report)."""
    env: dict = {}
    problems = []
    for op, out in zip(state.ops, outputs):
        if isinstance(out, BaseException):
            problems.append([f"raised {type(out).__name__}: {out}"])
            continue
        try:
            problems.append(op.check(out, env))
        except Exception as exc:  # a check that cannot run is a failed operation
            problems.append([f"check raised {type(exc).__name__}: {exc}"])
    return problems, env


def worst_residuals(state: State, outputs: list, env: dict) -> dict:
    rho_rel = [
        abs(out.rho_at_solution - out.tau) / out.tau
        for op, out in zip(state.ops, outputs)
        if op.kind in ("rs", "pp") and not isinstance(out, BaseException)
    ]
    gap_rel = [v for k, v in env.items() if k[0] == "gap_rel"]
    return {
        "rho_rel_residual_max": max(rho_rel, default=None),
        "gap_rel_residual_max": max(gap_rel, default=None),
    }
