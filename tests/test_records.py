"""The JSON keys of every result record, in order: reports and their readers
rely on them."""

import pytest

from robustmech import (
    Beta,
    SweepConfig,
    SweepCell,
    Uniform,
    crossing_thresholds,
    cut,
    expected_revenue,
    solve,
    solve_pp,
    solve_ro,
    theta_condition,
)

RECORDS = {
    "SolveReport": (
        lambda: solve(Uniform(), 0.2),
        ["tau", "k_star", "pi_star", "rho_at_solution", "intervals", "mechanism",
         "iterations", "residual", "warnings"],
    ),
    "PPSolveReport": (
        lambda: solve_pp(Uniform(), 0.2),
        ["tau", "k_pp", "p_pp", "rho_at_solution", "mechanism", "iterations", "residual",
         "path", "warnings"],
    ),
    "ROSolveReport": (
        lambda: solve_ro(Uniform(), 0.1),
        ["r", "pi_ro_star", "mechanism", "pp_price_uniform", "iterations", "residual",
         "warnings"],
    ),
    "EvalReport": (
        lambda: expected_revenue(solve(Uniform(), 0.2).mechanism, Beta(2.0, 5.0)),
        ["mechanism_id", "true_dist", "expected_revenue", "method", "mc_n", "seed",
         "standard_error"],
    ),
    "CrossingThresholds": (
        lambda: crossing_thresholds(
            solve(Uniform(), 0.2).mechanism, solve_ro(Uniform(), 0.1).mechanism
        ),
        ["v_q", "v_m", "v_s", "q_changes", "m_changes", "s_changes"],
    ),
    "ThetaDiagnostic": (
        lambda: theta_condition(Uniform(), 0.1),
        ["c", "u", "w", "kappa", "theta", "lhs", "rhs", "holds"],
    ),
    "SweepConfig": (
        SweepConfig,
        ["alphas", "betas", "tau_fracs", "reference", "seed", "mc_n"],
    ),
    "SweepCell": (
        lambda: SweepCell(2.0, 5.0, 0.5, 0.1, 0.1, 0.1, "tie", True, 0.2),
        ["alpha", "beta", "tau_over_pi0", "rev_rs", "rev_ro", "rev_pp", "preferred",
         "in_ambiguity_set", "wasserstein_to_ref", "skipped"],
    ),
    # dlog_sum joined the keys with the shared serializer
    "IsoRevenueCut": (
        lambda: cut(Uniform(), 0.1),
        ["pi", "intervals", "gap", "log_sum", "tie_points", "dlog_sum"],
    ),
    "PriceStatistics": (
        lambda: solve(Uniform(), 0.2).mechanism.price_statistics(),
        ["mean", "variance", "skewness"],
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_keys_in_order(name):
    make, keys = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert list(record.to_json()) == keys


def test_nested_values_render_as_json():
    rep = solve(Uniform(), 0.2)
    out = rep.to_json()
    assert out["intervals"] == [list(iv) for iv in rep.intervals]
    assert out["mechanism"] == rep.mechanism.to_json()
    assert out["warnings"] == []
    ev = expected_revenue(rep.mechanism, Beta(2.0, 5.0)).to_json()
    assert ev["true_dist"] == {"kind": "beta", "alpha": 2.0, "beta": 5.0}
    assert SweepConfig().to_json()["reference"] == {"kind": "uniform"}


def test_slotted_reports_stay_slotted():
    for make in (lambda: solve(Uniform(), 0.2), lambda: solve_pp(Uniform(), 0.2)):
        assert not hasattr(make(), "__dict__")
