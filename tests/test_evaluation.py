import math
import tracemalloc

import numpy as np
import pytest
from helpers import TruncatedPareto

from robustmech import (
    Beta,
    DomainError,
    Empirical,
    Mixture,
    PostedPrice,
    RandomizedLogMechanism,
    SweepConfig,
    Uniform,
    UnsupportedReferenceError,
    beta_sweep,
    build_ro_mechanism,
    crossing_thresholds,
    cut,
    eta_ro,
    eta_rs,
    expected_revenue,
    max_posted_revenue,
    radius_for_target,
    solve,
    solve_pp,
    solve_ro,
    sweep_csv,
    tau_equiv,
    theta_condition,
    theta_sensitivity,
    wasserstein_distance,
)
from robustmech.evaluation import PREFERENCE_DEAD_BAND, _classify, revenue_ratio


def _one_pass_payment(mech, vs):
    """m(v) in one array pass over all the valuations: the blocked curve's reference."""
    if isinstance(mech, PostedPrice):
        return mech.price * (vs >= mech.price)
    us, ws = (np.asarray(e) for e in zip(*mech.intervals))
    j_u, j_w = np.searchsorted(us, vs, side="right"), np.searchsorted(ws, vs, side="right")
    cum_width = np.asarray(mech._cum_width)
    extra = np.where(j_u == j_w + 1, vs - us[np.minimum(j_w, len(us) - 1)], 0.0)
    out = mech.slope * (cum_width[j_w] + extra)
    return np.where(vs >= ws[-1], mech.slope * cum_width[-1], out)


def _one_pass_allocation(mech, vs):
    """q(v) in one array pass over all the valuations: the blocked curve's reference."""
    if isinstance(mech, PostedPrice):
        return (vs >= mech.price).astype(float)
    us, ws = (np.asarray(e) for e in zip(*mech.intervals))
    j_u, j_w = np.searchsorted(us, vs, side="right"), np.searchsorted(ws, vs, side="right")
    with np.errstate(divide="ignore", invalid="ignore"):
        extra = np.where(
            j_u == j_w + 1, np.log(np.maximum(vs, 1e-300) / us[np.minimum(j_w, len(us) - 1)]), 0.0
        )
    out = np.minimum(mech.slope * (np.asarray(mech._cum_log)[j_w] + extra), 1.0)
    return np.where(vs >= ws[-1], 1.0, out)


class TestTruncatedPareto:
    """Solves on a reference that has only ``_ccdf`` (its density is the base
    class's central difference) against values from the ITP searches and the
    golden-section argmax that the Newton searches replaced."""

    #: tau: (k*, pi*, k_pp, p_pp)
    RS_PP = {
        0.03: (0.10502692541371225, 7.322593963745009e-05, 0.1553006414548312, 0.09113207178570698),
        0.06: (0.21734714680756406, 0.009296206363530244, 0.5165598572592992, 0.17146042943798714),
        0.1: (0.5743591434144398, 0.07636408762300968, 3.6829494501141222, 0.2773803186527082),
    }
    #: r: (pi_ro_star, tau_equiv)
    RO = {
        0.01: (0.09858711969907655, 0.10826885765868652),
        0.05: (0.0714802447820859, 0.09804515963055112),
        0.2: (0.017166809918775835, 0.06820223004810116),
    }

    def test_max_posted_revenue(self):
        assert max_posted_revenue(TruncatedPareto())[0] == pytest.approx(0.11331702871443293, rel=1e-12)

    @pytest.mark.parametrize("tau", RS_PP)
    def test_rs_and_pp(self, tau):
        rs, pp = solve(TruncatedPareto(), tau), solve_pp(TruncatedPareto(), tau)
        got = (rs.k_star, rs.pi_star, pp.k_pp, pp.p_pp)
        assert got == pytest.approx(self.RS_PP[tau], rel=1e-12)

    @pytest.mark.parametrize("r", RO)
    def test_ro(self, r):
        got = (solve_ro(TruncatedPareto(), r).pi_ro_star, tau_equiv(TruncatedPareto(), r))
        assert got == pytest.approx(self.RO[r], rel=1e-12)


class TestExpectedRevenue:
    def test_posted_price_under_discrete_truth(self, two_point):
        rep = expected_revenue(PostedPrice(0.4), two_point)
        assert rep.expected_revenue == pytest.approx(0.4 * 0.5)
        assert rep.method == "quadrature"

    def test_posted_price_at_atom_includes_mass(self, two_point):
        rep = expected_revenue(PostedPrice(0.7), two_point)
        assert rep.expected_revenue == pytest.approx(0.35)

    def test_three_atom_truth_matches_atom_weighted_payments(self, uniform):
        # payments of the tau=0.2 menu at the atoms weight to about 0.158
        mech = solve(uniform, 0.2).mechanism
        truth = Empirical(((0.25, 0.5), (0.5, 0.3), (0.75, 0.2)))
        rep = expected_revenue(mech, truth)
        atom_sum = sum(m * mech.payment(v) for v, m in truth.atoms)
        assert rep.expected_revenue == pytest.approx(atom_sum, abs=1e-14)
        assert rep.expected_revenue == pytest.approx(0.158, abs=0.003)

    def test_under_reference_meets_target(self, uniform, two_point, beta25):
        for ref, tau in ((uniform, 0.2), (two_point, 0.3), (beta25, 0.1)):
            mech = solve(ref, tau).mechanism
            assert expected_revenue(mech, ref).expected_revenue >= tau - 1e-8

    @pytest.mark.parametrize(
        "truth",
        [Beta(2.0, 5.0), Uniform(), Mixture((Beta(3.0, 3.0), Beta(1.0, 4.0)), (0.5, 0.5))],
        ids=["beta", "uniform", "mixture"],
    )
    def test_quadrature_matches_monte_carlo(self, uniform, truth):
        mech = solve(uniform, 0.15).mechanism
        exact = expected_revenue(mech, truth)
        mc = expected_revenue(mech, truth, "monte_carlo", mc_n=400_000, seed=11)
        assert mc.standard_error is not None
        assert abs(mc.expected_revenue - exact.expected_revenue) <= (
            4.0 * mc.standard_error
        )

    def test_monte_carlo_is_deterministic(self, uniform, beta25):
        mech = solve(uniform, 0.2).mechanism
        a = expected_revenue(mech, beta25, "monte_carlo", mc_n=50_000, seed=3)
        b = expected_revenue(mech, beta25, "monte_carlo", mc_n=50_000, seed=3)
        assert a.expected_revenue == b.expected_revenue
        assert a.standard_error == b.standard_error

    def test_monte_carlo_prices_a_million_draws_in_small_blocks(self, uniform, beta25):
        # 8 MB of draws and 8 MB of payments, which the standard error
        # reuses; one array pass over the draws held about 58 MB of payment
        # scratch on top, a peak of 66 MB, and np.std 8 MB more
        mech = solve(uniform, 0.2).mechanism
        n = 1_000_000
        expected_revenue(mech, beta25, "monte_carlo", mc_n=1_000)  # fill the caches
        tracemalloc.start()
        try:
            rep = expected_revenue(mech, beta25, "monte_carlo", mc_n=n, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18e6
        pays = _one_pass_payment(mech, beta25.sample(n, np.random.default_rng(42)))
        assert rep.expected_revenue == float(np.mean(pays))
        assert rep.standard_error == float(np.std(pays) / math.sqrt(n))

    def test_blocked_curves_match_one_array_pass(self, two_point):
        # cut(two_point, 0.15) touches at its tie point 0.3: (0.15, 0.3), (0.3, 0.7)
        menus = [RandomizedLogMechanism.from_cut(cut(two_point, pi)) for pi in (0.2, 0.15)]
        assert menus[1].intervals[0][1] == menus[1].intervals[1][0]
        for n in (3, 50):
            ends = np.sort(np.random.default_rng(n).random(2 * n)).tolist()
            menus.append(RandomizedLogMechanism(tuple(zip(ends[::2], ends[1::2])), 0.1))
        knots = sorted({x for mech in menus for iv in mech.intervals for x in iv})
        vs = np.random.default_rng(9).random(50_000)
        # every knot of every menu, 0, 1 and a posted price
        vs[: len(knots) + 4] = (*knots, 0.0, 1.0, 0.4, 0.7)
        for mech in (*menus, PostedPrice(0.4)):
            pays = _one_pass_payment(mech, vs)
            assert np.array_equal(mech.payment(vs), pays)
            alloc = _one_pass_allocation(mech, vs)
            assert np.array_equal(mech.buyer_surplus(vs), alloc * vs - pays)
            # a 2-d input keeps its shape
            assert np.array_equal(mech.allocation(vs.reshape(100, 500)), alloc.reshape(100, 500))

    def test_unknown_method(self, uniform):
        with pytest.raises(DomainError):
            expected_revenue(PostedPrice(0.5), uniform, "quasi")

    @pytest.mark.parametrize("mc_n", [0, -5, 2.5, "100"])
    def test_monte_carlo_sample_size_must_be_a_positive_integer(self, uniform, mc_n):
        with pytest.raises(DomainError, match="Monte Carlo sample size"):
            expected_revenue(PostedPrice(0.5), uniform, "monte_carlo", mc_n=mc_n)

    def test_monte_carlo_accepts_numpy_integer(self, uniform):
        rep = expected_revenue(PostedPrice(0.5), uniform, "monte_carlo", mc_n=np.int64(10))
        assert rep.mc_n == 10


class TestEtaRS:
    def test_degenerate_truth_at_one(self, uniform):
        truth = Empirical(((1.0, 1.0),))
        assert eta_rs(uniform, 0.2, truth) == pytest.approx(1.0, abs=1e-8)

    def test_reference_truth_value(self, uniform):
        # PP revenue 0.4 * 0.6 = 0.24 over optimal-menu revenue 0.2
        assert eta_rs(uniform, 0.2, uniform) == pytest.approx(1.2, abs=1e-7)

    def test_ratio_below_tolerance_is_inf(self, caplog):
        assert revenue_ratio(0.3, 0.2) == 0.3 / 0.2
        with caplog.at_level("WARNING", logger="robustmech.evaluation"):
            assert revenue_ratio(0.3, 1e-13) == math.inf
        assert "ratio reported as inf" in caplog.text

    def test_beta_truth_against_monte_carlo(self, uniform, beta25):
        tau = 0.2
        ratio = eta_rs(uniform, tau, beta25)
        pp = solve_pp(uniform, tau).mechanism
        opt = solve(uniform, tau).mechanism
        num = expected_revenue(pp, beta25, "monte_carlo", mc_n=1_000_000, seed=5)
        den = expected_revenue(opt, beta25, "monte_carlo", mc_n=1_000_000, seed=6)
        mc_ratio = num.expected_revenue / den.expected_revenue
        rel_se = (
            num.standard_error / num.expected_revenue
            + den.standard_error / den.expected_revenue
        )
        assert ratio == pytest.approx(mc_ratio, abs=4.0 * rel_se * mc_ratio)


class TestEtaRO:
    def test_zero_radius_collapse(self, uniform):
        assert eta_ro(uniform, 0.0, uniform) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_truth_at_one(self, uniform):
        truth = Empirical(((1.0, 1.0),))
        r = 0.1
        price = (1.0 - math.sqrt(2.0 * r)) / 2.0
        mech = build_ro_mechanism(uniform, r)
        assert eta_ro(uniform, r, truth) == pytest.approx(
            price / mech.payment(1.0), abs=1e-10
        )

    def test_unsupported_reference(self, beta25):
        with pytest.raises(UnsupportedReferenceError):
            eta_ro(beta25, 0.05, beta25)

    def test_posted_price_relatively_better_in_rs_at_low_targets(
        self, uniform, beta25
    ):
        # sign pattern across matched targets: eta_RS > eta_RO at low tau,
        # reversing at high tau
        lo_tau, hi_tau = 0.1 * 0.25, 0.9 * 0.25
        lo_r = radius_for_target(uniform, lo_tau)
        hi_r = radius_for_target(uniform, hi_tau)
        assert eta_rs(uniform, lo_tau, beta25) > eta_ro(uniform, lo_r, beta25)
        assert eta_rs(uniform, hi_tau, beta25) < eta_ro(uniform, hi_r, beta25)


class TestCrossingThresholds:
    def test_identical_mechanisms(self, uniform):
        mech = solve(uniform, 0.2).mechanism
        res = crossing_thresholds(mech, mech)
        assert res.v_q is None and res.v_m is None and res.v_s is None
        assert res.q_changes == res.m_changes == res.s_changes == 0

    def test_rs_vs_ro_single_crossing(self, uniform):
        tau = 0.2
        rs = solve(uniform, tau).mechanism
        ro = build_ro_mechanism(uniform, radius_for_target(uniform, tau))
        res = crossing_thresholds(rs, ro)
        assert res.q_changes == 1
        assert res.m_changes == 1
        assert res.v_q is not None and 0.0 < res.v_q < 1.0
        # surplus dominance: the satisficing menu never crosses below
        grid = np.linspace(0.0, 1.0, 10_001)
        assert np.all(
            rs.buyer_surplus(grid) >= ro.buyer_surplus(grid) - 1e-9
        )

    def test_rs_opt_vs_pp_power_reference_surplus_dominance(self):
        from robustmech import Power

        for alpha in (1.0, 2.0, 3.0):
            ref = Power(alpha)
            tau = 0.5 * max_posted_revenue(ref)[0]
            opt = solve(ref, tau).mechanism
            pp = solve_pp(ref, tau).mechanism
            grid = np.linspace(0.0, 1.0, 10_001)
            assert np.all(
                opt.buyer_surplus(grid) >= pp.buyer_surplus(grid) - 1e-9
            )


class TestThetaCondition:
    @pytest.mark.parametrize("c", [0.05, 0.1, 0.2, 0.24])
    def test_holds_for_uniform(self, uniform, c):
        diag = theta_condition(uniform, c)
        assert diag.holds
        assert diag.kappa == pytest.approx(diag.w / diag.u)

    def test_holds_for_truncated_pareto(self):
        # regular but with a non-monotone hazard rate; max revenue ~0.113
        pareto = TruncatedPareto()
        for c in (0.03, 0.06, 0.1):
            assert theta_condition(pareto, c).holds

    def test_sensitivity_series_limit(self):
        # theta(1 + x) = 1 + (2/3) x + O(x^2)
        x = 1e-3
        assert theta_sensitivity(1.0 + x) == pytest.approx(
            1.0 + 2.0 * x / 3.0, abs=1e-4
        )
        assert theta_sensitivity(1.0 + 1e-6) == pytest.approx(1.0, abs=1e-4)

    def test_sensitivity_needs_a_ratio_above_one(self):
        with pytest.raises(DomainError):
            theta_sensitivity(1.0)

    def test_rejects_a_cut_of_two_intervals(self):
        bimodal = Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15))
        c = 0.9 * max_posted_revenue(bimodal)[0]
        assert cut(bimodal, c).count == 2
        with pytest.raises(DomainError, match="2 interval"):
            theta_condition(bimodal, c)

    def test_rejects_out_of_range_levels(self, uniform):
        with pytest.raises(DomainError):
            theta_condition(uniform, 0.0)
        with pytest.raises(DomainError):
            theta_condition(uniform, 0.26)

    def test_rejects_empirical_references(self, two_point):
        # the condition needs a density, which atoms do not have
        with pytest.raises(DomainError, match="density"):
            theta_condition(two_point, 0.1)


SMALL_SWEEP = SweepConfig(
    alphas=(1.0, 2.0, 5.0),
    betas=(1.0, 5.0),
    tau_fracs=(0.2, 0.8),
)


class TestBetaSweep:
    def test_classify_ties_within_the_dead_band(self):
        assert _classify(0.1, 0.1, 0.05) == "tie"
        assert _classify(0.05, 0.1, 0.1 + 0.5 * PREFERENCE_DEAD_BAND) == "tie"
        assert _classify(0.05, 0.1, 0.1 + 2.0 * PREFERENCE_DEAD_BAND) == "PP"

    def test_cell_count_and_classification(self):
        cells = beta_sweep(SMALL_SWEEP)
        assert len(cells) == 3 * 2 * 2
        for c in cells:
            assert not c.skipped
            revs = {"RS": c.rev_rs, "RO": c.rev_ro, "PP": c.rev_pp}
            if c.preferred != "tie":
                assert c.preferred == max(revs, key=revs.get)

    def test_ambiguity_membership_consistent(self, uniform):
        cells = beta_sweep(SMALL_SWEEP)
        for c in cells:
            r = radius_for_target(uniform, c.tau_over_pi0 * 0.25)
            truth = Beta(c.alpha, c.beta)
            wd = wasserstein_distance(truth, uniform)
            assert c.in_ambiguity_set == (wd <= r)
            assert c.wasserstein_to_ref == pytest.approx(wd, abs=1e-12)

    def test_reference_truth_prefers_ro_in_sample(self):
        cells = [c for c in beta_sweep(SMALL_SWEEP) if c.alpha == c.beta == 1.0]
        assert cells
        for c in cells:
            assert c.rev_rs <= c.rev_ro + 1e-10

    def test_infeasible_fraction_is_skipped(self):
        cells = beta_sweep(
            SweepConfig(alphas=(2.0,), betas=(2.0,), tau_fracs=(0.5, 1.5))
        )
        flags = {c.tau_over_pi0: c.skipped for c in cells}
        assert flags[0.5] is False
        assert flags[1.5] is True

    def test_cell_revenue_matches_monte_carlo(self, uniform):
        cells = [
            c
            for c in beta_sweep(SMALL_SWEEP)
            if c.alpha == 2.0 and c.beta == 5.0 and c.tau_over_pi0 == 0.2
        ]
        (cell,) = cells
        mech = solve(uniform, 0.2 * 0.25).mechanism
        mc = expected_revenue(
            mech, Beta(2.0, 5.0), "monte_carlo", mc_n=1_000_000, seed=17
        )
        assert cell.rev_rs == pytest.approx(
            mc.expected_revenue, abs=4.0 * mc.standard_error
        )

    def test_monte_carlo_cells_are_order_independent_and_seeded(self):
        config = SweepConfig(
            alphas=(2.0,), betas=(5.0,), tau_fracs=(0.2,), mc_n=60_000, seed=12
        )
        (a,) = beta_sweep(config)
        (b,) = beta_sweep(config)
        assert (a.rev_rs, a.rev_ro, a.rev_pp) == (b.rev_rs, b.rev_ro, b.rev_pp)
        (exact,) = beta_sweep(
            SweepConfig(alphas=(2.0,), betas=(5.0,), tau_fracs=(0.2,))
        )
        assert a.rev_rs == pytest.approx(exact.rev_rs, abs=0.005)
        assert a.rev_ro == pytest.approx(exact.rev_ro, abs=0.005)
        assert a.rev_pp == pytest.approx(exact.rev_pp, abs=0.005)

    @pytest.mark.parametrize("mc_n", [-3, 2.5])
    def test_config_rejects_bad_monte_carlo_sample_size(self, mc_n):
        with pytest.raises(DomainError, match="Monte Carlo sample size"):
            SweepConfig(mc_n=mc_n)

    def test_csv_shape(self):
        cells = beta_sweep(SMALL_SWEEP)
        text = sweep_csv(cells)
        lines = text.strip().splitlines()
        assert lines[0] == (
            "alpha,beta,tau_over_pi0,rev_rs,rev_ro,rev_pp,"
            "preferred,in_ambiguity_set,wasserstein_to_ref"
        )
        assert len(lines) == len(cells) + 1
        assert all(line.count(",") == 8 for line in lines[1:])
