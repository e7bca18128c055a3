"""Array kernels behind empirical references and closed-form sampling,
checked against the atom-by-atom oracles in ``helpers``.

Empirical CCDF integrals, fragility-adjusted posted revenues and cut
intervals are compared with sums and loops over the atoms, the level
queries with exact cuts, and solves on empirical references with the
values they had when every level was an exact cut; the Wasserstein distance
from a sample to a continuous law with a dense trapezoid grid, and with the
distance from ITP-refined crossings it replaced; Beta draws with the bisection
quantile every distribution inherits, with 50-digit mpmath quantiles and
with scipy's ``betaincinv``, and the quantile table with the Halley kernel;
mixture draws with the mixture mean; and RS, PP and RO solves on the
quantile discretization of a continuous law with solves on the law.
"""

import math
import sys
import threading

import numpy as np
import pytest
from scipy.special import betaincinv

from helpers import (
    atom_best_posted,
    atom_rho_pp,
    loop_empirical_atoms,
    loop_empirical_regions,
    midpoint_ccdf_integral,
    mp_beta_quantile,
    random_empirical,
    trapezoid_ccdf_distance,
)
from robustmech import (
    Beta,
    DomainError,
    Empirical,
    Mixture,
    Power,
    TruncatedExponential,
    Uniform,
    ValuationDistribution,
    cut,
    max_posted_revenue,
    optimal_price_given_k,
    pi_star,
    radius_for_target,
    rho_pp,
    solve,
    solve_pp,
    solve_ro,
    tau_equiv,
    wasserstein_distance,
)
from robustmech import distributions, rs_solver
from robustmech.evaluation import SweepConfig
from robustmech.isorevenue import level_query
from robustmech.numerics import bisect_root

TANGENCY_WIDTH = 1e-9


def _references(seed: int, count: int, max_atoms: int):
    rng = np.random.default_rng(seed)
    return [random_empirical(rng, max_atoms) for _ in range(count)], rng


def test_ccdf_integral_matches_midpoint_sum():
    refs, rng = _references(11, 40, 60)
    for ref in refs:
        atoms = [v for v, _ in ref.atoms]
        ends = np.concatenate((rng.random(6), rng.choice(atoms, 4), [0.0, 1.0]))
        for a in ends:
            for b in ends:
                if a < b:
                    assert ref.ccdf_integral(float(a), float(b)) == pytest.approx(
                        midpoint_ccdf_integral(ref, float(a), float(b)), abs=1e-12
                    )


def test_rho_pp_and_best_price_match_atom_sums():
    refs, rng = _references(12, 25, 300)
    for ref in refs:
        for k in (1e-3, 0.2, 1.0, 7.5):
            prices = np.concatenate((rng.random(5), [v for v, _ in ref.atoms][:5]))
            for p in prices:
                assert rho_pp(ref, float(p), k) == pytest.approx(
                    atom_rho_pp(ref, float(p), k), abs=1e-12
                )
            best = atom_best_posted(ref, k)
            price = optimal_price_given_k(ref, k)
            assert atom_rho_pp(ref, price, k) == pytest.approx(best, abs=1e-12)


def _unique_candidate_price(ref: Empirical, k: float) -> float:
    """The best price as the scan once found it: one sorted, deduplicated
    array of both candidate halves, whose first maximum is the lowest."""
    values = ref._values
    cands = np.unique(np.concatenate((k / (k + 1.0) * values, values)))
    cands = cands[(cands > 0.0) & (cands <= 1.0)]
    revs = k * ref._integrals(cands, np.minimum((1.0 + 1.0 / k) * cands, 1.0))
    return float(cands[np.argmax(revs)])


def test_best_price_matches_the_unique_candidate_scan():
    # ties on a coarse grid, zero atoms and atoms at 1 alongside random atoms
    rng = np.random.default_rng(31)
    refs = []
    for t in range(600):
        n = int(rng.integers(1, 30))
        values = [rng.random(n), rng.integers(0, 6, n) / 5.0, np.round(rng.random(n), 2)][t % 3]
        if t % 2:
            values = np.concatenate((values, [0.0, 1.0]))
        if values.any():
            refs.append(Empirical.from_samples(values))
    for ref in refs:
        for k in (1e-3, 0.3, 1.0, 2.5, 37.0, 1e6):
            assert optimal_price_given_k(ref, k) == _unique_candidate_price(ref, k)


def test_best_price_on_an_all_zero_reference_is_zero():
    ref = Empirical.from_samples([0.0])
    for k in (1e-3, 1.0, 50.0):
        assert optimal_price_given_k(ref, k) == 0.0
        assert rho_pp(ref, optimal_price_given_k(ref, k), k) == 0.0


def _expected_cut(ref: Empirical, pi: float):
    raw, ties = loop_empirical_regions(ref, pi)
    return [(u, w) for u, w in raw if w - u >= TANGENCY_WIDTH], ties


def _assert_same_cut(ref: Empirical, pi: float):
    intervals, ties = _expected_cut(ref, pi)
    c = cut(ref, pi)
    assert len(c.intervals) == len(intervals)
    for (u, w), (eu, ew) in zip(c.intervals, intervals):
        assert u == pytest.approx(eu, abs=1e-12)
        assert w == pytest.approx(ew, abs=1e-12)
    assert list(c.tie_points) == pytest.approx(ties, abs=1e-12)


def test_cut_matches_atom_loop():
    refs, rng = _references(13, 60, 40)
    for ref in refs:
        pi0, _ = max_posted_revenue(ref)
        for pi in np.concatenate((rng.random(8) * pi0, [pi0, 1e-300])):
            _assert_same_cut(ref, float(pi))


def test_cut_ties_match_atom_loop():
    # levels at which the iso-revenue curve meets a step exactly at its atom
    refs, _ = _references(14, 40, 12)
    ties_seen = 0
    for ref in refs:
        pi0, _ = max_posted_revenue(ref)
        remaining = 1.0
        for v, m in ref.atoms[:-1]:
            remaining -= m
            pi = v * remaining
            if 0.0 < pi <= pi0:
                _assert_same_cut(ref, pi)
                ties_seen += len(_expected_cut(ref, pi)[1])
    assert ties_seen > 0


def test_cut_on_a_large_sample_matches_atom_loop():
    rng = np.random.default_rng(15)
    values = rng.beta(2.0, 5.0, size=20_000)
    ref = Empirical(tuple((float(v), 1.0 / len(values)) for v in values))
    pi0, _ = max_posted_revenue(ref)
    for frac in (0.05, 0.45, 0.95, 0.999):
        _assert_same_cut(ref, frac * pi0)


def _query_references():
    refs, rng = _references(32, 40, 12)
    refs += [Empirical.from_samples(rng.beta(2.0, 5.0, 300)) for _ in range(3)]
    # repeated values, and atoms at 0 and at 1
    refs.append(Empirical.from_samples(np.round(rng.beta(2.0, 5.0, 300), 2)))
    refs.append(Empirical.from_samples([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.0]))
    return refs


QUERY_FRACS = (1e-300, 1e-100, 1e-10, 1e-3, 0.05, 0.2, 0.45, 0.7, 0.9, 0.95)


@pytest.mark.parametrize("ref", _query_references(), ids=lambda r: f"{len(r.atoms)}")
def test_level_query_matches_exact_cuts(ref):
    # at levels up to 0.95 pi0 and at the levels where the iso-revenue curve
    # meets a step at its atom (tie points); the gap is a difference of sums
    # of the steps' thresholds, so it keeps fewer digits than log_sum.  At a
    # tie the slope has a kink, and the two may take different sides of it
    pi0, _ = max_posted_revenue(ref)
    ties = [v * h for v, h in zip(ref._values.tolist(), ref._tail[1:].tolist())]
    levels = [f * pi0 for f in QUERY_FRACS] + [t for t in ties if 0.0 < t <= 0.95 * pi0]
    for i, pi in enumerate(levels):
        c, q = cut(ref, pi), level_query(ref, pi)
        assert q.pi == pi
        assert q.log_sum > 0.0 and c.intervals
        assert q.log_sum == pytest.approx(c.log_sum, rel=1e-12, abs=0.0)
        assert q.gap == pytest.approx(c.gap, rel=1e-10, abs=0.0)
        if i < len(QUERY_FRACS):
            assert q.dlog_sum == pytest.approx(c.dlog_sum, rel=1e-15, abs=0.0)
    # the cut at the tangency level is empty, and its query reads exactly 0
    assert not cut(ref, pi0).intervals
    assert level_query(ref, pi0).log_sum == 0.0
    assert level_query(ref, pi0).dlog_sum == 0.0


GOLDEN = 0.6180339887498949


def _golden_reference(n: int, decimals: int | None = None) -> Empirical:
    """A sample of n values (i * golden ratio mod 1)^1.5, with no random draws."""
    values = (np.arange(1, n + 1) * GOLDEN % 1.0) ** 1.5
    return Empirical.from_samples(values if decimals is None else np.round(values, decimals))


GOLDEN_REFERENCES = {"7": _golden_reference(7), "300": _golden_reference(300, 2),
                     "10000": _golden_reference(10_000)}

#: (RS k*, RO pi* at the radius whose worst-case revenue is tau, tau_equiv
#: there, pi_star(k*)) at tau = frac * pi0, as computed when every level of
#: the searches was an exact cut
EMPIRICAL_SOLVES = {
    ("7", 0.05): (0.02887805026123752, 0.010411462966213833, 0.08089119038216118, 7.216916934152439e-16),
    ("7", 0.45): (0.27604776534155556, 0.09370316669592452, 0.13889619242311535, 0.02108657881704179),
    ("7", 0.95): (9.663812250849762, 0.1978177963580631, 0.2029790266062696, 0.18775930489809586),
    ("300", 0.05): (0.023568575233022637, 0.009439999999999995, 0.08460936922402372, 3.6426431688657373e-19),
    ("300", 0.45): (0.21739118324335407, 0.08496000000000001, 0.14542500118339555, 0.009541891141939084),
    ("300", 0.95): (1.3490298399336274, 0.17935999999999996, 0.1837270423568927, 0.16653728705112567),
    ("10000", 0.05): (0.023246370638129833, 0.00929743178327673, 0.08456018976838717, 2.0782991026203193e-19),
    ("10000", 0.45): (0.21405982576158233, 0.08367688604949054, 0.1447786622667712, 0.008824657975357447),
    ("10000", 0.95): (1.1482768351267116, 0.17665120388225783, 0.18276444821593357, 0.15925444095945204),
}


def _loop_cut(ref: Empirical, pi: float):
    intervals, _ = loop_empirical_regions(ref, pi)
    return [(u, w) for u, w in intervals if w - u >= TANGENCY_WIDTH]


@pytest.mark.parametrize("key", list(EMPIRICAL_SOLVES), ids=lambda k: f"{k[0]}-{k[1]}")
def test_empirical_solves_match_exact_cut_searches_and_loop_oracles(key):
    name, frac = key
    ref = GOLDEN_REFERENCES[name]
    tau = frac * max_posted_revenue(ref)[0]
    rep = solve(ref, tau)
    r = radius_for_target(ref, tau)
    ro = solve_ro(ref, r)
    got = (rep.k_star, ro.pi_ro_star, tau_equiv(ref, r), pi_star(ref, rep.k_star))
    assert got == pytest.approx(EMPIRICAL_SOLVES[key], rel=1e-12, abs=0.0)
    if len(ref.atoms) > 300:
        return
    # the atom loop's cuts at the levels found: k* = 1 / log_sum and
    # k* int ccdf = tau at pi*, gap = r at the RO level, and log_sum = 1/k at
    # pi_star(k)
    ivs = _loop_cut(ref, rep.pi_star)
    assert math.fsum(math.log(w / u) for u, w in ivs) * rep.k_star == pytest.approx(1.0, rel=1e-12)
    integral = math.fsum(midpoint_ccdf_integral(ref, u, w) for u, w in ivs)
    assert rep.k_star * integral == pytest.approx(tau, rel=1e-12)
    ivs = _loop_cut(ref, ro.pi_ro_star)
    gap = math.fsum(
        midpoint_ccdf_integral(ref, u, w) - ro.pi_ro_star * math.log(w / u) for u, w in ivs
    )
    assert gap == pytest.approx(r, rel=1e-12)
    ivs = _loop_cut(ref, got[3])
    assert math.fsum(math.log(w / u) for u, w in ivs) * rep.k_star == pytest.approx(1.0, rel=1e-12)


def test_searches_on_a_large_sample_make_few_exact_cuts(monkeypatch):
    # the probes and the search read level queries; only the
    # finishing Newton steps cut (7-18 cuts each when every level was cut)
    ref = Empirical.from_samples(np.random.default_rng(34).beta(2.0, 5.0, 100_000))
    pi0, _ = max_posted_revenue(ref)
    taus = [f * pi0 for f in (0.05, 0.45, 0.95)]
    radii = [radius_for_target(ref, tau) for tau in taus]
    levels = []
    inner = rs_solver.cut

    def recording_cut(d, pi):
        levels.append(pi)
        return inner(d, pi)

    monkeypatch.setattr(rs_solver, "cut", recording_cut)
    for search in [lambda tau=tau: solve(ref, tau) for tau in taus] + [
        lambda r=r: solve_ro(ref, r) for r in radii
    ]:
        levels.clear()
        search()
        assert 1 <= len(levels) <= 4


def test_threads_building_the_level_table_at_once_get_serial_answers():
    # more threads than cores, switching often, all making the first level
    # search of one reference: a race may build the table twice, never mix it
    values = np.random.default_rng(35).beta(2.0, 5.0, 3_000)
    tau = 0.45 * max_posted_revenue(Empirical.from_samples(values))[0]
    want = solve(Empirical.from_samples(values), tau).k_star
    ref = Empirical.from_samples(values)
    start, got = threading.Barrier(6), []

    def work():
        start.wait()
        got.append(solve(ref, tau).k_star)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 6


@pytest.mark.parametrize("n", [1, 7, 300, 1000])
@pytest.mark.parametrize(
    "truth",
    [
        Beta(2.0, 5.0), Beta(0.5, 0.5), Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15)),
        Uniform(), Power(3.0), TruncatedExponential(1.0),
    ],
    ids=["beta2_5", "beta.5_.5", "mixture", "uniform", "power3", "texp1"],
)
def test_wasserstein_sample_to_continuous_against_dense_grid(n, truth):
    rng = np.random.default_rng(16 + n)
    values = rng.beta(2.0, 5.0, size=n)
    ref = Empirical(tuple((float(v), 1.0 / n) for v in values))
    oracle = trapezoid_ccdf_distance(ref.ccdf, truth.ccdf)
    assert wasserstein_distance(ref, truth) == pytest.approx(oracle, abs=2e-6)
    assert wasserstein_distance(truth, ref) == pytest.approx(oracle, abs=2e-6)


@pytest.mark.parametrize("n", [1, 7, 300, 1000])
@pytest.mark.parametrize(
    "truth",
    [
        Beta(0.5, 0.5), Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15)),
        Uniform(), Power(3.0), TruncatedExponential(1.0),
    ],
    ids=["beta.5_.5", "mixture", "uniform", "power3", "texp1"],
)
def test_wasserstein_with_repeated_and_end_atoms_against_dense_grid(n, truth):
    # values on a grid of 0.01 repeat, and atoms at 0 and at 1 start the
    # first step and end the last one
    values = np.round(np.random.default_rng(30 + n).beta(2.0, 5.0, size=n), 2)
    ref = Empirical.from_samples(np.concatenate((values, [0.0, 1.0, 0.0])))
    oracle = trapezoid_ccdf_distance(ref.ccdf, truth.ccdf)
    assert wasserstein_distance(ref, truth) == pytest.approx(oracle, abs=2e-6)
    assert wasserstein_distance(truth, ref) == pytest.approx(oracle, abs=2e-6)


def _itp_step_crossings(p, p0, breaks):
    """Sign changes of ccdf_p - ccdf_p0 on the segments between ``breaks``
    when exactly one side is empirical, refined by ITP steps."""
    a, b = breaks[:-1], breaks[1:]
    keep = b - a > 1e-15
    a, b = a[keep], b[keep]
    emp, other, sign = (p, p0, 1.0) if isinstance(p, Empirical) else (p0, p, -1.0)
    level = emp._ccdf(a)
    d_a = sign * (level - other._ccdf(a))
    d_b = sign * (level - other._ccdf(b))
    crossings = []
    for j in np.flatnonzero((d_a >= 0.0) != (d_b >= 0.0)):
        def diff(x, lv=float(level[j])):
            return sign * (lv - float(other._ccdf(np.asarray(x))))

        crossings.append(
            bisect_root(diff, float(a[j]), float(b[j]), flo=float(d_a[j]), fhi=float(d_b[j])).root
        )
    return crossings


def _itp_wasserstein(p, p0):
    """W1 between a sample and a continuous law from ITP-refined crossings,
    with each run of one sign integrated separately: the distance the
    one-pass kernel replaced."""
    atoms = [d._values for d in (p, p0) if isinstance(d, Empirical)]
    breaks = np.unique(np.concatenate([[0.0, 1.0], *atoms]))
    pts = np.unique(np.concatenate((breaks, _itp_step_crossings(p, p0, breaks))))
    mids = 0.5 * (pts[:-1] + pts[1:])
    above = p._ccdf(mids) - p0._ccdf(mids) >= 0.0
    flips = np.flatnonzero(above[1:] != above[:-1]) + 1
    ends = pts[np.concatenate(([0], flips, [len(above)]))].tolist()
    total = 0.0
    for a, b, up in zip(ends[:-1], ends[1:], above[np.concatenate(([0], flips))]):
        total += (1.0 if up else -1.0) * (p.ccdf_integral(a, b) - p0.ccdf_integral(a, b))
    return max(total, 0.0)


@pytest.mark.parametrize("n", [300, 1000])
@pytest.mark.parametrize(
    "truth",
    [Beta(2.0, 5.0), Beta(0.5, 0.5), Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15))],
    ids=["beta2_5", "beta.5_.5", "mixture"],
)
def test_newton_step_crossings_match_itp_in_few_evaluations(n, truth, monkeypatch):
    # a sample of the law itself crosses it inside many steps; the one-pass
    # distance reads each crossing off the law's quantile, so no root search
    # runs (and none past the largest atom, where the difference ends at 0).
    # The two put a crossing up to a few ulps apart, and the CCDF integral
    # at each (up to 0.5) rounds differently there: on Beta(0.5, 0.5) at
    # n = 1000 (69 crossings, W1 = 0.0061) that moves W1 by 1.7e-15, while
    # both lie 6e-15 to 8e-15 from its 40-digit value
    ref = Empirical.from_samples(truth.sample(n, np.random.default_rng(26)))
    want = _itp_wasserstein(ref, truth)

    def no_search(*args, **kwargs):
        raise AssertionError("a crossing was refined by a root search")

    with monkeypatch.context() as patch:
        patch.setattr(distributions, "bisect_root", no_search)
        got = wasserstein_distance(ref, truth), wasserstein_distance(truth, ref)
    assert got[0] == got[1] == pytest.approx(want, rel=1e-13, abs=4e-15)


@pytest.mark.parametrize("shape", [(2.0, 5.0), (0.5, 0.5), (10.0, 2.0), (1.0, 1.0)])
def test_beta_draws_match_bisection_quantile(shape):
    dist = Beta(*shape)
    us = np.random.default_rng(17).random(20_000)
    closed = dist.sample(len(us), np.random.default_rng(17))
    bisected = ValuationDistribution._quantile(dist, us)
    assert np.max(np.abs(closed - bisected)) <= 3e-12


SWEEP = SweepConfig()
QUANTILE_SHAPES = [(a, b) for a in SWEEP.alphas for b in SWEEP.betas] + [(50.0, 50.0), (0.5, 10.0)]
EDGE_US = [1e-300, 1e-30, 1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 2.0**-53]
MC_SHAPES = [(2.0, 5.0), (2.0, 10.0), (10.0, 2.0)]


@pytest.mark.parametrize("shape", QUANTILE_SHAPES, ids=lambda s: f"{s[0]:g}_{s[1]:g}")
def test_beta_quantile_matches_mpmath(shape):
    # 1e-13 relative to the nearer end of [0, 1], or within the float spacing
    # at the true quantile where no float comes closer (near 1); below 1e-300
    # only the size of the result is checked
    us = np.concatenate((EDGE_US, np.random.default_rng(21).random(200)))
    got = Beta(*shape).quantile(us)
    for u, x in zip(us.tolist(), got.tolist()):
        true = mp_beta_quantile(*shape, u)
        if true < 1e-300:
            assert x <= 1e-300, (u, x)
            continue
        nearer = float(min(true, 1 - true))
        assert float(abs(x - true)) <= max(1e-13 * nearer, float(np.spacing(float(true)))), (u, x)
    assert Beta(*shape).quantile(0.0) == 0.0
    assert Beta(*shape).quantile(1.0) == 1.0


def _assert_near(got, true):
    # the bound of the mpmath test, with float64 truths
    nearer = np.minimum(true, 1.0 - true)
    assert np.all(np.abs(got - true) <= np.maximum(1e-13 * nearer, np.spacing(true)))


@pytest.mark.parametrize("shape", [0.01, 0.1, 3.0, 100.0])
def test_skewed_beta_quantile_matches_closed_forms(shape):
    # Beta(a, 1) has Q(u) = u**(1/a) and Beta(1, b) has Q(u) = 1 - (1-u)**(1/b):
    # for small shapes most of the mass sits within 1e-30 of one end, far
    # from the median, so each draw must be solved from its own end
    us = np.concatenate((EDGE_US, np.random.default_rng(24).random(2_000)))
    _assert_near(Beta(shape, 1.0).quantile(us), us ** (1.0 / shape))
    _assert_near(Beta(1.0, shape).quantile(us), -np.expm1(np.log1p(-us) / shape))


@pytest.mark.parametrize("shape", [(2.0, 5.0), (50.0, 50.0), (0.5, 10.0)])
def test_bracketed_finish_alone_reaches_the_quantile(shape, monkeypatch):
    # with no Halley step after the first, every draw that step left moving
    # (18-91% of these low draws) is finished by the bracket alone
    monkeypatch.setattr(distributions, "_HALLEY_STEPS", 0)
    us = np.concatenate(([1e-12, 1e-6], np.random.default_rng(25).random(2_000) * 0.1))
    _assert_near(Beta(*shape).quantile(us), betaincinv(*shape, us))


@pytest.mark.parametrize("shape", MC_SHAPES)
def test_beta_draws_match_betaincinv(shape):
    draws = Beta(*shape).sample(100_000, np.random.default_rng(22))
    ref = betaincinv(*shape, np.random.default_rng(22).random(100_000))
    nearer = np.minimum(ref, 1.0 - ref)
    assert np.all(np.abs(draws - ref) <= 1e-13 * nearer)


@pytest.mark.parametrize("shape", MC_SHAPES)
def test_beta_draws_with_the_table_built_take_few_betaincs(shape, monkeypatch):
    evaluated = []
    betainc = distributions.betainc

    def counting(a, b, x):
        evaluated.append(np.size(x))
        return betainc(a, b, x)

    distributions._beta_knots(*shape)
    monkeypatch.setattr(distributions, "betainc", counting)
    n = 100_000
    Beta(*shape).sample(n, np.random.default_rng(23))
    # only draws below w = 2**-20 (about 2 per million) or in a cell the
    # table did not certify take a Halley step through the patched betainc
    assert sum(evaluated) <= 0.001 * n


def _table_cells(shape):
    """Per side of the Beta(shape) quantile table: the kernel knots, and the
    left end w, width h and certification of its cells of width 1 / 1024
    from w = 1/16 on, then of its octave cells below 1/16."""
    _, lower, upper, table = distributions._beta_knots(*shape)
    ok = np.isfinite(table[0])
    octave_ws = distributions._OCTAVE_WS
    octave_hs = np.diff(np.append(octave_ws, 1 / 16))
    sides, start = [], 0
    for knots in (lower, upper):
        end = len(knots) - 1
        # the side's columns: cells k < end (NaN below 64), a NaN column for
        # w < 2**-20, then the octave cells
        assert not ok[start : start + min(end, 64)].any() and not ok[start + end]
        uniform = np.arange(64, end)
        cells = (
            (uniform / 1024, np.full(uniform.size, 1 / 1024), ok[start + uniform]),
            (octave_ws, octave_hs, ok[start + end + 1 : start + end + 1 + octave_ws.size]),
        )
        sides.append((knots, cells))
        start += end + 1 + octave_ws.size
    assert start == table.shape[1]
    return sides


@pytest.mark.parametrize("shape", QUANTILE_SHAPES, ids=lambda s: f"{s[0]:g}_{s[1]:g}")
def test_beta_table_matches_the_kernel_in_every_certified_cell(shape, monkeypatch):
    # 31 points inside each certified cell, uniform and octave, against the
    # Halley kernel with the mpmath test's bound; the table alone answers them
    split = distributions._beta_knots(*shape)[0]
    ts = np.arange(1, 32) / 32
    (lower, low_cells), (upper, up_cells) = _table_cells(shape)
    ws = [
        np.concatenate([(w[ok, None] + ts * h[ok, None]).ravel() for w, h, ok in cells])
        for cells in (low_cells, up_cells)
    ]
    low, high = ws[0][ws[0] <= split], 1.0 - ws[1]
    high = high[high > split]
    with monkeypatch.context() as patch:
        patch.setattr(distributions, "betainc", None)
        got = Beta(*shape).quantile(np.concatenate((low, high)))
    want = np.concatenate(
        (
            distributions._lower_quantile(*shape, low, lower),
            1.0 - distributions._lower_quantile(shape[1], shape[0], 1.0 - high, upper),
        )
    )
    _assert_near(got, want)


@pytest.mark.parametrize("shape", QUANTILE_SHAPES, ids=lambda s: f"{s[0]:g}_{s[1]:g}")
def test_beta_table_certifies_most_cells(shape):
    for _, ((_, _, uniform_ok), (_, _, octave_ok)) in _table_cells(shape):
        assert octave_ok.all()
        assert uniform_ok.mean() >= 0.8


@pytest.mark.parametrize("shape", MC_SHAPES)
def test_beta_draws_in_cells_of_width_one_1024th_keep_their_bits(shape):
    # above w = 1/16 the table reads cell k = floor(1024 w) at t = 1024 w - k,
    # the lower side's cells first: this index formula, inlined, is the oracle
    split, lower, _, table = distributions._beta_knots(*shape)
    us = np.random.default_rng(27).random(50_000)
    high = us > split
    w = np.abs(high - us)
    pos = w * 1024
    k = pos.astype(np.intp)
    col = k + high * (len(lower) + distributions._OCTAVE_WS.size)
    z = table[5, col]
    for c in table[4::-1]:
        z = z * (pos - k) + c[col]
    answered = (w >= 1 / 16) & np.isfinite(z)
    assert answered.mean() >= 0.8
    got = Beta(*shape).quantile(us)
    assert np.array_equal(got[answered], np.abs(high - z)[answered])


def test_beta_draws_above_one_16th_are_those_of_the_uniform_table():
    # above w = 1/16 the quantile comes from the cells of width 1/1024
    # alone: these are its values from before there were octave cells
    us = [0.0625, 0.1, 0.25, 0.5, 0.75, 0.9, 0.9375]
    want = {
        (2.0, 5.0): [
            0.07106337450903007, 0.09259525891312874, 0.16116291679032652,
            0.26444998329566005, 0.3894794852007245, 0.5103163065514917, 0.5602673252902708,
        ],
        (10.0, 2.0): [
            0.6523736960756283, 0.6897565521874541, 0.7733725024547912,
            0.8520365745693936, 0.9123900463324663, 0.9505481528297315, 0.9622503463389003,
        ],
    }
    for shape, values in want.items():
        assert Beta(*shape).quantile(np.array(us)).tolist() == values


@pytest.mark.parametrize(
    "mixture",
    [
        Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15)),
        Mixture((Beta(0.5, 0.5), Power(3.0), Beta(4.0, 4.0)), (0.2, 0.5, 0.3)),
    ],
    ids=["bimodal", "three"],
)
def test_mixture_sample_mean(mixture):
    n = 200_000
    draws = mixture.sample(n, np.random.default_rng(18))
    assert draws.shape == (n,)
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    se = float(np.std(draws)) / math.sqrt(n)
    assert abs(float(np.mean(draws)) - mixture.mean()) <= 4.0 * se


def test_empirical_hash_and_equality_follow_atoms():
    a = Empirical(((0.7, 0.5), (0.3, 0.5)))
    b = Empirical(((0.3, 0.5), (0.7, 0.5)))
    assert a == b
    assert hash(a) == hash(b) == hash((a.atoms,))
    assert a.to_json() == {"kind": "empirical", "atoms": [[0.3, 0.5], [0.7, 0.5]]}


def _atom_sets():
    rng = np.random.default_rng(19)
    values = np.round(rng.random(2_000), 2)  # about 100 distinct values
    masses = rng.random(2_000) + 0.01
    yield tuple(zip(values.tolist(), (masses / masses.sum()).tolist()))
    # values clipped onto 0 and 1, merging with atoms already there
    yield ((-1e-13, 0.1), (0.0, 0.2), (0.5, 0.3), (1.0 + 1e-13, 0.15), (1.0, 0.25))
    # masses summing to 1 +- 1e-10, renormalized
    for scale in (1.0 + 1e-10, 1.0 - 1e-10):
        yield ((0.9, 0.5 * scale), (0.2, 0.25 * scale), (0.9, 0.25 * scale))
    yield ((0.4, 1.0),)
    yield (("0.25", "0.5"), (0.75, 0.5))


@pytest.mark.parametrize("atoms", list(_atom_sets()), ids=lambda a: f"{len(a)}")
def test_vectorized_build_matches_atom_loop(atoms):
    expected = loop_empirical_atoms(atoms)
    dist = Empirical(atoms)
    assert dist.atoms == expected
    assert [type(v) for pair in dist.atoms for v in pair] == [float] * 2 * len(expected)
    assert dist == Empirical(list(atoms))  # eq compares the atoms
    assert hash(dist) == hash((expected,))
    assert dist.to_json() == {"kind": "empirical", "atoms": [list(a) for a in expected]}


@pytest.mark.parametrize(
    "atoms",
    [
        ((0.5, 0.5), (1.2, 0.25), (0.3, 0.0)),  # the first bad atom is reported
        ((0.5, 0.5), (0.3, 0.0), (1.2, 0.25)),
        ((0.5, 0.5), (0.3, -0.1), (0.7, 0.6)),
        ((0.5, 0.5), (float("nan"), 0.5)),
        ((0.5, 0.5), (0.6, float("nan"))),
        ((0.5, 0.5), (0.6, 0.4)),
        ((0.5, 0.5), (0.6, 0.5 + 2e-9)),
        (),
    ],
)
def test_vectorized_build_raises_as_atom_loop(atoms):
    with pytest.raises(DomainError) as expected:
        loop_empirical_atoms(atoms)
    with pytest.raises(DomainError) as got:
        Empirical(atoms)
    assert str(got.value) == str(expected.value)


def test_from_samples_gives_equal_masses():
    values = np.round(np.random.default_rng(20).beta(2.0, 5.0, 5_000), 3)
    n = len(values)
    dist = Empirical.from_samples(values)
    assert dist == Empirical(tuple((v, 1.0 / n) for v in values.tolist()))
    assert len(dist.atoms) == len(np.unique(values)) < n
    assert dist.mean() == pytest.approx(float(np.mean(values)), rel=1e-12)
    assert Empirical.from_samples([0.3]).atoms == ((0.3, 1.0),)


def test_from_samples_validation():
    with pytest.raises(DomainError):
        Empirical.from_samples([])
    with pytest.raises(DomainError, match="outside"):
        Empirical.from_samples([0.2, 1.5])


#: reference: (law, order q, C below 0.9 pi0, C at 0.9 pi0 and above).  With a
#: density like x^(a-1) near 0 the first quantile cell adds about n^(-1-1/a)
#: to W1, which sets q; each C is three times the worst n^q |relative error|
#: measured over RS k*, PP k_pp and RO pi_ro* at n = 10^3 and 10^4, rounded up
DISCRETIZED = {
    "uniform": (Uniform(), 2.0, 6.0, 20.0),
    "power3": (Power(3.0), 4.0 / 3.0, 7.0, 1.0),
    "texp1": (TruncatedExponential(1.0), 2.0, 15.0, 350.0),
    "beta2_5": (Beta(2.0, 5.0), 1.5, 30.0, 2.0),
    "beta.5_.5": (Beta(0.5, 0.5), 2.0, 3.0, 400.0),
    "bimodal": (Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15)), 1.5, 4.0, 70.0),
}


@pytest.mark.parametrize("name", DISCRETIZED)
def test_quantile_discretization_solves_converge_to_the_law(name):
    # E_n puts mass 1/n on each quantile Q((i - 1/2)/n): the empirical and
    # continuous paths (level table and revenue grid, their own kernels) must
    # agree to C/n^q; at n = 10^4 every bound but Power(3)'s and Beta(2,5)'s
    # below 0.9 pi0 and the mixture's above sits below the first-order scale
    # W1 ~ 1/(4n)
    law, q, c_mid, c_high = DISCRETIZED[name]
    pi0 = max_posted_revenue(law)[0]
    for n in (1_000, 10_000):
        sample = Empirical.from_samples(law.quantile((np.arange(n) + 0.5) / n))
        for frac in (0.01, 0.1, 0.3, 0.45, 0.7, 0.9, 0.95):
            tau = frac * pi0
            r = radius_for_target(law, tau)
            bound = (c_high if frac >= 0.9 else c_mid) / n**q
            for what, exact, approx in (
                ("RS k*", solve(law, tau).k_star, solve(sample, tau).k_star),
                ("PP k_pp", solve_pp(law, tau).k_pp, solve_pp(sample, tau).k_pp),
                ("RO pi_ro*", solve_ro(law, r).pi_ro_star, solve_ro(sample, r).pi_ro_star),
            ):
                assert abs(approx / exact - 1.0) <= bound, (what, n, frac)
