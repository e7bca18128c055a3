"""Array kernels behind empirical references and closed-form sampling,
checked against the atom-by-atom oracles in ``helpers``.

Empirical CCDF integrals, fragility-adjusted posted revenues and cut
intervals are compared with sums and loops over the atoms; the Wasserstein
distance from a sample to a Beta law with a dense trapezoid grid, and its
Newton-refined crossings with ITP ones; Beta draws with the bisection
quantile every distribution inherits, with 50-digit mpmath quantiles and
with scipy's ``betaincinv``, and the quantile table with the Halley kernel;
mixture draws with the mixture mean.
"""

import math

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
    ValuationDistribution,
    cut,
    max_posted_revenue,
    optimal_price_given_k,
    rho_pp,
    wasserstein_distance,
)
from robustmech import distributions
from robustmech.evaluation import SweepConfig
from robustmech.numerics import refine_crossing

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


@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize(
    "truth",
    [Beta(2.0, 5.0), Beta(0.5, 0.5), Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15))],
    ids=["beta2_5", "beta.5_.5", "mixture"],
)
def test_wasserstein_sample_to_continuous_against_dense_grid(n, truth):
    rng = np.random.default_rng(16 + n)
    values = rng.beta(2.0, 5.0, size=n)
    ref = Empirical(tuple((float(v), 1.0 / n) for v in values))
    oracle = trapezoid_ccdf_distance(ref.ccdf, truth.ccdf)
    assert wasserstein_distance(ref, truth) == pytest.approx(oracle, abs=2e-6)
    assert wasserstein_distance(truth, ref) == pytest.approx(oracle, abs=2e-6)


def _itp_step_crossings(p, p0, breaks):
    """``distributions._step_crossings`` refined by ITP steps alone."""
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
            refine_crossing(diff, float(a[j]), float(b[j]), flo=float(d_a[j]), fhi=float(d_b[j]))
        )
    return crossings


@pytest.mark.parametrize("n", [300, 1000])
@pytest.mark.parametrize(
    "truth",
    [Beta(2.0, 5.0), Beta(0.5, 0.5), Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15))],
    ids=["beta2_5", "beta.5_.5", "mixture"],
)
def test_newton_step_crossings_match_itp_in_few_evaluations(n, truth, monkeypatch):
    # a sample of the law itself crosses it inside many steps; each crossing
    # costs the iterations of its root search, one CCDF evaluation each
    ref = Empirical.from_samples(truth.sample(n, np.random.default_rng(26)))
    evaluations, search = [], distributions.bisect_root

    def counting(*args, **kwargs):
        res = search(*args, **kwargs)
        evaluations.append(res.iterations)
        return res

    with monkeypatch.context() as patch:
        patch.setattr(distributions, "bisect_root", counting)
        got = wasserstein_distance(ref, truth)
    assert len(evaluations) >= 5 and np.median(evaluations) <= 5
    monkeypatch.setattr(distributions, "_step_crossings", _itp_step_crossings)
    assert got == pytest.approx(wasserstein_distance(ref, truth), rel=1e-13, abs=0.0)


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
    # the draws outside the certified cells, about 11%, take their first
    # Halley step through the patched betainc; the others take none
    assert 0.1 * n <= sum(evaluated) <= 0.25 * n


def _certified_cells(shape):
    """Per side, which cells of the Beta(shape) quantile table are certified."""
    _, lower, _, table = distributions._beta_knots(*shape)
    ok = np.isfinite(table[0])
    return ok[: len(lower) - 1], ok[len(lower) - 1 :]


@pytest.mark.parametrize("shape", QUANTILE_SHAPES, ids=lambda s: f"{s[0]:g}_{s[1]:g}")
def test_beta_table_matches_the_kernel_in_every_certified_cell(shape, monkeypatch):
    # 31 points inside each certified cell, against the Halley kernel with
    # the mpmath test's bound; the table alone answers them
    split, lower, upper, _ = distributions._beta_knots(*shape)
    ts = np.arange(1, 32) / 32
    ws = [((np.flatnonzero(ok)[:, None] + ts) / 1024).ravel() for ok in _certified_cells(shape)]
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
    lower_ok, upper_ok = _certified_cells(shape)
    assert not lower_ok[0] and not upper_ok[0]  # the power-law tails
    assert lower_ok.mean() >= 0.8 and upper_ok.mean() >= 0.8


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
