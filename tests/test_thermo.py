import dataclasses
import itertools
import math

import numpy as np
import pytest

from thermoform.errors import (
    BranchNotContractingError,
    PressureUnbracketedError,
    TransferOperatorDivergedError,
)
from thermoform.inducing import Branch, InducingScheme
from thermoform.maps import CriticalPoint, IntervalMap, make_map
from thermoform.thermo import (
    EquilibriumMeasure,
    SpectralOperator,
    branch_children,
    conformality_report,
    count_words,
    enumerate_words,
    gibbs_sandwich_report,
    gibbs_state,
    induced_potential,
    invariance_residual,
    measure_to_csv,
    periodic_anchors,
    pressure_estimate,
    project_measure,
    solve_pressure,
    tau_mean_consistency,
    variation_profile,
    zk_sum,
)
from thermoform.util import bisect_monotone
from tests.conftest import cheb_acip_bin_masses

LOG2 = math.log(2.0)


def chebyshev_tests(n=8):
    def make(j):
        def g(x):
            return np.cos(j * np.arccos(np.clip(2.0 * np.asarray(x) - 1.0, -1, 1)))

        return g

    return {f"T{j}": make(j) for j in range(n)}


# ---------------------------------------------------------------------------
# Induced potential
# ---------------------------------------------------------------------------

def test_induced_potential_tent2(tent2_scheme, tent2_op):
    pot = induced_potential(tent2_op, 1.0, 0.0)
    taus = tent2_scheme.taus
    assert np.allclose(pot.psi_fix, -taus * LOG2, atol=1e-12)


def test_induced_potential_t0(cheb_scheme, cheb_op):
    pot = induced_potential(cheb_op, 0.0, 0.25)
    assert np.allclose(pot.phi_fix, 0.0)
    assert np.allclose(pot.psi_fix, -0.25 * cheb_scheme.taus)


def test_induced_phi_vs_finite_difference(cheb_scheme, cheb_op):
    # chain-rule derivative of f^tau at the branch fixed point against a
    # central difference on the three widest branches (short return times,
    # well-conditioned stencil)
    pot = induced_potential(cheb_op, 1.0, 0.0)
    m = cheb_scheme.map
    widths = np.array([b.width for b in cheb_scheme.branches])
    for i in np.argsort(-widths)[:3]:
        b = cheb_scheme.branches[i]
        x = float(pot.x_fix[i])
        h = 1e-7 * b.width
        up, down = x + h, x - h
        for _ in range(b.tau):
            up, down = float(m.f(up)), float(m.f(down))
        fd = abs(up - down) / (2 * h)
        assert pot.phi_fix[i] == pytest.approx(-math.log(fd), abs=1e-5)


def test_psi_additive_along_words(cheb_scheme):
    # Psi_2 at a pair anchor equals the sum of one-step values on the orbit.
    # The orbit is followed by pullbacks, not forward iteration: the branches
    # near the base are ~1e-6 wide, so a float forward orbit leaves the word's
    # cylinder after one return.  The anchor y of the rotated word (w1, w0) is
    # F(x) on the period-2 orbit; x pulls back from y through w0, y from x
    # through w1.
    words = [(0, 1), (2, 0), (1, 1)]
    xf, sl, lt = periodic_anchors(cheb_scheme, words)
    yf, _, _ = periodic_anchors(cheb_scheme, [(w1, w0) for w0, w1 in words])
    taus = cheb_scheme.taus
    m, branches = cheb_scheme.map, cheb_scheme.branches

    for (w0, w1), x, y, total, L in zip(words, xf, yf, sl, lt):
        px, s0 = m.pull_back(branches[w0].itinerary, [y])
        py, s1 = m.pull_back(branches[w1].itinerary, [x])
        assert px.item() == pytest.approx(x, abs=1e-12)
        assert py.item() == pytest.approx(y, abs=1e-12)
        assert (s0 + s1).item() == pytest.approx(total, abs=1e-9)
        assert L == taus[w0] + taus[w1]


# ---------------------------------------------------------------------------
# Variations
# ---------------------------------------------------------------------------

def test_variation_tent2_zero(tent2_scheme, tent2_op):
    pot = induced_potential(tent2_op, 1.0, 0.0)
    var = variation_profile(tent2_scheme, pot, 5)
    assert np.allclose(var.V, 0.0, atol=1e-12)
    assert np.allclose(var.B, 1.0, atol=1e-12)


def test_variation_cheb_decay_and_doubling(cheb_scheme, cheb_op):
    pot = induced_potential(cheb_op, 1.0, 0.0)
    var = variation_profile(cheb_scheme, pot, 6)
    assert np.all(var.V >= 0)
    assert var.tail_rate < 1.0
    assert np.all(np.diff(var.B) <= 1e-12) and np.all(var.B >= 1.0)
    # oracle: exponential fit quality of the V ladder
    logv = np.log(var.V[var.V > 0])
    k = np.arange(1, len(logv) + 1, dtype=float)
    resid = np.polyfit(k, logv, 1, full=True)[1]
    ss = float(np.sum((logv - logv.mean()) ** 2))
    assert 1.0 - float(resid[0]) / ss > 0.9
    # doubling the potential doubles every V_k exactly
    pot2 = induced_potential(cheb_op, 2.0, 0.0)
    var2 = variation_profile(cheb_scheme, pot2, 6)
    assert np.allclose(var2.V, 2.0 * var.V, rtol=1e-12)


# ---------------------------------------------------------------------------
# Z_k
# ---------------------------------------------------------------------------

def test_zk_single_branch_power():
    # a one-branch scheme has Z_k = w^k with w the branch weight
    m = make_map("tent", {"s": 2.0})
    scheme = InducingScheme(
        m, 0.0, 0.5, (0,), 0.1, 1,
        (Branch(0.0, 0.25, 1, (0,), True),), 0.5, ((0, 0.0, 1.0),),
        0.0,
    )
    op = SpectralOperator(scheme)
    pot = induced_potential(op, 1.0, 0.0)
    for k in (1, 2, 5):
        assert zk_sum(op, pot, k, None) == pytest.approx(2.0 ** -k, rel=1e-12)


def test_zk_constant_values_brute_force(tent2, tent2_tower):
    from thermoform.inducing import build_scheme
    from thermoform.cylinders import partition

    base = partition(tent2, 1).cylinders[0]
    scheme = build_scheme(tent2, tent2_tower, base, delta=0.1, n_max=4)
    op = SpectralOperator(scheme)
    pot = induced_potential(op, 1.0, 0.0)
    w = 2.0 ** -scheme.taus.astype(float)
    assert zk_sum(op, pot, 1, None) == pytest.approx(w.sum(), rel=1e-12)
    assert zk_sum(op, pot, 2, None) == pytest.approx(w.sum() ** 2, rel=1e-10)
    # truncated sums against a pure-python composition oracle
    for k, N in ((2, 5), (3, 7)):
        taus = list(scheme.taus)
        total = 0.0
        stack = [((), 0)]
        words = []
        while stack:
            word, used = stack.pop()
            if len(word) == k:
                words.append(word)
                continue
            for i, t in enumerate(taus):
                if used + t + (k - len(word) - 1) <= N:
                    stack.append((word + (i,), used + t))
        for word in words:
            total += 2.0 ** -sum(taus[i] for i in word)
        assert zk_sum(op, pot, k, N) == pytest.approx(total, rel=1e-10)


def test_zk_growth_rate_to_zero(tent2_op):
    # (1/k) log Z_k -> 0 for the full tent at (t, s) = (1, 0)
    pot = induced_potential(tent2_op, 1.0, 0.0)
    vals = [math.log(zk_sum(tent2_op, pot, k, None)) / k for k in (1, 2, 3)]
    assert abs(vals[-1]) < 1e-3
    assert abs(vals[-1]) <= abs(vals[0]) + 1e-12


def test_count_words_matches_enumeration(cheb_scheme):
    for k, budget in ((2, 12), (3, 15)):
        assert count_words(cheb_scheme, k, budget) == \
            len(enumerate_words(cheb_scheme, k, budget))


def test_enumerate_words_lexicographic(cheb_scheme):
    # the array enumeration against filtered tuples in lexicographic order
    taus = cheb_scheme.taus
    for k, budget in ((2, 12), (3, 15)):
        want = [w for w in itertools.product(range(len(taus)), repeat=k)
                if sum(taus[i] for i in w) <= budget]
        words = enumerate_words(cheb_scheme, k, budget)
        assert len(want) and words.shape == (len(want), k)
        assert [tuple(w) for w in words.tolist()] == want


# ---------------------------------------------------------------------------
# Pressure equation
# ---------------------------------------------------------------------------

def test_pressure_tent2_analytic(tent2_op):
    for t in (0.8, 1.0, 1.2):
        p = solve_pressure(tent2_op, t)
        assert p == pytest.approx((1 - t) * LOG2, abs=1e-3)


def test_pressure_entropy_at_t0(tent2_op):
    assert solve_pressure(tent2_op, 0.0) == pytest.approx(LOG2, abs=1e-3)


def test_pressure_cheb_acip(cheb_op):
    assert solve_pressure(cheb_op, 1.0) == pytest.approx(0.0, abs=1e-3)


def test_pressure_estimators_agree(tent2_op, cheb_op):
    # factorized is exact for constant slope; zk agrees coarsely on cheb
    def factorized(s):
        # log of the branch-weight sum
        pot = induced_potential(tent2_op, 0.9, s)
        return math.log(float(np.exp(pot.psi_fix).sum()))

    # Cauchy difference of complete Z_k ladders, at the deepest k <= 5 with
    # at most 5e5 words of depth k + 1
    B = max(len(cheb_op.scheme.branches), 2)
    k = 2
    while B ** (k + 1) <= 500_000 and k < 5:
        k += 1

    def zk(s):
        pot = induced_potential(cheb_op, 1.0, s)
        return (math.log(zk_sum(cheb_op, pot, k, None))
                - math.log(zk_sum(cheb_op, pot, k - 1, None)))

    p_spec = solve_pressure(tent2_op, 0.9)
    p_fact = bisect_monotone(factorized, -5.0, 5.0, 0.0)
    assert p_spec == pytest.approx(p_fact, abs=1e-6)
    p_zk = bisect_monotone(zk, -5.0, 5.0, 0.0)
    assert p_zk == pytest.approx(0.0, abs=5e-2)


def test_pressure_monotone_in_t(tent2_op, cheb_op):
    for op in (tent2_op, cheb_op):
        ps = [solve_pressure(op, t) for t in (0.8, 0.9, 1.0, 1.1)]
        assert all(b <= a + 1e-9 for a, b in zip(ps, ps[1:]))


def test_pressure_strictly_decreasing_in_s(tent2_op):
    vals = [pressure_estimate(tent2_op, 1.0, s) for s in (-0.5, 0.0, 0.5)]
    assert vals[0] > vals[1] > vals[2]


def test_pressure_independent_of_call_order(cheb_op):
    # no state survives a call: the same (t, s) gives the same bits after
    # an estimate at another (t, s)
    before = pressure_estimate(cheb_op, 1.0, 0.0)
    pressure_estimate(cheb_op, 0.5, 0.3)
    assert pressure_estimate(cheb_op, 1.0, 0.0) == before


def test_pressure_unbracketed(tent2_op):
    with pytest.raises(PressureUnbracketedError):
        solve_pressure(tent2_op, 1.0, bracket=(3.0, 5.0))


def test_non_contracting_branch_detected():
    f = lambda x: np.asarray(x, dtype=float) * 0.5
    df = lambda x: np.full_like(np.asarray(x, dtype=float), 0.5)
    d2f = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    fake = IntervalMap(
        "fake", (), f, df, d2f,
        (CriticalPoint(0.999, 1.0, "maximum", smooth=False),),
        lambda b, y: np.asarray(y, dtype=float) * 2.0,
    )
    scheme = InducingScheme(
        fake, 0.0, 0.9, (0,), 0.1, 1,
        (Branch(0.0, 0.9, 1, (0,), True),), 1.0, ((0, 0.0, 1.0),),
        0.0,
    )
    with pytest.raises(BranchNotContractingError):
        periodic_anchors(scheme, [(0,)])


# ---------------------------------------------------------------------------
# Gibbs states
# ---------------------------------------------------------------------------

def test_gibbs_tent2_exact(tent2_gibbs, tent2_scheme):
    gs = tent2_gibbs
    assert gs.pressure == pytest.approx(0.0, abs=1e-6)
    assert np.allclose(gs.rho_grid, 1.0, atol=1e-6)
    assert gs.gibbs_constant == pytest.approx(1.0, abs=1e-6)
    assert gs.h_bound == pytest.approx(1.0, abs=1e-9)
    taus = tent2_scheme.taus
    # anchored weights of a word equal 2^(-total time)
    totals = np.concatenate([taus[w].sum(1) for w in gs.words])
    assert len(totals) == len(gs.mu_weights)
    for total, v in zip(totals, gs.mu_weights):
        assert v == pytest.approx(2.0 ** -int(total), rel=1e-6)
    assert np.allclose(gs.branch_mu, 2.0 ** -taus.astype(float), atol=1e-8)


def test_gibbs_weight_sums(tent2_gibbs, cheb_gibbs):
    for gs in (tent2_gibbs, cheb_gibbs):
        assert gs.weight_sums
        for s in gs.weight_sums:
            assert s <= 1.0 + 1e-12
            assert s >= 1.0 - 0.05


def test_gibbs_eigen_residual(tent2_gibbs, cheb_gibbs, cheb_gibbs_t09):
    # L_Psi rho = rho under the lambda-normalised potential, to the accuracy
    # of SpectralOperator.eigen
    for gs in (tent2_gibbs, cheb_gibbs, cheb_gibbs_t09):
        lhs = gs._op.apply(gs.rho_grid, gs._W)
        resid = float(np.max(np.abs(lhs - gs.rho_grid)))
        assert resid < 1e-11 * float(np.max(gs.rho_grid))


def test_gibbs_sandwich_and_h_bound(tent2_gibbs, cheb_gibbs, cheb_gibbs_t09):
    for gs in (tent2_gibbs, cheb_gibbs, cheb_gibbs_t09):
        K = gibbs_sandwich_report(gs, depth=4)
        assert K <= gs.gibbs_constant * (1 + 1e-9)
        assert gs.gibbs_constant <= gs.h_bound * 1.5


def test_gibbs_rho_positive_bounded(cheb_gibbs):
    gs = cheb_gibbs
    assert np.all(gs.rho_grid > 0)
    osc = float(np.log(gs.rho_grid.max() / gs.rho_grid.min()))
    # V_0(log rho) <= 2 log B_0
    assert osc <= 2 * math.log(gs.variation.B[0]) + 0.1


def test_eigen_diverged_error(cheb_op):
    # cheb's density is non-constant, so one iteration cannot converge
    with pytest.raises(TransferOperatorDivergedError):
        cheb_op.eigen(1.0, 0.0, max_iter=1)


# ---------------------------------------------------------------------------
# Projection and invariance
# ---------------------------------------------------------------------------

def test_projection_tent2_uniform(tent2_scheme, tent2_gibbs):
    mu = project_measure(tent2_scheme, tent2_gibbs, bins=256)
    assert mu.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert mu.tau_mean == pytest.approx(2.0, abs=1e-6)
    dev = np.abs(mu.masses * 256 - 1.0)
    assert dev.max() < 0.02


def test_projection_cheb_acip(cheb_equilibrium):
    mu = cheb_equilibrium
    want = cheb_acip_bin_masses(mu.bins)
    l1 = float(np.abs(mu.masses - want).sum())
    assert l1 < 0.05
    assert mu.tau_mean == pytest.approx(4.0, abs=0.05)


def test_projection_cheb_vs_birkhoff(cheb, cheb_equilibrium):
    from thermoform.density import birkhoff_density

    dens = birkhoff_density(cheb, 1024, orbits=400, steps=3000, burn=200)
    l1 = float(np.abs(
        cheb_equilibrium.masses.reshape(1024, -1).sum(axis=1) - dens
    ).sum())
    assert l1 < 0.05


def test_branch_children_rows_are_pullbacks(cheb_gibbs):
    # row i holds the kept continuations pulled back through branch i, with
    # the bits of one pull_back through that branch's itinerary
    gs = cheb_gibbs
    branches = gs.scheme.branches
    sel, lo, hi, masses = branch_children(gs, cap=50)
    n = len(sel)
    assert lo.shape == hi.shape == masses.shape == (len(branches), n)
    ends = [branches[j].lo for j in sel] + [branches[j].hi for j in sel]
    for i, b in enumerate(branches):
        pts, _ = gs.scheme.map.pull_back(b.itinerary, ends, logs=False)
        assert np.array_equal(lo[i], np.minimum(pts[:n], pts[n:]))
        assert np.array_equal(hi[i], np.maximum(pts[:n], pts[n:]))


def test_projection_ignores_rounding_of_tied_masses(tent19_scheme):
    # tent 1.9 has groups of branches whose masses agree to rounding where
    # the projection's child cap cuts; noise at that level must not decide
    # which of them are refined
    op = SpectralOperator(tent19_scheme)
    gs = gibbs_state(op, 1.0, weight_depth=1)
    mu = project_measure(tent19_scheme, gs, split_parts=8)
    rng = np.random.default_rng(0)
    noise = 1.0 + 4e-16 * rng.choice([-1.0, 1.0], len(gs.branch_mu))
    noisy = dataclasses.replace(gs, branch_mu=gs.branch_mu * noise)
    l1 = float(np.abs(project_measure(tent19_scheme, noisy, split_parts=8).masses
                      - mu.masses).sum())
    assert l1 <= 1e-12


def test_invariance_examples(tent2, tent2_equilibrium, cheb, cheb_equilibrium):
    tests = chebyshev_tests()
    # projected equilibria
    assert invariance_residual(tent2, tent2_equilibrium, tests) < 2e-2
    assert invariance_residual(cheb, cheb_equilibrium, tests) < 2e-2
    # exact invariant input: Lebesgue for the full tent
    lebesgue = EquilibriumMeasure(tent2, 1.0, np.full(4096, 1 / 4096), 2.0)
    assert invariance_residual(tent2, lebesgue, tests) < 1e-2
    with pytest.raises(ValueError):
        invariance_residual(tent2, lebesgue, {})


def test_invariance_point_mass_at_fixed_point():
    # custom quadratic with fixed point exactly at a bin center (17 bins)
    a = 2.0

    def f(x):
        x = np.asarray(x, dtype=float)
        return a * x * (1 - x)

    def df(x):
        return a * (1 - 2 * np.asarray(x, dtype=float))

    def d2f(x):
        return np.full_like(np.asarray(x, dtype=float), -2 * a)

    def inv(b, y):
        r = np.sqrt(np.maximum(0.25 - np.asarray(y, dtype=float) / a, 0.0))
        return 0.5 - r if b == 0 else 0.5 + r

    m = IntervalMap("toy", (a,), f, df, d2f,
                    (CriticalPoint(0.5, 2.0, "maximum"),), inv)
    masses = np.zeros(17)
    masses[8] = 1.0  # bin center (8 + 0.5)/17 = 0.5 = the fixed point
    mu = EquilibriumMeasure(m, 1.0, masses, 1.0)
    assert invariance_residual(m, mu, chebyshev_tests()) == 0.0


def test_conformality_suite(tent2_gibbs, cheb_gibbs):
    assert conformality_report(tent2_gibbs) < 0.05
    assert conformality_report(cheb_gibbs) < 0.05


def test_tau_mean_consistency(tent2_gibbs, cheb_gibbs):
    assert tau_mean_consistency(tent2_gibbs) < 0.01
    assert tau_mean_consistency(cheb_gibbs) < 0.01


def test_csv_dumps(tmp_path, tent2_equilibrium):
    mpath = tmp_path / "measure.csv"
    measure_to_csv(tent2_equilibrium, mpath)
    lines = mpath.read_text().strip().splitlines()
    assert len(lines) == tent2_equilibrium.bins + 1
