import dataclasses
import itertools
import math

import numpy as np
import pytest

from thermoform import thermo
from thermoform.errors import (
    BranchNotContractingError,
    PressureUnbracketedError,
    TransferOperatorDivergedError,
    UnstablePressureWarning,
)
from thermoform.inducing import Branches, InducingScheme
from thermoform.maps import CriticalPoint, IntervalMap, make_map
from thermoform.thermo import (
    PROJECTION_CHUNK,
    EquilibriumMeasure,
    SpectralOperator,
    branch_children,
    conformality_report,
    enumerate_words,
    gibbs_sandwich_report,
    gibbs_state,
    induced_potential,
    invariance_residual,
    measure_to_csv,
    periodic_anchors,
    pressure_estimate,
    project_measure,
    projection_pieces,
    solve_pressure,
    tau_mean_consistency,
    variation_profile,
    zk_sum,
)
from thermoform.util import IntervalHistogram
from tests.conftest import (
    branch_rows, cheb_acip_bin_masses, gibbs_for, project_one,
)

LOG2 = math.log(2.0)


def bisect_monotone(g, lo, hi, target, tol=1e-13, max_iter=200):
    """Solve g(x) = target for monotone g on [lo, hi] by bisection.

    The bracket is trusted: g(lo) and g(hi) must straddle the target
    (within floating slack).  Never evaluates outside [lo, hi].
    """
    glo = g(lo) - target
    ghi = g(hi) - target
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        # Allow tiny bracket slack from rounding at the endpoints.
        if min(abs(glo), abs(ghi)) < 1e-9:
            return lo if abs(glo) < abs(ghi) else hi
        raise ValueError("bisect_monotone: target not bracketed")
    a, b = lo, hi
    fa = glo
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = g(m) - target
        if fm == 0.0 or (b - a) < tol:
            return m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


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
    branches = branch_rows(cheb_scheme.branches)
    widths = np.array([b.width for b in branches])
    for i in np.argsort(-widths)[:3]:
        b = branches[i]
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
    m, branches = cheb_scheme.map, branch_rows(cheb_scheme.branches)

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
    var = variation_profile(tent2_op, pot, 5)
    assert np.allclose(var.V, 0.0, atol=1e-12)
    assert np.allclose(var.B, 1.0, atol=1e-12)


def test_variation_cheb_decay_and_doubling(cheb_scheme, cheb_op):
    pot = induced_potential(cheb_op, 1.0, 0.0)
    var = variation_profile(cheb_op, pot, 6)
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
    var2 = variation_profile(cheb_op, pot2, 6)
    assert np.allclose(var2.V, 2.0 * var.V, rtol=1e-12)


def fresh_variation(scheme, pot, k_max):
    """V_k of variation_profile with every sampled word pulled back afresh."""
    taus, branches = scheme.taus, branch_rows(scheme.branches)
    base = scheme.base_lo + np.array([1 / 6, 1 / 2, 5 / 6]) * scheme.base_width
    rank = np.argsort(-np.exp(pot.psi_fix), kind="stable")
    Vs = []
    for k in range(1, k_max + 1):
        nb = max(2, int(round(thermo.VARIATION_WORDS ** (1.0 / k))))
        alphabet = np.sort(rank[:nb])
        V = 0.0
        for word in itertools.product(alphabet.tolist(), repeat=k):
            if sum(taus[i] for i in word) > scheme.n_max + 2 * k:
                continue
            tail = base
            for i in reversed(word[1:]):
                tail, _ = scheme.map.pull_back(branches[i].itinerary,
                                               tail, logs=False)
            _, sl = scheme.map.pull_back(branches[word[0]].itinerary, tail)
            psi = -pot.t * sl
            V = max(V, float(psi.max() - psi.min()))
        Vs.append(V)
    return np.array(Vs)


def test_variation_memo_matches_fresh_pullback(cheb_scheme, monkeypatch):
    # the first-branch sums are pulled back once per (depth, alphabet) and
    # reweighted at every t, with the bits of a fresh pullback
    op = SpectralOperator(cheb_scheme)
    pots = [induced_potential(op, t, 0.1) for t in (1.0, 0.9)]
    got = [variation_profile(op, pot, 2) for pot in pots]
    for pot, var in zip(pots, got):
        assert np.array_equal(var.V, fresh_variation(cheb_scheme, pot, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("variation_profile pulled points back again")

    monkeypatch.setattr(IntervalMap, "pull_back", refuse)
    again = variation_profile(op, pots[0], 2)
    assert np.array_equal(again.V, got[0].V)
    assert np.array_equal(again.B, got[0].B)
    assert again.tail_rate == got[0].tail_rate


# ---------------------------------------------------------------------------
# Z_k
# ---------------------------------------------------------------------------

def one_branch(lo, hi):
    """The Branches of a one-branch scheme: (lo, hi), tau 1, symbol 0."""
    return Branches(np.array([lo]), np.array([hi]), np.array([1]),
                    np.zeros((1, 1), dtype=np.int8))


def test_zk_single_branch_power():
    # a one-branch scheme has Z_k = w^k with w the branch weight
    m = make_map("tent", {"s": 2.0})
    scheme = InducingScheme(
        m, 0.0, 0.5, (0,), 0.1, 1, one_branch(0.0, 0.25), 0.5, ((0, 0.0, 1.0),),
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


def test_enumerate_words_lexicographic(cheb_scheme):
    # the array enumeration against every k-word, in lexicographic order,
    # filtered by the budget
    taus = cheb_scheme.taus
    for k, budget in ((2, 12), (3, 15)):
        want = np.indices((len(taus),) * k).reshape(k, -1).T
        want = want[taus[want].sum(1) <= budget]
        words = enumerate_words(cheb_scheme, k, budget)
        assert len(want) and words.shape == (len(want), k)
        assert np.array_equal(words, want)


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


def test_pressure_root_is_exact(cheb_op, cheb_gibbs, cheb_gibbs_t09):
    # false position stops on the root of P_G itself, not at a bracket
    # midpoint within the warning tolerance
    for gs in (cheb_gibbs, cheb_gibbs_t09):
        assert abs(pressure_estimate(cheb_op, gs.t, gs.pressure)) <= 1e-13


@pytest.mark.parametrize("name", ["tent2", "cheb"])
def test_gibbs_state_operator_solves(name, request, gibbs_cache, monkeypatch):
    # the root takes at most 20 eigen solves (two of them the bracket ends),
    # and the Gibbs state assembles one matrix after it for lambda, rho and nu
    op = request.getfixturevalue(f"{name}_op")
    solves, assemblies = [], []
    estimate, matrix = thermo.pressure_estimate, SpectralOperator.matrix

    def counted_estimate(*args):
        solves.append(args)
        return estimate(*args)

    def counted_matrix(self, W):
        assemblies.append(len(solves))
        return matrix(self, W)

    monkeypatch.setattr(thermo, "pressure_estimate", counted_estimate)
    monkeypatch.setattr(SpectralOperator, "matrix", counted_matrix)
    gs = gibbs_state(op, 1.0)
    assert 2 < len(solves) <= 20
    assert assemblies == list(range(1, len(solves) + 1)) + [len(solves)]
    assert gs.pressure == gibbs_for(gibbs_cache, op, 1.0).pressure


def test_pressure_step_cap_warns(tent2_op, monkeypatch):
    monkeypatch.setattr(thermo, "ROOT_ITERS", 2)
    with pytest.warns(UnstablePressureWarning) as caught:
        solve_pressure(tent2_op, 0.9)
    # two secant steps from (-5, 5) leave the residual above tol as well
    msgs = [str(w.message) for w in caught]
    assert len(msgs) == 2 and msgs[0] == "pressure root not found in 2 steps"
    assert msgs[1].startswith("pressure residual")


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
        fake, 0.0, 0.9, (0,), 0.1, 1, one_branch(0.0, 0.9), 1.0, ((0, 0.0, 1.0),),
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
    assert np.allclose(gs.variation.B, 1.0, atol=1e-9)
    taus = tent2_scheme.taus
    assert np.allclose(gs.branch_mu, 2.0 ** -taus.astype(float), atol=1e-8)


def test_gibbs_eigen_residual(tent2_gibbs, cheb_gibbs, cheb_gibbs_t09):
    # L_Psi rho = rho and nu L_Psi = nu under the lambda-normalised potential,
    # to the accuracy of the power iteration.  L is applied here by its
    # interpolation stencil, a gather for rho and a scatter for nu, so the
    # assembled matrix is checked against both.
    for gs in (tent2_gibbs, cheb_gibbs, cheb_gibbs_t09):
        op, W, rho, nu = gs._op, gs._W, gs.rho_grid, gs.nu_grid
        rho_y = rho[op.idx] * (1.0 - op.frac) + rho[op.idx + 1] * op.frac
        lhs = (W * rho_y).sum(axis=0)
        assert float(np.max(np.abs(lhs - rho))) < 1e-11 * float(np.max(rho))
        left = np.zeros_like(nu)
        np.add.at(left, op.idx, W * (1.0 - op.frac) * nu)
        np.add.at(left, op.idx + 1, W * op.frac * nu)
        assert float(np.max(np.abs(left - nu))) <= 1e-10 * float(np.max(nu))


def test_gibbs_sandwich_and_h_bound(tent2_gibbs, cheb_gibbs, cheb_gibbs_t09):
    # the report is the stored K, which stays within 1.5 B_0^4 (B_0 the
    # depth-0 variation bound of e^(Psi)); constant slope gives K = 1
    for gs in (tent2_gibbs, cheb_gibbs, cheb_gibbs_t09):
        K = gibbs_sandwich_report(gs)
        assert K <= gs.gibbs_constant * (1 + 1e-9)
        assert gs.gibbs_constant <= 1.5 * gs.variation.B[0] ** 4
    assert tent2_gibbs.gibbs_constant == pytest.approx(1.0, abs=1e-9)


def sandwich_by_operator_sums(gs, op):
    """The depth-1 Gibbs constant recomputed from the operator's orbit sums
    and the state's pressure and lambda: the sup/inf over branches i and base
    nodes x of mu(X_i) / e^(Psi_1) at the branch-i preimage of x."""
    psi = gs.psi_eff(op.sumlog, gs.scheme.taus[:, None], 1)
    r = gs.branch_mu[:, None] / np.exp(psi)
    return max(1.0, float(r.max()), float(1.0 / r.min()))


@pytest.mark.parametrize("name, kw", [("cheb", {}), ("tent19", {"pressure_tol": 1e-6})])
def test_sandwich_report_reweights_stored_sums(name, kw, request, gibbs_cache,
                                               monkeypatch):
    # two t on one operator: K reweights the branch weights the operator
    # quadrature already holds, exactly as recomputing Psi_1 gives them
    op = request.getfixturevalue(f"{name}_op")
    states = [gibbs_for(gibbs_cache, op, t, **kw) for t in (0.9, 1.0)]
    want = [sandwich_by_operator_sums(gs, op) for gs in states]
    assert [gs.gibbs_constant for gs in states] == pytest.approx(want, rel=1e-12)
    if name == "tent19":
        # constant slope: rho is constant and mu(X_i) = e^(Psi_1) on all of X_i
        assert want == pytest.approx([1.0, 1.0], abs=1e-9)
    else:
        assert min(want) > 1.0

    def refuse(*args, **kwargs):
        raise AssertionError("gibbs_sandwich_report pulled points back")

    monkeypatch.setattr(IntervalMap, "pull_back", refuse)
    assert [gibbs_sandwich_report(gs) for gs in states] == \
        [gs.gibbs_constant for gs in states]


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
    mu = project_one(tent2_scheme, tent2_gibbs, bins=256)
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
    branches = branch_rows(gs.scheme.branches)
    sel, lo, hi, masses = branch_children(gs, cap=50)
    n = len(sel)
    assert lo.shape == hi.shape == masses.shape == (len(branches), n)
    ends = [branches[j].lo for j in sel] + [branches[j].hi for j in sel]
    for i, b in enumerate(branches):
        pts, _ = gs.scheme.map.pull_back(b.itinerary, ends, logs=False)
        assert np.array_equal(lo[i], np.minimum(pts[:n], pts[n:]))
        assert np.array_equal(hi[i], np.maximum(pts[:n], pts[n:]))


def test_projection_ignores_rounding_of_tied_masses(tent19_scheme, tent19_gibbs):
    # tent 1.9 has groups of branches whose masses agree to rounding where
    # the projection's child cap cuts; noise at that level must not decide
    # which of them are refined
    gs = tent19_gibbs
    mu = project_one(tent19_scheme, gs, split_parts=8)
    rng = np.random.default_rng(0)
    noise = 1.0 + 4e-16 * rng.choice([-1.0, 1.0], len(gs.branch_mu))
    noisy = dataclasses.replace(gs, branch_mu=gs.branch_mu * noise)
    l1 = float(np.abs(project_one(tent19_scheme, noisy, split_parts=8).masses
                      - mu.masses).sum())
    assert l1 <= 1e-12


def project_by_branch(scheme, gs, bins=4096, split_parts=32):
    """Reference projection: one branch at a time, every part of every piece
    at every step, gaps found by a scan over the children."""
    m = scheme.map
    hist = IntervalHistogram(bins)
    cap = max(8, min(200, 40_000 // max(len(scheme.branches), 1)))
    fracs = np.linspace(0.0, 1.0, split_parts + 1)
    _, children_lo, children_hi, children_mass = branch_children(gs, cap=cap)
    for i, b in enumerate(branch_rows(scheme.branches)):
        clo, chi, masses = children_lo[i], children_hi[i], children_mass[i]
        leftover = max(float(gs.branch_mu[i]) - float(masses.sum()), 0.0)
        order = np.argsort(clo)
        glo, ghi = [], []
        cursor = b.lo
        for u, v in zip(clo[order], chi[order]):
            if u - cursor > 1e-12:
                glo.append(cursor)
                ghi.append(u)
            cursor = max(cursor, v)
        if b.hi - cursor > 1e-12:
            glo.append(cursor)
            ghi.append(b.hi)
        lo, hi, ms = clo, chi, masses
        if glo and leftover > 0:
            gw = np.array(ghi) - np.array(glo)
            lo = np.concatenate([clo, glo])
            hi = np.concatenate([chi, ghi])
            ms = np.concatenate([masses, leftover * gw / gw.sum()])
        pts = lo[:, None] + fracs * (hi - lo)[:, None]
        part_mass = np.repeat(ms / split_parts, split_parts)
        for _ in range(b.tau):
            hist.add_many(pts[:, :-1].ravel(), pts[:, 1:].ravel(), part_mass)
            pts = np.asarray(m.f(pts))
    values = hist.values()
    return values / values.sum(), float((gs.branch_mu * scheme.taus).sum())


@pytest.mark.parametrize("name", ["tent2", "cheb", "tent19"])
def test_projection_matches_branch_loop(name, request):
    scheme = request.getfixturevalue(f"{name}_scheme")
    gs = request.getfixturevalue(f"{name}_gibbs")
    mu = project_one(scheme, gs)
    want, tau_mean = project_by_branch(scheme, gs)
    big = want > 1e-12 * want.max()
    assert np.all(np.abs(mu.masses - want)[big] <= 1e-12 * want[big])
    assert mu.tau_mean == tau_mean
    assert mu.masses.sum() == pytest.approx(1.0, abs=1e-14)


def test_projection_batches_histogram_calls(cheb_scheme, cheb_gibbs,
                                            cheb_gibbs_t09, monkeypatch):
    # one add_many call per t, chunk of pieces and step, not per branch and step
    calls = []
    add_many = IntervalHistogram.add_many

    def counted(self, lo, hi, mass):
        calls.append(len(lo))
        return add_many(self, lo, hi, mass)

    monkeypatch.setattr(IntervalHistogram, "add_many", counted)
    pieces = [projection_pieces(cheb_gibbs), projection_pieces(cheb_gibbs_t09)]
    project_measure(cheb_scheme, pieces)
    bound = 0
    for p in pieces:
        chunks = -(-len(p.tau) // (PROJECTION_CHUNK // (32 + 1)))  # split_parts 32
        bound += 2 * chunks * int(p.tau.max())
    assert 0 < len(calls) <= bound


def test_projection_batch_matches_batches_of_one(cheb_scheme, cheb_gibbs,
                                                 cheb_gibbs_t09, cheb_equilibrium,
                                                 cheb_equilibrium_t09):
    pieces = [projection_pieces(cheb_gibbs), projection_pieces(cheb_gibbs_t09)]
    assert pieces[0].lo is pieces[1].lo  # one geometry, stored once
    for mu, want in zip(project_measure(cheb_scheme, pieces, bins=4096),
                        (cheb_equilibrium, cheb_equilibrium_t09)):
        assert mu.t == want.t
        assert np.array_equal(mu.masses, want.masses)
        assert mu.tau_mean == want.tau_mean


def test_projection_mixed_geometry_batch(cheb_scheme, cheb_gibbs, cheb_gibbs_t09):
    # a state keeping other continuations has other pieces; each record's
    # measure does not depend on what else is in the call
    gs = cheb_gibbs
    other = dataclasses.replace(gs, branch_mu=np.roll(gs.branch_mu, 1))
    pieces = [projection_pieces(s) for s in (gs, other, cheb_gibbs_t09)]
    assert not pieces[0].same_geometry(pieces[1])
    batch = project_measure(cheb_scheme, pieces)
    for p, mu in zip(pieces, batch):
        want, = project_measure(cheb_scheme, [p])
        assert mu.t == want.t and mu.tau_mean == want.tau_mean
        assert np.array_equal(mu.masses, want.masses)


def test_projection_batch_pushes_points_once(cheb_scheme, cheb_op, cheb_gibbs,
                                             cheb_gibbs_t09, gibbs_cache):
    # three t values of one geometry cost the forward iterations of one
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return cheb_scheme.map.f(x)

    scheme = dataclasses.replace(
        cheb_scheme, map=dataclasses.replace(cheb_scheme.map, f=f))
    states = (cheb_gibbs, cheb_gibbs_t09, gibbs_for(gibbs_cache, cheb_op, 1.1))
    pieces = [projection_pieces(gs) for gs in states]
    assert all(p.same_geometry(pieces[0]) for p in pieces)
    project_measure(scheme, pieces[:1])
    one = list(calls)
    calls.clear()
    project_measure(scheme, pieces)
    assert one and calls == one


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
