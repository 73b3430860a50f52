"""Induced thermodynamics: variations, partition sums, pressure, Gibbs states.

All induced-word bookkeeping is anchored at periodic points of composed
inverse branches (each word cylinder contains exactly one), and every
quantity depending on (t, s) factors through the t- and s-independent orbit
data (sum of log|Df| and total time), so pressure root-finding reuses one
enumeration.

Words of depth k are (n, k) int arrays of branch indices.  The per-scheme
state (assembled transfer operator, branch anchors, word data) lives in one
SpectralOperator that the caller builds for each scheme and passes to
pressure_estimate, solve_pressure and gibbs_state.  Nothing is kept at
module level, so a result depends on (scheme, grid, t) and not on which
calls came before it.
"""

from dataclasses import dataclass, field
import math
import warnings

import numpy as np

from .errors import (
    BranchNotContractingError,
    PressureUnbracketedError,
    ProjectionUnstableWarning,
    TransferOperatorDivergedError,
    UnstablePressureWarning,
    VariationNotSummableWarning,
)
from .inducing import InducingScheme
from .maps import IntervalMap
from .util import IntervalHistogram, fmt12

FIX_TOL = 1e-15
FIX_ITERS = 200
WORD_CAP = 2_000_000            # enumerate_words refuses more words
VARIATION_WORDS = 1500          # words sampled per depth by variation_profile
VARIATION_KMAX = 4              # depths gibbs_state passes to variation_profile
CONFORMAL_CONTINUATIONS = 64    # continuations checked by conformality_report
TIE_RTOL = 1e-12                # masses this close count as equal in _strongest
# gibbs_state stores the words of total time <= n_max + WEIGHT_SLACK, depth by
# depth, up to the first depth with more than WEIGHT_WORD_LIMIT of them
WEIGHT_SLACK = 8
WEIGHT_WORD_LIMIT = 300_000


# ---------------------------------------------------------------------------
# Word enumeration and periodic anchors
# ---------------------------------------------------------------------------

def enumerate_words(scheme: InducingScheme, k, budget=None):
    """All k-words of branch indices with total inducing time <= budget.

    Returns an (n, k) int array, lexicographic in branch indices (branches
    are ordered left to right), hence deterministic.  budget=None means
    unconstrained.
    """
    taus = scheme.taus
    nb = len(taus)
    if nb == 0:
        return np.zeros((0, k), dtype=int)
    mintau = int(taus.min())
    words = np.zeros((1, 0), dtype=int)
    used = np.zeros(1, dtype=int)
    for depth in range(k):
        if budget is None:
            room = np.full(len(words), int(taus.max()))
        else:
            room = budget - used - (k - depth - 1) * mintau
        # Each prefix continues with the letters that fit its room, in index
        # order: row r of `first` lists the letters fitting rooms[r] first.
        rooms, which = np.unique(room, return_inverse=True)
        fits = taus <= rooms[:, None]
        first = np.argsort(~fits, axis=1, kind="stable")
        counts = fits.sum(1)[which]
        parent = np.repeat(np.arange(len(words)), counts)
        pos = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        letter = first[which[parent], pos]
        words = np.column_stack([words[parent], letter])
        used = used[parent] + taus[letter]
        if len(words) > WORD_CAP:
            raise MemoryError("word enumeration exceeded WORD_CAP")
    return words


def _group_words(scheme, words):
    """Group words by total symbol length L; yields (rows, symbols) with
    symbols the (len(rows), L) concatenated branch itineraries."""
    taus = scheme.taus
    words = np.asarray(words, dtype=int)
    if words.size == 0:
        return
    itin = np.zeros((len(taus), int(taus.max())), dtype=np.int16)
    for i, b in enumerate(scheme.branches):
        itin[i, :b.tau] = b.itinerary
    lens = taus[words]
    totals = lens.sum(1)
    live = np.arange(itin.shape[1])
    for L in np.unique(totals):
        rows = np.nonzero(totals == L)[0]
        valid = live < lens[rows][..., None]
        yield rows, itin[words[rows]][valid].reshape(len(rows), L)


def _pull_words(scheme, words, points, logs=True):
    """Pull each row of points back through the matching word (row-wise
    IntervalMap.pull_back); returns (points, sumlog)."""
    pts = np.array(points, dtype=float)
    sumlog = np.zeros_like(pts) if logs else None
    for rows, sym in _group_words(scheme, words):
        pts[rows], sl = scheme.map.pull_back(sym, pts[rows], logs)
        if logs:
            sumlog[rows] = sl
    return pts, sumlog


def periodic_anchors(scheme: InducingScheme, words):
    """Fixed point of the composed inverse branch of each word.

    Iterates the contraction from the base midpoint until the update falls
    below FIX_TOL (cap FIX_ITERS) and verifies contraction by two-point
    shrinkage.  Returns (x_fix, sumlog, total_tau) aligned with words.

    FIX_TOL only stops the iteration; it is not an error bound.  The anchor
    error is set by cancellation in the inverse branches where a chain
    passes near a critical value: about 1e-13 on the Chebyshev base (0, 1),
    whose left end maps onto the critical point 1/2.
    """
    m = scheme.map
    n = len(words)
    xf, sl = np.empty(n), np.empty(n)
    lt = np.empty(n, dtype=int)
    mid = 0.5 * (scheme.base_lo + scheme.base_hi)
    probe = scheme.base_lo + 0.25 * scheme.base_width
    for rows, sym in _group_words(scheme, words):
        L = sym.shape[1]
        x = np.full(len(rows), mid)
        for it in range(FIX_ITERS):
            z, _ = m.pull_back(sym, x, logs=False)
            if it == 0:
                zy, _ = m.pull_back(sym, np.full(len(rows), probe), logs=False)
                shrink = np.abs(z - zy) / abs(mid - probe)
                if np.any(shrink >= 1.0):
                    bad = int(rows[int(np.argmax(shrink))])
                    raise BranchNotContractingError(
                        f"word {np.asarray(words[bad]).tolist()} failed two-point shrinkage"
                    )
            delta = float(np.max(np.abs(z - x)))
            x = z
            if delta < FIX_TOL:
                break
        # Orbit sum of log|Df| along the backward (contracting) sweep: the
        # pullback intermediates are f^j(x) computed stably.  Forward float
        # iteration expands the anchor error by |DF| each return; on the
        # Chebyshev base (0, 1) it leaves a 2-word cylinder after one return
        # of 20 steps.
        _, logd = m.pull_back(sym, x)
        xf[rows], sl[rows], lt[rows] = x, logd, L
    return xf, sl, lt


def count_words(scheme, k, budget):
    """Number of k-words with total time <= budget, without enumerating."""
    taus = scheme.taus
    if budget is None:
        return len(taus) ** k
    hist = np.bincount(taus, minlength=budget + 1)[: budget + 1].astype(float)
    ways = hist.copy()
    for _ in range(k - 1):
        ways = np.convolve(ways, hist)[: budget + 1]
    return int(round(ways.sum()))


# ---------------------------------------------------------------------------
# Induced potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InducedPotential:
    """Per-branch values of Psi = Phi - s*tau with Phi = -t log|DF|.

    Carries the t-independent orbit sums so any (t, s) reweighting is a
    closed-form operation.
    """

    scheme: InducingScheme
    t: float
    s: float
    tau: np.ndarray = field(repr=False)
    x_fix: np.ndarray = field(repr=False)
    sumlog_fix: np.ndarray = field(repr=False)

    @property
    def phi_fix(self):
        return -self.t * self.sumlog_fix

    @property
    def psi_fix(self):
        return self.phi_fix - self.s * self.tau


def induced_potential(op, t, s) -> InducedPotential:
    """Branch potential data at the branch fixed points, from the orbit data
    held by the scheme's SpectralOperator `op`."""
    scheme = op.scheme
    bad = sum(1 for b in scheme.branches if not b.extension_ok)
    if bad:
        warnings.warn(f"{bad} branches lack the extension margin", UserWarning)
    _, xf, slf, _ = op.word_data(1, None)
    return InducedPotential(scheme, float(t), float(s), scheme.taus, xf, slf)


# ---------------------------------------------------------------------------
# Variations and distortion constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationProfile:
    """V_k = oscillation of the one-step induced potential over k-cylinders;
    B_k = exp(sum_{j>k} V_j) with a geometric tail extrapolation."""

    V: np.ndarray
    B: np.ndarray
    tail_rate: float


def variation_profile(scheme, pot: InducedPotential, k_max) -> VariationProfile:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    taus = scheme.taus
    base = scheme.base_lo + np.array([1 / 6, 1 / 2, 5 / 6]) * scheme.base_width
    # Sample words over the heaviest branches so deep levels stay tractable:
    # alphabet size drops with depth, keeping ~VARIATION_WORDS words per level.
    rank = np.argsort(-np.exp(pot.psi_fix), kind="stable")
    Vs = []
    for k in range(1, k_max + 1):
        nb = max(2, int(round(VARIATION_WORDS ** (1.0 / k))))
        alphabet = np.sort(rank[:nb])
        words = alphabet[np.indices((len(alphabet),) * k).reshape(k, -1).T]
        words = words[taus[words].sum(1) <= scheme.n_max + 2 * k]
        if not len(words):
            Vs.append(0.0)
            continue
        # The first branch's share of the sum: pull the samples back through
        # the word's tail, then through its first branch.
        tail, _ = _pull_words(scheme, words[:, 1:],
                              np.tile(base, (len(words), 1)), logs=False)
        _, sl_first = _pull_words(scheme, words[:, :1], tail)
        psi = -pot.t * sl_first  # the -s*tau1 shift is constant per word
        Vs.append(float((psi.max(axis=1) - psi.min(axis=1)).max()))
    V = np.array(Vs)
    lam = 1.0
    pos = np.nonzero(V > 1e-14)[0]
    if len(pos) >= 2 and V[pos[-1]] < V[pos[-2]]:
        lam = float((V[pos[-1]] / V[pos[-2]]) ** (1.0 / (pos[-1] - pos[-2])))
    if lam >= 1.0 and V[-1] > 1e-14:
        warnings.warn("V_k tail not decreasing; geometric fit impossible",
                      VariationNotSummableWarning)
        lam = 1.0
    tail = V[-1] * lam / (1.0 - lam) if lam < 1.0 else 0.0
    B = np.array([math.exp(float(V[k:].sum()) + tail) for k in range(k_max + 1)])
    return VariationProfile(V, B, lam)


# ---------------------------------------------------------------------------
# Partition sums
# ---------------------------------------------------------------------------

def zk_sum(op, pot: InducedPotential, k, N):
    """Z_k = sum over k-periodic words (total time <= N) of exp(Psi_k).

    Each word cylinder contains a unique periodic point of the composed
    inverse branch; Psi_k is evaluated there.  Word data comes from the
    operator's memo.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _, _, sl, lt = op.word_data(k, N)
    if len(sl) == 0:
        return 0.0
    return float(np.exp(-pot.t * sl - pot.s * lt).sum())


# ---------------------------------------------------------------------------
# Spectral transfer operator on a base grid
# ---------------------------------------------------------------------------

class SpectralOperator:
    """Truncated transfer operator (L g)(x) = sum_i e^(Psi(y_i)) g(y_i) with
    y_i the branch-i preimage of x, discretised on base cell centers with
    linear interpolation of g.

    Branch pullbacks and orbit sums are (t, s)-independent; one assembly
    serves the whole potential family.  The caller builds one operator per
    scheme and passes it to pressure_estimate, solve_pressure and
    gibbs_state; it also holds a memo of word data (`word_data`, whose
    depth-1 words are the branch anchors), and is freed with the caller's
    reference.  No (t, s) state is kept between calls.
    """

    def __init__(self, scheme: InducingScheme, grid=256):
        self.scheme = scheme
        G = int(grid)
        a0, a1 = scheme.base_lo, scheme.base_hi
        h = (a1 - a0) / G
        self.xs = a0 + (np.arange(G) + 0.5) * h
        B = len(scheme.branches)
        Y, self.sumlog = _pull_words(scheme, np.arange(B)[:, None],
                                     np.tile(self.xs, (B, 1)))
        self.tau = scheme.taus.astype(float)
        pos = (Y - self.xs[0]) / h
        self.idx = np.clip(np.floor(pos).astype(int), 0, G - 2)
        self.frac = np.clip(pos - self.idx, 0.0, 1.0)
        self._words = {}

    def word_data(self, k, budget):
        """(words, x_fix, sumlog, total_tau) of the k-words with total time
        <= budget, computed once per (k, budget)."""
        if (k, budget) not in self._words:
            words = enumerate_words(self.scheme, k, budget)
            self._words[k, budget] = (words, *periodic_anchors(self.scheme, words))
        return self._words[k, budget]

    def weights(self, t, s):
        return np.exp(-t * self.sumlog - s * self.tau[:, None])

    def apply(self, g, W):
        gy = g[self.idx] * (1.0 - self.frac) + g[self.idx + 1] * self.frac
        return (W * gy).sum(axis=0)

    def apply_adjoint(self, nu, W):
        """Adjoint action on cell masses (conformal-measure side)."""
        out = np.zeros(len(self.xs))
        np.add.at(out, self.idx, W * (1.0 - self.frac) * nu[None, :])
        np.add.at(out, self.idx + 1, W * self.frac * nu[None, :])
        return out

    def left_eigen(self, W, tol=1e-12, max_iter=3000):
        """Leading left eigenvector (cell masses of the conformal measure)."""
        nu = np.ones(len(self.xs)) / len(self.xs)
        lam = 0.0
        for _ in range(max_iter):
            nn = self.apply_adjoint(nu, W)
            lam_new = float(nn.sum())
            nn /= lam_new
            diff = float(np.max(np.abs(nn - nu)))
            nu = nn
            done = abs(lam_new - lam) < tol * max(abs(lam_new), 1e-300) \
                and diff < 1e-12
            lam = lam_new
            if done:
                break
        else:
            raise TransferOperatorDivergedError(
                f"adjoint iteration not converged after {max_iter} steps"
            )
        return lam, nu

    def eigen(self, t, s, tol=1e-12, max_iter=3000, warm=None):
        """Leading eigenvalue and positive eigenfunction by power iteration.

        Starts from `warm` when given (a caller-owned vector, overwritten
        with the eigenfunction found), otherwise from g = 1.
        """
        W = self.weights(t, s)
        g = np.maximum(np.ones(len(self.xs)) if warm is None else warm, 1e-12)
        lam = 0.0
        for _ in range(max_iter):
            gn = self.apply(g, W)
            lam_new = float(gn.sum() / g.sum())
            gn /= lam_new
            diff = float(np.max(np.abs(gn - g))) / max(float(np.max(gn)), 1e-300)
            g = gn
            done = abs(lam_new - lam) < tol * max(abs(lam_new), 1e-300) and diff < 1e-10
            lam = lam_new
            if done:
                break
        else:
            raise TransferOperatorDivergedError(
                f"power iteration not converged after {max_iter} steps"
            )
        if warm is not None:
            warm[:] = g
        return lam, g

    def interp(self, x, g):
        """Evaluate a grid function at arbitrary points."""
        G = len(self.xs)
        h = self.xs[1] - self.xs[0]
        pos = (np.asarray(x, dtype=float) - self.xs[0]) / h
        idx = np.clip(np.floor(pos).astype(int), 0, G - 2)
        frac = np.clip(pos - idx, 0.0, 1.0)
        return g[idx] * (1.0 - frac) + g[idx + 1] * frac


# ---------------------------------------------------------------------------
# Pressure equation
# ---------------------------------------------------------------------------

def pressure_estimate(op, t, s, warm=None):
    """P_G(Phi - s tau) on the scheme of `op`: the log of the leading
    transfer-operator eigenvalue, biased only by grid interpolation and
    branch truncation.  `warm` is passed to SpectralOperator.eigen.
    """
    lam, _ = op.eigen(t, s, warm=warm)
    return math.log(lam)


def solve_pressure(op, t, bracket=(-5.0, 5.0), tol=1e-4):
    """Root of s -> P_G(Phi - s tau) by bisection.

    The map is strictly decreasing in s because tau >= 1; bisection inside
    the bracket is unconditionally safe.  Returns s* with |P_G(s*)| < tol.
    Each power iteration starts from the previous one's eigenfunction; the
    first starts from g = 1.
    """
    lo, hi = bracket
    warm = np.ones(len(op.xs))

    def g(s):
        return pressure_estimate(op, t, s, warm=warm)

    glo, ghi = g(lo), g(hi)
    if not (glo > 0.0 > ghi):
        raise PressureUnbracketedError(
            f"P_G({lo})={glo:.3g}, P_G({hi})={ghi:.3g}: no root in bracket"
        )
    a, b = lo, hi
    s_star, resid = None, None
    for _ in range(80):
        mid = 0.5 * (a + b)
        val = g(mid)
        if val > 0.0:
            a = mid
        else:
            b = mid
        if abs(val) < tol * 1e-3:
            s_star, resid = mid, val
            break
        if (b - a) < 1e-13:
            break
    if s_star is None:
        s_star = 0.5 * (a + b)
        resid = g(s_star)
    if abs(resid) > tol:
        warnings.warn(
            f"pressure residual {resid:.2e} above tolerance {tol}",
            UnstablePressureWarning,
        )
    return s_star


# ---------------------------------------------------------------------------
# Gibbs states
# ---------------------------------------------------------------------------

@dataclass
class GibbsState:
    scheme: InducingScheme
    t: float
    pressure: float            # P(phi_t): the root s*
    log_lambda: float          # eigenvalue fold-in: Psi_eff = Psi - log(lambda)
    rho_grid: np.ndarray = field(repr=False)
    nu_grid: np.ndarray = field(repr=False)     # conformal cell masses, sum 1
    branch_mu: np.ndarray = field(repr=False)   # invariant branch masses, sum 1
    branch_m: np.ndarray = field(repr=False)    # conformal branch masses, sum 1
    words: tuple = field(repr=False)            # (n_k, k) word arrays, k = 1, 2, ...
    mu_weights: np.ndarray = field(repr=False)  # anchored invariant masses
    weight_depth: int = 1
    weight_sums: tuple = ()
    gibbs_constant: float = 1.0
    h_bound: float = 1.0
    variation: VariationProfile = None
    _op: SpectralOperator = field(default=None, repr=False)
    _W: np.ndarray = field(default=None, repr=False)
    _GY: np.ndarray = field(default=None, repr=False)
    _m_norm: float = 1.0   # raw total of the operator branch m-masses

    @property
    def taus(self):
        return self.scheme.taus

    def psi_eff(self, sumlog, total_tau, k):
        """Normalised k-step potential Phi - s*tau - k log(lambda)."""
        return (-self.t * np.asarray(sumlog)
                - self.pressure * np.asarray(total_tau)
                - k * self.log_lambda)


def gibbs_state(op, t, weight_depth=4, pressure_tol=1e-4,
                bracket=(-5.0, 5.0)) -> GibbsState:
    """Pressure root, density, conformal/invariant cylinder weights on the
    scheme of the SpectralOperator `op`.

    The density rho and lambda are the leading eigenpair of L_Psi on the
    base grid at the pressure root, from SpectralOperator.eigen (which
    raises TransferOperatorDivergedError at its iteration cap); lambda is
    folded into the normalised potential so stored weights satisfy the Gibbs
    property with zero pressure.  The stored words are complete
    (budget-truncated) word sets, one array per depth from depth 1, and the
    weight arrays run over them depth by depth.
    """
    scheme = op.scheme
    s_star = solve_pressure(op, t, bracket=bracket, tol=pressure_tol)
    lam, g = op.eigen(t, s_star)
    W = op.weights(t, s_star)
    log_lam = math.log(lam)
    # Conformal measure as cell masses: left eigenvector of the same matrix.
    _, nu = op.left_eigen(W)
    # Normalise rho so that int rho dm = 1 on the grid.
    g = g / float((nu * g).sum())

    # Operator-quadrature branch masses: mu(X_i) = sum_l nu_l W_il rho(y_il),
    # m(X_i) = sum_l nu_l W_il (exact up to grid interpolation; the anchored
    # word weights keep the Z_k bookkeeping but are 1-point estimates).
    Wn = W * math.exp(-log_lam)
    GY = g[op.idx] * (1.0 - op.frac) + g[op.idx + 1] * op.frac
    branch_mu_op = (Wn * GY * nu[None, :]).sum(axis=1)
    branch_m_op = (Wn * nu[None, :]).sum(axis=1)
    m_norm = float(branch_m_op.sum())
    branch_mu_op = branch_mu_op / float(branch_mu_op.sum())
    branch_m_op = branch_m_op / m_norm

    budget = scheme.n_max + WEIGHT_SLACK
    words, depth_sums, mu_raw = [], [], []
    for k in range(1, weight_depth + 1):
        # Stop at the depth where complete enumeration stops being tractable;
        # stored depths then carry complete (budget-truncated) word sets.
        if k > 1 and count_words(scheme, k, budget) > WEIGHT_WORD_LIMIT:
            break
        wk, xfk, slk, ltk = op.word_data(k, budget)
        if not len(wk):
            break
        mk = np.exp(-t * slk - s_star * ltk.astype(float) - k * log_lam)
        words.append(wk)
        depth_sums.append(float(mk.sum()))
        mu_raw.append(mk * op.interp(xfk, g))

    c_m = 1.0 / max(depth_sums)
    c_mu = 1.0 / float(mu_raw[0].sum())

    _, xf, slf, _ = op.word_data(1, budget)
    pot = InducedPotential(scheme, float(t), s_star, scheme.taus, xf, slf)
    var = variation_profile(scheme, pot, VARIATION_KMAX)

    gs = GibbsState(
        scheme=scheme, t=float(t), pressure=s_star, log_lambda=log_lam,
        rho_grid=g, nu_grid=nu, branch_mu=branch_mu_op, branch_m=branch_m_op,
        words=tuple(words),
        mu_weights=np.concatenate(mu_raw) * c_mu,
        weight_depth=len(words),
        weight_sums=tuple(d * c_m for d in depth_sums),
        h_bound=float(var.B[0] ** 4), variation=var,
        _op=op, _W=Wn, _GY=GY, _m_norm=m_norm,
    )
    gs.gibbs_constant = gibbs_sandwich_report(gs)
    return gs


def _masses_between(gs: GibbsState, cell_masses, lo, hi):
    """Per row of `cell_masses` (one row per branch, one column per base
    cell), the mass between the base points lo and hi, linear inside a cell:
    a (branches, len(lo)) array."""
    op = gs._op
    h = op.xs[1] - op.xs[0]
    edges0 = op.xs[0] - 0.5 * h
    G = cell_masses.shape[1]
    cum = np.cumsum(cell_masses, axis=1)
    cum = np.concatenate([np.zeros((len(cum), 1)), cum], axis=1)

    def M(x):
        pos = np.clip((np.asarray(x, dtype=float) - edges0) / h, 0.0, G)
        cell = np.minimum(pos.astype(int), G - 1)
        return cum[:, cell] + cell_masses[:, cell] * (pos - cell)

    return M(hi) - M(lo)


def _strongest(masses, cap, coverage):
    """Sorted indices of the heaviest entries: the fewest whose total reaches
    `coverage`, at most `cap`, and then every entry within TIE_RTOL
    (relative) of the last one kept, so that rounding never splits a group
    of equal masses."""
    order = np.argsort(-masses, kind="stable")
    total = np.cumsum(masses[order])
    keep = min(len(order), cap, int(np.searchsorted(total, coverage)) + 1)
    last = masses[order[keep - 1]]
    keep = max(keep, int(np.count_nonzero(masses >= last * (1.0 - TIE_RTOL))))
    return np.sort(order[:keep])


def branch_children(gs: GibbsState, cap=200, coverage=0.995):
    """Depth-2 refinement of every branch: (sel, lo, hi, masses).

    The kept continuations `sel` are the same for every branch (_strongest
    of the invariant branch masses).  Row i of the (branches, len(sel))
    arrays lo, hi holds the pullbacks of the continuations X_j through
    branch i, and row i of masses slices branch i's invariant mass, the
    operator-quadrature cell masses mu_i(dy) = nu(dy) W_i(y) rho(y_i), along
    the continuations.  Mass not captured is the caller's remainder.
    """
    scheme = gs.scheme
    sel = _strongest(gs.branch_mu, cap, coverage)
    los = np.array([scheme.branches[j].lo for j in sel])
    his = np.array([scheme.branches[j].hi for j in sel])
    # mu-mass profiles over base cells, each rescaled to its stored mass
    c = gs.nu_grid * gs._W * gs._GY
    csum = c.sum(axis=1)
    c *= np.divide(gs.branch_mu, csum, out=np.ones_like(csum),
                   where=csum > 0)[:, None]
    masses = _masses_between(gs, c, los, his)
    # geometry: the refinement piece is the pullback of X_j through branch i
    B, nc = len(scheme.branches), len(sel)
    pts, _ = _pull_words(scheme, np.arange(B)[:, None],
                         np.tile(np.concatenate([los, his]), (B, 1)), logs=False)
    lo = np.minimum(pts[:, :nc], pts[:, nc:])
    hi = np.maximum(pts[:, :nc], pts[:, nc:])
    return sel, lo, hi, masses


# ---------------------------------------------------------------------------
# Projection to the interval
# ---------------------------------------------------------------------------

@dataclass
class EquilibriumMeasure:
    map: IntervalMap
    t: float
    masses: np.ndarray
    tau_mean: float

    @property
    def bins(self):
        return len(self.masses)

    @property
    def centers(self):
        n = self.bins
        return (np.arange(n) + 0.5) / n


def project_measure(scheme, gs: GibbsState, bins=4096,
                    split_parts=32) -> EquilibriumMeasure:
    """Push branch masses through f^k for 0 <= k < tau into a histogram.

    Branch mass is spread across its depth-2 refinement for resolution, and
    each refinement piece is subdivided into `split_parts` equal parts whose
    endpoints are iterated together, so the image mass carries the Jacobian
    of f^k instead of being flattened.  Normalised by the total pushed mass
    (the Kac denominator tau-mean).
    """
    m = scheme.map
    hist = IntervalHistogram(bins)
    # at most ~40k children over all branches
    cap = max(8, min(200, 40_000 // max(len(scheme.branches), 1)))
    tau_mean = float((gs.branch_mu * gs.taus).sum())
    if tau_mean > 1e3:
        warnings.warn("tau-mean exceeds 1e3; tail truncation dominates",
                      ProjectionUnstableWarning)
    fracs = np.linspace(0.0, 1.0, split_parts + 1)
    _, children_lo, children_hi, children_mass = branch_children(gs, cap=cap)
    for i, b in enumerate(scheme.branches):
        clo, chi, masses = children_lo[i], children_hi[i], children_mass[i]
        leftover = max(float(gs.branch_mu[i]) - float(masses.sum()), 0.0)
        # Remainder mass lives in the complement of the kept children (deep
        # continuations cluster there); spread it over those gaps by length.
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
        if glo and leftover > 0:
            glo, ghi = np.array(glo), np.array(ghi)
            gw = ghi - glo
            gm = leftover * gw / gw.sum()
            lo = np.concatenate([clo, glo])
            hi = np.concatenate([chi, ghi])
            ms = np.concatenate([masses, gm])
        else:
            lo, hi, ms = clo, chi, masses
        # Subdivide every piece; f^k is monotone on the branch for k <= tau,
        # so consecutive point images bound the part images exactly.
        pts = lo[:, None] + fracs * (hi - lo)[:, None]
        part_mass = np.repeat(ms / split_parts, split_parts)
        for _ in range(b.tau):
            u = pts[:, :-1].ravel()
            v = pts[:, 1:].ravel()
            hist.add_many(u, v, part_mass)
            pts = np.asarray(m.f(pts))
    values = hist.values()
    total = float(values.sum())
    if total <= 0:
        raise ValueError("projection produced no mass")
    return EquilibriumMeasure(m, gs.t, values / total, tau_mean)


def invariance_residual(m: IntervalMap, mu: EquilibriumMeasure, tests):
    """max over test observables g of |int g(f x) dmu - int g dmu|."""
    if not tests:
        raise ValueError("tests must be nonempty")
    c = mu.centers
    fc = np.asarray(m.f(c))
    worst = 0.0
    for g in tests.values():
        r = abs(float(np.sum(mu.masses * g(fc)) - np.sum(mu.masses * g(c))))
        worst = max(worst, r)
    return worst


# ---------------------------------------------------------------------------
# Reports used by the acceptance suites
# ---------------------------------------------------------------------------

def conformality_report(gs: GibbsState):
    """Per-branch conformal identity at depth 2.

    For each branch i and its refinement pieces C_ij, checks
    m(F(C_ij)) = int_(C_ij) e^(-Psi) dm summed over the strongest
    continuations j: the left side from the continuations' conformal
    masses, the right side by 3-point quadrature of e^(-Psi) against the
    conformal mass profile of C_ij.  Returns the worst relative error.
    """
    scheme = gs.scheme
    conts = _strongest(gs.branch_m, CONFORMAL_CONTINUATIONS, 1.0)
    los = np.array([scheme.branches[j].lo for j in conts])
    his = np.array([scheme.branches[j].hi for j in conts])
    lhs = float(gs.branch_m[conts].sum())
    # conformal masses of the pieces, in raw operator units
    piece_m = _masses_between(gs, gs.nu_grid * gs._W, los, his)
    quad = los[:, None] + np.array([0.25, 0.5, 0.75]) * (his - los)[:, None]
    B = len(scheme.branches)
    _, logd = _pull_words(scheme, np.arange(B)[:, None],
                          np.tile(quad.ravel(), (B, 1)))
    psi1 = gs.psi_eff(logd.reshape(B, len(conts), 3),
                      gs.taus[:, None, None].astype(float), 1)
    rhs = (np.exp(-psi1).mean(axis=2) * piece_m).sum(axis=1) / gs._m_norm
    return float((np.abs(lhs - rhs) / lhs).max())


def gibbs_sandwich_report(gs: GibbsState, depth=None):
    """Largest two-sided ratio mu(C_w)/e^(Psi_k) over stored words.

    Three pulled-back base samples per word plus the periodic anchor.
    """
    depth = depth or gs.weight_depth
    base = gs.scheme.base_lo + np.array([0.25, 0.5, 0.75]) * gs.scheme.base_width
    taus = gs.taus
    K = 1.0
    first = 0
    for words in gs.words[:depth]:
        n, k = words.shape
        _, sl = _pull_words(gs.scheme, words, np.tile(base, (n, 1)))
        psi = gs.psi_eff(sl, taus[words].sum(1)[:, None].astype(float), k)
        ratios = gs.mu_weights[first:first + n, None] / np.exp(psi)
        K = max(K, float(ratios.max()), float(1.0 / ratios.min()))
        first += n
    return K


def tau_mean_consistency(gs: GibbsState):
    """Relative gap between the tau-mean from depth-1 masses and the one
    recomputed through the depth-2 refinement (children + gap remainder
    measured separately, so the gap quantifies refinement truncation)."""
    taus = gs.taus
    d1 = float((gs.branch_mu * taus).sum())
    _, _, _, masses = branch_children(gs, cap=100_000, coverage=1.0)
    d2 = float((taus * masses.sum(axis=1)).sum())
    return abs(d2 - d1) / d1


def measure_to_csv(mu: EquilibriumMeasure, path):
    with open(path, "w") as fh:
        fh.write("bin_left,mass\n")
        n = mu.bins
        for i, v in enumerate(mu.masses):
            fh.write(f"{fmt12(i / n)},{fmt12(v)}\n")
