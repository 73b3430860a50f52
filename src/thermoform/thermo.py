"""Induced thermodynamics: variations, partition sums, pressure, Gibbs states.

Every quantity depending on (t, s) factors through t- and s-independent
orbit data (sums of log|Df| and total times), so one pullback serves every
(t, s).  The per-scheme state lives in one SpectralOperator that the caller
builds for each scheme and passes to pressure_estimate, solve_pressure and
gibbs_state: the branch pullbacks of the base grid with their orbit sums,
from which the operator matrix is assembled for each (t, s), a memo of
word data (the anchors of periodic_anchors and their orbit sums) for the
branch potential and the Z_k partition sums, a memo of the first-branch
sums variation_profile samples, and memos of the projection's geometry.
Words of depth k are (n, k) int arrays of branch indices.  Nothing is kept
at module level, so a result depends on (scheme, grid, t) and not on which
calls came before it.

The pressure P(phi_t) is the root s* of s -> P_G(Phi - s tau), found by
Illinois false position, one matrix assembly and eigen solve per step;
gibbs_state then assembles the matrix once more, at s*, for the eigenvalue
and both eigenvectors.

The projection to the interval splits into per-t masses and t-free
geometry: projection_pieces turns a Gibbs state into a small record of
pieces (ends, inducing times and masses), and project_measure pushes a
batch of such records forward, one pass of f over the pieces for all
records of equal geometry.
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
from .util import IntervalHistogram

FIX_TOL = 1e-15
FIX_ITERS = 200
WORD_CAP = 2_000_000            # enumerate_words refuses more words
VARIATION_WORDS = 1500          # words sampled per depth by variation_profile
VARIATION_KMAX = 4              # depths gibbs_state passes to variation_profile
CONFORMAL_CONTINUATIONS = 64    # continuations checked by conformality_report
TIE_RTOL = 1e-12                # masses this close count as equal in _strongest
PROJECTION_CHUNK = 1 << 16      # split points project_measure iterates at once
ROOT_RESIDUAL = 1e-14           # |P_G| at which solve_pressure stops
ROOT_ITERS = 100                # false-position steps solve_pressure allows
EIGEN_TOL = 1e-12               # relative eigenvalue change of a converged _power
EIGEN_ITERS = 3000              # power steps before TransferOperatorDivergedError


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
    """Group words by total symbol length L; yields (rows, symbols), symbols
    the (len(rows), L) live columns of the words' rows of branches.itin."""
    br = scheme.branches
    words = np.asarray(words, dtype=int)
    if words.size == 0:
        return
    lens = br.tau[words]
    totals = lens.sum(1)
    live = np.arange(br.itin.shape[1])
    for L in np.unique(totals):
        rows = np.nonzero(totals == L)[0]
        valid = live < lens[rows][..., None]
        yield rows, br.itin[words[rows]][valid].reshape(len(rows), L)


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
    shrinkage.  Returns (x_fix, sumlog, total_tau) aligned with words:
    the anchor, the sum of log|Df| along its orbit and the word's total
    inducing time.

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
        # the first step pulls the shrinkage probe back beside the midpoint
        z, _ = m.pull_back(sym, np.tile([mid, probe], (len(rows), 1)), logs=False)
        shrink = np.abs(z[:, 0] - z[:, 1]) / abs(mid - probe)
        if np.any(shrink >= 1.0):
            bad = int(rows[int(np.argmax(shrink))])
            raise BranchNotContractingError(
                f"word {np.asarray(words[bad]).tolist()} failed two-point shrinkage"
            )
        x, z = np.full(len(rows), mid), z[:, 0]
        for it in range(FIX_ITERS):
            if it:
                z, _ = m.pull_back(sym, x, logs=False)
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
    x_fix: np.ndarray = field(repr=False)
    sumlog_fix: np.ndarray = field(repr=False)

    @property
    def phi_fix(self):
        return -self.t * self.sumlog_fix

    @property
    def psi_fix(self):
        return self.phi_fix - self.s * self.scheme.taus


def induced_potential(op, t, s) -> InducedPotential:
    """Branch potential data at the branch fixed points, from the orbit data
    held by the scheme's SpectralOperator `op`."""
    _, xf, slf, _ = op.word_data(1, None)
    return InducedPotential(op.scheme, float(t), float(s), xf, slf)


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


def variation_profile(op, pot: InducedPotential, k_max) -> VariationProfile:
    """V_1..V_k_max of the potential `pot` on the scheme of the
    SpectralOperator `op`, sampled at three points of each word's cylinder;
    the sums are pulled back once per alphabet (op.first_branch_sums) and
    reweighted by pot.t here."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    # Sample words over the heaviest branches so deep levels stay tractable:
    # alphabet size drops with depth, keeping ~VARIATION_WORDS words per level.
    rank = np.argsort(-np.exp(pot.psi_fix), kind="stable")
    Vs = []
    for k in range(1, k_max + 1):
        nb = max(2, int(round(VARIATION_WORDS ** (1.0 / k))))
        sl_first = op.first_branch_sums(k, np.sort(rank[:nb]))
        psi = -pot.t * sl_first  # the -s*tau1 shift is constant per word
        Vs.append(float((psi.max(axis=1) - psi.min(axis=1)).max()) if len(psi) else 0.0)
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

    Branch pullbacks through the rows of the scheme's branches.itin, and their
    orbit sums, are (t, s)-independent; they are computed once, and `matrix`
    assembles L for each (t, s) from them: `eigen` for one pressure estimate,
    gibbs_state once at the root for `eigen`'s pair and `left_eigen`'s vector.
    The caller builds one operator per scheme and passes it to
    pressure_estimate, solve_pressure and gibbs_state; it also holds memos of
    t-independent data, freed with the caller's reference: word data
    (`word_data`, whose depth-1 words are the branch anchors) with each word's
    anchor and its orbit sums, the first-branch sums of variation_profile's
    sampled words (`first_branch_sums`), the pullbacks of branch_children's
    kept continuations, and one copy of each distinct piece geometry of
    projection_pieces.  No (t, s) state is kept between calls.

    L is held dense.  Its interpolation stencil has two entries per branch
    and cell, so with more than G / 2 branches (276 on Chebyshev at n_max 24,
    342 on the logistic map at a = 3.995, both at G = 256) the G x G matrix is
    the smaller form, and a product with it is one BLAS call.  The price is
    G^2 floats per assembly: 0.5 MB at G = 256, 8 MB at G = 1024.
    """

    def __init__(self, scheme: InducingScheme, grid=256):
        self.scheme = scheme
        G = int(grid)
        self.h = (scheme.base_hi - scheme.base_lo) / G
        self.xs = scheme.base_lo + (np.arange(G) + 0.5) * self.h
        B = len(scheme.branches)
        Y, self.sumlog = _pull_words(scheme, np.arange(B)[:, None],
                                     np.tile(self.xs, (B, 1)))
        # per preimage: the index of the cell centre at or left of it
        # (clamped to the grid) and its fraction of the way to the next one
        pos = (Y - self.xs[0]) / self.h
        self.idx = np.clip(np.floor(pos).astype(int), 0, G - 2)
        self.frac = np.clip(pos - self.idx, 0.0, 1.0)
        self._words = {}
        self._first_sums = {}
        self._children = {}     # branch_children: sel -> (lo, hi)
        self._pieces = {}       # projection_pieces: (sel, gaps) -> geometry

    def word_data(self, k, budget):
        """(words, x_fix, sumlog, total_tau) of the k-words with total time
        <= budget (periodic_anchors), computed once per (k, budget)."""
        if (k, budget) not in self._words:
            words = enumerate_words(self.scheme, k, budget)
            self._words[k, budget] = (words, *periodic_anchors(self.scheme, words))
        return self._words[k, budget]

    def first_branch_sums(self, k, alphabet):
        """variation_profile's samples at depth k: for every k-word over the
        sorted branch indices `alphabet` with total time <= n_max + 2k, the
        sums of log|Df| over the word's first branch at three base points
        pulled back through the whole word.  Computed once per (k, alphabet);
        the sums are t-independent."""
        key = (k, alphabet.tobytes())
        if key not in self._first_sums:
            scheme = self.scheme
            words = alphabet[np.indices((len(alphabet),) * k).reshape(k, -1).T]
            words = words[scheme.taus[words].sum(1) <= scheme.n_max + 2 * k]
            base = scheme.base_lo + np.array([1 / 6, 1 / 2, 5 / 6]) * scheme.base_width
            # pull the samples back through the word's tail, then through
            # its first branch
            tail, _ = _pull_words(scheme, words[:, 1:],
                                  np.tile(base, (len(words), 1)), logs=False)
            self._first_sums[key] = _pull_words(scheme, words[:, :1], tail)[1]
        return self._first_sums[key]

    def weights(self, t, s):
        return np.exp(-t * self.sumlog - s * self.scheme.branches.tau[:, None])

    def matrix(self, W):
        """L under the branch weights W as a dense (G, G) array: row l holds
        the interpolation weights of the branch preimages of xs[l]."""
        G = len(self.xs)
        flat = (np.arange(G) * G + self.idx).ravel()
        M = np.bincount(flat, (W * (1.0 - self.frac)).ravel(), G * G)
        M += np.bincount(flat + 1, (W * self.frac).ravel(), G * G)
        return M.reshape(G, G)

    def eigen(self, t, s, tol=EIGEN_TOL, max_iter=EIGEN_ITERS):
        """Leading eigenvalue and positive eigenfunction of L at (t, s),
        from g = 1."""
        M = self.matrix(self.weights(t, s))
        return _power(M, np.ones(len(self.xs)), tol, max_iter)

    def left_eigen(self, M, tol=EIGEN_TOL, max_iter=EIGEN_ITERS):
        """Leading left eigenvector of the assembled matrix M (cell masses of
        the conformal measure, sum 1), from the uniform masses."""
        G = len(self.xs)
        return _power(M.T, np.full(G, 1.0 / G), tol, max_iter)


def _power(M, v, tol, max_iter):
    """Leading eigenvalue and positive eigenvector of the nonnegative matrix
    M by power iteration from v; the vector keeps the sum of v.

    Stops when the eigenvalue moves by less than tol (relative) and the
    vector by less than 1e-10 of its largest entry."""
    lam = 0.0
    for _ in range(max_iter):
        vn = M @ v
        lam_new = float(vn.sum() / v.sum())
        vn /= lam_new
        diff = float(np.max(np.abs(vn - v))) / max(float(np.max(vn)), 1e-300)
        v = vn
        done = abs(lam_new - lam) < tol * max(abs(lam_new), 1e-300) and diff < 1e-10
        lam = lam_new
        if done:
            return lam, v
    raise TransferOperatorDivergedError(
        f"power iteration not converged after {max_iter} steps"
    )


# ---------------------------------------------------------------------------
# Pressure equation
# ---------------------------------------------------------------------------

def pressure_estimate(op, t, s):
    """P_G(Phi - s tau) on the scheme of `op`: the log of the leading
    transfer-operator eigenvalue, biased only by grid interpolation and
    branch truncation.
    """
    lam, _ = op.eigen(t, s)
    return math.log(lam)


def solve_pressure(op, t, bracket=(-5.0, 5.0), tol=1e-4):
    """Root s* of s -> P_G(Phi - s tau) by Illinois false position.

    P_G is strictly decreasing in s because tau >= 1, and convex because
    the matrix entries are log-convex in s, so a secant step inside the
    bracket is safe; Illinois halves the value kept at an end that survives
    two steps in a row, so that end moves too (Dowell and Jarratt, 1971).
    The two bracket evaluations are the first two points.  The iteration
    stops when |P_G| <= ROOT_RESIDUAL, or when the bracket has shrunk to a
    few ulps, and returns the last point evaluated.  `tol` is only the
    residual above which UnstablePressureWarning is raised, as it is when
    ROOT_ITERS steps do not stop.
    """
    a, b = bracket
    fa, fb = pressure_estimate(op, t, a), pressure_estimate(op, t, b)
    if not (fa > 0.0 > fb):
        raise PressureUnbracketedError(
            f"P_G({a})={fa:.3g}, P_G({b})={fb:.3g}: no root in bracket"
        )
    kept = 0    # +1 when the last step kept b, -1 when it kept a
    for _ in range(ROOT_ITERS):
        c = min(max(a + fa * (b - a) / (fa - fb), a), b)
        fc = pressure_estimate(op, t, c)
        if abs(fc) <= ROOT_RESIDUAL:
            break
        if fc > 0.0:
            a, fa = c, fc
            if kept == 1:
                fb *= 0.5
            kept = 1
        else:
            b, fb = c, fc
            if kept == -1:
                fa *= 0.5
            kept = -1
        if b - a <= 4.0 * math.ulp(max(abs(a), abs(b))):
            break
    else:
        warnings.warn(f"pressure root not found in {ROOT_ITERS} steps",
                      UnstablePressureWarning)
    if abs(fc) > tol:
        warnings.warn(
            f"pressure residual {fc:.2e} above tolerance {tol}",
            UnstablePressureWarning,
        )
    return c


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
    gibbs_constant: float = 1.0
    variation: VariationProfile = None
    _op: SpectralOperator = field(default=None, repr=False)
    _W: np.ndarray = field(default=None, repr=False)
    _GY: np.ndarray = field(default=None, repr=False)
    _m_norm: float = 1.0   # raw total of the operator branch m-masses

    @property
    def mu_weights(self):
        """The invariant branch masses, under the name the benchmark tracer
        (perfbench/spans.py) reads to count the masses gibbs_sandwich_report
        weighs."""
        return self.branch_mu

    def psi_eff(self, sumlog, total_tau, k):
        """Normalised k-step potential Phi - s*tau - k log(lambda)."""
        return (-self.t * np.asarray(sumlog)
                - self.pressure * np.asarray(total_tau)
                - k * self.log_lambda)


def gibbs_state(op, t, pressure_tol=1e-4, bracket=(-5.0, 5.0)) -> GibbsState:
    """Pressure root, density, conformal/invariant branch masses on the
    scheme of the SpectralOperator `op`.

    The matrix of L_Psi at the pressure root is assembled once.  lambda and
    the density rho are its leading eigenpair and the conformal cell masses
    nu its left eigenvector, both by power iteration (which raises
    TransferOperatorDivergedError at its cap).  lambda is folded into the
    normalised potential, so the branch weights satisfy the Gibbs property
    with zero pressure.
    """
    scheme = op.scheme
    s_star = solve_pressure(op, t, bracket=bracket, tol=pressure_tol)
    W = op.weights(t, s_star)
    M = op.matrix(W)
    lam, g = _power(M, np.ones(len(op.xs)), EIGEN_TOL, EIGEN_ITERS)
    log_lam = math.log(lam)
    # Conformal measure as cell masses: left eigenvector of the same matrix.
    _, nu = op.left_eigen(M)
    del M  # the G x G matrix is not kept past the eigenvectors
    # Normalise rho so that int rho dm = 1 on the grid.
    g = g / float((nu * g).sum())

    # Operator-quadrature branch masses: mu(X_i) = sum_l nu_l W_il rho(y_il),
    # m(X_i) = sum_l nu_l W_il (exact up to grid interpolation).
    Wn = W * math.exp(-log_lam)
    GY = g[op.idx] * (1.0 - op.frac) + g[op.idx + 1] * op.frac
    branch_mu_op = (Wn * GY * nu[None, :]).sum(axis=1)
    branch_m_op = (Wn * nu[None, :]).sum(axis=1)
    m_norm = float(branch_m_op.sum())
    branch_mu_op = branch_mu_op / float(branch_mu_op.sum())
    branch_m_op = branch_m_op / m_norm

    var = variation_profile(op, induced_potential(op, t, s_star),
                            VARIATION_KMAX)

    gs = GibbsState(
        scheme=scheme, t=float(t), pressure=s_star, log_lambda=log_lam,
        rho_grid=g, nu_grid=nu, branch_mu=branch_mu_op, branch_m=branch_m_op,
        variation=var, _op=op, _W=Wn, _GY=GY, _m_norm=m_norm,
    )
    gs.gibbs_constant = gibbs_sandwich_report(gs)
    return gs


def _masses_between(gs: GibbsState, cell_masses, lo, hi):
    """Per row of `cell_masses` (one row per branch, one column per base
    cell), the mass between the base points lo and hi, linear inside a cell:
    a (branches, len(lo)) array."""
    h = gs._op.h
    G = cell_masses.shape[1]
    cum = np.cumsum(cell_masses, axis=1)
    cum = np.concatenate([np.zeros((len(cum), 1)), cum], axis=1)

    def M(x):
        pos = np.clip((np.asarray(x, dtype=float) - gs.scheme.base_lo) / h, 0.0, G)
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
    the continuations.  Mass not captured is the caller's remainder.  The
    geometry depends on `sel` alone, so it is pulled back once per `sel` and
    kept on the scheme's SpectralOperator (gs._op); the same `sel` returns
    the same lo, hi arrays.
    """
    scheme = gs.scheme
    sel = _strongest(gs.branch_mu, cap, coverage)
    los, his = scheme.branches.lo[sel], scheme.branches.hi[sel]
    # mu-mass profiles over base cells, each rescaled to its stored mass
    c = gs.nu_grid * gs._W * gs._GY
    csum = c.sum(axis=1)
    c *= np.divide(gs.branch_mu, csum, out=np.ones_like(csum),
                   where=csum > 0)[:, None]
    masses = _masses_between(gs, c, los, his)
    key = sel.tobytes()
    if key not in gs._op._children:
        # geometry: the refinement piece is the pullback of X_j through branch i
        B, nc = len(scheme.branches), len(sel)
        pts, _ = _pull_words(scheme, np.arange(B)[:, None],
                             np.tile(np.concatenate([los, his]), (B, 1)),
                             logs=False)
        gs._op._children[key] = (np.minimum(pts[:, :nc], pts[:, nc:]),
                                 np.maximum(pts[:, :nc], pts[:, nc:]))
    lo, hi = gs._op._children[key]
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


@dataclass(frozen=True)
class ProjectionPieces:
    """The pieces project_measure pushes for one Gibbs state, longest tau
    first: ends lo, hi and inducing times tau (the geometry) and masses.
    Records of equal geometry share its arrays."""

    t: float
    tau_mean: float         # Kac denominator: sum of branch mass times tau
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)

    def same_geometry(self, other):
        return all(np.array_equal(getattr(self, k), getattr(other, k))
                   for k in ("lo", "hi", "tau"))


def projection_pieces(gs: GibbsState) -> ProjectionPieces:
    """The record of the pieces project_measure pushes at gs.t: the depth-2
    refinement of every branch (branch_children), and the gaps wider than
    1e-12 between a branch's kept children, which share the branch mass the
    children miss (deep continuations cluster there) in proportion to their
    lengths.  The record holds no reference to gs, so a caller can drop each
    Gibbs state once its record is made.

    The geometry is a function of the kept continuations and of which
    branches have mass left over for gaps; it is stored once per such pair
    on the scheme's SpectralOperator, so records of equal geometry share
    their lo, hi and tau arrays.
    """
    br = gs.scheme.branches
    tau_mean = float((gs.branch_mu * br.tau).sum())
    if tau_mean > 1e3:
        warnings.warn("tau-mean exceeds 1e3; tail truncation dominates",
                      ProjectionUnstableWarning)
    # at most ~40k children over all branches
    cap = max(8, min(200, 40_000 // max(len(br), 1)))
    sel, clo, chi, cmass = branch_children(gs, cap=cap)
    # gap j runs from the furthest right end of the children left of child j
    # (by left end) to child j's left end; the last one to the branch end
    order = np.argsort(clo, axis=1)
    glo = np.maximum.accumulate(np.concatenate(
        [br.lo[:, None], np.take_along_axis(chi, order, axis=1)], axis=1), axis=1)
    ghi = np.concatenate([np.take_along_axis(clo, order, axis=1), br.hi[:, None]],
                         axis=1)
    leftover = np.maximum(gs.branch_mu - cmass.sum(axis=1), 0.0)
    gap = (ghi - glo > 1e-12) & (leftover > 0)[:, None]
    row, gw = np.nonzero(gap)[0], (ghi - glo)[gap]
    gm = leftover[row] * gw / np.bincount(row, gw)[row]
    tau = np.concatenate([np.repeat(br.tau, clo.shape[1]), br.tau[row]])
    first = np.argsort(-tau, kind="stable")
    lo, hi, tau = gs._op._pieces.setdefault(
        (sel.tobytes(), gap.tobytes()),
        (np.concatenate([clo.ravel(), glo[gap]])[first],
         np.concatenate([chi.ravel(), ghi[gap]])[first], tau[first]))
    return ProjectionPieces(gs.t, tau_mean, lo, hi,
                            np.concatenate([cmass.ravel(), gm])[first], tau)


def project_measure(scheme, pieces, bins=4096, split_parts=32):
    """Push the mass of every piece of every record in `pieces`
    (projection_pieces, one per t) through f^k for 0 <= k < tau into a
    histogram, normalised by the total pushed mass (the Kac denominator
    tau-mean); returns one EquilibriumMeasure per record, in order.

    Each piece is cut into `split_parts` equal parts whose endpoints are
    iterated together, so the image mass carries the Jacobian of f^k.
    Every point is binned at every step, so no monotonicity of f^k is
    assumed: a piece whose points share one bin adds its mass there, every
    other piece adds its parts.  Records of equal geometry share one pass:
    the points are pushed through f, tested for one bin and cut into parts
    once, and each record's histogram takes one call per step with its own
    masses, PROJECTION_CHUNK points at a time.  So each measure is what a
    batch of one gives, whatever else is in the batch.
    """
    groups = []     # (indices into pieces) per distinct geometry
    for i, p in enumerate(pieces):
        for g in groups:
            if pieces[g[0]].same_geometry(p):
                g.append(i)
                break
        else:
            groups.append([i])
    out = [None] * len(pieces)
    for g in groups:
        values = _push_pieces(scheme.map, [pieces[i] for i in g], bins,
                              split_parts)
        for i, v in zip(g, values):
            total = float(v.sum())
            if total <= 0:
                raise ValueError("projection produced no mass")
            out[i] = EquilibriumMeasure(scheme.map, pieces[i].t, v / total,
                                        pieces[i].tau_mean)
    return out


def _push_pieces(m, group, bins, split_parts):
    """Histogram values of each record of `group` (all of one geometry)
    pushed forward by the map m."""
    hists = [IntervalHistogram(bins) for _ in group]
    lo, hi, tau = group[0].lo, group[0].hi, group[0].tau
    fracs = np.linspace(0.0, 1.0, split_parts + 1)
    n = max(1, PROJECTION_CHUNK // (split_parts + 1))
    for c in range(0, len(tau), n):
        pts = lo[c:c + n, None] + fracs * (hi - lo)[c:c + n, None]
        ms, ts = [p.mass[c:c + n] for p in group], tau[c:c + n]
        for k in range(ts[0]):
            # the cell map is non-decreasing, so a row lies in one cell when
            # its extremes do
            ends = np.minimum((np.clip([pts.min(axis=1), pts.max(axis=1)],
                                       0.0, 1.0) * bins).astype(int), bins - 1)
            one = ends[0] == ends[1]
            x0, parts = pts[one, 0], pts[~one]
            a = np.concatenate([x0, parts[:, :-1].ravel()])
            b = np.concatenate([x0, parts[:, 1:].ravel()])
            for h, w in zip(hists, ms):
                h.add_many(a, b, np.concatenate(
                    [w[one], np.repeat(w[~one] / split_parts, split_parts)]))
            live = np.count_nonzero(ts > k + 1)
            pts, ms = np.asarray(m.f(pts[:live])), [w[:live] for w in ms]
    return [h.values() for h in hists]


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
    los, his = scheme.branches.lo[conts], scheme.branches.hi[conts]
    lhs = float(gs.branch_m[conts].sum())
    # conformal masses of the pieces, in raw operator units
    piece_m = _masses_between(gs, gs.nu_grid * gs._W, los, his)
    quad = los[:, None] + np.array([0.25, 0.5, 0.75]) * (his - los)[:, None]
    B = len(scheme.branches)
    _, logd = _pull_words(scheme, np.arange(B)[:, None],
                          np.tile(quad.ravel(), (B, 1)))
    psi1 = gs.psi_eff(logd.reshape(B, len(conts), 3),
                      scheme.taus[:, None, None].astype(float), 1)
    rhs = (np.exp(-psi1).mean(axis=2) * piece_m).sum(axis=1) / gs._m_norm
    return float((np.abs(lhs - rhs) / lhs).max())


def gibbs_sandwich_report(gs: GibbsState):
    """The depth-1 Gibbs constant K: the largest two-sided ratio
    mu(X_i) / e^(Psi_1(y_il)) over every branch i and the branch-i preimage
    y_il of every base node.

    Psi_1 is the normalised potential the operator quadrature already holds
    (the weights gs._W), so the report pulls nothing back.  The Gibbs
    property asks for one K at every depth; this is its depth-1 value, and
    so a lower bound on the sup over all depths.
    """
    r = gs.branch_mu[:, None] / gs._W
    return max(1.0, float(r.max()), float(1.0 / r.min()))


def tau_mean_consistency(gs: GibbsState):
    """Relative gap between the tau-mean from depth-1 masses and the one
    recomputed through the depth-2 refinement (children + gap remainder
    measured separately, so the gap quantifies refinement truncation)."""
    taus = gs.scheme.taus
    d1 = float((gs.branch_mu * taus).sum())
    _, _, _, masses = branch_children(gs, cap=100_000, coverage=1.0)
    d2 = float((taus * masses.sum(axis=1)).sum())
    return abs(d2 - d1) / d1


def measure_to_csv(mu: EquilibriumMeasure, path):
    """Write the bin masses as `bin_left,mass` rows, 12 significant digits
    (fmt12's format)."""
    n = mu.bins
    with open(path, "w") as fh:
        fh.write("bin_left,mass\n")
        fh.writelines(f"{i / n:.12g},{v:.12g}\n"
                      for i, v in enumerate(mu.masses.tolist()))
