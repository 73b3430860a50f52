"""Interval-map families, derivatives, critical data, and pullbacks that sum log|Df|.

A map is a smooth (or piecewise-affine, for the exact tent oracles) self-map
of [0,1] carrying its critical-point metadata.  All evaluation callables are
numpy-vectorised; IntervalMap instances are immutable and safe to share.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ConfigError, MapDomainEscapeError, SingularPotentialError

CLAMP_TOL = 1e-9
CRITICAL_CLEARANCE = 1e-12


@dataclass(frozen=True)
class CriticalPoint:
    """A turning point of the map.

    `order` is the non-flat critical order (2 for a quadratic extremum).
    Tent corners are admitted as exact test oracles with smooth=False and
    order 1.0; the smooth-point invariants (zero derivative, order > 1) are
    not enforced for them.
    """

    location: float
    order: float
    kind: str  # "maximum" | "minimum"
    smooth: bool = True


@dataclass(frozen=True)
class GrowthClass:
    """Derivative-growth metadata along critical orbits.

    kind="exponential": |Df^n(f(c))| >= C e^(rate n); kind="polynomial":
    |Df^n(f(c))| >= C n^rate.  Supplied per family; membership is an
    assumption, not a computed predicate (see growth_margin for the
    finite-n diagnostic).
    """

    kind: str
    C: float
    rate: float


@dataclass(frozen=True)
class IntervalMap:
    family: str
    params: tuple
    f: callable = field(repr=False)
    df: callable = field(repr=False)
    d2f: callable = field(repr=False)
    critical_points: tuple
    # (b, y) -> preimage as a new array, which invert clips in place; b is a
    # branch index or an array of them that broadcasts against y
    branch_inverse: callable = field(repr=False)
    growth: GrowthClass = None

    @property
    def branch_edges(self):
        locs = tuple(sorted(c.location for c in self.critical_points))
        return (0.0,) + locs + (1.0,)

    @property
    def n_branches(self):
        return len(self.critical_points) + 1

    def branch_interval(self, b):
        e = self.branch_edges
        return e[b], e[b + 1]

    def branch_of(self, x):
        """Index of the level-1 branch containing x (vectorised)."""
        e = np.asarray(self.branch_edges)
        idx = np.searchsorted(e, x, side="right") - 1
        return np.clip(idx, 0, self.n_branches - 1)

    def invert(self, b, y):
        """Preimage of y under f restricted to branch b (vectorised): the
        family's closed-form inverse, clipped to the branch in its own
        buffer.  b is a branch index or an integer array of them that
        broadcasts against y."""
        e = np.asarray(self.branch_edges)
        b = np.asarray(b)
        x = self.branch_inverse(b, np.asarray(y, dtype=float))
        return np.clip(x, e[b], e[b + 1], out=x)

    def pull_back(self, symbols, points, logs=True):
        """Pull points back through the level-1 branches coded by `symbols`.

        `symbols` is one itinerary shared by all points, or an (n, L) array
        with one itinerary per row of `points` (shape (n, ...)).  Symbols are
        inverted from last to first, one `invert` call per step with each
        row's branch index broadcast over the row, so the result x has
        f^j(x) in branch symbols[j].  Returns (x, sumlog) with sumlog the sum
        of log|Df| over x, f(x), ..., f^(L-1)(x); with logs=False, sumlog is
        None and the orbit may meet a critical point (endpoint geometry).

        Raises SingularPotentialError when the orbit meets |Df| < 1e-300.
        """
        syms = np.asarray(symbols)
        z = np.array(points, dtype=float)
        sumlog = np.zeros_like(z) if logs else None
        # a column of symbols, shaped to broadcast over each row's points
        col = syms.shape[:-1] + (1,) * (z.ndim - syms.ndim + 1)
        for j in range(syms.shape[-1] - 1, -1, -1):
            z = self.invert(syms[..., j].reshape(col), z)
            if logs:
                d = np.abs(self.df(z))
                if np.any(d < 1e-300):
                    raise SingularPotentialError("pullback orbit hit zero derivative")
                sumlog += np.log(d)
        return z, sumlog

    def __call__(self, x):
        return self.f(x)


def eval_orbit(m: IntervalMap, x, n, clamp_tol=CLAMP_TOL):
    """Orbit (x, f x, ..., f^n x), clamped to [0,1] within clamp_tol.

    Raises MapDomainEscapeError if an iterate leaves [0,1] by more than
    clamp_tol (f is then not a self-map at working precision).
    """
    if not 0.0 <= x <= 1.0:
        raise MapDomainEscapeError(f"start point {x} outside [0,1]")
    out = np.empty(n + 1)
    out[0] = x
    cur = x
    for j in range(n):
        cur = float(m.f(cur))
        if cur < -clamp_tol or cur > 1.0 + clamp_tol:
            raise MapDomainEscapeError(
                f"{m.family}{m.params}: orbit escaped to {cur} at step {j + 1}"
            )
        cur = min(max(cur, 0.0), 1.0)
        out[j + 1] = cur
    return out


def _corner_locations(*ms):
    return [c.location for m in ms for c in m.critical_points if not c.smooth]


def c2_distance(a: IntervalMap, b: IntervalMap, grid, corner_clearance=1e-6):
    """Grid proxy for ||a-b||_C2.

    max over grid points of |a-b| + |a'-b'| + |a''-b''|; the second-derivative
    term is skipped within `corner_clearance` of any non-smooth critical point
    of either map (tent corners have no second derivative there).
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    x = np.linspace(0.0, 1.0, grid)
    term = np.abs(a.f(x) - b.f(x)) + np.abs(a.df(x) - b.df(x))
    d2 = np.abs(a.d2f(x) - b.d2f(x))
    for loc in _corner_locations(a, b):
        d2[np.abs(x - loc) < corner_clearance] = 0.0
    return float(np.max(term + d2))


def growth_margin(m: IntervalMap, N):
    """Finite-n growth diagnostic: min over n<=N of |Df^n(f(c))| / bound(n).

    A value >= 1 means the declared GrowthClass holds on the first N steps.
    Membership for all n is an assumption of the theory, not checkable.
    """
    if m.growth is None:
        raise ValueError("map carries no GrowthClass metadata")
    g = m.growth
    worst = math.inf
    for c in m.critical_points:
        x = float(m.f(c.location))
        deriv = 1.0
        for n in range(1, N + 1):
            deriv *= abs(float(m.df(x)))
            x = float(m.f(x))
            bound = g.C * (math.exp(g.rate * n) if g.kind == "exponential" else n**g.rate)
            if deriv == 0.0:
                return 0.0
            worst = min(worst, deriv / bound)
    return worst


def critical_orbit_collisions(m: IntervalMap, depth, tol=1e-9):
    """Near-collisions f^j(c) ~ f^k(c') with (j,c) != (k,c'), j,k <= depth.

    Diagnostic for the standing assumption that critical orbits meet only
    at equal times.  Returns a list of (j, c, k, c', distance).
    """
    orbits = {}
    for c in m.critical_points:
        orbits[c.location] = eval_orbit(m, c.location, depth)
    hits = []
    items = list(orbits.items())
    for i, (c1, o1) in enumerate(items):
        for c2, o2 in items[i:]:
            for j in range(1, depth + 1):
                for k in range(1, depth + 1):
                    if c1 == c2 and j == k:
                        continue
                    d = abs(o1[j] - o2[k])
                    if d < tol and (j < k or c1 != c2):
                        hits.append((j, c1, k, c2, d))
    return hits


def validate_map(m: IntervalMap, grid=512, fd_tol=1e-4):
    """Grid sanity checks: range, derivative sign changes, FD agreement.

    Raises ValueError on failure.  Cheap; run by make_map on construction.
    """
    x = np.linspace(0.0, 1.0, grid)
    fx = m.f(x)
    if np.any(fx < -CLAMP_TOL) or np.any(fx > 1.0 + CLAMP_TOL):
        raise ValueError(f"{m.family}: eval leaves [0,1] on the grid")
    # Sign changes of f' must happen within one grid cell of a critical point.
    d = m.df(x)
    locs = [c.location for c in m.critical_points]
    sign_flips = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
    h = x[1] - x[0]
    for i in sign_flips:
        if not any(x[i] - h <= loc <= x[i + 1] + h for loc in locs):
            raise ValueError(f"{m.family}: derivative sign change away from Crit near x={x[i]}")
    # Central finite difference vs declared derivative, away from Crit.
    step = 1e-6
    inner = x[(x > step) & (x < 1 - step)]
    for loc in locs:
        inner = inner[np.abs(inner - loc) > 1e-3]
    fd = (m.f(inner + step) - m.f(inner - step)) / (2 * step)
    err = np.max(np.abs(fd - m.df(inner)) / (1.0 + np.abs(m.df(inner))))
    if err > fd_tol:
        raise ValueError(f"{m.family}: deriv1 disagrees with finite difference (err={err:.2e})")
    for c in m.critical_points:
        if c.smooth:
            if abs(float(m.df(c.location))) > 1e-8:
                raise ValueError(f"{m.family}: nonzero derivative at smooth critical point")
            if not (1.0 < c.order < math.inf):
                raise ValueError(f"{m.family}: critical order must be finite and > 1")
    return True


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def tent_map(s):
    """Symmetric tent with slope s in (sqrt 2, 2].

    Not C^2 at the corner; admitted as an exact oracle (constant |Df| = s
    gives closed-form pressure (1-t) log s).
    """
    if not (_SQRT2 < s <= 2.0):
        raise ConfigError(f"tent slope must lie in (sqrt2, 2], got {s}")
    s = float(s)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.minimum(s * x, s * (1.0 - x))

    def df(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.5, s, np.where(x > 0.5, -s, 0.0))

    def d2f(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def inv(b, y):
        return np.where(b == 0, y / s, 1.0 - y / s)

    crit = (CriticalPoint(0.5, 1.0, "maximum", smooth=False),)
    growth = GrowthClass("exponential", 1.0, math.log(s))
    return IntervalMap("tent", (s,), f, df, d2f, crit, inv, growth)


def skew_tent_map(peak, height=1.0):
    """Piecewise-affine map with corner at `peak`, f(peak) = height."""
    if not (0.0 < peak < 1.0 and 0.0 < height <= 1.0):
        raise ConfigError(f"skew tent needs peak in (0,1), height in (0,1]")
    p, h = float(peak), float(height)
    sl, sr = h / p, h / (1.0 - p)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= p, sl * x, sr * (1.0 - x))

    def df(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < p, sl, np.where(x > p, -sr, 0.0))

    def d2f(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def inv(b, y):
        return np.where(b == 0, y / sl, 1.0 - y / sr)

    crit = (CriticalPoint(p, 1.0, "maximum", smooth=False),)
    return IntervalMap("skew_tent", (p, h), f, df, d2f, crit, inv, None)


def logistic_map(a, family="logistic"):
    """Quadratic family a x (1-x), a in [3.5, 4]."""
    if not (3.5 <= a <= 4.0):
        raise ConfigError(f"logistic parameter must lie in [3.5, 4], got {a}")
    a = float(a)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.minimum(a * x * (1.0 - x), 1.0)

    def df(x):
        x = np.asarray(x, dtype=float)
        return a * (1.0 - 2.0 * x)

    def d2f(x):
        return np.full_like(np.asarray(x, dtype=float), -2.0 * a)

    def inv(b, y):
        # 0.5 -+ sqrt(max(0.25 - y/a, 0)) in one buffer: y / -a + 0.25 is
        # 0.25 - y/a exactly, and 2b - 1 is -1 on the left branch and 1 on
        # the right, so the product and the sum round as 0.5 -+ r does
        x = np.empty(np.broadcast_shapes(np.shape(b), np.shape(y)))
        np.divide(y, -a, out=x)
        x += 0.25
        np.sqrt(np.maximum(x, 0.0, out=x), out=x)
        x *= 2 * b - 1
        x += 0.5
        return x

    crit = (CriticalPoint(0.5, 2.0, "maximum"),)
    growth = GrowthClass("exponential", 1.0, math.log(4.0)) if a == 4.0 else None
    return IntervalMap(family, (a,), f, df, d2f, crit, inv, growth)


def chebyshev_map():
    """The exactly-solvable anchor 4x(1-x): acip 1/(pi sqrt(x(1-x)))."""
    return logistic_map(4.0, family="cheb")


FAMILIES = {
    "tent": lambda params: tent_map(params["s"]),
    "skew_tent": lambda params: skew_tent_map(params["peak"], params.get("height", 1.0)),
    "logistic": lambda params: logistic_map(params["a"]),
    "cheb": lambda params: chebyshev_map(),
}

# Canonical name of the single scalar parameter per family (CLI convenience).
FAMILY_PARAM = {"tent": "s", "logistic": "a", "cheb": None, "skew_tent": "peak"}


def make_map(family, params=None, validate=True):
    """Build a registered family member; unknown ids list the registry."""
    if family not in FAMILIES:
        raise ConfigError(
            f"unknown family '{family}'; registry: {sorted(FAMILIES)}"
        )
    m = FAMILIES[family](dict(params or {}))
    if validate:
        validate_map(m)
    return m


def make_member(family, parameter):
    """The family member at its scalar parameter (FAMILY_PARAM names it)."""
    key = FAMILY_PARAM.get(family)
    return make_map(family, {key: parameter} if key else {})
