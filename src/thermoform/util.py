"""Small shared numerics: formatting, bracketed bisection, interval histograms."""

import numpy as np


def fmt12(x) -> str:
    """Format a number with 12 significant digits (CLI/CSV contract)."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if x is None:
        return ""
    return "%.12g" % float(x)


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


class IntervalHistogram:
    """Accumulates mass of intervals into uniform bins on [0,1].

    Mass of an interval is spread proportionally to bin overlap.  Interior
    full bins go through a difference array so a push costs O(1) regardless
    of how many bins the interval spans; a count of the spans over each bin
    keeps the array's rounding residue out of bins no span covers.  No bin
    is negative.
    """

    def __init__(self, bins):
        self.bins = int(bins)
        self._h = np.zeros(self.bins)
        self._d = np.zeros(self.bins + 1)
        self._cover = np.zeros(self.bins + 1, dtype=np.int64)

    def add_many(self, lo, hi, mass):
        """Vectorised add of many intervals (either orientation)."""
        n = self.bins
        a = np.clip(np.minimum(lo, hi), 0.0, 1.0)
        b = np.clip(np.maximum(lo, hi), 0.0, 1.0)
        mass = np.asarray(mass, dtype=float)
        ilo = np.minimum((a * n).astype(int), n - 1)
        ihi = np.minimum((b * n).astype(int), n - 1)
        # a thin or single-bin interval puts its whole mass in bin ilo
        one = (b - a <= 1e-15) | (ilo == ihi)
        multi = ~one & (mass != 0.0)
        a, b, i, j = a[multi], b[multi], ilo[multi], ihi[multi]
        dens = mass[multi] / (b - a)
        # end-bin overlaps, floored at 0 against rounding of the bin edges
        left = dens * np.maximum((i + 1) / n - a, 0.0)
        right = dens * np.maximum(b - j / n, 0.0)
        self._h += np.bincount(np.concatenate([ilo[one], i, j]),
                               np.concatenate([mass[one], left, right]),
                               minlength=n)
        span = j > i + 1
        i, j, step = i[span] + 1, j[span], dens[span] / n
        self._d += np.bincount(np.concatenate([i, j]),
                               np.concatenate([step, -step]), minlength=n + 1)
        self._cover += (np.bincount(i, minlength=n + 1)
                        - np.bincount(j, minlength=n + 1))

    def values(self):
        inner = np.cumsum(self._d)[:-1]
        covered = np.cumsum(self._cover)[:-1] > 0
        return self._h + np.where(covered, np.maximum(inner, 0.0), 0.0)
