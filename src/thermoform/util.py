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
    of how many bins the interval spans.
    """

    def __init__(self, bins):
        self.bins = int(bins)
        self._h = np.zeros(self.bins)
        self._d = np.zeros(self.bins + 1)

    def add_many(self, lo, hi, mass):
        """Vectorised add of many intervals."""
        n = self.bins
        a = np.clip(np.minimum(lo, hi), 0.0, 1.0)
        b = np.clip(np.maximum(lo, hi), 0.0, 1.0)
        lo, hi = a, b
        mass = np.asarray(mass, dtype=float)
        width = hi - lo
        thin = width <= 1e-15
        if np.any(thin):
            b = np.minimum((lo[thin] * n).astype(int), n - 1)
            np.add.at(self._h, b, mass[thin])
        keep = ~thin & (mass != 0.0)
        if not np.any(keep):
            return
        lo, hi, mass, width = lo[keep], hi[keep], mass[keep], width[keep]
        dens = mass / width
        ilo = np.minimum((lo * n).astype(int), n - 1)
        ihi = np.minimum((hi * n).astype(int), n - 1)
        same = ilo == ihi
        np.add.at(self._h, ilo[same], mass[same])
        multi = ~same
        if np.any(multi):
            ilo, ihi = ilo[multi], ihi[multi]
            lo, hi, dens = lo[multi], hi[multi], dens[multi]
            np.add.at(self._h, ilo, dens * ((ilo + 1) / n - lo))
            np.add.at(self._h, ihi, dens * (hi - ihi / n))
            span = ihi > ilo + 1
            if np.any(span):
                np.add.at(self._d, ilo[span] + 1, dens[span] / n)
                np.add.at(self._d, ihi[span], -dens[span] / n)

    def values(self):
        return self._h + np.cumsum(self._d)[:-1]
