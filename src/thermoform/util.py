"""Small shared numerics: 12-digit formatting and interval histograms."""

import numpy as np


def fmt12(x) -> str:
    """Format a number with 12 significant digits (CLI/CSV contract)."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if x is None:
        return ""
    return "%.12g" % float(x)


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
