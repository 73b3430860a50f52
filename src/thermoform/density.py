"""Grid densities on [0,1]: the projected equilibrium as a density, its
Lyapunov exponent, and Birkhoff orbit histograms (an independent oracle for
the t = 1 pipeline)."""

from dataclasses import dataclass

import numpy as np

from .maps import CRITICAL_CLEARANCE, IntervalMap


@dataclass(frozen=True)
class GridDensity:
    """Piecewise-constant probability density on uniform bins of [0,1]."""

    values: np.ndarray

    @property
    def bins(self):
        return len(self.values)

    @property
    def centers(self):
        n = self.bins
        return (np.arange(n) + 0.5) / n

    def masses(self):
        return self.values / self.bins


def measure_density(mu) -> GridDensity:
    """Adapt an equilibrium histogram (masses attribute) to a GridDensity."""
    return GridDensity(np.asarray(mu.masses) * len(mu.masses))


def lyapunov(m: IntervalMap, dens: GridDensity, clearance=CRITICAL_CLEARANCE):
    """int log|Df| d(mu) on the grid, skipping critical-clearance bins."""
    c = dens.centers
    keep = np.ones(len(c), dtype=bool)
    for cp in m.critical_points:
        keep &= np.abs(c - cp.location) > clearance
    d = np.abs(m.df(c[keep]))
    keep2 = d > 0
    w = dens.values[keep][keep2]
    w = w / w.sum()
    return float(np.sum(w * np.log(d[keep2])))


def birkhoff_density(m: IntervalMap, bins, orbits=512, steps=4000, burn=500,
                     seed=2026) -> GridDensity:
    """Histogram of long Birkhoff orbits from seeded random starts.

    Orbit-average oracle used to cross-check projected densities;
    vectorised over starting points.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=orbits)
    for _ in range(burn):
        x = np.clip(np.asarray(m.f(x)), 0.0, 1.0)
    counts = np.zeros(bins)
    for _ in range(steps):
        x = np.clip(np.asarray(m.f(x)), 0.0, 1.0)
        idx = np.minimum((x * bins).astype(int), bins - 1)
        counts += np.bincount(idx, minlength=bins)
    total = counts.sum()
    return GridDensity(counts / total * bins)
