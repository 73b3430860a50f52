"""The Lyapunov exponent of a projected equilibrium and Birkhoff orbit
histograms (an independent oracle for the t = 1 pipeline)."""

import numpy as np

from .maps import CRITICAL_CLEARANCE, IntervalMap


def lyapunov(m: IntervalMap, mu, clearance=CRITICAL_CLEARANCE):
    """int log|Df| d(mu) over the bins of the EquilibriumMeasure mu,
    skipping critical-clearance bins."""
    c = mu.centers
    keep = np.ones(len(c), dtype=bool)
    for cp in m.critical_points:
        keep &= np.abs(c - cp.location) > clearance
    d = np.abs(m.df(c[keep]))
    keep2 = d > 0
    w = mu.masses[keep][keep2]
    w = w / w.sum()
    return float(np.sum(w * np.log(d[keep2])))


def birkhoff_density(m: IntervalMap, bins, orbits=512, steps=4000, burn=500,
                     seed=2026):
    """Bin masses of long Birkhoff orbits from seeded random starts.

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
    return counts / counts.sum()
