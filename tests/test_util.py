import numpy as np
import pytest

from thermoform.util import IntervalHistogram


def overlap_sum(lo, hi, mass, bins):
    """Brute force: each interval, clipped to [0, 1], spreads its mass over
    the bins in proportion to overlap; a thin one lands in its point's bin."""
    out = np.zeros(bins)
    edges = np.arange(bins + 1) / bins
    for u, v, w in zip(lo, hi, mass):
        a, b = np.clip(sorted((u, v)), 0.0, 1.0)
        if b - a <= 1e-15:
            out[min(int(a * bins), bins - 1)] += w
            continue
        overlap = np.clip(np.minimum(b, edges[1:]) - np.maximum(a, edges[:-1]), 0, None)
        out += w * overlap / (b - a)
    return out


@pytest.mark.parametrize("bins", [16, 100])
def test_add_many_matches_overlap_sum(bins):
    rng = np.random.default_rng(1)
    n = 400
    lo = rng.uniform(-0.2, 1.2, n)
    hi = lo + rng.choice([0.0, 1e-17, 1e-3, 0.05, 0.7], n) * rng.choice([-1, 1], n)
    mass = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) > 0.1)
    # thin, same-bin, multi-bin, reversed, out-of-range and zero-mass cases
    lo[:6] = [0.3, 0.51 / bins, 0.1, 0.9, -0.5, 1.3]
    hi[:6] = [0.3, 0.52 / bins, 0.6, 0.2, 0.25, 1.7]
    mass[6] = 0.0
    hist = IntervalHistogram(bins)
    hist.add_many(lo[:200], hi[:200], mass[:200])
    hist.add_many(lo[200:], hi[200:], mass[200:])
    want = overlap_sum(lo, hi, mass, bins)
    assert np.allclose(hist.values(), want, rtol=0, atol=1e-12 * mass.sum())


def test_histogram_has_no_residue_outside_intervals():
    # the span difference array must not leave rounding residue, positive
    # or negative, in bins that no interval reaches
    rng = np.random.default_rng(0)
    bins = 512
    for _ in range(200):
        hist = IntervalHistogram(bins)
        for _ in range(3):
            lo = rng.uniform(0.0, 0.5, 50)
            hist.add_many(lo, lo + rng.uniform(0.0, 0.2, 50), rng.uniform(0, 1, 50))
        values = hist.values()
        assert values.min() >= 0.0
        assert np.all(values[int(0.7 * bins):] == 0.0)
