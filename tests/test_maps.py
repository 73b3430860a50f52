import math
from fractions import Fraction

import numpy as np
import pytest

from thermoform.errors import ConfigError, MapDomainEscapeError, SingularPotentialError
from thermoform.maps import (
    c2_distance,
    critical_orbit_collisions,
    eval_orbit,
    growth_margin,
    make_map,
    validate_map,
)


def test_orbit_tent2_third(tent2):
    orb = eval_orbit(tent2, 1 / 3, 2)
    assert np.allclose(orb, [1 / 3, 2 / 3, 2 / 3], atol=1e-15)


def test_orbit_cheb_critical(cheb):
    orb = eval_orbit(cheb, 0.5, 3)
    assert np.allclose(orb, [0.5, 1.0, 0.0, 0.0], atol=1e-15)


def test_orbit_tent19_exact_rational(tent19):
    # independent oracle: exact rational iteration of the tent formula
    s = Fraction(19, 10)
    x = Fraction(1, 5)
    expect = [x]
    for _ in range(5):
        x = s * min(x, 1 - x)
        expect.append(x)
    orb = eval_orbit(tent19, 0.2, 5)
    assert np.allclose(orb, [float(e) for e in expect], atol=1e-12)


def test_orbit_escape_guard():
    bad = make_map("tent", {"s": 2.0}, validate=False)
    object.__setattr__(bad, "f", lambda x: np.asarray(x, dtype=float) + 1.5)
    with pytest.raises(MapDomainEscapeError):
        eval_orbit(bad, 0.3, 3)


def test_c2_identity(tent19):
    assert c2_distance(tent19, tent19, 100) == 0.0


def test_c2_tent_slopes(tent2, tent19):
    # sup-norm term 0.05 near the corner plus derivative term 0.1
    d = c2_distance(tent2, tent19, 1000)
    assert d >= 0.1
    assert d == pytest.approx(0.15, abs=1e-3)


def test_c2_quadratic_closed_form():
    a = make_map("logistic", {"a": 3.9})
    b = make_map("logistic", {"a": 3.8})
    # max over x of 0.1*(x(1-x) + |1-2x| + 2) = 0.3 at the endpoints
    assert c2_distance(a, b, 1000) == pytest.approx(0.3, abs=1e-12)


def test_c2_pseudometric(tent2, tent19, cheb):
    maps = [tent2, tent19, make_map("tent", {"s": 1.95})]
    for a in maps:
        for b in maps:
            assert c2_distance(a, b, 200) == c2_distance(b, a, 200)
    d = lambda a, b: c2_distance(a, b, 200)
    a, b, c = maps
    assert d(a, c) <= d(a, b) + d(b, c) + 1e-12


@pytest.mark.parametrize("family,params", [
    ("tent", {"s": 2.0}),
    ("tent", {"s": 1.9}),
    ("cheb", {}),
    ("logistic", {"a": 3.9}),
    ("logistic", {"a": 3.5}),
    ("skew_tent", {"peak": 0.4, "height": 0.95}),
])
def test_orbits_never_escape(family, params):
    m = make_map(family, params)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=100)
    for _ in range(10_000):
        x = np.asarray(m.f(x))
        assert x.min() >= -1e-9 and x.max() <= 1 + 1e-9
        x = np.clip(x, 0.0, 1.0)
    # and the scalar op agrees on a few seeds
    for seed in x[:5]:
        eval_orbit(m, float(seed), 100)


def test_registry_and_validation():
    with pytest.raises(ConfigError):
        make_map("unknown-family")
    with pytest.raises(ConfigError):
        make_map("tent", {"s": 1.2})  # below sqrt(2)
    with pytest.raises(ConfigError):
        make_map("logistic", {"a": 3.0})
    for fam, p in (("tent", {"s": 1.7}), ("logistic", {"a": 3.7}), ("cheb", {})):
        assert validate_map(make_map(fam, p))


def test_growth_margin_exact_families(tent2, cheb, tent19):
    # |Df^n(f(c))| equals the declared bound exactly for these families
    assert growth_margin(tent2, 30) == pytest.approx(1.0, rel=1e-9)
    assert growth_margin(tent19, 30) == pytest.approx(1.0, rel=1e-9)
    assert growth_margin(cheb, 20) == pytest.approx(1.0, rel=1e-9)


def test_critical_collision_diagnostic(cheb, tent19):
    # cheb's critical orbit lands on the fixed point 0: collisions at all times
    hits = critical_orbit_collisions(cheb, 5)
    assert hits
    # generic tent slope: no collisions at small depth
    assert not critical_orbit_collisions(tent19, 8, tol=1e-9)


def test_pull_back_tent2_affine(tent2):
    # closed-form affine inverse branches: y/2 on branch 0, 1 - y/2 on branch 1
    word = (0, 1, 1, 0, 1)
    y = np.linspace(0.05, 0.95, 7)
    x, sumlog = tent2.pull_back(word, y)
    want = y
    for b in reversed(word):
        want = want / 2.0 if b == 0 else 1.0 - want / 2.0
    assert np.array_equal(x, want)
    assert np.array_equal(sumlog, np.full(len(y), len(word) * math.log(2.0)))
    # one word per row gives what one word at a time gives
    rows, rows_sumlog = tent2.pull_back(np.array([word, word[::-1]]),
                                        np.tile(y, (2, 1)))
    assert np.array_equal(rows[0], x) and np.array_equal(rows_sumlog[0], sumlog)
    assert np.array_equal(rows[1], tent2.pull_back(word[::-1], y)[0])


def test_pull_back_singular(tent2):
    # y = 1 pulls back through branch 0 onto the corner 0.5, where Df = 0
    with pytest.raises(SingularPotentialError):
        tent2.pull_back((0,), 1.0)
    x, sumlog = tent2.pull_back((0,), 1.0, logs=False)
    assert x == 0.5 and sumlog is None


@pytest.mark.parametrize("family,params", [
    ("tent", {"s": 1.9}),
    ("skew_tent", {"peak": 0.4}),
    ("logistic", {"a": 3.99}),
    ("cheb", {}),
])
def test_pull_back_rows_match_single_itineraries(family, params):
    # one itinerary per row gives, bit for bit, what one itinerary at a time
    # gives, with both branches in every column
    m = make_map(family, params)
    rng = np.random.default_rng(3)
    # row r: the itinerary of x0[r] over 9 steps, and 5 points just below
    # f^9(x0[r]), so every pullback stays next to the orbit of x0[r]
    orbit = [rng.uniform(0.01, 0.99, size=40)]
    for _ in range(9):
        orbit.append(np.asarray(m.f(orbit[-1])))
    syms = m.branch_of(np.array(orbit[:-1]).T)
    assert np.all(syms.min(axis=0) == 0) and np.all(syms.max(axis=0) == 1)
    y = orbit[-1][:, None] * (1.0 - 1e-9 * np.arange(5))
    x, sumlog = m.pull_back(syms, y)
    for row in range(len(syms)):
        x_row, sumlog_row = m.pull_back(tuple(syms[row]), y[row])
        assert np.array_equal(x[row], x_row)
        assert np.array_equal(sumlog[row], sumlog_row)
    # an array of branch indices inverts as one index at a time does
    b = rng.integers(0, 2, size=y.shape)
    xb = m.invert(b, y)
    for i in np.ndindex(y.shape):
        assert xb[i] == m.invert(int(b[i]), y[i])


def test_pull_back_rows_singular(tent2):
    # the second row pulls y = 1 back through branch 1 onto the corner 0.5
    syms, y = np.array([[0], [1]]), np.array([[0.3], [1.0]])
    with pytest.raises(SingularPotentialError):
        tent2.pull_back(syms, y)
    x, _ = tent2.pull_back(syms, y, logs=False)
    assert x.tolist() == [[0.15], [0.5]]
