import numpy as np
import pytest

from thermoform.cylinders import partition, partition_to_csv
from thermoform.maps import make_map


def test_level_zero_single_cylinder(tent19):
    p = partition(tent19, 0)
    assert len(p) == 1
    c = p.cylinders[0]
    assert (c.lo, c.hi, c.itinerary) == (0.0, 1.0, ())


def test_tent2_level_one(tent2):
    p = partition(tent2, 1)
    assert [(c.lo, c.hi) for c in p.cylinders] == [(0.0, 0.5), (0.5, 1.0)]


def test_tent2_level_five_dyadic(tent2):
    p = partition(tent2, 5)
    assert len(p) == 32
    expect = np.arange(33) / 32.0
    ends = [c.lo for c in p.cylinders] + [p.cylinders[-1].hi]
    assert np.allclose(ends, expect, atol=1e-11)


def test_cheb_level3_conjugacy(cheb):
    # endpoints are sin^2(j pi / 16) via conjugacy with the full tent
    p = partition(cheb, 3)
    assert len(p) == 8
    expect = np.sin(np.arange(9) * np.pi / 16) ** 2
    ends = [c.lo for c in p.cylinders] + [p.cylinders[-1].hi]
    assert np.allclose(ends, expect, atol=1e-9)


def test_refinement_nesting(tent19):
    coarse = partition(tent19, 3)
    fine = partition(tent19, 4)
    for c in fine.cylinders:
        owners = [
            d for d in coarse.cylinders
            if d.lo - 1e-9 <= c.lo and c.hi <= d.hi + 1e-9
        ]
        assert len(owners) == 1


def test_cover_and_overlap(tent19, cheb):
    for m in (tent19, cheb):
        p = partition(m, 5)
        ends = [c.lo for c in p.cylinders] + [p.cylinders[-1].hi]
        assert ends[0] == 0.0 and ends[-1] == 1.0
        assert np.all(np.diff(ends) > 0)


@pytest.mark.parametrize("family,params,k", [
    ("tent", {"s": 2.0}, 6),
    ("tent", {"s": 1.9}, 6),
    ("cheb", {}, 5),
    ("logistic", {"a": 3.9}, 5),
])
def test_pullback_soundness(family, params, k):
    m = make_map(family, params)
    p = partition(m, k)
    for c in p.cylinders:
        if c.flagged:
            continue
        for frac in (0.25, 0.5, 0.75):
            x = c.lo + frac * c.width
            syms = []
            cur = x
            for _ in range(k):
                syms.append(int(m.branch_of(cur)))
                cur = float(m.f(cur))
            assert tuple(syms) == c.itinerary


@pytest.mark.parametrize("family,params,k", [
    ("tent", {"s": 1.9}, 6),
    ("logistic", {"a": 3.9}, 5),
])
def test_monotone_branch_property(family, params, k):
    m = make_map(family, params)
    p = partition(m, k)
    for c in p.cylinders:
        if c.flagged:
            continue
        xs = np.linspace(c.lo, c.hi, 7)[1:-1]
        dprod = np.ones_like(xs)
        cur = xs.copy()
        for _ in range(k):
            dprod *= m.df(cur)
            cur = np.asarray(m.f(cur))
        assert np.all(dprod > 0) or np.all(dprod < 0)


def test_matched_widths_converge(tent2):
    # Hausdorff distance of matched cylinders shrinks as the slope -> 2
    base = partition(tent2, 4)
    dists = []
    for s in (1.97, 1.99, 1.999):
        other = partition(make_map("tent", {"s": s}), 4)
        ours = {c.itinerary: c for c in base.cylinders}
        worst = 0.0
        for b in other.cylinders:
            a = ours.get(b.itinerary)
            if a is not None:
                worst = max(worst, abs(a.lo - b.lo), abs(a.hi - b.hi))
        dists.append(worst)
    assert dists[0] > dists[1] > dists[2]


def test_csv_dump(tmp_path, tent2):
    p = partition(tent2, 3)
    path = tmp_path / "partition.csv"
    partition_to_csv(p, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "level,index,left,right,itinerary"
    assert len(lines) == len(p) + 1
