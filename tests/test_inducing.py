import collections

import numpy as np
import pytest

from thermoform.cylinders import partition
from thermoform.errors import BaseNotInTransitivePartError, LowCoverageWarning
from thermoform.inducing import (
    build_scheme,
    check_set,
    choose_base,
    fatten,
    scheme_to_csv,
    WIDTH_FLOOR,
)
from thermoform.maps import make_map
from thermoform.tower import build_tower, transitive_component, tower_step
from tests.conftest import cylinder_by_itinerary


def test_fatten_examples():
    assert fatten((0.2, 0.4), 0.5) == (pytest.approx(0.1), pytest.approx(0.5))
    assert fatten((0.2, 0.4), 0.0) == (0.2, 0.4)
    assert fatten((0.0, 0.9), 0.5) == (0.0, 1.0)


def test_check_set_examples(cheb_tower, tent19_tower):
    out = check_set(cheb_tower, (0.3, 0.4), 0.1)
    assert out == [(0, (0.3, 0.4))]
    # full-interval target only matches domains equal to [0,1]
    assert check_set(cheb_tower, (0.0, 1.0), 0.1) == [(0, (0.0, 1.0))]
    assert check_set(tent19_tower, (0.0, 1.0), 0.1) == []
    # a target near 1 exceeds every transitive domain of tent 1.9
    assert check_set(tent19_tower, (0.9, 0.95), 0.1) == []
    # oracle: direct containment scan over the same tower
    A = (0.3, 0.36)
    alo, ahi = fatten(A, 0.1)
    want = [
        i for i in sorted(tent19_tower.transitive_ids)
        if tent19_tower.domain(i).lo <= alo + 1e-9
        and tent19_tower.domain(i).hi >= ahi - 1e-9
    ]
    assert [i for i, _ in check_set(tent19_tower, A, 0.1)] == want


def brute_force_return_counts(m, base_lo, base_hi, n_max):
    """First-return branch counts per tau over the level-tau partitions.

    For each level-tau cylinder inside the base, pull the base back through
    its monotone branch of f^tau and demand that the pullback's intermediate
    images avoid the base interior.  Valid for single-domain towers (full
    maps), where tower returns and interval returns coincide.
    """
    counts = collections.Counter()
    for tau in range(1, n_max + 1):
        part = partition(m, tau)
        for c in part.cylinders:
            if not (base_lo - 1e-9 <= c.lo and c.hi <= base_hi + 1e-9):
                continue
            # pull the base back through this cylinder's itinerary
            vlo, vhi = base_lo, base_hi
            full = True
            for sym in c.itinerary[::-1]:
                blo, bhi = m.branch_interval(sym)
                ia, ib = sorted((float(m.f(blo)), float(m.f(bhi))))
                if vlo < ia - 1e-9 or vhi > ib + 1e-9:
                    full = False
                    break
                a = float(np.clip(m.branch_inverse(sym, vlo), blo, bhi))
                b = float(np.clip(m.branch_inverse(sym, vhi), blo, bhi))
                vlo, vhi = sorted((a, b))
            if not full:
                continue
            if not (c.lo - 1e-9 <= vlo and vhi <= c.hi + 1e-9):
                continue
            lo, hi = vlo, vhi
            ok = True
            for j in range(1, tau):
                lo, hi = sorted((float(m.f(lo)), float(m.f(hi))))
                if min(hi, base_hi) - max(lo, base_lo) > 1e-9:
                    ok = False
                    break
            if ok:
                counts[tau] += 1
    return dict(counts)


def test_cheb_branch_counts_vs_brute_force(cheb, cheb_tower):
    base = cylinder_by_itinerary(cheb, 1, (0,))
    scheme = build_scheme(cheb, cheb_tower, base, delta=0.1, n_max=10)
    got = collections.Counter(b.tau for b in scheme.branches)
    want = brute_force_return_counts(cheb, base.lo, base.hi, 10)
    assert dict(got) == want


def test_tent2_full_shift_structure(tent2, tent2_tower):
    base = cylinder_by_itinerary(tent2, 1, (0,))
    scheme = build_scheme(tent2, tent2_tower, base, delta=0.1, n_max=8)
    taus = sorted(b.tau for b in scheme.branches)
    assert taus == list(range(1, 9))  # one branch per return time
    for b in scheme.branches:
        assert b.width == pytest.approx(0.5 * 2.0 ** -b.tau, abs=1e-12)
    assert scheme.coverage == pytest.approx(1 - 2.0 ** -8, abs=1e-10)
    assert scheme.lost_boundary == 0.0


def test_branch_disjointness_and_mass(tent2_scheme, cheb_scheme, tent19_scheme):
    for scheme in (tent2_scheme, cheb_scheme, tent19_scheme):
        total = sum(b.width for b in scheme.branches)
        assert total <= scheme.base_width + 1e-12
        ends = sorted((b.lo, b.hi) for b in scheme.branches)
        for (l1, h1), (l2, h2) in zip(ends[:-1], ends[1:]):
            assert h1 <= l2 + 1e-12


def test_branches_map_onto_base(tent19_scheme):
    m = tent19_scheme.map
    for b in tent19_scheme.branches[::7]:
        lo, hi = b.lo, b.hi
        for _ in range(b.tau):
            lo, hi = sorted((float(m.f(lo)), float(m.f(hi))))
        assert lo == pytest.approx(tent19_scheme.base_lo, abs=1e-9)
        assert hi == pytest.approx(tent19_scheme.base_hi, abs=1e-9)


def test_return_correctness_on_tower(tent19):
    # midpoints return to the target set at tau and never before
    tall = build_tower(tent19, 8)
    transitive_component(tall)
    base = cylinder_by_itinerary(tent19, 2, (0, 1))
    scheme = build_scheme(tent19, tall, base, delta=0.1, n_max=10)
    cset_ids = {i for i, _, _ in scheme.cset}
    start = sorted(cset_ids)[0]
    for b in scheme.branches:
        x, d = 0.5 * (b.lo + b.hi), start
        hit_cap = False
        for j in range(1, b.tau + 1):
            try:
                x, d = tower_step(tall, x, d)
            except Exception:
                hit_cap = True
                break
            inside = scheme.base_lo < x < scheme.base_hi and d in cset_ids
            if j < b.tau:
                assert not inside, f"branch {b.itinerary} returned early at {j}"
            else:
                assert inside, f"branch {b.itinerary} missed its return"
        if hit_cap:
            continue


def test_no_unresolved_branches(cheb, cheb_tower):
    # at n_max 28 one full return pulls the base back onto a single point,
    # next to the base end that maps onto the critical point 1/2
    base = cylinder_by_itinerary(cheb, 2, (0, 1))
    scheme = build_scheme(cheb, cheb_tower, base, delta=0.1, n_max=28)
    assert all(b.width > WIDTH_FLOOR for b in scheme.branches)


def test_scheme_convergence(tent19, tent19_scheme):
    # matched branches (tau <= 6) converge in Hausdorff distance, equal tau
    dists = []
    for s in (1.95, 1.92, 1.905):
        m = make_map("tent", {"s": s})
        tw = build_tower(m, 8)
        transitive_component(tw)
        base = cylinder_by_itinerary(m, 2, (0, 1))
        other = build_scheme(m, tw, base, delta=0.1, n_max=10)
        ours = {b.itinerary: b for b in tent19_scheme.branches if b.tau <= 6}
        worst = 0.0
        matched = 0
        for b in other.branches:
            if b.tau > 6 or b.itinerary not in ours:
                continue
            a = ours[b.itinerary]
            assert a.tau == b.tau
            worst = max(worst, abs(a.lo - b.lo), abs(a.hi - b.hi))
            matched += 1
        assert matched >= 5
        dists.append(worst)
    assert dists[0] > dists[1] > dists[2]


def test_choose_base_policies(tent2, tent19, cheb, tent2_tower, tent19_tower,
                              cheb_tower):
    assert choose_base(tent2, tent2_tower, 1, require_boundary=False).itinerary == (0,)
    assert choose_base(tent19, tent19_tower, 2, require_boundary=False).itinerary == (0, 1)
    # strict boundary condition forces depth 3 on tent 1.9
    assert choose_base(tent19, tent19_tower, 3).itinerary == (0, 1, 1)
    c = choose_base(cheb, cheb_tower, 3)
    assert c.itinerary == (0, 1, 1)
    assert (c.lo, c.hi) == (pytest.approx(0.146447, abs=1e-5),
                            pytest.approx(0.308658, abs=1e-5))


def test_base_not_in_transitive_part(tent19, tent19_tower):
    base = cylinder_by_itinerary(tent19, 2, (0, 0))  # touches 0
    with pytest.raises(BaseNotInTransitivePartError):
        build_scheme(tent19, tent19_tower, base, delta=0.1, n_max=6)


def test_low_coverage_warning(tent19, tent19_tower):
    base = cylinder_by_itinerary(tent19, 2, (0, 1))
    with pytest.warns(LowCoverageWarning):
        build_scheme(tent19, tent19_tower, base, delta=0.1, n_max=4)


def test_coverage_monotone_in_nmax(tent19, tent19_tower):
    import warnings

    base = cylinder_by_itinerary(tent19, 2, (0, 1))
    covs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in (6, 10, 14, 18):
            covs.append(build_scheme(tent19, tent19_tower, base,
                                     delta=0.1, n_max=n).coverage)
    assert all(b >= a for a, b in zip(covs, covs[1:]))


def test_extension_flags(tent2_scheme, cheb_scheme):
    assert all(b.extension_ok for b in tent2_scheme.branches)
    assert all(b.extension_ok for b in cheb_scheme.branches)


def test_scheme_csv(tmp_path, tent2_scheme):
    path = tmp_path / "scheme.csv"
    scheme_to_csv(tent2_scheme, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,left,right,tau,itinerary"
    assert len(lines) == len(tent2_scheme.branches) + 1
