import numpy as np
import pytest

from thermoform.errors import (
    AmbiguousPointError,
    ComponentUndetectedError,
    NoEdgeError,
    TowerTooLargeError,
)
from thermoform.maps import make_map
from thermoform.tower import (
    HofbauerTower,
    TowerDomain,
    build_tower,
    tower_step,
    tower_to_dot,
    transitive_component,
)
from thermoform.cylinders import partition


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def brute_force_domains(m, R, tol=1e-9):
    """Second implementation: set-based BFS on rounded interval keys."""
    def key(lo, hi):
        return (round(lo / tol), round(hi / tol))

    crit = sorted(c.location for c in m.critical_points)
    domains = {key(0.0, 1.0): (0.0, 1.0)}
    frontier = [(0.0, 1.0)]
    for _ in range(R):
        nxt = []
        for lo, hi in frontier:
            cuts = [lo] + [c for c in crit if lo < c < hi] + [hi]
            for a, b in zip(cuts[:-1], cuts[1:]):
                fa, fb = float(m.f(a)), float(m.f(b))
                ilo, ihi = min(fa, fb), max(fa, fb)
                if ihi - ilo <= tol:
                    continue
                k = key(ilo, ihi)
                if k not in domains:
                    domains[k] = (ilo, ihi)
                    nxt.append((ilo, ihi))
        frontier = nxt
    return domains


def kosaraju_sccs(edges, n):
    """Independent SCC pass for the dual-algorithm cross-check."""
    radj = {i: [] for i in range(n)}
    for u, vs in edges.items():
        for v in vs:
            radj[v].append(u)
    seen = [False] * n
    order = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [(s, iter(edges.get(s, ())))]
        seen[s] = True
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(edges.get(w, ()))))
                    advanced = True
                    break
            if not advanced:
                order.append(v)
                stack.pop()
    comp = [None] * n
    sccs = []
    for s in reversed(order):
        if comp[s] is not None:
            continue
        cur = [s]
        comp[s] = len(sccs)
        members = []
        while cur:
            v = cur.pop()
            members.append(v)
            for w in radj[v]:
                if comp[w] is None:
                    comp[w] = len(sccs)
                    cur.append(w)
        sccs.append(sorted(members))
    return sorted(map(tuple, sccs))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_full_maps_collapse_to_base(tent2, cheb):
    for m in (tent2, cheb):
        tw = build_tower(m, 6)
        assert tw.n_domains == 1
        assert tw.edges[0] == (0,)
        d = tw.domain(0)
        assert (d.lo, d.hi, d.min_level) == (0.0, 1.0, 0)


def test_tent19_matches_brute_force(tent19):
    tw = build_tower(tent19, 8)
    oracle = brute_force_domains(tent19, 8)
    assert tw.n_domains == len(oracle)
    got = sorted((round(d.lo, 8), round(d.hi, 8)) for d in tw.domains)
    want = sorted((round(lo, 8), round(hi, 8)) for lo, hi in oracle.values())
    assert got == want


def test_logistic_tower_brute_force():
    m = make_map("logistic", {"a": 3.9})
    tw = build_tower(m, 8)
    oracle = brute_force_domains(m, 8)
    assert tw.n_domains == len(oracle)


def test_base_domain_invariants(tent19_tower):
    base = tent19_tower.domain(0)
    assert (base.lo, base.hi) == (0.0, 1.0)
    assert base.min_level == 0
    assert base.witnesses[0] == (0, ())


def test_witness_soundness(tent19, tent19_tower):
    # every witness itinerary names a cylinder whose image is the domain
    parts = {}
    for d in tent19_tower.domains:
        for level, itin in d.witnesses:
            if level == 0:
                continue
            if level not in parts:
                parts[level] = partition(tent19, level)
            cyl = [c for c in parts[level].cylinders if c.itinerary == itin]
            assert len(cyl) == 1
            lo, hi = cyl[0].lo, cyl[0].hi
            flo, fhi = lo, hi
            for _ in range(level):
                flo, fhi = float(tent19.f(flo)), float(tent19.f(fhi))
            assert min(flo, fhi) == pytest.approx(d.lo, abs=1e-8)
            assert max(flo, fhi) == pytest.approx(d.hi, abs=1e-8)


def test_domain_cap():
    with pytest.raises(TowerTooLargeError):
        build_tower(make_map("tent", {"s": 1.9}), 8, max_domains=3)


# ---------------------------------------------------------------------------
# Transitive component
# ---------------------------------------------------------------------------

def test_transitive_cheb(cheb_tower):
    assert cheb_tower.transitive_ids == frozenset({0})
    assert cheb_tower.transitive_closed


def test_transitive_hand_built_graph():
    # A -> B -> C -> B forces the component {B, C}
    domains = [TowerDomain(i, 0.0, 1.0, 0, [(0, ())]) for i in range(3)]
    tower = HofbauerTower(None, 3, domains, {},
                          {0: (1,), 1: (2,), 2: (1,)})
    comp = transitive_component(tower)
    assert comp == frozenset({1, 2})
    assert tower.transitive_closed


def test_transitive_none_detected():
    domains = [TowerDomain(i, 0.0, 1.0, 0, [(0, ())]) for i in range(2)]
    tower = HofbauerTower(None, 2, domains, {}, {0: (1,), 1: ()})
    with pytest.raises(ComponentUndetectedError):
        transitive_component(tower)


def test_scc_dual_algorithm(tent19_tower):
    from thermoform.tower import _tarjan_sccs

    n = tent19_tower.n_domains
    ours = sorted(tuple(sorted(c)) for c in _tarjan_sccs(tent19_tower.edges, n))
    theirs = kosaraju_sccs(tent19_tower.edges, n)
    assert ours == theirs
    # and on seeded random graphs
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        edges = {
            i: tuple(sorted(set(rng.integers(0, n, size=rng.integers(0, 4)))))
            for i in range(n)
        }
        ours = sorted(tuple(sorted(c)) for c in _tarjan_sccs(edges, n))
        assert ours == kosaraju_sccs(edges, n)


def test_transitive_closed_on_families(tent19_tower):
    tw = tent19_tower
    for v in tw.transitive_ids:
        for w in tw.edges.get(v, ()):
            assert w in tw.transitive_ids


def test_tower_stability_under_perturbation(tent19_tower):
    # Hausdorff distance of matched transitive domains shrinks with the
    # offset, once the offset is small enough for the tower combinatorics to
    # agree (all nine domains matched).
    worsts = []
    for s in (1.905, 1.902, 1.901):
        other = build_tower(make_map("tent", {"s": s}), 8)
        transitive_component(other)
        # pair domains by their min-level witness itinerary
        ids = {}
        for d in other.domains:
            ids.setdefault(d.witnesses[0][1], d.id)
        trans_pairs = [
            (d.id, ids[d.witnesses[0][1]]) for d in tent19_tower.domains
            if d.id in tent19_tower.transitive_ids and d.witnesses[0][1] in ids
        ]
        assert trans_pairs
        worst = 0.0
        for a, b in trans_pairs:
            da, db = tent19_tower.domain(a), other.domain(b)
            worst = max(worst, abs(da.lo - db.lo), abs(da.hi - db.hi))
        worsts.append(worst)
    assert worsts[0] > worsts[1] > worsts[2]


# ---------------------------------------------------------------------------
# Lifted dynamics
# ---------------------------------------------------------------------------

def test_step_examples(cheb_tower, tent2_tower):
    y, d = tower_step(cheb_tower, 0.3, 0)
    assert y == pytest.approx(0.84) and d == 0
    y, d = tower_step(tent2_tower, 0.3, 0)
    assert y == pytest.approx(0.6) and d == 0


def test_step_semiconjugacy(tent19, tent19_tower):
    rng = np.random.default_rng(3)
    checked = 0
    for x0 in rng.uniform(0.01, 0.99, size=100):
        x, d = float(x0), 0
        for _ in range(50):
            fx = float(tent19.f(x))
            try:
                y, d = tower_step(tent19_tower, x, d)
            except NoEdgeError:
                break  # height cap reached; semiconjugacy holds up to here
            except AmbiguousPointError:
                break
            assert y == pytest.approx(fx, abs=1e-12)
            x = y
            checked += 1
    assert checked > 1000


def test_step_errors(tent19_tower):
    with pytest.raises(AmbiguousPointError):
        tower_step(tent19_tower, 0.5, 0)
    # frontier domain whose upper piece maps beyond the cap
    frontier = [d for d in tent19_tower.domains if d.min_level == 8]
    assert frontier
    dom = frontier[0]
    trs = tent19_tower.transitions[dom.id]
    dead = [t for t in trs if t.succ is None]
    assert dead
    x = 0.5 * (dead[0].lo + dead[0].hi)
    with pytest.raises(NoEdgeError):
        tower_step(tent19_tower, x, dom.id)


def test_dot_dump(tmp_path, tent19_tower):
    path = tmp_path / "tower.dot"
    tower_to_dot(tent19_tower, path)
    text = path.read_text()
    assert text.count("label=") == tent19_tower.n_domains
    assert "->" in text
