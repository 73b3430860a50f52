"""Hofbauer tower: cylinder images modulo set identification, as a digraph.

Construction is interval-level: each domain splits at interior critical
points, each piece maps monotonically onto a full successor domain (the
Markov property), and images equal within the identification tolerance are
the same domain.  Breadth-first from the base copy of [0,1] up to height R.
"""

from dataclasses import dataclass, field
import warnings

from .errors import (
    AmbiguousPointError,
    ComponentUndetectedError,
    NoEdgeError,
    TowerTooLargeError,
    TransitiveTieWarning,
)
from .maps import IntervalMap

IDENT_TOL = 1e-9
MAX_DOMAINS = 100_000
_WITNESS_CAP = 8


@dataclass
class TowerDomain:
    id: int
    lo: float
    hi: float
    min_level: int
    # (level, cylinder itinerary) pairs realising this interval; capped.
    witnesses: list


@dataclass
class Transition:
    """One monotone piece of a domain: [lo,hi] -> successor under f."""

    lo: float
    hi: float
    symbol: int         # level-1 branch containing the piece
    succ: int | None    # None when the image lies beyond the height cap
    image_lo: float = 0.0
    image_hi: float = 0.0


@dataclass
class HofbauerTower:
    map: IntervalMap
    height: int
    domains: list
    transitions: dict = field(repr=False)   # id -> list[Transition]
    edges: dict = field(repr=False)         # id -> sorted tuple of successor ids
    base_id: int = 0
    transitive_ids: frozenset | None = None
    transitive_closed: bool | None = None

    def domain(self, i) -> TowerDomain:
        return self.domains[i]

    @property
    def n_domains(self):
        return len(self.domains)


class _DomainTable:
    """Interval-keyed lookup with the identification tolerance."""

    def __init__(self, tol=IDENT_TOL):
        self.tol = tol
        self._bykey = {}
        self.items = []

    def _keys(self, lo, hi):
        q = self.tol
        i, j = round(lo / q), round(hi / q)
        for di in (0, -1, 1):
            for dj in (0, -1, 1):
                yield (i + di, j + dj)

    def find(self, lo, hi):
        for key in self._keys(lo, hi):
            for idx in self._bykey.get(key, ()):
                d = self.items[idx]
                if abs(d.lo - lo) <= self.tol and abs(d.hi - hi) <= self.tol:
                    return idx
        return None

    def insert(self, dom):
        idx = dom.id
        self.items.append(dom)
        key = (round(dom.lo / self.tol), round(dom.hi / self.tol))
        self._bykey.setdefault(key, []).append(idx)
        return idx


def split_at_criticals(m: IntervalMap, lo, hi, tol=IDENT_TOL):
    """Monotone pieces of [lo,hi] and their full f-images.

    Yields (piece_lo, piece_hi, branch_symbol, image_lo, image_hi); images
    are exact f values of the piece endpoints (monotone on each piece).
    """
    cuts = [lo]
    for c in m.critical_points:
        if lo + tol < c.location < hi - tol:
            cuts.append(c.location)
    cuts.append(hi)
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        sym = int(m.branch_of(0.5 * (a + b)))
        fa, fb = float(m.f(a)), float(m.f(b))
        out.append((a, b, sym, min(fa, fb), max(fa, fb)))
    return out


def build_tower(m: IntervalMap, R, max_domains=MAX_DOMAINS) -> HofbauerTower:
    """Breadth-first tower up to height R (path length from the base copy).

    Deterministic given the identification tolerance: domains are created in
    BFS order; a final pass records every edge between constructed domains.
    """
    if R < 1:
        raise ValueError("height cap must be >= 1")
    table = _DomainTable()
    base = TowerDomain(0, 0.0, 1.0, 0, [(0, ())])
    table.insert(base)
    frontier = [0]
    for level in range(1, R + 1):
        nxt = []
        for did in frontier:
            dom = table.items[did]
            wit_level, wit_itin = dom.witnesses[0]
            for a, b, sym, ilo, ihi in split_at_criticals(m, dom.lo, dom.hi):
                if ihi - ilo <= IDENT_TOL:
                    continue  # degenerate image (piece endpoints identified)
                idx = table.find(ilo, ihi)
                if idx is None:
                    if len(table.items) >= max_domains:
                        raise TowerTooLargeError(
                            f"domain count exceeded {max_domains} at height {level}"
                        )
                    new = TowerDomain(len(table.items), ilo, ihi, level, [])
                    table.insert(new)
                    idx = new.id
                    nxt.append(idx)
                child = table.items[idx]
                if len(child.witnesses) < _WITNESS_CAP:
                    child.witnesses.append((wit_level + 1, wit_itin + (sym,)))
        frontier = nxt
    # Second pass: transitions and the complete edge set between built domains.
    transitions, edges = {}, {}
    for dom in table.items:
        trs = []
        succs = set()
        for a, b, sym, ilo, ihi in split_at_criticals(m, dom.lo, dom.hi):
            if ihi - ilo <= IDENT_TOL:
                continue
            idx = table.find(ilo, ihi)
            trs.append(Transition(a, b, sym, idx, ilo, ihi))
            if idx is not None:
                succs.add(idx)
        transitions[dom.id] = trs
        edges[dom.id] = tuple(sorted(succs))
    return HofbauerTower(m, R, table.items, transitions, edges)


def _tarjan_sccs(edges, n):
    """Iterative Tarjan; returns list of components (each a list of ids)."""
    index = [None] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    sccs = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            advanced = False
            succs = edges.get(v, ())
            for i in range(pi, len(succs)):
                w = succs[i]
                if index[w] is None:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def transitive_component(tower: HofbauerTower) -> frozenset:
    """Largest cyclic SCC reachable from the base; stored on the tower.

    Warns if two maximal cyclic SCCs tie in size (the theory predicts a
    unique transitive component; a tie means R is too small to see it).
    """
    n = tower.n_domains
    reachable = set()
    todo = [tower.base_id]
    while todo:
        v = todo.pop()
        if v in reachable:
            continue
        reachable.add(v)
        todo.extend(tower.edges.get(v, ()))
    candidates = []
    for comp in _tarjan_sccs(tower.edges, n):
        if not any(v in reachable for v in comp):
            continue
        cyclic = len(comp) > 1 or comp[0] in tower.edges.get(comp[0], ())
        if cyclic:
            candidates.append(sorted(comp))
    if not candidates:
        raise ComponentUndetectedError(
            f"no cyclic SCC reachable from base within height {tower.height}"
        )
    candidates.sort(key=lambda c: (-len(c), c[0]))
    if len(candidates) > 1 and len(candidates[0]) == len(candidates[1]):
        warnings.warn(
            "two maximal cyclic SCCs tie in size; increase the height cap",
            TransitiveTieWarning,
        )
    comp = frozenset(candidates[0])
    closed = all(
        (s in comp) for v in comp for s in tower.edges.get(v, ())
    )
    tower.transitive_ids = comp
    tower.transitive_closed = closed
    return comp


def tower_step(tower: HofbauerTower, x, domain_id, tol=1e-12):
    """One step of the lifted dynamics: (x, D) -> (f x, D')."""
    dom = tower.domain(domain_id)
    if not (dom.lo - tol <= x <= dom.hi + tol):
        raise AmbiguousPointError(f"{x} not in domain {domain_id} [{dom.lo},{dom.hi}]")
    for tr in tower.transitions[domain_id]:
        if tr.lo - tol < x < tr.hi + tol:
            if abs(x - tr.lo) < tol and tr.lo != dom.lo:
                raise AmbiguousPointError(f"{x} sits on a cylinder endpoint")
            if abs(x - tr.hi) < tol and tr.hi != dom.hi:
                raise AmbiguousPointError(f"{x} sits on a cylinder endpoint")
            if tr.succ is None:
                raise NoEdgeError(
                    f"successor of domain {domain_id} at height cap {tower.height}"
                )
            return float(tower.map.f(x)), tr.succ
    raise AmbiguousPointError(f"{x} not interior to any piece of domain {domain_id}")


def tower_to_dot(tower: HofbauerTower, path):
    """Graph dump: one node line per domain (id, interval, min-level)."""
    from .util import fmt12

    trans = tower.transitive_ids or frozenset()
    with open(path, "w") as fh:
        fh.write("digraph hofbauer {\n")
        for d in tower.domains:
            mark = ",transitive" if d.id in trans else ""
            fh.write(
                f'  d{d.id} [label="{d.id} [{fmt12(d.lo)},{fmt12(d.hi)}] '
                f'level={d.min_level}{mark}"];\n'
            )
        for v in sorted(tower.edges):
            for w in tower.edges[v]:
                fh.write(f"  d{v} -> d{w};\n")
        fh.write("}\n")
