"""First-return inducing schemes over the tower, projected to the interval.

The return target is the union of the copies of the base interval inside
every transitive domain containing its fattened version.  Pieces of the
lifted flow evolve as (interval, domain-interval) pairs by the tower's
Markov splitting, so branch enumeration is exhaustive and deterministic up
to the inducing-time cap; it never needs tower levels beyond the cap used
to compute the transitive part.
"""

from dataclasses import dataclass
import warnings

import numpy as np

from .cylinders import Cylinder, partition
from .errors import BaseNotInTransitivePartError, LowCoverageWarning, SchemeTooLargeError
from .maps import IntervalMap
from .tower import IDENT_TOL, HofbauerTower, split_at_criticals, transitive_component

END_TOL = 1e-10       # slack when testing "maps exactly onto the base"
WIDTH_FLOOR = 1e-12   # pieces thinner than this are dropped and accounted
PIECE_BUDGET = 500_000
COVERAGE_FLOOR = 0.9


@dataclass(frozen=True)
class Branch:
    lo: float
    hi: float
    tau: int
    itinerary: tuple      # level-1 branch symbols along the branch orbit
    extension_ok: bool

    @property
    def width(self):
        return self.hi - self.lo


@dataclass(frozen=True)
class InducingScheme:
    map: IntervalMap
    base_lo: float
    base_hi: float
    base_itinerary: tuple
    delta: float
    n_max: int
    branches: tuple
    coverage: float
    cset: tuple                # (domain id, interval lo, interval hi)
    lost_boundary: float       # base-length of partial-entry/thin pieces dropped

    @property
    def base_width(self):
        return self.base_hi - self.base_lo

    @property
    def taus(self):
        return np.array([b.tau for b in self.branches], dtype=int)


def fatten(interval, delta):
    """(1+delta)-fattening of (a, a+gamma): (a - d*gamma, a + gamma + d*gamma) clipped to [0,1]."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    a, b = interval
    gamma = b - a
    return (max(a - delta * gamma, 0.0), min(b + delta * gamma, 1.0))


def check_set(tower: HofbauerTower, A, delta, tol=IDENT_TOL):
    """Pieces of the return target: transitive domains containing fatten(A).

    Returns [(domain id, piece interval)] where the piece is the copy of A
    inside the domain; empty list is a legal result.
    """
    if tower.transitive_ids is None:
        transitive_component(tower)
    alo, ahi = fatten(A, delta)
    out = []
    for i in sorted(tower.transitive_ids):
        d = tower.domain(i)
        if d.lo <= alo + tol and d.hi >= ahi - tol:
            out.append((i, (A[0], A[1])))
    return out


def _extension_ok(m: IntervalMap, word, ext_interval, tol=1e-12):
    """Does the branch extend diffeomorphically over the fattened base?

    Pull the fattened interval back through the word and demand each step's
    target stays inside the image of the step's level-1 branch.
    """
    lo, hi = ext_interval
    for sym in reversed(word):
        blo, bhi = m.branch_interval(sym)
        va, vb = float(m.f(blo)), float(m.f(bhi))
        ilo, ihi = min(va, vb), max(va, vb)
        if lo < ilo - tol or hi > ihi + tol:
            return False
        a = float(m.invert(sym, lo))
        b = float(m.invert(sym, hi))
        lo, hi = min(a, b), max(a, b)
    return True


def build_scheme(m: IntervalMap, tower: HofbauerTower, base, delta=0.1,
                 n_max=25) -> InducingScheme:
    """Enumerate the first-return branches to the fattened-base target set.

    `base` is a Cylinder (or (lo, hi, itinerary) triple).  Each emitted
    branch maps diffeomorphically onto the base after exactly tau steps with
    the intermediate tower lift outside the target set.  Deterministic.
    """
    if isinstance(base, Cylinder):
        a0, a1, base_itin = base.lo, base.hi, base.itinerary
    else:
        a0, a1, base_itin = base
        base_itin = tuple(base_itin)
    cset = check_set(tower, (a0, a1), delta)
    if not cset:
        raise BaseNotInTransitivePartError(
            f"no transitive domain contains the fattened base [{a0},{a1}]"
        )
    cset_intervals = [(tower.domain(i).lo, tower.domain(i).hi) for i, _ in cset]
    start = tower.domain(cset[0][0])

    def in_cset(dlo, dhi):
        for clo, chi in cset_intervals:
            if abs(dlo - clo) <= IDENT_TOL and abs(dhi - chi) <= IDENT_TOL:
                return True
        return False

    branches = []
    lost = 0.0
    # piece = (J_lo, J_hi, D_lo, D_hi, word); J is the current image of a
    # monotone sub-piece of the base, D the interval of its tower domain.
    pieces = [(a0, a1, start.lo, start.hi, ())]
    for step in range(1, n_max + 1):
        nxt = []
        for jlo, jhi, dlo, dhi, word in pieces:
            for plo, phi, sym, ilo, ihi in split_at_criticals(m, dlo, dhi):
                olo, ohi = max(jlo, plo), min(jhi, phi)
                if ohi - olo <= WIDTH_FLOOR:
                    continue
                fa, fb = float(m.f(olo)), float(m.f(ohi))
                nlo, nhi = min(fa, fb), max(fa, fb)
                nword = word + (sym,)
                if in_cset(ilo, ihi) and nhi > a0 + END_TOL and nlo < a1 - END_TOL:
                    if nlo <= a0 + END_TOL and nhi >= a1 - END_TOL:
                        # Full return: the sub-piece covering the base is a
                        # branch, unless its pullback is too thin to resolve.
                        xa, xb = m.pull_back(nword, (a0, a1), logs=False)[0].tolist()
                        blo, bhi = min(xa, xb), max(xa, xb)
                        if bhi - blo > WIDTH_FLOOR:
                            ext = _extension_ok(m, nword, fatten((a0, a1), delta))
                            branches.append(Branch(blo, bhi, step, nword, ext))
                        else:
                            lost += bhi - blo
                        for glo, ghi in ((nlo, a0), (a1, nhi)):
                            if ghi - glo > WIDTH_FLOOR:
                                nxt.append((glo, ghi, ilo, ihi, nword))
                    else:
                        # Partial entry: those points return but not onto the
                        # full base; drop them, keep the outside parts alive.
                        covered = (max(nlo, a0), min(nhi, a1))
                        xa, xb = m.pull_back(nword, covered, logs=False)[0].tolist()
                        lost += abs(xb - xa)
                        for glo, ghi in ((nlo, a0), (a1, nhi)):
                            if ghi - glo > WIDTH_FLOOR:
                                nxt.append((glo, ghi, ilo, ihi, nword))
                else:
                    nxt.append((nlo, nhi, ilo, ihi, nword))
        if len(nxt) > PIECE_BUDGET:
            raise SchemeTooLargeError(
                f"{len(nxt)} live pieces at time {step}; lower n_max or deepen the base"
            )
        pieces = nxt
    branches.sort(key=lambda b: (b.lo, b.tau))
    width = a1 - a0
    coverage = sum(b.width for b in branches) / width if width > 0 else 0.0
    if coverage < COVERAGE_FLOOR:
        warnings.warn(
            f"scheme coverage {coverage:.4f} below floor {COVERAGE_FLOOR}",
            LowCoverageWarning,
        )
    return InducingScheme(
        m, a0, a1, base_itin, delta, n_max, tuple(branches), coverage,
        tuple((i, tower.domain(i).lo, tower.domain(i).hi) for i, _ in cset),
        lost,
    )


def _boundary_condition(m: IntervalMap, A, k, tol=1e-9):
    """f^j(boundary of A) avoids the boundary of A for 1 <= j <= k."""
    if k == 0:
        return True
    a0, a1 = A
    for e in (a0, a1):
        x = e
        for _ in range(k):
            x = float(m.f(x))
            if abs(x - a0) < tol or abs(x - a1) < tol:
                return False
    return True


def choose_base(m: IntervalMap, tower: HofbauerTower, k, delta=0.1,
                require_boundary=True):
    """First level-k cylinder, in itinerary order, usable as a scheme base.

    Candidates must have a nonempty check-set, avoid critical values of the
    map on their closure (where equilibrium densities spike), not be flagged
    slivers, and (when required) satisfy the boundary condition.  The scan
    order is a recorded choice policy, not a claim about the canonical
    construction.
    """
    part = partition(m, k)
    candidates = sorted(range(len(part.cylinders)),
                        key=lambda i: part.cylinders[i].itinerary)
    # Equilibrium densities spike at images of smooth critical points;
    # corner maps (constant |Df| near the turn) have no such spikes.
    crit_values = [float(m.f(c.location)) for c in m.critical_points if c.smooth]
    crit_values += [float(m.f(v)) for v in crit_values]
    for idx in candidates:
        c = part.cylinders[idx]
        if c.flagged:
            continue
        if not check_set(tower, (c.lo, c.hi), delta):
            continue
        if any(c.lo - 1e-9 <= v <= c.hi + 1e-9 for v in crit_values):
            continue
        if require_boundary and not _boundary_condition(m, (c.lo, c.hi), k):
            continue
        return c
    raise BaseNotInTransitivePartError(
        f"no admissible level-{k} base cylinder (scanned {len(candidates)})"
    )


def scheme_to_csv(scheme: InducingScheme, path):
    from .util import fmt12

    with open(path, "w") as fh:
        fh.write("index,left,right,tau,itinerary\n")
        for i, b in enumerate(scheme.branches):
            itin = "".join(str(s) for s in b.itinerary)
            fh.write(f"{i},{fmt12(b.lo)},{fmt12(b.hi)},{b.tau},{itin}\n")
