"""First-return inducing schemes over the tower, projected to the interval.

The return target is the union of the copies of the base interval inside
every transitive domain containing its fattened version.  Pieces of the
lifted flow evolve as (interval, domain-interval) pairs by the tower's
Markov splitting, so branch enumeration is exhaustive and deterministic up
to the inducing-time cap; it never needs tower levels beyond the cap used
to compute the transitive part.  A scheme keeps its branches in one
Branches record of arrays, which every consumer indexes.
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


@dataclass(frozen=True, eq=False)
class Branches:
    """A scheme's branches as read-only arrays, sorted by (lo, tau): ends lo
    < hi, inducing times tau, and the (B, n_max) int8 matrix itin, whose row
    i holds the level-1 symbols of branch i's orbit in its first tau[i]
    columns and 0 after them.  No two branches share tau and itin row."""

    lo: np.ndarray
    hi: np.ndarray
    tau: np.ndarray
    itin: np.ndarray

    def __post_init__(self):
        for a in (self.lo, self.hi, self.tau, self.itin):
            a.flags.writeable = False

    def __len__(self):
        return len(self.tau)


@dataclass(frozen=True)
class InducingScheme:
    """A first-return scheme: its base, its Branches and their bookkeeping."""

    map: IntervalMap
    base_lo: float
    base_hi: float
    base_itinerary: tuple
    delta: float
    n_max: int
    branches: Branches
    coverage: float
    cset: tuple                # (domain id, interval lo, interval hi)
    lost_boundary: float       # base-length of partial-entry/thin pieces dropped

    @property
    def base_width(self):
        return self.base_hi - self.base_lo

    @property
    def taus(self):
        return self.branches.tau


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


def build_scheme(m: IntervalMap, tower: HofbauerTower, base, delta,
                 n_max) -> InducingScheme:
    """Enumerate the first-return branches to the fattened-base target set.

    `base` is a Cylinder (or (lo, hi, itinerary) triple).  Each emitted
    branch maps diffeomorphically onto the base after exactly tau steps with
    the intermediate tower lift outside the target set.  Its return domain
    is a check-set domain, which contains fatten(base, delta), so the branch
    extends monotonically over the fattened base.  Deterministic.
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

    # an empty entry, then per step: ends, full flags, taus, itineraries of returns
    found = [(np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool),
              np.zeros(0, dtype=int), np.zeros((0, n_max), dtype=np.int8))]
    # piece = (J_lo, J_hi, D_lo, D_hi, word); J is the current image of a
    # monotone sub-piece of the base, D the interval of its tower domain.
    pieces = [(a0, a1, start.lo, start.hi, ())]
    for step in range(1, n_max + 1):
        nxt = []
        # returns of this step, pulled back together after it:
        # (full return?, word, returning part of the image)
        returns = []
        for jlo, jhi, dlo, dhi, word in pieces:
            for plo, phi, sym, ilo, ihi in split_at_criticals(m, dlo, dhi):
                olo, ohi = max(jlo, plo), min(jhi, phi)
                if ohi - olo <= WIDTH_FLOOR:
                    continue
                fa, fb = float(m.f(olo)), float(m.f(ohi))
                nlo, nhi = min(fa, fb), max(fa, fb)
                nword = word + (sym,)
                if in_cset(ilo, ihi) and nhi > a0 + END_TOL and nlo < a1 - END_TOL:
                    # A full return covers the base; a partial entry's points
                    # return but not onto the full base.  Either way the
                    # outside parts stay alive.
                    full = nlo <= a0 + END_TOL and nhi >= a1 - END_TOL
                    returns.append((full, nword, (a0, a1) if full
                                    else (max(nlo, a0), min(nhi, a1))))
                    for glo, ghi in ((nlo, a0), (a1, nhi)):
                        if ghi - glo > WIDTH_FLOOR:
                            nxt.append((glo, ghi, ilo, ihi, nword))
                else:
                    nxt.append((nlo, nhi, ilo, ihi, nword))
        if returns:
            full, words, ends = zip(*returns)
            itin = np.zeros((len(words), n_max), dtype=np.int8)
            itin[:, :step] = words
            xs, _ = m.pull_back(itin[:, :step], np.array(ends), logs=False)
            found.append((xs.min(axis=1), xs.max(axis=1), np.array(full),
                          np.full(len(words), step), itin))
        if len(nxt) > PIECE_BUDGET:
            raise SchemeTooLargeError(
                f"{len(nxt)} live pieces at time {step}; lower n_max or deepen the base"
            )
        pieces = nxt
    lo, hi, full, tau, itin = (np.concatenate(c) for c in zip(*found))
    # partial entries and unresolved full returns are lost; both sums add
    # one term at a time, in return and in branch order
    keep = full & (hi - lo > WIDTH_FLOOR)
    lost = float(np.cumsum(np.append(0.0, (hi - lo)[~keep]))[-1])
    order = np.lexsort((tau[keep], lo[keep]))
    branches = Branches(*(x[keep][order] for x in (lo, hi, tau, itin)))
    coverage = sum((branches.hi - branches.lo).tolist()) / (a1 - a0) if a1 > a0 else 0.0
    if coverage < COVERAGE_FLOOR:
        warnings.warn(
            f"scheme coverage {coverage:.4f} below floor {COVERAGE_FLOOR}",
            LowCoverageWarning,
        )
    return InducingScheme(
        m, a0, a1, base_itin, delta, n_max, branches, coverage,
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
        b = scheme.branches
        rows = zip(b.lo.tolist(), b.hi.tolist(), b.tau.tolist(), b.itin.tolist())
        for i, (lo, hi, tau, itin) in enumerate(rows):
            word = "".join(map(str, itin[:tau]))
            fh.write(f"{i},{fmt12(lo)},{fmt12(hi)},{tau},{word}\n")
