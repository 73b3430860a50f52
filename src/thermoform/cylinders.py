"""Monotonicity partitions and itineraries.

The level-k partition cuts [0,1] at all solutions of f^j(x) in Crit for
j < k, found by recursive pullback of the critical set through the monotone
level-1 branches.
"""

from dataclasses import dataclass

from .maps import IntervalMap

ROOT_TOL = 1e-13
DEDUP_TOL = 1e-11
SLIVER_TOL = 1e-10
MAX_DEPTH = 20


@dataclass(frozen=True)
class Cylinder:
    level: int
    lo: float
    hi: float
    itinerary: tuple
    flagged: bool = False  # width below SLIVER_TOL; geometry unreliable

    @property
    def width(self):
        return self.hi - self.lo


@dataclass(frozen=True)
class CylinderPartition:
    map: IntervalMap
    level: int
    cylinders: tuple

    def __len__(self):
        return len(self.cylinders)


def _preimages(m: IntervalMap, targets):
    """All branch preimages of the target points: for each branch, the
    closed-form inverse of every target in the branch's image."""
    out = []
    for b in range(m.n_branches):
        lo, hi = m.branch_interval(b)
        va, vb = float(m.f(lo)), float(m.f(hi))
        ylo, yhi = min(va, vb), max(va, vb)
        for y in targets:
            if ylo - ROOT_TOL <= y <= yhi + ROOT_TOL:
                out.append(float(m.invert(b, min(max(y, ylo), yhi))))
    return out


def _dedup(points, tol=DEDUP_TOL):
    pts = sorted(points)
    kept = []
    for p in pts:
        if not kept or p - kept[-1] > tol:
            kept.append(p)
        # else merged into the previous representative
    return kept


def _itinerary(m: IntervalMap, x, k):
    """First k branch symbols of the orbit of x."""
    syms = []
    cur = x
    for _ in range(k):
        syms.append(int(m.branch_of(cur)))
        cur = float(m.f(cur))
        cur = min(max(cur, 0.0), 1.0)
    return tuple(syms)


def partition(m: IntervalMap, k, max_depth=MAX_DEPTH) -> CylinderPartition:
    """Level-k monotonicity partition Q_k.

    Endpoints are {0,1} plus the pullbacks of Crit to depth k-1; endpoints
    closer than DEDUP_TOL are merged; cylinders narrower than SLIVER_TOL are
    kept but flagged.
    """
    if k < 0:
        raise ValueError("level must be >= 0")
    if k > max_depth:
        raise ValueError(f"level {k} exceeds configured max depth {max_depth}")
    if k == 0:
        return CylinderPartition(m, 0, (Cylinder(0, 0.0, 1.0, ()),))
    crit = [c.location for c in m.critical_points]
    cuts = list(crit)
    level_set = list(crit)
    for _ in range(k - 1):
        level_set = _preimages(m, level_set)
        cuts.extend(level_set)
    pts = _dedup([0.0, 1.0] + [p for p in cuts if 0.0 < p < 1.0])
    if pts[0] > DEDUP_TOL:
        pts.insert(0, 0.0)
    if pts[-1] < 1.0 - DEDUP_TOL:
        pts.append(1.0)
    pts[0], pts[-1] = 0.0, 1.0
    cyls = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        flagged = (hi - lo) < SLIVER_TOL
        itin = _itinerary(m, 0.5 * (lo + hi), k)
        cyls.append(Cylinder(k, lo, hi, itin, flagged))
    return CylinderPartition(m, k, tuple(cyls))


def partition_to_csv(part: CylinderPartition, path):
    from .util import fmt12

    with open(path, "w") as fh:
        fh.write("level,index,left,right,itinerary\n")
        for i, c in enumerate(part.cylinders):
            itin = "".join(str(s) for s in c.itinerary)
            fh.write(f"{c.level},{i},{fmt12(c.lo)},{fmt12(c.hi)},{itin}\n")
