"""Stability experiments: parameter ladders, weak* and L1 distances,
pressure curves, tail fits, matched-cylinder mass.

The base map's scheme, pressures and projected measures are computed once
into a BaseState.  Each ladder rung runs the full pipeline (partition ->
tower -> scheme -> Gibbs state -> projection) for a perturbed parameter and
is compared against that record, in the same _run_rung whether serial or in
a pool worker.  Rungs are independent; failures are annotated per rung and
never silently dropped.  run_sweep reads the config schema's flat
keys, every stage with the same settings for every map.
"""

from dataclasses import dataclass
import math

import numpy as np

from .config import gibbs_kwargs, resolve
from .cylinders import partition
from .errors import TailUnderresolvedError, IncomparableSchemesError, ThermoformError
from .inducing import Branches, build_scheme, choose_base
from .maps import c2_distance, make_member
from .thermo import (
    GibbsState, SpectralOperator, gibbs_state, project_measure, projection_pieces,
)
from .tower import build_tower, transitive_component
from .util import fmt12


# ---------------------------------------------------------------------------
# Weak* distances
# ---------------------------------------------------------------------------

C2_GRID = 1000          # sample points of the C^2 distance between maps
DICTIONARY_SIZE = 8     # Chebyshev observables of the weak* distance


def weak_star_vector(a, b):
    """Per-observable |int T_j da - int T_j db| of two bin-mass arrays on
    the same uniform grid, over the first DICTIONARY_SIZE Chebyshev
    polynomials T_j rescaled to [0,1]."""
    n = len(a)
    theta = np.arccos(np.clip(2.0 * ((np.arange(n) + 0.5) / n) - 1.0, -1.0, 1.0))
    return tuple(abs(float(np.sum((a - b) * np.cos(j * theta))))
                 for j in range(DICTIONARY_SIZE))


# ---------------------------------------------------------------------------
# Tail fits
# ---------------------------------------------------------------------------

def _fit_line(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return coef[0], coef[1], r2


def tail_profile(gs: GibbsState):
    """Fit of the inducing-time tail mu_F(tau > N).

    Least squares of log tail against N (exponential) and against log N
    (polynomial); returns (C, rate, kind, r2) for the better model.
    """
    taus = gs.scheme.taus
    mu = gs.branch_mu
    pts = []
    for N in range(2, int(taus.max()), 2):
        tail = float(mu[taus > N].sum())
        if tail > 1e-300:
            pts.append((N, tail))
    if len(pts) < 3:
        raise TailUnderresolvedError(f"{len(pts)} usable tail points")
    N = np.array([p[0] for p in pts], dtype=float)
    logt = np.log(np.array([p[1] for p in pts]))
    se, ie, r2e = _fit_line(N, logt)
    sp_, ip_, r2p = _fit_line(np.log(N), logt)
    if r2e >= r2p:
        return math.exp(ie), -se, "exponential", r2e
    return math.exp(ip_), -sp_, "polynomial", r2p


# ---------------------------------------------------------------------------
# Matched-cylinder mass
# ---------------------------------------------------------------------------

def cylinder_mass_mismatch(base, scheme_b, gs_b: GibbsState, tau_cap):
    """gs_b-mass of the symmetric differences of itinerary-matched branches
    plus the mass of unmatched branches, up to inducing time tau_cap.

    `base` is the BaseState of the sweep: its itinerary and Branches.
    Branches match when their tau and itinerary rows agree.  The terms add
    one at a time: b's branches, then each unmatched base branch's overlaps
    with b's branches, all by index.
    """
    if base.itinerary != scheme_b.base_itinerary:
        raise IncomparableSchemesError(
            f"bases {base.itinerary} vs {scheme_b.base_itinerary}"
        )
    a, b = base.branches, scheme_b.branches
    ia, ib = np.nonzero(a.tau <= tau_cap)[0], np.nonzero(b.tau <= tau_cap)[0]
    # a row is 0 past column tau, and tau is in the key: w columns suffice
    w = min(tau_cap, a.itin.shape[1], b.itin.shape[1])
    keys = np.column_stack([np.concatenate([a.tau[ia], b.tau[ib]]),
                            np.concatenate([a.itin[ia, :w], b.itin[ib, :w]])])
    ids = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
    partner = np.full(len(keys), -1)
    partner[ids[:len(ia)]] = ia
    pa = partner[ids[len(ia):]]     # the base partner of each b-branch kept
    dens_b = gs_b.branch_mu / np.maximum(b.hi - b.lo, 1e-300)
    terms = gs_b.branch_mu[ib]      # an unmatched b-branch adds its mass
    m = pa >= 0
    alo, ahi, blo, bhi = a.lo[pa[m]], a.hi[pa[m]], b.lo[ib[m]], b.hi[ib[m]]
    terms[m] = dens_b[ib[m]] * np.where((ahi <= blo) | (bhi <= alo),
                                        (ahi - alo) + (bhi - blo),
                                        np.abs(alo - blo) + np.abs(ahi - bhi))
    # a base branch with no b-partner: weigh its interval with b's density
    alone = np.setdiff1d(ia, pa)
    lo, hi = np.maximum(a.lo[alone, None], b.lo), np.minimum(a.hi[alone, None], b.hi)
    overlap = (dens_b * (hi - lo))[hi > lo]
    return float(np.cumsum(np.concatenate([[0.0], terms, overlap]))[-1])


# ---------------------------------------------------------------------------
# The sweep harness
# ---------------------------------------------------------------------------

@dataclass
class RungResult:
    offset: float
    parameter: float
    t: float
    c2: float = math.nan
    pressure: float = math.nan
    delta_p: float = math.nan
    weak_star: float = math.nan
    ws_vector: tuple = ()
    l1: float = None
    tail_c: float = math.nan
    tail_rate: float = math.nan
    tail_kind: str = ""
    tail_r2: float = math.nan
    mismatch: float = math.nan
    gibbs_k: float = math.nan
    coverage: float = math.nan
    branches: int = 0
    error: str = ""


@dataclass
class StabilityReport:
    family: str
    parameter: float
    t_values: tuple
    rows: list              # RungResult, rung by rung, t by t


@dataclass(frozen=True)
class BaseState:
    """What every rung compares against, built once per sweep.

    Plain data, so the process pool ships it to its workers by pickle: the
    base scheme's Branches go as their four arrays.  An IntervalMap's
    closures do not pickle, so a rung rebuilds the base map with
    make_member for its C^2 distance.
    """

    itinerary: tuple        # of the base cylinder
    branches: Branches      # of the base scheme
    pressure: dict          # t -> P at the base map
    masses: dict            # t -> projected bin masses at the base map


def _pipeline_state(family, parameter, base_itin, cfg):
    """partition -> tower -> scheme for one family member."""
    m = make_member(family, parameter)
    tw = build_tower(m, cfg["height"], cfg["max_domains"])
    transitive_component(tw)
    part = partition(m, cfg["base_depth"])
    cands = [c for c in part.cylinders if c.itinerary == base_itin]
    if not cands:
        raise IncomparableSchemesError(
            f"no cylinder with itinerary {base_itin} at parameter {parameter}"
        )
    scheme = build_scheme(m, tw, cands[0], delta=cfg["delta"], n_max=cfg["n_max"])
    return m, scheme


def _project(op, states, cfg):
    """The projected measures of the Gibbs states `states`, in one call."""
    return project_measure(op.scheme, [projection_pieces(gs) for gs in states],
                           bins=cfg["bins"], split_parts=cfg["split_parts"])


def _base_state(cfg, gibbs, t_values) -> BaseState:
    """Scheme, pressures and projected measures of the base map."""
    m = make_member(cfg["family"], float(cfg["parameter"]))
    tower = build_tower(m, cfg["height"], cfg["max_domains"])
    transitive_component(tower)
    cyl = choose_base(m, tower, cfg["base_depth"], delta=cfg["delta"],
                      require_boundary=cfg["require_boundary"])
    scheme = build_scheme(m, tower, cyl, delta=cfg["delta"], n_max=cfg["n_max"])
    op = SpectralOperator(scheme, cfg["grid"])
    states = [gibbs_state(op, t, **gibbs) for t in t_values]
    measures = _project(op, states, cfg)
    return BaseState(cyl.itinerary, scheme.branches,
                     {t: gs.pressure for t, gs in zip(t_values, states)},
                     {t: mu.masses for t, mu in zip(t_values, measures)})


def _run_rung(cfg, gibbs, base, off, rung_param):
    """The rows of one ladder rung, one per t, compared against `base`."""
    t_values = tuple(float(t) for t in cfg["t_values"])
    c2 = math.nan
    try:
        rung_map, rung_scheme = _pipeline_state(cfg["family"], rung_param,
                                                base.itinerary, cfg)
        base_map = make_member(cfg["family"], float(cfg["parameter"]))
        c2 = c2_distance(rung_map, base_map, C2_GRID)
        rung_op = SpectralOperator(rung_scheme, cfg["grid"])
    except ThermoformError as e:
        return [RungResult(off, rung_param, t, c2=c2,
                           error=f"{type(e).__name__}: {e}")
                for t in t_values]
    return [_rung_row(RungResult(off, rung_param, t, c2=c2), rung_op, base,
                      cfg, gibbs) for t in t_values]


def _rung_row(row, op, base, cfg, gibbs):
    """`row` filled with the rung of operator `op` against `base` at row.t.
    The Gibbs state is dropped on return, before the next t is solved."""
    t, scheme = row.t, op.scheme
    try:
        gs = gibbs_state(op, t, **gibbs)
        mu, = _project(op, [gs], cfg)
        row.pressure = gs.pressure
        row.delta_p = abs(gs.pressure - base.pressure[t])
        row.ws_vector = weak_star_vector(mu.masses, base.masses[t])
        row.weak_star = max(row.ws_vector)
        if t == 1.0:
            row.l1 = float(np.abs(mu.masses - base.masses[t]).sum())
        row.tail_c, row.tail_rate, row.tail_kind, row.tail_r2 = tail_profile(gs)
        row.mismatch = cylinder_mass_mismatch(base, scheme, gs, cfg["tau_cap"])
        row.gibbs_k = gs.gibbs_constant
        row.coverage = scheme.coverage
        row.branches = len(scheme.branches)
    except ThermoformError as e:
        row.error = f"{type(e).__name__}: {e}"
    return row


def run_sweep(config, base=None) -> StabilityReport:
    """Execute the stability experiment described by the config mapping.

    The keys are the flat names of the config schema (config.DEFAULTS):
    family and parameter, plus any others to override; unknown keys raise
    ConfigError.  `base` is the sweep's BaseState when the caller has it (a
    pool worker); otherwise it is built here, once, and shipped to the
    workers.  Deterministic given the config; per-rung errors are annotated,
    never dropped.
    """
    cfg = resolve(config)
    parameter = float(cfg["parameter"])
    t_values = tuple(float(t) for t in cfg["t_values"])
    gibbs = gibbs_kwargs(cfg)
    if base is None:
        base = _base_state(cfg, gibbs, t_values)
    tasks = [(float(off), parameter + cfg["ladder_direction"] * float(off))
             for off in cfg["ladder"]]
    threads = int(cfg["threads"])
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as ex:
            futures = [ex.submit(_rung_worker, cfg, off, p, base)
                       for off, p in tasks]
            chunks = [f.result() for f in futures]
    else:
        chunks = [_run_rung(cfg, gibbs, base, off, p) for off, p in tasks]
    return StabilityReport(cfg["family"], parameter, t_values,
                           [row for chunk in chunks for row in chunk])


def _rung_worker(cfg, off, rung_param, base):
    """Process-pool entry: the rows of the rung at offset `off`, against the
    parent's base record.  `rung_param` names the rung; run_sweep derives
    the same value from `off`.  It goes through run_sweep on a one-rung
    ladder, so a worker runs the same code as the serial loop."""
    return run_sweep(dict(cfg, ladder=(off,), threads=1), base).rows


REPORT_COLUMNS = (
    "family", "parameter", "offset", "rung_parameter", "t", "c2_distance",
    "pressure", "delta_p", "weak_star", "l1_density", "tail_c", "tail_rate",
    "tail_kind", "tail_r2", "mismatch_mass", "gibbs_k", "coverage",
    "branches", "error",
)


def report_to_csv(report: StabilityReport, path):
    ws_cols = [f"ws_T{j}" for j in range(DICTIONARY_SIZE)]
    with open(path, "w") as fh:
        fh.write(",".join(REPORT_COLUMNS + tuple(ws_cols)) + "\n")
        for r in report.rows:
            vals = [
                report.family, fmt12(report.parameter), fmt12(r.offset),
                fmt12(r.parameter), fmt12(r.t), fmt12(r.c2), fmt12(r.pressure),
                fmt12(r.delta_p), fmt12(r.weak_star),
                fmt12(r.l1) if r.l1 is not None else "",
                fmt12(r.tail_c), fmt12(r.tail_rate), r.tail_kind,
                fmt12(r.tail_r2), fmt12(r.mismatch), fmt12(r.gibbs_k),
                fmt12(r.coverage), str(r.branches), r.error,
            ]
            ws = [fmt12(v) for v in r.ws_vector]
            ws += [""] * (DICTIONARY_SIZE - len(ws))
            fh.write(",".join(str(v) for v in vals + ws) + "\n")
