"""Command-line frontend: wires configs to pipeline stages and writes reports.

Exit codes: 0 success, 1 stage error, 2 config error.  All numeric output
is printed with 12 significant digits.
"""

import argparse
import os
import sys

from .config import gibbs_kwargs, load_config, resolve
from .cylinders import partition, partition_to_csv
from .density import lyapunov
from .errors import ConfigError, ThermoformError
from .inducing import build_scheme, choose_base, scheme_to_csv
from .maps import make_member
from .stability import report_to_csv, run_sweep
from .thermo import (
    SpectralOperator, gibbs_state, measure_to_csv, project_measure,
    projection_pieces, solve_pressure,
)
from .tower import build_tower, tower_to_dot, transitive_component
from .util import fmt12


def _scheme(cfg):
    m = make_member(cfg["family"], cfg["parameter"])
    tower = build_tower(m, cfg["height"], cfg["max_domains"])
    transitive_component(tower)
    base = choose_base(m, tower, cfg["base_depth"], delta=cfg["delta"],
                       require_boundary=cfg["require_boundary"])
    scheme = build_scheme(m, tower, base, delta=cfg["delta"],
                          n_max=cfg["n_max"])
    return m, tower, scheme


def cmd_partition(cfg, out):
    m = make_member(cfg["family"], cfg["parameter"])
    part = partition(m, cfg["base_depth"])
    path = os.path.join(out, "partition.csv")
    partition_to_csv(part, path)
    print(f"partition level {cfg['base_depth']}: {len(part)} cylinders -> {path}")
    return 0


def cmd_tower(cfg, out):
    m = make_member(cfg["family"], cfg["parameter"])
    tower = build_tower(m, cfg["height"], cfg["max_domains"])
    transitive_component(tower)
    path = os.path.join(out, "tower.dot")
    tower_to_dot(tower, path)
    edges = sum(len(v) for v in tower.edges.values())
    print(f"tower height {cfg['height']}: {tower.n_domains} domains, "
          f"{edges} edges, transitive {len(tower.transitive_ids)} -> {path}")
    return 0


def cmd_induce(cfg, out):
    _, _, scheme = _scheme(cfg)
    path = os.path.join(out, "scheme.csv")
    scheme_to_csv(scheme, path)
    print(f"scheme base {scheme.base_itinerary}: {len(scheme.branches)} "
          f"branches, coverage {fmt12(scheme.coverage)} -> {path}")
    return 0


def cmd_pressure(cfg, out):
    _, _, scheme = _scheme(cfg)
    op = SpectralOperator(scheme, cfg["grid"])
    path = os.path.join(out, "pressure.csv")
    with open(path, "w") as fh:
        fh.write("t,pressure\n")
        for t in cfg["t_values"]:
            p = solve_pressure(op, t, bracket=(cfg["bracket_lo"],
                                               cfg["bracket_hi"]),
                               tol=cfg["tol"])
            print(f"t={fmt12(t)} P={fmt12(p)}")
            fh.write(f"{fmt12(t)},{fmt12(p)}\n")
    return 0


def _solve(op, t, cfg):
    """Pressure, Gibbs constant and projection pieces at t; the Gibbs state
    itself is dropped on return."""
    gs = gibbs_state(op, t, **gibbs_kwargs(cfg))
    return gs.pressure, gs.gibbs_constant, projection_pieces(gs)


def cmd_equilibrium(cfg, out):
    """Solve every t, then project all of them in one call, then write each
    t's CSV and line in the configured order.  A stage error at any t
    therefore leaves no CSV."""
    m, _, scheme = _scheme(cfg)
    op = SpectralOperator(scheme, cfg["grid"])
    solved = [_solve(op, t, cfg) for t in cfg["t_values"]]
    measures = project_measure(scheme, [s[2] for s in solved], bins=cfg["bins"],
                               split_parts=cfg["split_parts"])
    for t, (p, k, _), mu in zip(cfg["t_values"], solved, measures):
        tag = fmt12(t).replace(".", "p")
        path = os.path.join(out, f"equilibrium_t{tag}.csv")
        measure_to_csv(mu, path)
        lam = lyapunov(m, mu)
        print(f"t={fmt12(t)} P={fmt12(p)} tau_mean={fmt12(mu.tau_mean)} "
              f"lyapunov={fmt12(lam)} K={fmt12(k)} -> {path}")
    return 0


def cmd_stability(cfg, out):
    report = run_sweep(cfg)
    path = os.path.join(out, "stability.csv")
    report_to_csv(report, path)
    print(f"stability sweep {report.family} base {fmt12(report.parameter)}: "
          f"{len(report.rows)} rows -> {path}")
    for r in report.rows:
        status = r.error if r.error else "ok"
        print(f"  offset={fmt12(r.offset)} t={fmt12(r.t)} "
              f"weak*={fmt12(r.weak_star)} dP={fmt12(r.delta_p)} [{status}]")
    return 0


_COMMANDS = {
    "partition": cmd_partition,
    "tower": cmd_tower,
    "induce": cmd_induce,
    "pressure": cmd_pressure,
    "equilibrium": cmd_equilibrium,
    "stability": cmd_stability,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thermoform",
        description="Thermodynamic formalism pipelines for interval maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory")
        if name == "stability":
            p.add_argument("--threads", type=int, default=None,
                           help="worker processes for the ladder rungs")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg["out_dir"] = args.out
        if getattr(args, "threads", None) is not None:
            cfg = resolve(dict(cfg, threads=args.threads))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    try:
        return _COMMANDS[args.command](cfg, out)
    except ThermoformError as e:
        print(f"stage error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
