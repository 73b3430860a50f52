"""Run the thermoform CLI with its layer boundaries wrapped in spans.

    python3 perfbench/spans.py TRACE_DIR COMMAND --config FILE --out DIR ...

Every public function of a layer is patched where it is looked up: a name
bound by ``from .thermo import gibbs_state`` is patched in ``cli`` and in
``stability``, and calls made inside a layer (``thermo.solve_pressure`` from
``gibbs_state``) are patched in the calling module, so spans nest and self
time can be derived.  Hot leaf calls that need no time (``InducingScheme.taus``)
are counted instead.

Spans and counts stay in memory.  The main process writes them to TRACE_DIR
when the CLI returns; process-pool workers are forked and exit without
running ``atexit``, so they write theirs after every rung.  ``summarize``
turns the files of one traced run into the per-layer metrics.
"""

import concurrent.futures
import functools
import json
import os
import statistics
import sys
import time


class Tracer:
    """Span stack and counters of one process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self._reset(cause=None)

    def _reset(self, cause):
        self.pid = os.getpid()
        self.cause = cause      # (pid, span id) of the span that forked us
        self.spans = []         # (id, parent id, name, start, end, attrs)
        self.counts = {}
        self.stack = []
        self.next_id = 0
        self.flushes = 0

    def adopt_fork(self):
        """In a forked worker, drop what was inherited from the parent."""
        if os.getpid() != self.pid:
            cause = (self.pid, self.stack[-1]) if self.stack else None
            self._reset(cause)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def open(self):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, span, name, attrs=None):
        sid, parent, t0 = span
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans.append((sid, parent, name, t0, t1, attrs))

    def wrap(self, name, fn, attrs=None):
        """fn wrapped in a span; attrs(args, result) adds fields to it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                extra = attrs(args, out) if attrs and out is not None else None
                tracer.close(span, name, extra)

        return traced

    def flush(self):
        path = os.path.join(self.out_dir, f"{self.pid}-{self.flushes}.json")
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "cause": self.cause,
                       "spans": self.spans, "counts": self.counts}, fh)
        self.flushes += 1
        self.spans = []
        self.counts = {}


def install(tr):
    """Patch every traced name at its lookup sites."""
    from thermoform import cli, inducing, maps, stability, thermo, util

    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, tr.wrap(name, getattr(owner, attr), attrs))

    patch(maps.IntervalMap, "invert", "maps.invert")

    for site in (cli, stability):
        patch(site, "build_tower", "tower.build_tower",
              lambda a, out: {"domains": out.n_domains})
        patch(site, "choose_base", "inducing.choose_base")
        patch(site, "build_scheme", "inducing.build_scheme",
              lambda a, out: {"branches": len(out.branches),
                              "coverage": out.coverage})
        patch(site, "gibbs_state", "thermo.gibbs_state",
              lambda a, out: {"t": a[1]})
        patch(site, "project_measure", "thermo.project_measure")
    taus = inducing.InducingScheme.taus.fget

    def counted_taus(self):
        tr.count("inducing.taus.calls")
        return taus(self)

    inducing.InducingScheme.taus = property(counted_taus)

    for site in (cli, thermo):
        patch(site, "solve_pressure", "thermo.solve_pressure")
    patch(thermo, "pressure_estimate", "thermo.pressure_estimate")
    patch(thermo.SpectralOperator, "__init__", "thermo.spectral_assembly")
    patch(thermo.SpectralOperator, "eigen", "thermo.eigen")
    patch(thermo.SpectralOperator, "left_eigen", "thermo.left_eigen")
    patch(thermo, "variation_profile", "thermo.variation_profile")
    patch(thermo, "gibbs_sandwich_report", "thermo.gibbs_sandwich_report",
          lambda a, out: {"words": len(a[0].mu_weights)})
    patch(thermo, "branch_children", "thermo.branch_children")
    add_many = tr.wrap("util.add_many", util.IntervalHistogram.add_many)

    def counted_add_many(self, lo, hi, mass):
        tr.count("util.add_many.intervals", len(lo))
        return add_many(self, lo, hi, mass)

    util.IntervalHistogram.add_many = counted_add_many

    patch(cli, "run_sweep", "stability.run_sweep")
    patch(stability, "run_sweep", "stability.run_sweep")
    patch(stability, "_pipeline_state", "stability.pipeline_state",
          lambda a, out: {"parameter": a[1]})
    for fn in ("weak_star_vector", "tail_profile", "cylinder_mass_mismatch"):
        patch(stability, fn, f"stability.{fn}")
    rung = tr.wrap("stability.rung_worker", stability._rung_worker,
                   lambda a, out: {"offset": a[1], "parameter": a[2]})

    @functools.wraps(stability._rung_worker)
    def rung_worker(*args, **kwargs):
        tr.adopt_fork()
        try:
            return rung(*args, **kwargs)
        finally:
            tr.flush()

    stability._rung_worker = rung_worker

    class TracedPool(concurrent.futures.ProcessPoolExecutor):
        """The pool's lifetime, from construction to shutdown, as a span."""

        def __init__(self, max_workers=None, **kwargs):
            super().__init__(max_workers=max_workers, **kwargs)
            self._span = tr.open()
            self._workers = max_workers or os.cpu_count()

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span is not None:
                    tr.close(self._span, "stability.pool",
                             {"workers": self._workers})
                    self._span = None

    concurrent.futures.ProcessPoolExecutor = TracedPool

    patch(cli, "load_config", "config.load_config")
    patch(cli, "measure_to_csv", "cli.measure_to_csv")
    patch(cli, "report_to_csv", "cli.report_to_csv")
    patch(cli, "lyapunov", "density.lyapunov")
    return tr.wrap("cli.main", cli.main)


# ---------------------------------------------------------------------------
# Per-layer metrics from the span files of one traced run
# ---------------------------------------------------------------------------

# The per-layer metrics the benchmark reports: (name, unit, better).  Each is
# defined on every workload; per-function times that only one command has
# (weak* vector, tail fit, Lyapunov exponent, CSV writers) are summed into
# cli.analysis.s and cli.write_csv.s here and kept apart in the run record.
PER_LAYER = (
    ("maps.invert.calls", "count", "lower"),
    ("maps.invert.s", "s", "lower"),
    ("tower.build_tower.s", "s", "lower"),
    ("tower.domains", "count", "lower"),
    ("inducing.build_scheme.s", "s", "lower"),
    ("inducing.choose_base.s", "s", "lower"),
    ("inducing.branches", "count", "lower"),
    ("inducing.coverage", "ratio", "higher"),
    ("inducing.taus.calls", "count", "lower"),
    ("thermo.solve_pressure.s", "s", "lower"),
    ("thermo.pressure_estimate.calls", "count", "lower"),
    ("thermo.eigen.s", "s", "lower"),
    ("thermo.spectral_assembly.count", "count", "lower"),
    ("thermo.spectral_assembly.s", "s", "lower"),
    ("thermo.gibbs_state.s", "s", "lower"),
    ("thermo.gibbs_state.self_s", "s", "lower"),
    ("thermo.left_eigen.s", "s", "lower"),
    ("thermo.variation_profile.s", "s", "lower"),
    ("thermo.gibbs_sandwich_report.s", "s", "lower"),
    ("thermo.sandwich_words", "count", "lower"),
    ("thermo.project_measure.s", "s", "lower"),
    ("thermo.project_measure.self_s", "s", "lower"),
    ("thermo.branch_children.calls", "count", "lower"),
    ("thermo.branch_children.s", "s", "lower"),
    ("util.add_many.calls", "count", "lower"),
    ("util.add_many.intervals", "count", "lower"),
    ("util.add_many.s", "s", "lower"),
    ("cli.operation.median_s", "s", "lower"),
    ("cli.operation.max_s", "s", "lower"),
    ("stability.scheme_builds_useful_frac", "ratio", "higher"),
    ("stability.pool.worker_busy_frac", "ratio", "higher"),
    ("cli.analysis.s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("cli.write_csv.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
ANALYSIS = ("density.lyapunov", "stability.weak_star_vector",
            "stability.tail_profile", "stability.cylinder_mass_mismatch")
WRITERS = ("cli.measure_to_csv", "cli.report_to_csv")
# Counts that must repeat exactly when the same code runs the same inputs.
DETERMINISTIC = ("inducing.branches", "inducing.taus.calls",
                 "thermo.pressure_estimate.calls",
                 "thermo.spectral_assembly.count", "util.add_many.calls",
                 "maps.invert.calls")


def load(trace_dir):
    """All flushed span files of one run, as a list of dicts."""
    out = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as fh:
            out.append(json.load(fh))
    return out


def _phases(flushes, outer, step):
    """(attrs, seconds) of each `step` span that `outer` calls directly,
    measured from its start to the next one's start or the end of `outer`."""
    out = []
    for f in flushes:
        for o in (s for s in f["spans"] if s[2] == outer):
            starts = sorted(s for s in f["spans"] if s[2] == step and s[1] == o[0])
            ends = [s[3] for s in starts[1:]] + [o[4]]
            out += [(s[5], end - s[3]) for s, end in zip(starts, ends)]
    return out


def rungs(flushes):
    """(parameter, seconds) of every stability rung, serial or pooled."""
    return [(a["parameter"], sec) for a, sec in
            _phases(flushes, "stability.run_sweep", "stability.pipeline_state")]


def operations(flushes):
    """Seconds of every CLI operation: one rung, or one t of equilibrium."""
    return ([sec for _, sec in rungs(flushes)]
            + [sec for _, sec in _phases(flushes, "cli.main", "thermo.gibbs_state")])


def summarize(flushes, schemes_needed):
    """Per-layer metrics of one traced run: PER_LAYER plus every span's
    total seconds, self seconds and call count.

    schemes_needed is the number of schemes the command needs (1 + rungs),
    the numerator of ``stability.scheme_builds_useful_frac``.
    """
    calls, total, self_s, counts, attrs = {}, {}, {}, {}, {}
    pool_s = 0.0
    for f in flushes:
        for k, v in f["counts"].items():
            counts[k] = counts.get(k, 0) + v
        child = {}
        for sid, parent, name, t0, t1, extra in f["spans"]:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        for sid, parent, name, t0, t1, extra in f["spans"]:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child.get(sid, 0.0)
            if extra:
                attrs.setdefault(name, []).append(extra)
            if name == "stability.pool":
                pool_s += (t1 - t0) * extra["workers"]
    m = {f"{n}.s": v for n, v in total.items()}
    m.update({f"{n}.calls": v for n, v in calls.items()})
    m.update({f"{n}.self_s": v for n, v in self_s.items()})
    builds = attrs.get("inducing.build_scheme", [])
    m["tower.domains"] = sum(a["domains"] for a in attrs.get("tower.build_tower", []))
    m["inducing.branches"] = sum(a["branches"] for a in builds)
    m["inducing.coverage"] = min((a["coverage"] for a in builds), default=0.0)
    m["inducing.taus.calls"] = counts.get("inducing.taus.calls", 0)
    m["thermo.spectral_assembly.count"] = calls.get("thermo.spectral_assembly", 0)
    m["thermo.sandwich_words"] = sum(
        a["words"] for a in attrs.get("thermo.gibbs_sandwich_report", []))
    m["util.add_many.intervals"] = counts.get("util.add_many.intervals", 0)
    ops = operations(flushes)
    m["cli.operation.median_s"] = statistics.median(ops) if ops else 0.0
    m["cli.operation.max_s"] = max(ops, default=0.0)
    m["stability.scheme_builds_useful_frac"] = (
        schemes_needed / len(builds) if builds else 0.0)
    m["stability.pool.worker_busy_frac"] = (
        total.get("stability.rung_worker", 0.0) / pool_s if pool_s else 0.0)
    m["cli.analysis.s"] = sum(total.get(n, 0.0) for n in ANALYSIS)
    m["cli.write_csv.s"] = sum(total.get(n, 0.0) for n in WRITERS)
    return m


def main(argv):
    trace_dir, cli_args = argv[0], argv[1:]
    os.makedirs(trace_dir, exist_ok=True)
    tr = Tracer(trace_dir)
    traced_main = install(tr)
    try:
        return traced_main(cli_args)
    finally:
        tr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
