"""thermoform benchmark: whole CLI runs, accuracy beside speed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every invocation is a fresh
``python -m thermoform`` process on a config generated from the seed, so the
package's module-level caches start cold as they do for users.  Invocations
repeat while the next one still fits in ``--seconds``; the medians are
reported.  Each output is checked against the closed forms (P(t) of the
Chebyshev and tent maps, the Chebyshev density at t = 1).

The host is shared, and its speed drifts by tens of percent within minutes.
So while the invocations run, ``hostspeed.py`` times a fixed chunk of work
on every core, and the gated times are in units of that chunk's CPU time
on the cores the CLI used: run_ref = wall time / chunk time, cpu_ref = CPU
time / chunk time.  The wall and CPU seconds are printed and recorded as
well.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
untraced and then under ``spans.py`` and prints the per-layer metrics.  The
last line of stdout is one JSON object (correct, attempted, failed,
metrics); the exit code is 1 when a check fails and 2 when the benchmark
cannot run here.  A record of every run, with its environment, is written
to ``.perfbench/results``.
"""

import argparse
import contextlib
from dataclasses import dataclass
import csv
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import spans

WORK = ".perfbench"
SRC = "src"
HARD_LIMIT_S = 165.0      # the whole run, set-up included
SETUP_PROBES = 5
HOSTSPEED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hostspeed.py")
MIN_REF_CHUNKS = 20       # host-speed chunks that must end on each core during an invocation
T_JITTER = 0.01           # seeded shift of every t except the t = 1 anchor
LOG2 = math.log(2.0)

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# The end-to-end metrics: (name, unit, bound).  run_ref, cpu_ref and
# peak_rss_mb are medians over the run's invocations, setup_s over its set-up
# probes; pressure_abs_err is the largest |P - closed form| over anchored
# outputs.  run_ref and cpu_ref are an invocation's wall and CPU time in
# units of a hostspeed.py chunk measured while it ran (see chunk_reference).
END_TO_END = (
    ("run_ref", "ref", 0.25),
    ("cpu_ref", "ref", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
    ("pressure_abs_err", "1", 0.2),
)

# Closed-form tolerances, 2-4 times the errors measured when the benchmark
# was written: cheb P 6.1e-7 and density L1 4.7e-4, tent P 3.4e-4, logistic
# P at a = 4 5.2e-6.
CHEB_P_TOL = 2e-6
CHEB_L1_TOL = 1e-3
TENT_P_TOL = 1e-3
LOGISTIC_P_TOL = 2e-5


@dataclass(frozen=True)
class Workload:
    command: str            # thermoform subcommand
    config: dict            # section -> key -> value; t_values come from the seed
    t_values: tuple
    ladder: tuple = ()

    def rung_parameters(self):
        exp = self.config["experiment"]
        sign = float(exp.get("ladder_direction", 1.0))
        return sorted(float(exp["parameter"]) + sign * off for off in self.ladder)


# BENCHMARK.json lists cheb-tscan and logistic-pool.  tent-sweep is kept for
# runs by hand: with it, the runs of a full benchmark would have to shrink to
# 30 s, and host speed drift then spread the timings beyond their bounds.
WORKLOADS = {
    "cheb-tscan": Workload(
        "equilibrium",
        {"experiment": {"family": "cheb", "n_max": 24}},
        (0.5, 0.75, 0.9, 1.0, 1.25),
    ),
    "tent-sweep": Workload(
        "stability",
        {"experiment": {"family": "tent", "parameter": 1.9},
         "output": {"threads": 1}},
        (0.9, 1.0),
        ladder=(0.005,),
    ),
    "logistic-pool": Workload(
        "stability",
        {"experiment": {"family": "logistic", "parameter": 4.0,
                        "ladder_direction": -1, "bins": 2048},
         "output": {"threads": 2}},
        (0.9,),
        ladder=(0.01, 0.005, 0.002, 0.0),
    ),
}


def seeded_t_values(wl, seed):
    """The workload's t values, shifted and shuffled by the seed."""
    rng = random.Random(seed)
    ts = [t if t == 1.0 else round(t + rng.uniform(-T_JITTER, T_JITTER), 4)
          for t in wl.t_values]
    rng.shuffle(ts)
    return ts


def write_config(wl, ts, path):
    sections = {k: dict(v) for k, v in wl.config.items()}
    sections["experiment"]["t_values"] = " ".join(repr(t) for t in ts)
    if wl.ladder:
        sections["experiment"]["ladder"] = " ".join(repr(x) for x in wl.ladder)
    with open(path, "w") as fh:
        for section, keys in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")


# ---------------------------------------------------------------------------
# Output checks.  Each returns (attempted, failed, errors, problems):
# errors maps an accuracy metric to its value, problems lists failed checks.
# ---------------------------------------------------------------------------

def cheb_bin_masses(bins):
    """Exact bin masses of the Chebyshev density 1/(pi sqrt(x(1-x)))."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    return np.diff((2.0 / np.pi) * np.arcsin(np.sqrt(edges)))


def check_equilibrium(out_dir, stdout, ts):
    pressures = {}
    for line in stdout.splitlines():
        if line.startswith("t=") and " P=" in line:
            fields = dict(f.split("=", 1) for f in line.split()[:2])
            pressures[fields["t"]] = float(fields["P"])
    failed, problems = 0, []
    p_err, l1 = 0.0, None
    for t in ts:
        tag = "%.12g" % t  # the CLI's fmt12
        path = os.path.join(out_dir, f"equilibrium_t{tag.replace('.', 'p')}.csv")
        if tag not in pressures or not os.path.exists(path):
            failed += 1
            problems.append(f"t={tag}: no P line or no CSV")
            continue
        masses = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]
        if len(masses) != 4096 or masses.min() < 0 or abs(masses.sum() - 1) > 1e-9:
            problems.append(f"t={tag}: masses are not a 4096-bin distribution")
        err = abs(pressures[tag] - (1.0 - t) * LOG2)
        p_err = max(p_err, err)
        if err > CHEB_P_TOL:
            problems.append(f"t={tag}: |P - (1-t) log 2| = {err:.3g} > {CHEB_P_TOL}")
        if t == 1.0:
            l1 = float(np.abs(masses - cheb_bin_masses(len(masses))).sum())
            if l1 > CHEB_L1_TOL:
                problems.append(f"density L1 {l1:.3g} > {CHEB_L1_TOL}")
    if l1 is None:
        problems.append("no t = 1 output for the density check")
    return len(ts), failed, {"pressure_abs_err": p_err, "density_l1_err": l1}, problems


def check_stability(out_dir, wl, ts):
    path = os.path.join(out_dir, "stability.csv")
    expected = len(wl.ladder) * len(ts)
    if not os.path.exists(path):
        return expected, expected, {}, ["no stability.csv"]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    family = wl.config["experiment"]["family"]
    failed = max(expected - len(rows), 0)
    problems = [f"{len(rows)} rows, expected {expected}"] if len(rows) != expected else []
    p_err = None
    for r in rows:
        where = f"offset={r['offset']} t={r['t']}"
        if r["error"]:
            failed += 1
            problems.append(f"{where}: {r['error']}")
            continue
        t, p = float(r["t"]), float(r["pressure"])
        if family == "tent":
            exact, tol = (1.0 - t) * math.log(float(r["rung_parameter"])), TENT_P_TOL
        elif float(r["offset"]) == 0.0:
            # the offset-0 rung rebuilds the base, logistic a = 4, which is
            # the Chebyshev map
            exact, tol = (1.0 - t) * LOG2, LOGISTIC_P_TOL
            if float(r["weak_star"]) > 1e-12 or float(r["delta_p"]) > 1e-12:
                problems.append(f"{where}: base rebuilt in a worker differs from the base")
        else:
            if not (math.isfinite(p) and float(r["weak_star"]) > 0):
                problems.append(f"{where}: non-finite pressure or zero weak* distance")
            continue
        err = abs(p - exact)
        p_err = max(p_err or 0.0, err)
        if err > tol:
            problems.append(f"{where}: |P - closed form| = {err:.3g} > {tol}")
    if p_err is None:
        problems.append("no closed-form row")
    return expected, failed, {"pressure_abs_err": p_err}, problems


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("THERMOFORM_")}
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    return env


def now():
    """The system-wide monotonic clock, which hostspeed.py stamps its chunks with."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(argv, log_path, deadline):
    """Run argv to completion; (start, end, user+sys s, peak RSS MB, exit code).

    Resource use comes from wait4 on this child, which includes the pool
    workers it reaped.  The child gets its own process group, which is
    killed if the deadline passes.  It stays in this process's session, as
    hostspeed.py does: with scheduler autogroups (one per session), separate
    sessions would share the cores as groups, not as the tasks they hold.
    """
    with open(log_path, "w") as out, open(log_path + ".err", "w") as err:
        t0 = now()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                process_group=0)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if now() > deadline:
                raise TimeoutError(f"{argv[1:3]} passed the run's time limit")
            time.sleep(0.002)
        t1 = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        stop_group(proc)
    return t0, t1, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def stop_group(proc):
    """Kill what is left of the child's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    if proc.returncode is None:
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


PROBE = """
import json, sys
import thermoform, thermoform.cli
from thermoform.config import load_config
from thermoform.maps import FAMILY_PARAM, make_map
cfg = load_config(sys.argv[1])
key = FAMILY_PARAM[cfg["family"]]
make_map(cfg["family"], {key: cfg["parameter"]} if key else {})
import numpy, scipy
print(json.dumps({"thermoform": thermoform.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


def environment(probe_log):
    with open(probe_log) as fh:
        env = json.loads(fh.read().strip().splitlines()[-1])
    if not os.path.abspath(env.pop("thermoform")).startswith(os.path.abspath(SRC) + os.sep):
        raise RuntimeError("thermoform was not imported from ./src")
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    env["source_sha256"] = digest.hexdigest()
    env["commit"] = git_commit()
    env["nproc"] = len(os.sched_getaffinity(0))
    env["child_env"] = dict(CHILD_ENV)
    return env


def git_commit():
    if not os.path.isdir(".git"):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def chunk_reference(chunks, start, end):
    """ref_s of one invocation, from the hostspeed.py chunks that ended
    during it: (ref_s, fewest chunks on one core).

    ref_s is the geometric mean over the cores of each core's median chunk
    CPU time.  Neighbours slow the cores independently as well as together,
    so every core the CLI may run on counts, the one a serial CLI ran on
    included.
    """
    per_core = {core: [] for _, core, _ in chunks}
    for t, core, cpu in chunks:
        if start < t <= end:
            per_core[core].append(cpu)
    fewest = min((len(v) for v in per_core.values()), default=0)
    if not fewest:
        return math.nan, 0
    logs = [math.log(statistics.median(v)) for v in per_core.values()]
    return math.exp(statistics.fmean(logs)), fewest


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, name, wl, seed, seconds, trace):
        self.name, self.wl, self.seed = name, wl, seed
        self.seconds = seconds
        self.deadline = now() + HARD_LIMIT_S
        os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{name}-seed{seed}-trace{trace}-",
                                    dir=os.path.join(WORK, "runs"))
        self.ts = seeded_t_values(self.wl, seed)
        self.config = os.path.join(self.dir, "config.ini")
        write_config(self.wl, self.ts, self.config)
        self.attempted = self.failed = 0
        self.problems, self.errors = [], {}
        self.samples = []

    def setup(self, probes):
        """Time fresh interpreters through import, load_config and make_map."""
        times = []
        for i in range(probes + 1):
            log = os.path.join(self.dir, f"probe{i}.log")
            start, end, _, _, code = run_child([sys.executable, "-c", PROBE, self.config],
                                               log, self.deadline)
            if code != 0:
                raise RuntimeError(f"set-up probe exited with {code}")
            if i:  # the first probe fills the bytecode cache
                times.append(end - start)
        self.env = environment(log)
        return times

    def invoke(self, traced):
        k = len(self.samples)
        out = os.path.join(self.dir, f"out{k}")
        tdir = os.path.join(self.dir, f"spans{k}")
        cli = [self.wl.command, "--config", self.config, "--out", out]
        argv = ([sys.executable, os.path.join(os.path.dirname(__file__), "spans.py"), tdir]
                if traced else [sys.executable, "-m", "thermoform"]) + cli
        log = os.path.join(self.dir, f"cli{k}.log")
        start, end, cpu, rss, code = run_child(argv, log, self.deadline)
        wall = end - start
        with open(log) as fh:
            stdout = fh.read()
        try:
            if self.wl.command == "equilibrium":
                att, fail, errs, probs = check_equilibrium(out, stdout, self.ts)
            else:
                att, fail, errs, probs = check_stability(out, self.wl, self.ts)
        except (ValueError, KeyError, IndexError) as e:
            att = len(self.ts) * (len(self.wl.ladder) or 1)
            fail, errs, probs = att, {}, [f"unreadable output: {e!r}"]
        if code != 0:
            fail, probs = att, probs + [f"exit code {code}"]
        self.attempted += att
        self.failed += fail
        self.problems += [f"invocation {k}: {p}" for p in probs]
        for key, v in errs.items():
            if v is not None:
                self.errors[key] = max(self.errors.get(key, 0.0), v)
        sample = {"traced": traced, "start": start, "end": end,
                  "run_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}
        if traced:
            flushes = spans.load(tdir)
            sample["layers"] = spans.summarize(flushes, len(self.wl.ladder) + 1)
            got = sorted(p for p, _ in spans.rungs(flushes))
            want = self.wl.rung_parameters()
            if len(got) != len(want) or not np.allclose(got, want, rtol=0, atol=1e-12):
                self.problems.append(f"invocation {k}: trace has rungs {got}")
        self.samples.append(sample)
        return wall

    def loop(self, traced):
        """Invoke at least once, then while the next invocation fits."""
        t0 = now()
        walls = []
        while True:
            walls.append(self.invoke(traced))
            elapsed = now() - t0
            nxt = statistics.median(walls)
            if elapsed + nxt > self.seconds or now() + nxt > self.deadline - 5:
                return

    @contextlib.contextmanager
    def host_speed(self):
        """Run hostspeed.py on every core beside the invocations made inside
        the block, then give every sample its ref_s (see chunk_reference), and
        run_ref = run_s / ref_s, cpu_ref = cpu_s / ref_s."""
        procs, paths = {}, {}
        try:
            for core in sorted(os.sched_getaffinity(0)):
                paths[core] = os.path.join(self.dir, f"hostspeed{core}.txt")
                with open(paths[core] + ".err", "w") as err:
                    procs[core] = subprocess.Popen(
                        [sys.executable, HOSTSPEED, str(core), paths[core]],
                        stdout=subprocess.DEVNULL, stderr=err, env=child_env(),
                        process_group=0)
            # the first chunk is written after numpy's import
            for core, path in paths.items():
                while not (os.path.exists(path) and os.path.getsize(path)):
                    if procs[core].poll() is not None or now() > self.deadline:
                        raise RuntimeError("the host-speed loop did not start")
                    time.sleep(0.01)
            yield
        finally:
            for proc in procs.values():
                proc.send_signal(signal.SIGTERM)
            for proc in procs.values():
                try:
                    proc.wait(5)
                except subprocess.TimeoutExpired:
                    pass
                stop_group(proc)
        chunks = []
        for core, path in paths.items():
            with open(path) as fh:
                for line in fh:
                    fields = line.split()
                    if len(fields) == 2:
                        chunks.append((float(fields[0]), core, float(fields[1])))
        for k, s in enumerate(self.samples):
            s["ref_s"], s["ref_chunks"] = chunk_reference(chunks, s["start"], s["end"])
            if s["ref_chunks"] < MIN_REF_CHUNKS:
                self.problems.append(f"invocation {k}: only {s['ref_chunks']} "
                                     "host-speed chunks ran beside it on a core")
            s["run_ref"] = s["run_s"] / s["ref_s"]
            s["cpu_ref"] = s["cpu_s"] / s["ref_s"]

    def end_to_end(self):
        setup = self.setup(SETUP_PROBES)
        with self.host_speed():
            self.loop(traced=False)
        values = {k: statistics.median(s[k] for s in self.samples)
                  for k in ("run_ref", "cpu_ref", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup)
        values["pressure_abs_err"] = self.errors.get("pressure_abs_err")
        return {name: (values[name], unit) for name, unit, _ in END_TO_END}

    def per_layer(self):
        self.setup(0)
        with self.host_speed():
            self.invoke(traced=False)
            self.loop(traced=True)
        untraced, *traced = self.samples
        self.check_counts([s["layers"] for s in traced])
        out = {}
        for name, unit, _ in spans.PER_LAYER[:-1]:
            values = [s["layers"].get(name) for s in traced]
            if None in values:
                self.problems.append(f"{name} missing from the trace")
                values = [0.0]
            out[name] = (statistics.median(values), unit)
        overhead = statistics.median(s["run_ref"] for s in traced) / untraced["run_ref"] - 1.0
        out["trace.overhead_frac"] = (overhead, "ratio")
        return out

    def check_counts(self, summaries):
        """Deterministic counts must repeat within this run and across runs
        of the same source on the same seed."""
        counts = [{k: s[k] for k in spans.DETERMINISTIC} for s in summaries]
        path = os.path.join(WORK, "counts",
                            f"{self.name}-seed{self.seed}-{self.env['source_sha256'][:16]}.json")
        if os.path.exists(path):
            with open(path) as fh:
                counts.append(json.load(fh))
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(counts[0], fh)
        for key in spans.DETERMINISTIC:
            seen = sorted({c[key] for c in counts})
            if len(seen) > 1:
                self.problems.append(f"count {key} differs between runs: {seen}")




def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exit, so run_child's finally stops the child group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "thermoform", "cli.py")):
        print("perfbench: run from the repository root; ./src/thermoform is missing",
              file=sys.stderr)
        return 2
    run = Run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
              args.trace)
    try:
        metrics = run.per_layer() if args.trace else run.end_to_end()
    except (RuntimeError, TimeoutError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    correct = not run.problems and run.failed == 0 and all(
        v is not None for v, _ in metrics.values())
    # Printed and recorded beside the metrics, outside the JSON: the density
    # anchor exists on cheb-tscan only, and failures also show in "failed".
    shown = dict(metrics)
    if not args.trace:
        for key in ("run_s", "cpu_s"):
            shown[key] = (statistics.median(s[key] for s in run.samples), "s")
        if "density_l1_err" in run.errors:
            shown["density_l1_err"] = (run.errors["density_l1_err"], "1")
        shown["failed_frac"] = (run.failed / max(run.attempted, 1), "ratio")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"t_values={run.ts} invocations={len(run.samples)}")
    print("env " + json.dumps(run.env, sort_keys=True))
    for p in run.problems:
        print(f"CHECK FAILED {p}")
    for k, (v, unit) in shown.items():
        print(f"{k} {v} {unit}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "t_values": run.ts, "env": run.env, "samples": run.samples,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
              "problems": run.problems}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)
    if correct:  # outputs and spans of a failed run stay for inspection
        shutil.rmtree(run.dir)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
