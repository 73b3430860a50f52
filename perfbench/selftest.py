"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

- BENCHMARK.json names workloads the code defines and exactly the metrics
  it reports.
- The host-speed reference of an invocation is the geometric mean over the
  cores of the median chunk time, over the chunks that ended during it.
- Without ./src the benchmark exits nonzero and prints no result.
- A one-rung logistic ladder gives a byte-identical stability.csv with
  threads 1 and 2, so the pool workload measures the same computation as a
  serial run.
- Two traced logistic-pool runs show every rung in the trace, with spans from
  the pool workers, and repeat the deterministic counts exactly.

Takes 70-100 s on two cores.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import run
import spans

HERE = os.path.dirname(os.path.abspath(__file__))


def test_contract():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["bound"]) for m in bench["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(m) for m in spans.PER_LAYER]


def test_chunk_reference():
    chunks = [(t, 0, 0.002) for t in (1.0, 2.0, 3.0)] + [(2.5, 0, 0.050)]
    chunks += [(t, 1, 0.008) for t in (1.5, 2.5)] + [(9.0, 1, 0.100)]
    ref, fewest = run.chunk_reference(chunks, 0.5, 3.0)
    assert abs(ref - 0.004) < 1e-12 and fewest == 2
    ref, fewest = run.chunk_reference(chunks, 3.5, 9.5)     # core 0 ran none
    assert math.isnan(ref) and fewest == 0


def test_fails_without_source():
    bare = os.path.join(run.WORK, "selftest", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cheb-tscan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    shutil.rmtree(bare)


def _run(name, wl):
    return run.Run(f"selftest-{name}", wl, seed=0, seconds=0, trace=1)


def test_serial_pool_equivalence():
    csvs = []
    for threads in (1, 2):
        wl = run.Workload(
            "stability",
            {"experiment": {"family": "logistic", "parameter": 4.0,
                            "ladder_direction": -1, "bins": 2048},
             "output": {"threads": threads}},
            (0.9,), ladder=(0.005,))
        r = _run(f"threads{threads}", wl)
        r.invoke(traced=False)
        assert r.failed == 0, r.problems    # a rung without a closed form is fine
        with open(os.path.join(r.dir, "out0", "stability.csv"), "rb") as fh:
            csvs.append(fh.read())
        shutil.rmtree(r.dir)
    assert csvs[0] == csvs[1]


def test_pool_trace():
    r = _run("pool-trace", run.WORKLOADS["logistic-pool"])
    counts = []
    for k in range(2):
        r.invoke(traced=True)
        assert not r.problems, r.problems      # includes every rung present
        flushes = spans.load(os.path.join(r.dir, f"spans{k}"))
        main_pid = [f["pid"] for f in flushes if f["cause"] is None]
        worker_flushes = [f for f in flushes if f["cause"] is not None]
        assert len(main_pid) == 1
        assert len(worker_flushes) == len(r.wl.ladder)    # one per rung
        assert all(f["pid"] != main_pid[0] and f["cause"][0] == main_pid[0]
                   for f in worker_flushes)
        layers = r.samples[-1]["layers"]
        counts.append({key: layers[key] for key in spans.DETERMINISTIC})
    assert counts[0] == counts[1], counts
    assert 0 < layers["stability.pool.worker_busy_frac"] <= 1
    shutil.rmtree(r.dir)


def main():
    failed = 0
    for name, fn in [(k, v) for k, v in globals().items() if k.startswith("test_")]:
        t0 = time.perf_counter()
        try:
            fn()
            status = "ok"
        except AssertionError as e:
            failed += 1
            status = f"FAILED {e!r}"
        print(f"{name} {status} ({time.perf_counter() - t0:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
