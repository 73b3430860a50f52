"""Host-speed loop: a fixed chunk of work timed on one core, beside the CLI.

    python3 perfbench/hostspeed.py CORE OUT_FILE

The process pins itself to CORE.  Until SIGTERM it runs one fixed chunk of
Python and numpy work (about 2.5 ms), writes "<CLOCK_MONOTONIC at the end>
<CPU seconds>" to OUT_FILE, and sleeps 0.05 s.  The chunk's CPU time grows
when neighbours on the shared host slow the core down.  It runs at normal
priority, so it also runs on a core the CLI keeps busy, where it measures
the core the CLI runs on.  run.py starts one per core; each takes a few
percent of its core.
"""

import os
import signal
import sys
import time

import numpy as np

PAUSE_S = 0.05
_DATA = np.random.default_rng(0).random(4096)


def chunk():
    s = 0
    for i in range(15000):
        s += i * i % 7
    x = _DATA
    for _ in range(10):
        x = np.sort(np.cumsum(x) % 1.0)
    return s + x[0]


def main(core, out_path):
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    os.sched_setaffinity(0, {core})
    with open(out_path, "w", buffering=1) as out:  # run.py waits for the first line
        while True:
            c0 = time.thread_time()
            chunk()
            c1 = time.thread_time()
            out.write(f"{time.clock_gettime(time.CLOCK_MONOTONIC)!r} {c1 - c0!r}\n")
            time.sleep(PAUSE_S)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
