"""Host-speed probe that end-to-end times are scaled by.

The benchmark runs on shared hosts whose speed drifts by 20 % and more
over tens of seconds, alike for wall and CPU time, so raw times of the
same code differ from run to run by more than the changes they should
show. A fixed piece of pure-Python work, timed right before and right
after each operation, samples the host's speed over that operation.
Each time is scaled by REFERENCE_S over the mean of the two probes: it
reads as the time on a host where the probe takes REFERENCE_S.

The probe runs where the operation runs: in the benchmark process for
a library operation, and in a new interpreter for a CLI operation, as
on these hosts a long-lived process and a new one can slow down by
different amounts at the same moment. It never runs the program, so a
change to the program moves the scaled times as much as the raw ones.

    python3 bench/speed.py    # one probe, in seconds
"""

from __future__ import annotations

import subprocess
import sys
import time

REFERENCE_S = 0.012  # the probe's time on the host that defines the scale
LOOP = 100_000  # integer arithmetic, about half of the probe
ROWS = 12_000  # formatting, joining and hashing strings, the other half


def probe() -> float:
    """Seconds the reference work takes now.

    It mixes interpreter-bound arithmetic with allocating, formatting and
    hashing strings, as the program's operations do: a probe of either
    kind alone follows the host's drift well for some operations and
    poorly for others.
    """
    started = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    rows = [f"{i * 0.0013:.6g},{'C1' if i & 1 else 'C2'}" for i in range(ROWS)]
    {row: i for i, row in enumerate("\n".join(rows).split("\n"))}
    return time.perf_counter() - started


def fresh_probe(env: dict) -> float:
    """Seconds the reference work takes in a new interpreter, as measured inside it."""
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout)


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)


if __name__ == "__main__":
    print(probe())
