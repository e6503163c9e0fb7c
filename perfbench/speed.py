"""CPU-speed probe: rescales measured seconds to one reference speed.

The cores the benchmark runs on may be shared with other machines'
work: the same call can run up to twice as slow while something loads
the other hardware thread of its core, and that load changes from one
second to the next and drifts over minutes. Medians over a run do not
remove the drift. The probe tracks it: a second process, on the same CPU
as the measuring process, times a fixed task (modelled on one pricing
step of the dense simplex kernel, but using none of the package's code)
every PERIOD_S seconds. An interval measured in the benchmark process is
rescaled by REF_S / (median probe time during the interval): the result
is the seconds the interval would take on a CPU that runs the probe task
in REF_S, so a change to the program still moves it and the machine's
speed does not.

    with SpeedProbe() as probe:
        t0 = time.monotonic(); work(); t1 = time.monotonic()
    seconds = probe.normalized([(t0, t1)], t1 - t0)

Run as a script, this file is the probe process itself.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

#: seconds between two probe samples; the probe busies its CPU about 2% of the time
PERIOD_S = 0.05
#: probe task seconds at the reference speed, about the uncontended task time on
#: one hardware thread of the 2-vCPU Intel Xeon host the benchmark was tuned on
REF_S = 1.0e-3
#: fewest samples a speed is taken from; short intervals borrow their nearest neighbours
MIN_SAMPLES = 3


def pin_to_one_cpu() -> int:
    """Pin this process, and the processes it starts, to one CPU, so the
    probe and the measured work share a core and so its contention."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _task_data():
    rng = np.random.default_rng(0)
    m, n = 60, 120
    cols = rng.standard_normal((n + m, m))
    cost = rng.standard_normal(n + m)
    binv = np.eye(m) + 0.01 * rng.standard_normal((m, m))
    vstat = rng.integers(0, 3, n + m).astype(np.int8)
    return cols, cost, binv, vstat


def _task(cols, cost, binv, vstat) -> float:
    """Fixed work of small-matrix numpy calls and interpreter steps."""
    m = binv.shape[0]
    basis = np.arange(m)
    acc = 0.0
    for _ in range(30):
        y = cost[basis] @ binv
        d = cost - cols @ y
        elig = ((vstat == 1) & (d < -1e-9)) | ((vstat == 2) & (d > 1e-9))
        j = int(np.argmax(np.where(elig, np.abs(d), 0.0)))
        col = binv @ cols[j]
        r = int(np.argmax(np.abs(col)))
        basis[r] = (basis[r] + j + 1) % len(cost)
        acc += float(col[r])
        for i in range(20):
            acc += i * 0.5
    return acc


def _probe_main() -> int:
    """Sample until stdin closes, then print one `start duration` line per
    sample, both in `time.monotonic()` seconds."""
    data = _task_data()
    _task(*data)  # warm caches and the import of numpy's linear algebra
    samples = []
    ready = False
    while True:
        t0 = time.monotonic()
        _task(*data)
        samples.append((t0, time.monotonic() - t0))
        if not ready:
            print("ready", flush=True)
            ready = True
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break  # stdin is at its end: the benchmark has finished
    sys.stdout.write("".join(f"{t!r} {d!r}\n" for t, d in samples))
    return 0


class SpeedProbe:
    """Context manager that runs the probe process for the duration of a
    `with` block; `normalized` is usable after the block."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> SpeedProbe:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("the speed probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        out = self._stop()
        self.samples = [tuple(map(float, line.split())) for line in out.splitlines()]

    def _stop(self) -> str:
        proc, self._proc = self._proc, None
        try:
            out, _ = proc.communicate(timeout=30)  # closes stdin, reads, waits
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"the speed probe exited with code {proc.returncode}")
        return out

    def task_seconds(self, intervals: list[tuple[float, float]]) -> float:
        """Median probe-task seconds over samples started inside any of the
        `time.monotonic()` intervals, or over the MIN_SAMPLES nearest ones
        when the intervals hold fewer."""
        inside = [d for t, d in self.samples if any(a <= t <= b for a, b in intervals)]
        if len(inside) >= MIN_SAMPLES:
            return statistics.median(inside)
        if len(self.samples) < MIN_SAMPLES:
            raise RuntimeError(f"the speed probe took only {len(self.samples)} samples")

        def distance(t: float) -> float:
            return min(max(a - t, t - b, 0.0) for a, b in intervals)

        nearest = sorted(self.samples, key=lambda s: distance(s[0]))[:MIN_SAMPLES]
        return statistics.median(d for _, d in nearest)

    def normalized(self, intervals: list[tuple[float, float]], seconds: float) -> float:
        """`seconds`, measured over `intervals`, at the reference speed."""
        return seconds * REF_S / self.task_seconds(intervals)


if __name__ == "__main__":
    sys.exit(_probe_main())
