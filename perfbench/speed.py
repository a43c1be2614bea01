"""A probe of the CPU's speed while the program runs on it.

On a shared VM the speed of a vCPU changes by up to a factor of two within
seconds, as the host's other tenants come and go (measured on a 2-vCPU Xeon
VM: the same pure-Python loop took 0.072-0.166 s, with CPU time equal to
wall time, so the vCPU was slowed, not descheduled). The two vCPUs change
independently, so a loop timed on one of them, or before and after a run,
says nothing about the speed a run saw.

So the benchmark pins itself, and with it every process it starts, to one
CPU, and this probe runs on the same CPU: every INTERVAL_S it times one
fixed chunk of interpreter work (parse 800 decimal strings to int and tally
them in a dict) and appends "start duration" to a file. A timed interval's
speed is the mean of REFERENCE_S / duration over the samples that started
inside it; REFERENCE_S is the chunk's duration at the VM's full speed, so a
run's time times its speed is its time at full speed.

Of seven chunks tried (integer arithmetic, string-keyed dict updates over a
25 MB table, a C-level sum, sha256, float logs, a sort, and this one), this
one tracked the CLI best: over 15-25 back-to-back CLI runs whose wall times
spread (interquartile range over median) by 0.13 on screen-tall and 0.28 on
sim-voting, the scaled times spread by 0.04 and 0.08. The probe costs the
program about 1 % of the CPU, the same on every commit.

Usage (started by SpeedProbe): python3 perfbench/speed.py CPU OUTFILE
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

INTERVAL_S = 0.02
# the chunk's duration at full speed on a 2-vCPU Xeon VM (Python 3.11)
REFERENCE_S = 0.0002
FIRST = 5_000
CHUNK = 800


def pin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


def probe(cpu: int, out_path: str) -> None:
    pin(cpu)
    parent = os.getppid()
    words = [str(i) for i in range(FIRST, FIRST + CHUNK)]
    with open(out_path, "a", encoding="ascii") as out:
        while os.getppid() == parent:
            t0 = time.perf_counter()
            tally: dict = {}
            for word in words:
                v = int(word)
                tally[v % 97] = tally.get(v % 97, 0) + 1
            t1 = time.perf_counter()
            out.write(f"{t0:.6f} {t1 - t0:.7f}\n")
            out.flush()
            time.sleep(INTERVAL_S)


class SpeedProbe:
    """Starts the probe on the benchmark's CPU; `speed(t0, t1)` reads what it saw."""

    def __init__(self, out_path: Path):
        self.cpu = min(os.sched_getaffinity(0))
        pin(self.cpu)  # the benchmark and every process it starts share the probe's CPU
        self.path = out_path
        self.path.write_text("", encoding="ascii")
        self.samples: list = []
        self._offset = 0
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.cpu), str(out_path)])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.kill()
        self.proc.wait()

    def _read(self) -> None:
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            data = fh.read()
        complete = data[: data.rfind(b"\n") + 1]
        self._offset += len(complete)
        for line in complete.decode("ascii").splitlines():
            start, duration = line.split()
            self.samples.append((float(start), float(duration)))

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed (REFERENCE_S / duration) of the probe samples that started in [t0, t1]."""
        if self.proc.poll() is not None:
            raise RuntimeError(f"the speed probe exited with code {self.proc.returncode}")
        deadline = time.perf_counter() + 1.0
        while True:  # wait for the first sample after t1, so the interval is complete
            self._read()
            if self.samples and self.samples[-1][0] > t1 or time.perf_counter() > deadline:
                break
            time.sleep(INTERVAL_S / 2)
        inside = [REFERENCE_S / d for s, d in self.samples if t0 <= s <= t1]
        if not inside:  # an interval shorter than the probe's: the nearest sample before it
            before = [d for s, d in self.samples if s < t0]
            if not before:
                raise RuntimeError("the speed probe recorded no sample")
            inside = [REFERENCE_S / before[-1]]
        return statistics.fmean(inside)


if __name__ == "__main__":
    probe(int(sys.argv[1]), sys.argv[2])
