"""Reference measurements of the machine's current speed.

On a 2-vCPU virtual machine shared with other tenants, the same code runs
up to 1.5x slower for tens of seconds at a time while they are busy, so raw
times of two runs minutes apart differ by more than any useful regression
bound.  Each
operation is therefore preceded by a fixed calibration kernel and each
set-up probe by a bare interpreter start, and the reported times are scaled
to the reference speeds below:

    time at reference speed = measured time * reference / reference kernel time

The kernel runs in child processes of its own, so neither its memory nor
its interpreter state mixes with the measured program's, and it uses only
the standard library and numpy, never spdcsim: a change to the program
moves the scaled time by the same share as the raw time.  Over ten 30 s runs
per workload on that machine, the spread (interquartile range over median)
of the raw median round time was 0.10-0.15 and of the scaled one
0.05-0.08; for the set-up probe 0.13-0.22 raw and 0.03-0.08 scaled.

    python3 perfbench/machine.py    # serve calibrations: one per input line
"""

import os
import subprocess
import sys
import time

import numpy as np

# Typical values on the 2-vCPU machine the bounds were set on.
CALIBRATION_REF_S = 0.025
SPAWN_REF_S = 0.20

_FLOATS = np.random.default_rng(0).random(8000)
_FIELD = np.exp(1j * np.random.default_rng(1).random(16384))
_SCATTER = np.arange(0, 1 << 20, 3)


def calibrate():
    """(wall, cpu) seconds of a fixed mix like the program's own work.

    17-digit float formatting (the program's text output), complex FFTs and
    elementwise transcendental maths on a 16384-sample field, and a fresh
    16 MiB complex array filled by a strided scatter (the exact joint grid's
    memory traffic).
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    "\n".join(format(float(v), ".17g") for v in _FLOATS)
    for _ in range(4):
        np.fft.ifft(_FIELD)
    np.abs(np.exp(1j * _FIELD.real)) ** 2
    grid = np.zeros(1 << 20, dtype=complex)
    grid[_SCATTER] += 1.0
    np.abs(grid) ** 2
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Calibrator:
    """One child process per CPU, each running ``calibrate`` on request.

    The program's threads move between CPUs that other tenants slow by
    different amounts, so each measurement runs the kernel on every CPU at
    once and returns the mean.
    """

    def __init__(self, timeout: float):
        self._timeout = timeout
        self._procs = [
            subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
            )
            for _ in range(os.cpu_count() or 1)
        ]

    def measure(self):
        """Mean (wall, cpu) seconds of one calibration kernel run per CPU."""
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        samples = []
        for proc in self._procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("calibration process ended")
            samples.append([float(v) for v in line.split()])
        return tuple(sum(col) / len(samples) for col in zip(*samples))

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=self._timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def bare_spawn(timeout: float) -> float:
    """Wall seconds for a fresh interpreter that only imports numpy."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], capture_output=True, check=True, timeout=timeout
    )
    return time.perf_counter() - start


def _serve() -> int:
    for _ in sys.stdin:
        wall, cpu = calibrate()
        print(f"{wall!r} {cpu!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_serve())
