"""Host-speed normalization of measured times.

On a shared virtual machine a vCPU's speed can change by up to 2x
within a minute (other tenants on the same physical cores), and the
process's own CPU time rises with it, so neither wall nor CPU seconds
repeat from run to run.  While a measurement runs, a fixed pure-Python
loop is run every :data:`INTERVAL` seconds and timed.  Each timing
gives the host's speed at that moment relative to :data:`NOMINAL`;
their mean over the measurement turns its seconds into seconds at
nominal speed.  Of the probe loops tried, this tight integer loop
tracked the simulator's own slowdowns best (allocation-heavy and
cache-missing loops did worse).

Work in this process is probed in-process (:class:`SpeedProbe`), which
times the very CPU it runs on.  Work fanned out to worker processes is
probed by one helper process pinned to each CPU (:class:`CpuProbes`).
On the sweep workload the helpers halved the run-to-run spread of the
in-process probe; on single-process work the in-process probe was three
times steadier than the helpers.

Run as a script (``python3 speed.py CPU``), this module is that helper.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

#: Seconds between probe loops.
INTERVAL = 0.02
#: Iterations of the probe loop.
PROBE_ITERATIONS = 5000
#: Seconds the probe loop takes at nominal speed (its median on an
#: idle 2-vCPU Xeon guest under CPython 3.11).
NOMINAL = 185e-6


def _probe_loop() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value & 3
    return time.perf_counter() - start


class _Probe:
    """A tally of probe loops and the host speed they imply."""

    def __init__(self):
        self.count = 0
        #: Σ NOMINAL / duration over the probe loops.
        self.speed_sum = 0.0
        #: Seconds the probe loops took inside the measured process.
        self.spent = 0.0

    def add(self, seconds: float) -> None:
        """Count one probe loop that took ``seconds``."""
        self.count += 1
        self.speed_sum += NOMINAL / seconds

    @property
    def factor(self) -> float:
        """Mean host speed over the probe loops, as a share of nominal
        (1.0 with none)."""
        return self.speed_sum / self.count if self.count else 1.0

    def normalize(self, seconds: float) -> float:
        """``seconds`` measured while active, less the probe's own
        time, at nominal speed."""
        return max(0.0, seconds - self.spent) * self.factor


class SpeedProbe(_Probe):
    """Probes this process's CPU from a ``SIGALRM`` timer while active
    (a context manager, main thread only).  Interval timers are not
    inherited across ``fork``, so worker processes are never probed."""

    def __init__(self):
        super().__init__()
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        seconds = _probe_loop()
        self.add(seconds)
        self.spent += seconds

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class CpuProbes(_Probe):
    """Probes every CPU this process may use, from one helper process
    pinned to each, while active (a context manager).  The helpers run
    outside the measured process, so nothing is subtracted."""

    def __init__(self):
        super().__init__()
        self._helpers: "list[subprocess.Popen]" = []

    def __enter__(self) -> "CpuProbes":
        self._helpers = [
            subprocess.Popen([sys.executable, os.path.abspath(__file__),
                              str(cpu)], stdout=subprocess.PIPE, text=True)
            for cpu in sorted(os.sched_getaffinity(0))]
        return self

    def __exit__(self, *exc) -> None:
        for helper in self._helpers:
            helper.terminate()
        for helper in self._helpers:
            output, _ = helper.communicate()
            # A helper stopped before it could report has nothing.
            if output.strip():
                count, speed_sum = output.split()
                self.count += int(count)
                self.speed_sum += float(speed_sum)


def _helper(cpu: int) -> None:
    """Probe ``cpu`` until SIGTERM, then print the tally."""
    tally = _Probe()

    def report(signum, frame):
        print(tally.count, repr(tally.speed_sum), flush=True)
        sys.exit(0)

    signal.signal(signal.SIGTERM, report)
    os.sched_setaffinity(0, {cpu})
    while True:
        tally.add(_probe_loop())
        time.sleep(INTERVAL)


if __name__ == "__main__":
    _helper(int(sys.argv[1]))
