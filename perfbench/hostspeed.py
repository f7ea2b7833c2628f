"""The host's current CPU speed, sampled with a fixed reference loop.

The benchmark runs on a few cores of a shared host. There the same work
takes up to about 1.8 times as much CPU time from one few-second stretch to
the next, as other tenants' load on the same physical cores comes and goes,
and a whole run can fall in a slow or a fast stretch. So every timed span's
CPU time is rescaled to the reference speed, using reference-loop samples
taken all through the run.

A profiling timer (SIGPROF) runs the reference loop after every
SAMPLE_EVERY_S of the process's CPU time, inside ops as well as between
them. `clock` is the CPU time of the benchmark's one thread less the time
spent sampling, so no timed span pays for the samples. (Thread time, because
while a process-wide CPU timer is armed, Linux reads the process's CPU
clock only to the last scheduler tick.) A span is rescaled with the samples
taken inside it and the one on either side of it.

The reference loop is interpreter work of the same kind as the program's
(dict, int and comparison operations) and touches nothing of the program,
so a change to the program cannot move it. On a quiet host in its fast
state, a rescaled time reads as the CPU time itself.
"""
from __future__ import annotations

import signal
from time import thread_time

# CPU time of one reference loop on the 2-core virtual machine the benchmark
# was tuned on, in the host's fast state (Python 3.11)
REF_LOOP_S = 0.0018
REF_ITERATIONS = 12_000
# CPU time between samples; a sample costs 2-3% of it
SAMPLE_EVERY_S = 0.1


def reference_loop() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        key = i & 511
        table[key] = table.get(key, 0) + i
        if acc > key:
            acc -= key
        acc += i * i % 7
    return acc


class HostSpeed:
    """Reference-loop samples, in the order they were taken.

    Sampling runs from construction until `stop`.
    """

    def __init__(self) -> None:
        reference_loop()  # let the interpreter specialise it first
        self.samples: list[float] = []  # CPU seconds of one reference loop
        self.sampling_s = 0.0  # CPU time spent taking samples
        self.sample()
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def sample(self) -> None:
        start = thread_time()
        reference_loop()
        elapsed = thread_time() - start
        self.samples.append(elapsed)
        self.sampling_s += elapsed

    def clock(self) -> float:
        """This thread's CPU time, less the time spent sampling."""
        while True:  # retry if a sample was taken while reading
            sampling_s = self.sampling_s
            now = thread_time()
            if self.sampling_s == sampling_s:
                return now - sampling_s

    def mark(self) -> int:
        """Call at the start and at the end of a span, for `rescale`."""
        return len(self.samples)

    def rescale(self, cpu_s: float, start: int, end: int) -> float:
        """`cpu_s` of the span between marks `start` and `end`, at the reference speed."""
        window = self.samples[max(start - 1, 0):end + 1]
        return cpu_s * REF_LOOP_S * sum(1 / s for s in window) / len(window)

    def median_ms(self) -> float:
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] * 1000
