"""Measurement plumbing shared by every workload: spans, percentiles,
peak RSS, the reference clock and the pass/fail tally.

Nothing here imports the program under test, so the entry point can
report a missing source tree before touching it.
"""

import multiprocessing
import os
import random
import resource
import signal
import threading
import time
from contextlib import contextmanager

#: The program's layers, named after its modules.  A span's layer is
#: the part of its name before the first dot; spans the benchmark
#: opens around its own bookkeeping use the ``bench`` prefix.
LAYERS = ("core", "encoding", "partition", "queries", "rpq",
          "sharding", "serving")

#: A tail percentile is reported only where at least this many
#: samples lie beyond it.
TAIL_SAMPLES = 10


class Tracer:
    """In-memory spans: name, start, end, parent and request id.

    Disabled, :meth:`span` costs one attribute test.  Enabled, spans
    nest through a stack owned by the thread that opens them; spans
    finished on another thread (a reply callback) go through
    :meth:`record` with explicit times and no parent.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []          # [name, start_ns, end_ns, parent, rid]
        self._stack = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name, rid=None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        entry = [name, time.perf_counter_ns(), 0, parent, rid]
        with self._lock:
            index = len(self.spans)
            self.spans.append(entry)
        self._stack.append(index)
        try:
            yield
        finally:
            entry[2] = time.perf_counter_ns()
            self._stack.pop()

    def record(self, name, start_ns, end_ns, rid=None):
        if self.enabled:
            with self._lock:
                self.spans.append([name, start_ns, end_ns, None, rid])

    def self_seconds(self):
        """Seconds per layer not covered by that span's child spans."""
        children = {}
        for index, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered = _union_ns(children.get(index, ()))
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (
                end - start - covered) / 1e9
        return totals

    @staticmethod
    def span_cost_ns(samples=20000):
        """Median cost of opening and closing one enabled span."""
        probe = Tracer(True)
        costs = []
        for _ in range(5):
            start = time.perf_counter_ns()
            for _ in range(samples // 5):
                with probe.span("bench.probe"):
                    pass
            costs.append((time.perf_counter_ns() - start) / (samples // 5))
            probe.spans.clear()
        return sorted(costs)[len(costs) // 2]


def _union_ns(intervals):
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, share):
    """Nearest-rank percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(share * len(ordered) + 0.5) - 1))
    return ordered[rank]


def tail(values, share=0.99):
    """``(value, share used)``: the ``share`` percentile, or the highest
    one that leaves :data:`TAIL_SAMPLES` samples beyond it."""
    count = len(values)
    if count == 0:
        raise ValueError("tail of no samples")
    supported = max(0.5, 1.0 - TAIL_SAMPLES / count)
    used = min(share, supported)
    return percentile(values, used), used


def children_peak_rss_mb():
    """Summed peak RSS of every live child process (Linux ``/proc``)."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def peak_rss_mb():
    """Peak RSS of this process plus every live child process."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own_kb / 1024.0 + children_peak_rss_mb()


def stop_resource_tracker(timeout=10.0):
    """Stop the helper process ``multiprocessing`` starts beside the
    first spawned child (its resource tracker) and wait until it ends.

    Left alone it outlives this process by a moment, so call this once
    every spawned child has been joined.  The tracker ends when every
    holder of its pipe has closed it; one that does not end within
    ``timeout`` seconds is killed.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        pid, fd = tracker._pid, tracker._fd
        if pid is None:
            return
        tracker._pid = tracker._fd = None
        os.close(fd)
        deadline = time.monotonic() + timeout
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)


class ReferenceClock:
    """Time in *reference seconds*: wall time scaled by the speed of a
    fixed pure-Python kernel, sampled all along.

    The machines this benchmark runs on are shared, and their speed
    drifts by half or more over minutes as other tenants come and go.
    While :meth:`running`, a ``SIGALRM`` timer runs the kernel (a BFS
    over a fixed 2048-node random graph) in the main thread every
    ``INTERVAL`` seconds, inside whatever the benchmark is timing, so
    it meets the same caches and the same neighbours.  The clock
    leaves the kernel's own time out, and advances at
    ``REFERENCE_S / kernel time`` of the last sample per wall second.
    Over 387 compressions of one corpus in five minutes, wall time
    spread 0.33 (quartiles / median) and its medians over blocks of 40
    drifted by +-22%; reference time spread 0.07 and drifted by +-3%.
    """

    #: The kernel's time, so sampled, on a quiet core of the machine
    #: the benchmark was built on (2-vCPU x86 VM, CPython 3.11): one
    #: reference second is about one wall second there.
    REFERENCE_S = 0.65e-3
    INTERVAL = 0.05

    def __init__(self, nodes=2048, seed=7):
        rng = random.Random(seed)
        self._adjacency = [[rng.randrange(nodes) for _ in range(3)]
                           for _ in range(nodes)]
        self.speeds = []
        # (reference seconds at mark, wall mark, speed): one attribute,
        # so a sample landing inside :meth:`now` cannot tear it.
        self._state = (0.0, time.perf_counter(),
                       self.REFERENCE_S / self._kernel_s())

    def _kernel_s(self):
        start = time.perf_counter()
        adjacency = self._adjacency
        seen = {0}
        frontier = [0]
        while frontier:
            following = []
            for node in frontier:
                for succ in adjacency[node]:
                    if succ not in seen:
                        seen.add(succ)
                        following.append(succ)
            frontier = following
        return time.perf_counter() - start

    def _sample(self, _signum, _frame):
        reference = self.now()
        speed = self.REFERENCE_S / self._kernel_s()
        self.speeds.append(speed)
        self._state = (reference, time.perf_counter(), speed)

    def now(self):
        reference, mark, speed = self._state
        return reference + (time.perf_counter() - mark) * speed

    @contextmanager
    def running(self):
        """Sample while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """No samples while the block runs: a load generator must keep
        its schedule.  :meth:`now` then runs at the last speed."""
        _, interval = signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, interval, interval)


#: The benchmark's one clock for in-process work.
CLOCK = ReferenceClock()
now = CLOCK.now


class Tally:
    """Checked operations and the ones that failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


class Clock:
    """A deadline for one lane of the measured phase."""

    def __init__(self, seconds):
        self.start = time.perf_counter()
        self.deadline = self.start + seconds

    def expired(self):
        return time.perf_counter() >= self.deadline
