"""Host speed reference: every host time is scaled to one fixed speed.

The 2-CPU container hosts the benchmark was written on switch between
speed states about 2x apart, each lasting from under a second to half a
minute.  The deterministic op of ``capacity-large`` took 0.52-0.70 s
in one state and 0.95-1.27 s in the other, and whole 25 s runs sat in
one state, so the medians of raw op times spread 0.35-0.45 of their
median over runs of the same code.  A pure-Python loop slows by the
same factor at the same moments, while CPU time stays equal to wall
time (the process is not descheduled, it runs slower).

So the benchmark times a fixed reference workload, :func:`reference`,
before and after every timed interval and, every
``SAMPLE_INTERVAL`` seconds, inside it (from a ``SIGALRM`` handler,
so an op of a few seconds that crosses several speed states is
scaled piece by piece).  Each piece of the interval is scaled by
``REFERENCE_SECONDS`` over the mean of the reference times at its two
ends, and the time of the reference passes inside the interval is
taken out of it.  The reference imports nothing from the program, so
no change to the program can move it; a scaled time reads as the
interval's time on a host whose reference pass takes
``REFERENCE_SECONDS``.  The raw times are printed as ``#`` lines
beside the result.
"""

from __future__ import annotations

import contextlib
import heapq
import random
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Iterator, List

#: About the time of one :func:`reference` pass in the fast state of the
#: reference host (2-CPU container, Python 3.11).
REFERENCE_SECONDS = 2.0e-3
#: Passes per probe between intervals; the probe is their median, so
#: one pass that meets a switch of state does not decide it.  A probe
#: inside an interval is one pass, to keep out of the program's way.
PROBE_PASSES = 3
#: Seconds between the probes inside a timed interval; a pass costs
#: 1-2% of that.
SAMPLE_INTERVAL = 0.2


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value
        self.next = None


def _working_set(count: int = 1 << 16):
    """A shuffled linked list and a hash table larger than a core's
    cache, built once so every pass walks the same memory."""
    rng = random.Random(2018)
    nodes = [_Node(i, float(i)) for i in range(count)]
    order = list(range(count))
    rng.shuffle(order)
    for here, there in zip(order, order[1:]):
        nodes[here].next = nodes[there]
    table = {i * 2654435761 % (1 << 32): i for i in range(count // 2)}
    return nodes[order[0]], table, list(table)[::7]


_HEAD, _TABLE, _KEYS = _working_set()
_PAYLOAD = bytes(range(256)) * 2


def reference() -> float:
    """One pass of the fixed workload.  Its parts stand for what the
    program does most: heap and dict updates on small objects and
    bytes slicing (the event kernel and the packet path), a pointer
    chase and hash lookups through memory larger than a cache, and
    short-lived containers for the allocator."""
    heap: list = []
    sums: dict = {}
    total = 0.0
    for i in range(500):
        node = _Node(i * 7919 % 1021, i * 0.5)
        heapq.heappush(heap, (node.key, i, node))
        sums[node.key] = sums.get(node.key, 0.0) + node.value
        chunk = _PAYLOAD[i % 64:i % 64 + 64]
        total += chunk.count(b"\x07") + len(chunk) * 1e-3
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].value
    node = _HEAD
    for _ in range(4000):
        total += node.value
        node = node.next
    for key in _KEYS[:2000]:
        total += _TABLE[key]
    keep: List[dict] = []
    for i in range(1000):
        keep.append({"a": i, "b": (i, i + 1), "c": [i] * 3})
        if len(keep) > 256:
            keep = keep[128:]
    return total + len(sums) + len(keep)


def one_pass() -> float:
    """Seconds of one reference pass now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def probe() -> float:
    """Seconds of one reference pass now (median of a few)."""
    return statistics.median(one_pass() for _ in range(PROBE_PASSES))


@dataclass
class Interval:
    """One timed interval, filled in when it ends."""

    #: Wall seconds of the program, the in-interval probes taken out.
    raw: float = 0.0
    #: Wall seconds with the in-interval probes.
    wall: float = 0.0
    #: ``raw`` at the reference host speed.
    scaled: float = 0.0


class SpeedMeter:
    """Probes the host around and inside timed intervals and scales
    them."""

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]

    @contextlib.contextmanager
    def interval(self) -> Iterator[Interval]:
        """Time the body of the ``with`` block; the yielded
        :class:`Interval` is filled in when the block ends, also when
        it raises."""
        span = Interval()
        # (program seconds of a piece, reference seconds at its end)
        pieces = []
        mark = [0.0]

        def sample(_signum, _frame):
            ended = time.perf_counter()
            pieces.append((ended - mark[0], one_pass()))
            mark[0] = time.perf_counter()

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL,
                         SAMPLE_INTERVAL)
        started = mark[0] = time.perf_counter()
        try:
            yield span
        finally:
            # The timer stops first, so no piece ends after ``ended``.
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            ended = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
            span.wall = ended - started
            before = self.last
            self.last = probe()
            pieces.append((ended - mark[0], self.last))
            self.probes.append(self.last)
            for seconds, after in pieces:
                span.raw += seconds
                span.scaled += seconds * REFERENCE_SECONDS / (
                    0.5 * (before + after))
                before = after
