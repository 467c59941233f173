"""Property-based tests for the event kernel's ResourceTimeline.

Hypothesis drives random task streams (including adversarial mixes of
zero durations, identical ready times, and out-of-order arrivals)
against :class:`~repro.sim.kernel.ResourceTimeline` and checks the
promises the scheduler makes:

- a resource is never double-booked: committed blocks are sorted and
  pairwise disjoint;
- no task starts before its ready time, and every task gets exactly
  the duration it asked for;
- busy bookkeeping matches the committed interval widths;
- placements are bit-identical to the legacy linear scanner kept in
  ``repro.sim.legacy`` (the parity bedrock of the kernel rewrite),
  including on saturated streams several lane blocks long and on gaps
  whose width and fit test disagree in the last ulp.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import _BLOCK, ResourceTimeline
from repro.sim.legacy import _LinearResources
from repro.validate.invariants import verify_timeline

pytestmark = pytest.mark.property

#: (ready, duration) streams; durations include exact zeros and tiny
#: positive values so the no-commit path and coalescing boundaries are
#: exercised.
TASKS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0,
                  allow_nan=False, allow_infinity=False),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
        ),
    ),
    min_size=1, max_size=60,
)

RESOURCES = st.lists(st.sampled_from(["cpu0", "cpu1", "gpu0"]),
                     min_size=1, max_size=60)


@given(tasks=TASKS)
@settings(max_examples=200)
def test_never_double_books(tasks):
    timeline = ResourceTimeline()
    for ready, duration in tasks:
        timeline.schedule("r", ready, duration)
    blocks = timeline.intervals("r")
    assert blocks == sorted(blocks)
    for (_s1, e1), (s2, _e2) in zip(blocks, blocks[1:]):
        assert e1 <= s2  # non-overlapping interiors (may abut)


@given(tasks=TASKS)
@settings(max_examples=200)
def test_starts_respect_ready_and_duration(tasks):
    timeline = ResourceTimeline()
    for ready, duration in tasks:
        start, end = timeline.schedule("r", ready, duration)
        assert start >= ready
        assert end == start + duration


@given(tasks=TASKS, resources=RESOURCES)
@settings(max_examples=150)
def test_busy_bookkeeping_matches_intervals(tasks, resources):
    timeline = ResourceTimeline()
    expected_busy = {}
    for (ready, duration), resource in zip(tasks, resources):
        timeline.schedule(resource, ready, duration)
        expected_busy[resource] = \
            expected_busy.get(resource, 0.0) + duration
    for resource, busy in expected_busy.items():
        assert timeline.busy[resource] == pytest.approx(busy)
        assert timeline.busy_span(resource) == pytest.approx(
            busy, abs=1e-6)
    assert verify_timeline(timeline) == []


@given(tasks=TASKS)
@settings(max_examples=200)
def test_placement_parity_with_legacy_scanner(tasks):
    """Every (start, end) must equal the legacy linear scan's answer."""
    timeline = ResourceTimeline()
    legacy = _LinearResources()
    for ready, duration in tasks:
        new_slot = timeline.schedule("r", ready, duration)
        old_slot = legacy.schedule("r", ready, duration)
        assert new_slot == old_slot
    assert timeline.busy["r"] == legacy.busy["r"]


@given(tasks=TASKS)
@settings(max_examples=100)
def test_queue_wait_totals_are_consistent(tasks):
    timeline = ResourceTimeline()
    expected_wait = 0.0
    for ready, duration in tasks:
        start, _end = timeline.schedule("r", ready, duration)
        expected_wait += start - ready
    assert timeline.queue_wait["r"] == pytest.approx(expected_wait)
    assert timeline.queue_wait["r"] >= 0.0
    assert timeline.task_counts["r"] == len(tasks)


def _nudge(value, steps):
    """``value`` moved ``steps`` ulps (negative steps move down)."""
    direction = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, direction)
    return value


@st.composite
def saturated_streams(draw):
    """3-5 blocks' worth of tasks on one lane, mostly out of order.

    A sparse prefix lays down slots with holes between them; every
    later task is ready before the tail (sometimes exactly on an
    earlier ready time, i.e. on a seam), so the holes fill until the
    lane is saturated and the blocks holding them split.
    """
    count = draw(st.integers(min_value=3 * _BLOCK, max_value=5 * _BLOCK))
    durations = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.25, max_value=20.0)),
        min_size=1, max_size=4,
    ))
    stride = draw(st.floats(min_value=3.0, max_value=8.0)) \
        * max(durations + [0.25])
    prefix = draw(st.integers(min_value=_BLOCK // 2, max_value=_BLOCK))
    rng = draw(st.randoms(use_true_random=False))
    tasks = [(index * stride, rng.choice(durations))
             for index in range(prefix)]
    horizon = prefix * stride
    for _ in range(count - prefix):
        if rng.random() < 0.2:
            ready = rng.choice(tasks)[0]
        else:
            ready = rng.uniform(0.0, horizon)
        tasks.append((ready, rng.choice(durations)))
    return tasks


@st.composite
def ulp_gap_streams(draw):
    """A gap a few ulps either side of ``a + d`` behind a block-long
    run of abutting slots, probed by tasks of about duration ``d``.

    Near that boundary ``b - a >= d`` and ``a + d <= b`` can disagree,
    which a gap index that skipped on the stored width would get
    wrong.
    """
    origin = draw(st.floats(min_value=0.0, max_value=1e6))
    width = draw(st.floats(min_value=1e-6, max_value=10.0))
    duration = draw(st.floats(min_value=1e-9, max_value=10.0))
    prefix = draw(st.integers(min_value=_BLOCK, max_value=3 * _BLOCK))
    steps = draw(st.integers(min_value=-3, max_value=3))
    tasks = []
    end = origin
    for _ in range(prefix):
        tasks.append((end, width))
        end = end + width
    resume = _nudge(end + duration, steps)
    for _ in range(draw(st.integers(min_value=1, max_value=_BLOCK))):
        tasks.append((resume, width))
        resume = resume + width
    probes = draw(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0),
                  st.integers(min_value=-2, max_value=2)),
        min_size=1, max_size=8,
    ))
    for fraction, nudge in probes:
        tasks.append((origin + (end - origin) * fraction,
                      _nudge(duration, nudge)))
    return tasks


def _assert_legacy_parity(tasks):
    timeline = ResourceTimeline()
    legacy = _LinearResources()
    for ready, duration in tasks:
        assert timeline.schedule("r", ready, duration) == \
            legacy.schedule("r", ready, duration)
    assert timeline.intervals("r") == legacy.intervals.get("r", [])
    assert timeline.busy["r"] == legacy.busy["r"]


@given(tasks=saturated_streams())
@settings(max_examples=100, deadline=None)
def test_saturated_placement_parity_across_blocks(tasks):
    _assert_legacy_parity(tasks)


@given(tasks=ulp_gap_streams())
@settings(max_examples=200, deadline=None)
def test_ulp_boundary_gap_parity(tasks):
    _assert_legacy_parity(tasks)
