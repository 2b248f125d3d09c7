"""The two-lane agenda and the tie-break heap must dispatch identical schedules.

The kernel keeps its agenda in two lanes — a deque of zero-delay NORMAL
entries and a ``heapq`` far lane — merged by full-tuple comparison.
Installing a :class:`TieBreakPolicy` moves every pending entry into one
heap and dispatches through the policy loop instead.  The agenda's total
order ``(when, priority, event id)`` is part of the reproduction's
determinism contract (every pinned schedule fingerprint depends on it),
so under an always-0 policy the heap path must pop exactly the sequence
the two lanes pop.  These property tests drive both paths with
randomized ``(delay, priority)`` mixes — zero-delay NORMAL pushes (the
deque lane), URGENT entries, and events scheduled from inside callbacks
— and require bit-identical dispatch traces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, TieBreakPolicy
from repro.sim.events import Event

_DELAYS = st.floats(min_value=0.0, max_value=2e-3, allow_nan=False)
_OPS = st.lists(
    st.tuples(_DELAYS, st.integers(min_value=0, max_value=1)),
    min_size=1,
    max_size=80,
)


def _environment(policy: bool) -> Environment:
    env = Environment()
    if policy:
        env.set_tiebreak(TieBreakPolicy())
    return env


def _schedule(env, ops, cascade, trace, first=0):
    """Put ``ops`` on ``env``'s agenda, tracing each dispatch."""

    def fire(event, index):
        trace.append((env.now, index))
        if cascade and index % 3 == 0:
            # Schedule children from inside a callback: a zero-delay
            # NORMAL child rides the deque lane, the others the far lane.
            child = Event(env)
            child._ok = True
            child._value = None
            child.subscribe(
                lambda e, i=index: trace.append((env.now, ("child", i)))
            )
            env.schedule(child, delay=(index % 5) * 1e-7, priority=1)

    for index, (delay, priority) in enumerate(ops, first):
        event = Event(env)
        event._ok = True
        event._value = None
        event.subscribe(lambda e, i=index: fire(e, i))
        env.schedule(event, delay=delay, priority=priority)


def _run_schedule(policy, ops, cascade):
    """Dispatch ``ops`` with or without the policy; return the trace."""
    env = _environment(policy)
    trace = []
    _schedule(env, ops, cascade, trace)
    env.run()
    return trace


@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_lanes_and_policy_heap_pop_identical_order(ops):
    assert _run_schedule(False, ops, False) == _run_schedule(True, ops, False)


@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_schedulers_agree_with_callback_scheduled_children(ops):
    assert _run_schedule(False, ops, True) == _run_schedule(True, ops, True)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=5e-4), min_size=1, max_size=40
    )
)
@settings(max_examples=40, deadline=None)
def test_timeout_fast_path_matches_heap(delays):
    """Timeout's open-coded far-lane push must agree with the policy heap."""

    def run(policy):
        env = _environment(policy)
        fired = []

        def proc(env):
            for i, delay in enumerate(delays):
                t = env.timeout(delay, value=i)
                t.subscribe(lambda e: fired.append((env.now, e.value)))
                if i % 4 == 0:
                    yield env.timeout(delay / 2)
        env.process(proc(env))
        env.run()
        return fired

    assert run(False) == run(True)


@given(ops=_OPS, split=st.floats(min_value=1e-6, max_value=2e-3))
@settings(max_examples=60, deadline=None)
def test_installing_and_clearing_the_policy_mid_run_keeps_the_order(ops, split):
    """Lanes -> heap -> lanes with entries pending in both lanes.

    The policy goes in after the first stretch of the run and comes out
    after the second.  Zero-delay entries are pushed just before each
    migration so the deque lane is non-empty when it happens; both
    migrations must carry every pending entry over with its key, so the
    trace equals the same run without a policy.
    """

    def run(toggle):
        env = Environment()
        trace = []
        _schedule(env, ops, True, trace)
        env.run(until=split / 2)
        _schedule(env, [(0.0, 1), (0.0, 0), (0.0, 1)], True, trace, 100)
        if toggle:
            env.set_tiebreak(TieBreakPolicy())
        env.run(until=split)
        _schedule(env, [(0.0, 1), (1e-7, 1), (0.0, 1)], True, trace, 200)
        if toggle:
            env.set_tiebreak(None)
        env.run()
        return trace

    assert run(True) == run(False)
