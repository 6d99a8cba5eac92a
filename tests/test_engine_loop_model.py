"""Differential property test: the event loop against a reference model.

Random programs of ``schedule`` / ``schedule_at`` / ``post`` / ``cancel``
calls, ``run`` (with and without ``until``) and ``step`` run on the
real :class:`~repro.sim.engine.Engine` and on a sorted-list model of
its contract:

* events fire in ``(time, insertion order)`` order;
* every schedule call takes exactly one sequence number;
* a cancelled event never fires, and a cancel after firing is a no-op;
* ``pending_events`` counts scheduled, not yet fired or cancelled events;
* ``run(until=t)`` fires everything due by ``t`` and leaves the clock on
  ``t``; a later ``run()`` resumes from there.

Fired events run the program's nested operations, so cancels happen
from inside callbacks; bursts of scheduled events followed by range
cancels push the dead share of the heap past one half and force the
engine to compact the heap in the middle of ``run()``.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError

DELAYS = (0.0, 0.5, 1.0, 1.5)  # few values: plenty of same-time ties
TIMES = (0.0, 1.0, 2.0, 3.0, 4.0)  # some already in the past: errors

_nested = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(DELAYS)),
    st.tuples(st.just("schedule_at"), st.sampled_from(TIMES)),
    st.tuples(st.just("post"), st.sampled_from(DELAYS)),
    st.tuples(st.just("burst"), st.integers(1, 120), st.sampled_from(DELAYS)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("cancel_range"), st.integers(0, 10_000), st.integers(1, 200)),
)
_top = st.one_of(
    _nested,
    st.tuples(st.just("run"), st.none()),
    st.tuples(st.just("run"), st.sampled_from((0.0, 0.25, 1.0, 2.5))),
    st.tuples(st.just("step")),
)
#: actions[k] runs when the k-th scheduled event fires (later ones do nothing).
_actions = st.lists(st.lists(_nested, max_size=4), max_size=30)


def _seq_count(engine: Engine) -> int:
    return int(repr(engine._seq)[len("count(") : -1])


class EngineBackend:
    """Drives the real engine; callbacks re-enter the interpreter."""

    def __init__(self, interp):
        self.engine = Engine()
        self.handles = {}
        self.interp = interp

    def _callback(self, eid):
        return lambda: self.interp.fire(eid)

    def schedule(self, eid, delay):
        self.handles[eid] = self.engine.schedule(delay, self._callback(eid))
        assert self.handles[eid].time == self.engine.now + delay

    def schedule_at(self, eid, time):
        self.handles[eid] = self.engine.schedule_at(time, self._callback(eid))

    def post(self, eid, delay):
        self.engine.post(delay, self._callback(eid))

    def cancel(self, eid):
        if eid in self.handles:  # posted events have no handle
            self.handles[eid].cancel()

    def run(self, until):
        self.engine.run(until=until)

    def step(self):
        return self.engine.step()

    @property
    def now(self):
        return self.engine.now

    @property
    def pending(self):
        return self.engine.pending_events

    @property
    def seq(self):
        return _seq_count(self.engine)


class ModelBackend:
    """Sorted-list reference: the contract, with no heap and no compaction."""

    def __init__(self, interp):
        self.now = 0.0
        self.seq = 0
        self.entries = {}  # eid -> [time, seq, eid, state, cancellable]
        self.interp = interp

    def _add(self, eid, time, cancellable=True):
        self.entries[eid] = [time, self.seq, eid, "live", cancellable]
        self.seq += 1

    def schedule(self, eid, delay):
        if delay < 0:
            raise SimulationError("negative delay")
        self._add(eid, self.now + delay)

    def schedule_at(self, eid, time):
        if time < self.now:
            raise SimulationError("in the past")
        self._add(eid, time)

    def post(self, eid, delay):
        self._add(eid, self.now + delay, cancellable=False)

    def cancel(self, eid):
        entry = self.entries.get(eid)
        if entry is not None and entry[4] and entry[3] == "live":
            entry[3] = "dead"

    def _next_live(self):
        live = [e for e in self.entries.values() if e[3] == "live"]
        return min(live, key=lambda e: (e[0], e[1])) if live else None

    def _fire(self, entry):
        entry[3] = "fired"
        self.now = entry[0]
        self.interp.fire(entry[2])

    def run(self, until):
        while True:
            entry = self._next_live()
            if entry is None:
                break
            if until is not None and entry[0] > until:
                break
            self._fire(entry)
        if until is not None and self.now < until:
            self.now = until

    def step(self):
        entry = self._next_live()
        if entry is None:
            return False
        self._fire(entry)
        return True

    @property
    def pending(self):
        return sum(1 for e in self.entries.values() if e[3] == "live")


class Interpreter:
    """Runs one program against one backend and logs what it sees."""

    def __init__(self, backend_cls, actions):
        self.actions = actions
        self.log = []
        self.next_eid = 0
        self.backend = backend_cls(self)

    def fire(self, eid):
        b = self.backend
        self.log.append(("fire", eid, b.now, b.pending, b.seq))
        if eid < len(self.actions):
            for op in self.actions[eid]:
                self.apply(op)

    def _new_eid(self):
        eid = self.next_eid
        self.next_eid += 1
        return eid

    def _scheduled(self):
        return max(self.next_eid, 1)

    def apply(self, op):
        b = self.backend
        kind = op[0]
        try:
            if kind == "schedule":
                b.schedule(self._new_eid(), op[1])
            elif kind == "schedule_at":
                # Take the id only on success: a rejected call must not
                # consume a sequence number.
                eid = self.next_eid
                b.schedule_at(eid, op[1])
                self.next_eid += 1
            elif kind == "post":
                b.post(self._new_eid(), op[1])
            elif kind == "burst":
                for _ in range(op[1]):
                    b.schedule(self._new_eid(), op[2])
            elif kind == "cancel":
                b.cancel(op[1] % self._scheduled())
            elif kind == "cancel_range":
                start = op[1] % self._scheduled()
                for eid in range(start, start + op[2]):
                    b.cancel(eid)
            elif kind == "run":
                until = None if op[1] is None else b.now + op[1]
                b.run(until)
            elif kind == "step":
                self.log.append(("step", b.step()))
        except SimulationError:
            self.log.append(("rejected", kind))
        self.log.append((kind, b.now, b.pending, b.seq))


def _execute(backend_cls, program, actions):
    interp = Interpreter(backend_cls, actions)
    for op in program:
        interp.apply(op)
    interp.apply(("run", None))  # drain whatever is left
    return interp.log


@settings(max_examples=150, deadline=None)
@given(program=st.lists(_top, max_size=25), actions=_actions)
@example(
    # 100 events, then the first to fire cancels 70 of them: the dead
    # share passes one half while run() is iterating the heap.
    program=[("burst", 100, 1.0), ("run", None)],
    actions=[[("cancel_range", 10, 70)]],
)
@example(
    # run(until) fires three tied events and stops before the fourth, a
    # late cancel hits an already-fired event, then run() resumes.
    program=[
        ("burst", 3, 0.5),
        ("schedule", 1.5),
        ("run", 1.0),
        ("cancel", 0),
        ("cancel", 3),
        ("run", None),
    ],
    actions=[],
)
def test_engine_matches_reference_model(program, actions):
    assert _execute(EngineBackend, program, actions) == _execute(
        ModelBackend, program, actions
    )


def test_compaction_mid_run_is_in_place():
    """The first ``@example`` above: compaction inside ``run()``.

    The running loop holds the heap list; compaction must rebuild that
    same list, or events scheduled after it would land in a list the
    loop never reads.
    """
    engine = Engine()
    heap = engine._heap
    events, fired, heap_sizes = [], [], []

    def cancel_most():
        for event in events[10:80]:
            event.cancel()
        heap_sizes.append(len(heap))

    def schedule_late():
        fired.append(1)
        engine.schedule(0.0, lambda: fired.append("late"))

    events.append(engine.schedule(1.0, cancel_most))
    events.append(engine.schedule(1.0, schedule_late))
    for i in range(2, 100):
        events.append(engine.schedule(1.0, lambda i=i: fired.append(i)))
    engine.run()
    # 99 entries left when the cancels ran; the 50th cancel tipped the
    # dead share past one half and compacted to the 49 live ones; the
    # last 20 cancels ride along (below COMPACT_MIN_HEAP).
    assert heap_sizes == [49]
    assert engine._heap is heap
    assert fired == [1] + list(range(2, 10)) + list(range(80, 100)) + ["late"]
    assert engine.pending_events == 0
