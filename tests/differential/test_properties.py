"""Randomized property tests for the engine hot path.

Three families:

* arranged joins must be observationally equivalent to private-trace
  ``JoinOp`` joins — including inside iterate scopes (an arrangement
  built at the root and ``enter``-ed into the loop) and across random
  multi-epoch churn on both inputs;
* :class:`KeyTrace`'s cached accumulation must agree with brute-force
  recomputation under arbitrary interleavings of ``update`` /
  ``compact_below`` / ``accumulate`` and of ``correct_output``'s
  read-then-update (subtract the borrowed accumulation from a target,
  store the difference at the same time), with the internal cache
  invariants (``check_cache``) holding after every step;
* the keyed read contract (``repro.differential.trace``): under
  forward-only writes and reads at arity 1, 2 and 3, a keyed
  :class:`Trace` read at the current epoch equals a reference that keeps
  every full time, a key whose diffs cancel leaves no entry, and
  :class:`TimeSchedule` enqueues exactly the full lub-closure's elements
  above the arriving time, all of them in the current epoch.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.differential import Dataflow
from repro.differential.multiset import add_into, consolidate
from repro.differential.timestamp import leq, lub_closure
from repro.differential.trace import KeyTrace, TimeSchedule, Trace, key_time


def _random_churn(rng, state, n_keys, n_vals, max_ops):
    """Random insert/delete diff against `state` (a set of records)."""
    diff = {}
    for _ in range(rng.randrange(max_ops)):
        rec = (rng.randrange(n_keys), rng.randrange(n_vals))
        if rec in state and rng.random() < 0.4:
            state.discard(rec)
            diff[rec] = diff.get(rec, 0) - 1
        elif rec not in state:
            state.add(rec)
            diff[rec] = diff.get(rec, 0) + 1
    return consolidate(diff)


class TestArrangedJoinEquivalence:
    """join_arranged ≡ join, at the root and inside iterate scopes."""

    @pytest.mark.parametrize("seed", range(5))
    def test_iterate_twin_loops_match(self, seed):
        """Two BFS-style loops — one over a shared root arrangement
        entered into the scope, one over a private-trace join — must agree
        at every epoch of a random edge/root churn schedule."""
        rng = random.Random(2000 + seed)
        df = Dataflow()
        edges = df.new_input("edges")
        roots = df.new_input("roots")
        e_arr = edges.arrange("edges.arr")

        def body_shared(inner, scope):
            e = e_arr.enter(scope)
            r = scope.enter(roots)
            step = inner.join_arranged(
                e, lambda u, dist, v: (v, dist + 1), name="shared.step")
            return step.concat(r).min_by_key(name="shared.min")

        def body_plain(inner, scope):
            e = scope.enter(edges)
            r = scope.enter(roots)
            step = inner.join(
                e, lambda u, dist, v: (v, dist + 1), name="plain.step")
            return step.concat(r).min_by_key(name="plain.min")

        shared = df.capture(roots.iterate(body_shared, name="shared.loop"),
                            "shared")
        plain = df.capture(roots.iterate(body_plain, name="plain.loop"),
                           "plain")

        n = 10
        edge_state = set()
        root_state = set()
        df.step({"edges": {}, "roots": {(0, 0): 1}})
        root_state.add((0, 0))
        assert shared.value_at_epoch(0) == plain.value_at_epoch(0)
        for epoch in range(1, 8):
            feed = {"edges": _random_churn(rng, edge_state, n, n, 6)}
            if rng.random() < 0.3:
                feed["roots"] = _random_churn(rng, root_state, n, 1, 2)
            df.step(feed)
            assert shared.value_at_epoch(epoch) == \
                plain.value_at_epoch(epoch), (seed, epoch)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_arrangement_two_consumers_match_private_joins(self, seed):
        """One arrangement feeding two stream sides ≡ two private joins."""
        rng = random.Random(3000 + seed)
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        c = df.new_input("c")
        arr = b.arrange()
        sh_a = df.capture(a.join_arranged(arr), "sh_a")
        sh_c = df.capture(c.join_arranged(arr), "sh_c")
        pl_a = df.capture(a.join(b), "pl_a")
        pl_c = df.capture(c.join(b), "pl_c")
        state = {"a": set(), "b": set(), "c": set()}
        for epoch in range(6):
            df.step({name: _random_churn(rng, s, 4, 4, 5)
                     for name, s in state.items()})
            assert sh_a.value_at_epoch(epoch) == pl_a.value_at_epoch(epoch)
            assert sh_c.value_at_epoch(epoch) == pl_c.value_at_epoch(epoch)


# -- KeyTrace model check -----------------------------------------------------


class _BruteTrace:
    """Oracle: same storage discipline as KeyTrace, no cache — every
    accumulation is recomputed from scratch."""

    def __init__(self):
        self.entries = {}

    def update(self, time, diff):
        slot = self.entries.setdefault(time, {})
        add_into(slot, diff)
        if not slot:
            del self.entries[time]

    def compact_below(self, epoch):
        merged = {}
        for time, diff in self.entries.items():
            rep = (0,) + time[1:] if time[0] < epoch else time
            add_into(merged.setdefault(rep, {}), diff)
        self.entries = {t: d for t, d in merged.items() if d}

    def accumulate(self, time):
        acc = {}
        for s, diff in self.entries.items():
            if leq(s, time):
                add_into(acc, diff)
        return acc


times2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
_ops = st.one_of(
    st.tuples(st.just("update"), times2, st.integers(0, 2),
              st.integers(-2, 2).filter(bool)),
    st.tuples(st.just("correct"), times2,
              st.dictionaries(st.integers(0, 2), st.integers(1, 2),
                              max_size=3)),
    st.tuples(st.just("compact"), st.integers(0, 4)),
    st.tuples(st.just("acc"), times2),
)


class TestKeyTraceModelCheck:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ops, max_size=30))
    def test_cached_accumulation_matches_brute_force(self, ops):
        trace = KeyTrace()
        oracle = _BruteTrace()
        for op in ops:
            if op[0] == "update":
                _, time, rec, mult = op
                trace.update(time, {rec: mult})
                oracle.update(time, {rec: mult})
            elif op[0] == "correct":
                # ScheduledOperator.correct_output's trace traffic: the
                # correction is target minus the borrowed accumulation.
                _, time, target = op
                delta = add_into(dict(target), trace.accumulate(time),
                                 factor=-1)
                want = add_into(dict(target), oracle.accumulate(time),
                                factor=-1)
                assert delta == want
                if delta:
                    trace.update(time, delta)
                    oracle.update(time, want)
                assert trace.accumulate(time) == target
            elif op[0] == "compact":
                trace.compact_below(op[1])
                oracle.compact_below(op[1])
            else:
                assert trace.accumulate(op[1]) == oracle.accumulate(op[1])
            trace.check_cache()
            assert trace.entries == oracle.entries
        for probe in [(0, 0), (1, 2), (3, 0), (3, 3)]:
            assert trace.accumulate(probe) == oracle.accumulate(probe)
            trace.check_cache()

    @pytest.mark.parametrize("seed", range(8))
    def test_keyed_access_pattern(self, seed):
        """The engine's actual access pattern: every epoch reads and writes
        key times (0, it) at increasing iterations, with no compaction."""
        rng = random.Random(seed)
        trace = KeyTrace()
        full = _BruteTrace()
        for epoch in range(5):
            for it in range(4):
                for _ in range(rng.randrange(3)):
                    diff = {rng.randrange(3): rng.choice([-1, 1])}
                    trace.update(key_time((epoch, it)), diff)
                    full.update((epoch, it), diff)
                assert trace.accumulate(key_time((epoch, it))) == \
                    full.accumulate((epoch, it))
                trace.check_cache()
            assert len(trace.entries) <= 4


# -- the keyed read contract --------------------------------------------------


@st.composite
def forward_ops(draw):
    """Forward-only keyed traffic at one arity: ``("advance",)`` opens the
    next epoch; writes and reads name a key and a loop suffix."""
    arity = draw(st.integers(1, 3))
    suffix = st.tuples(*[st.integers(0, 3)] * (arity - 1))
    op = st.one_of(
        st.tuples(st.just("advance")),
        st.tuples(st.just("write"), st.sampled_from("kj"), suffix,
                  st.integers(0, 2), st.integers(-2, 2).filter(bool)),
        st.tuples(st.just("read"), st.sampled_from("kj"), suffix))
    return draw(st.lists(op, max_size=40))


class TestKeyedContractModelCheck:
    @settings(max_examples=200, deadline=None)
    @given(forward_ops())
    def test_reads_at_the_current_epoch_match_full_times(self, ops):
        trace = Trace()
        full = {"k": _BruteTrace(), "j": _BruteTrace()}
        epoch = 0
        for op in ops:
            if op[0] == "advance":
                epoch += 1
                continue
            key, time = op[1], (epoch,) + op[2]
            if op[0] == "write":
                trace.update_batch(time, {key: {op[3]: op[4]}})
                full[key].update(time, {op[3]: op[4]})
            else:
                assert trace.accumulate(key, key_time(time)) == \
                    full[key].accumulate(time)
            for name, reference in full.items():
                stored = trace.get(name)
                # Entries fold per suffix; a key whose diffs all cancel
                # leaves no entry at all.
                folded = {}
                for t, diff in reference.entries.items():
                    add_into(folded.setdefault(key_time(t), {}), diff)
                folded = {t: d for t, d in folded.items() if d}
                if not folded:
                    assert stored is None
                else:
                    assert stored.entries == folded
                    stored.check_cache()

    @settings(max_examples=200, deadline=None)
    @given(forward_ops())
    def test_schedule_is_the_closure_in_the_current_epoch(self, ops):
        schedule = TimeSchedule()
        arrived = {"k": set(), "j": set()}
        epoch = 0
        for op in ops:
            if op[0] == "advance":
                epoch += 1
                continue
            key, time = op[1], (epoch,) + op[2]
            for pending in list(schedule.pending_times()):
                schedule.tasks_at(pending)
            schedule.schedule([key], time)
            arrived[key].add(time)
            want = {u for u in lub_closure(arrived[key]) if leq(time, u)}
            assert all(u[0] == epoch for u in want)
            got = set()
            for pending in list(schedule.pending_times()):
                assert schedule.tasks_at(pending) == {key}
                got.add(pending)
            assert got == want
