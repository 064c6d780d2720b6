"""Randomly generated operator pipelines vs a naive interpreter.

A pipeline of randomly chosen operators (map / filter / concat / negate /
join / reduce variants / distinct / semijoin) is built twice: once on the
differential engine, once as a plain-Python evaluator over the fully
accumulated inputs. Random multi-epoch churn is fed to the engine and the
accumulated outputs are compared at every epoch.

This catches cross-operator interaction bugs that per-operator unit tests
cannot.
"""

from __future__ import annotations

import random

import pytest

from repro.differential import Dataflow
from repro.errors import DataflowError


def naive_map(state, fn):
    out = {}
    for rec, mult in state.items():
        new = fn(rec)
        out[new] = out.get(new, 0) + mult
    return {r: m for r, m in out.items() if m}


def naive_filter(state, fn):
    return {r: m for r, m in state.items() if fn(r)}


def naive_concat(a, b):
    out = dict(a)
    for rec, mult in b.items():
        out[rec] = out.get(rec, 0) + mult
    return {r: m for r, m in out.items() if m}


def naive_negate(state):
    return {r: -m for r, m in state.items()}


def naive_join(a, b):
    out = {}
    for (ka, va), ma in a.items():
        for (kb, vb), mb in b.items():
            if ka == kb:
                rec = (ka, (va, vb))
                out[rec] = out.get(rec, 0) + ma * mb
    return {r: m for r, m in out.items() if m}


def naive_reduce(state, logic):
    groups = {}
    for (key, value), mult in state.items():
        groups.setdefault(key, {})
        groups[key][value] = groups[key].get(value, 0) + mult
    out = {}
    for key, values in groups.items():
        values = {v: m for v, m in values.items() if m}
        if not values:
            continue
        for result in logic(key, values):
            rec = (key, result)
            out[rec] = out.get(rec, 0) + 1
    return out


def naive_distinct(state):
    return {r: 1 for r, m in state.items() if m > 0}


# Operator menu: (name, engine builder, naive evaluator). All stages keep
# records in (small-int key, small-int value) shape so stages compose.
def _shift(rec):
    return (rec[0], (rec[1] + 1) % 7)


def _rekey(rec):
    return ((rec[0] + 1) % 3, rec[1])


def _keep_even(rec):
    return rec[1] % 2 == 0


def _pairsum(rec):
    # after join: (k, (va, vb)) -> (k, va+vb mod 7)
    return (rec[0], (rec[1][0] + rec[1][1]) % 7)


MENU = [
    ("map-shift",
     lambda col, aux: col.map(_shift),
     lambda st, aux: naive_map(st, _shift)),
    ("map-rekey",
     lambda col, aux: col.map(_rekey),
     lambda st, aux: naive_map(st, _rekey)),
    ("filter-even",
     lambda col, aux: col.filter(_keep_even),
     lambda st, aux: naive_filter(st, _keep_even)),
    ("concat-aux",
     lambda col, aux: col.concat(aux),
     lambda st, aux: naive_concat(st, aux)),
    ("minus-aux",
     lambda col, aux: col.concat(aux.negate()),
     lambda st, aux: naive_concat(st, naive_negate(aux))),
    ("join-aux",
     lambda col, aux: col.join(aux).map(_pairsum),
     lambda st, aux: naive_map(naive_join(st, aux), _pairsum)),
    ("min",
     lambda col, aux: col.min_by_key(),
     lambda st, aux: naive_reduce(st, lambda k, vs: [min(vs)])),
    ("max",
     lambda col, aux: col.max_by_key(),
     lambda st, aux: naive_reduce(st, lambda k, vs: [max(vs)])),
    ("count",
     lambda col, aux: col.count_by_key(),
     lambda st, aux: naive_reduce(st, lambda k, vs: [sum(vs.values())])),
    ("distinct",
     lambda col, aux: col.distinct(),
     lambda st, aux: naive_distinct(st)),
    ("semijoin-aux",
     lambda col, aux: col.semijoin(aux.map(lambda rec: rec[0])),
     lambda st, aux: {rec: m for rec, m in st.items()
                      if any(o[0] == rec[0] and om > 0
                             for o, om in aux.items())}),
]


def random_churn(rng, state):
    """Mutate a non-negative multiset; return the diff applied."""
    diff = {}
    for _ in range(rng.randrange(1, 7)):
        rec = (rng.randrange(3), rng.randrange(7))
        held = state.get(rec, 0) + diff.get(rec, 0)
        if held > 0 and rng.random() < 0.4:
            diff[rec] = diff.get(rec, 0) - 1
        else:
            diff[rec] = diff.get(rec, 0) + 1
    for rec, mult in diff.items():
        state[rec] = state.get(rec, 0) + mult
        if state[rec] == 0:
            del state[rec]
    return {r: m for r, m in diff.items() if m}


@pytest.mark.parametrize("seed", range(20))
def test_random_pipeline_matches_naive(seed):
    rng = random.Random(seed)
    stage_names = [rng.choice(MENU) for _ in range(rng.randrange(2, 5))]
    # Reduce family emits multiplicity-1 records, so negation-producing
    # stages must not directly feed a reduce that forbids negatives;
    # the engine raises on negative accumulations — retry combos that
    # would legitimately go negative by filtering them out of the naive
    # mirror too (the engine error is itself correct behaviour, so skip).
    df = Dataflow()
    main_in = df.new_input("main")
    aux_in = df.new_input("aux")
    collection = main_in
    for _name, build, _naive in stage_names:
        collection = build(collection, aux_in)
    out = df.capture(collection, "out")

    main_state, aux_state = {}, {}
    for epoch in range(6):
        feed = {"main": random_churn(rng, main_state),
                "aux": random_churn(rng, aux_state)}
        try:
            df.step(feed)
        except DataflowError as error:
            # Negative accumulation inside a reduce: legal engine refusal
            # when a negate stage feeds a reduce. Only combos containing a
            # negation stage may trigger it.
            negative_possible = any(
                name.startswith("minus") for name, _b, _n in stage_names)
            assert negative_possible, error
            return
        state = {r: m for r, m in main_state.items() if m}
        aux = {r: m for r, m in aux_state.items() if m}
        for _name, _build, naive in stage_names:
            state = naive(state, aux)
        assert out.value_at_epoch(epoch) == state, \
            (seed, epoch, [n for n, _b, _n in stage_names])
