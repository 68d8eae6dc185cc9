"""Identification and filtering tests: per-source measurement, the
attack-rate budget, the greedy prefix rule (with a brute-force oracle),
the history variant, and filter application."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddossim.identifier import (PerSourceMeasurement, apply_filter,
                                estimate_attack_rate, identify_by_history,
                                identify_greedy, measure_per_source)


def counts_of(per_source, n):
    """Counts keyed by source id as a length-n int64 vector."""
    v = np.zeros(n, dtype=np.int64)
    for sid, c in per_source.items():
        v[sid] = c
    return v


def mask_of(ids, n):
    return counts_of(dict.fromkeys(ids, 1), n).astype(bool)


def ids_of(mask):
    return {int(i) for i in np.flatnonzero(mask)}


def slot_of(per_source):
    """A slot's packet source ids, per_source[sid] packets from each source id."""
    return np.repeat(np.array(list(per_source), dtype=np.int64),
                     np.array(list(per_source.values()), dtype=np.int64))


def slot_counts(ids, n):
    """Packet counts by source id of a slot's packet ids, as a length-n vector."""
    return np.bincount(ids, minlength=n)


def measured(slots, duration, n):
    """The measurement of a window of slots, counted as run_once counts it:
    one bincount of the window's packet ids."""
    ids = np.concatenate([np.empty(0, dtype=np.int64), *slots])
    counts = np.bincount(ids, minlength=n)
    assert counts.sum() == sum(len(ids) for ids in slots)
    return measure_per_source(counts, duration)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_single_source_rate():
    slots = [slot_of({7: 3}) for _ in range(10)]
    m = measured(slots, 10.0, 8)
    assert m.rates[7] == 3.0
    assert ids_of(m.rates) == {7}


def test_measure_rates_are_counts_over_window_length():
    # the window length itself is the denominator: a window placed at a
    # fire time t has (t + w_s) - t != w_s for many t, e.g. 6.1 + 10.0
    rng = np.random.default_rng(43)
    slots = [slot_of(dict(enumerate(rng.integers(0, 9, 20).tolist()))) for _ in range(100)]
    counts = sum(slot_counts(slot, 20) for slot in slots)
    assert (6.1 + 10.0) - 6.1 != 10.0
    assert np.array_equal(measured(slots, 10.0, 20).rates, counts / 10.0)


def test_measure_absent_source_gets_zero():
    slots = [slot_of({1: 5})]
    m = measured(slots, 1.0, 3)
    assert m.rates[2] == 0.0


def test_measure_empty_window_rejected():
    # a window of no slots lasts no time
    with pytest.raises(ValueError, match="empty measurement window"):
        measured([], 0.0, 3)
    with pytest.raises(ValueError, match="empty measurement window"):
        measured([slot_of({})], 0.0, 3)


# ---------------------------------------------------------------------------
# attack-rate budget
# ---------------------------------------------------------------------------

def test_estimate_attack_rate():
    assert estimate_attack_rate(3000.0, 1000.0) == 2000.0
    assert estimate_attack_rate(1000.0, 1000.0) == 0.0
    assert estimate_attack_rate(500.0, 1000.0) == 0.0     # clamped
    with pytest.raises(ValueError):
        estimate_attack_rate(-1.0, 0.0)


# ---------------------------------------------------------------------------
# greedy identification
# ---------------------------------------------------------------------------

def measurement_of(rates):
    """Rates keyed by source id, as a dense vector over ids 0..len(rates)-1."""
    assert set(rates) == set(range(len(rates)))
    return PerSourceMeasurement(np.array([rates[i] for i in range(len(rates))],
                                         dtype=float))


def classify(identify, rates, budget, *exempt):
    """(attacker ids, legal ids) for rates keyed by arbitrary distinct ids.

    The ids are mapped in ascending order onto vector positions, which keeps
    the tie-break by ascending id; the legal set is the complement of the
    returned attacker mask.
    """
    ids = sorted(rates)
    slot = {sid: j for j, sid in enumerate(ids)}
    m = measurement_of({slot[sid]: r for sid, r in rates.items()})
    mask = identify(m, *[mask_of([slot[s] for s in e], len(ids)) for e in exempt],
                    budget)
    assert mask.dtype == bool and len(mask) == len(ids)
    return ({ids[j] for j in np.flatnonzero(mask)},
            {ids[j] for j in np.flatnonzero(~mask)})


def test_greedy_prefix_example():
    attackers, legal = classify(identify_greedy,
                                {0: 5.0, 1: 4.0, 2: 3.0, 3: 2.0, 4: 1.0}, 12.0)
    assert attackers == {0, 1, 2}        # 5+4+3 = 12 <= 12; +2 exceeds
    assert legal == {3, 4}


def test_greedy_zero_budget():
    attackers, legal = classify(identify_greedy, {0: 5.0, 1: 1.0}, 0.0)
    assert attackers == set()
    assert legal == {0, 1}


def test_greedy_unbounded_budget_takes_all():
    attackers, _ = classify(identify_greedy, {0: 5.0, 1: 1.0, 2: 0.0}, 100.0)
    assert attackers == {0, 1, 2}


def test_greedy_tie_break_by_ascending_id():
    attackers, _ = classify(identify_greedy, {9: 2.0, 3: 2.0, 5: 2.0}, 4.0)
    assert attackers == {3, 5}
    # the same ids in a dense vector with silent sources between them
    m = PerSourceMeasurement(counts_of({9: 2, 3: 2, 5: 2}, 10) * 1.0)
    assert ids_of(identify_greedy(m, 4.0)) == {3, 5}


def test_greedy_negative_budget_rejected():
    with pytest.raises(ValueError):
        identify_greedy(measurement_of({0: 1.0}), -1.0)


def brute_force_prefix(rates, budget):
    """Reference: walk the sorted order, stop at the first violation."""
    order = sorted(rates, key=lambda sid: (-rates[sid], sid))
    picked, total = set(), 0.0
    for sid in order:
        if total + rates[sid] > budget:
            break
        total += rates[sid]
        picked.add(sid)
    return picked


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 100),
                       st.floats(0.0, 50.0, allow_nan=False), max_size=20),
       st.floats(0.0, 200.0, allow_nan=False),
       st.dictionaries(st.integers(0, 100), st.integers(0, 4), max_size=40),
       st.sampled_from([1.0, 2.0, 10.0, 10.5]),
       st.integers(0, 60),
       st.sets(st.integers(0, 100)))
def test_greedy_matches_brute_force_oracle(rates, budget, counts, w_s, budget_packets,
                                           history):
    # tie-heavy: small packet counts over w_s, as measure_per_source makes
    # rates, so the cut mostly falls inside a run of equal rates; greedy
    # over every source, and the history variant over those without history
    tied = {sid: c / w_s for sid, c in counts.items()}
    exempt = history & set(tied)
    tied_budget = budget_packets / w_s
    assert classify(identify_greedy, tied, tied_budget)[0] == brute_force_prefix(
        tied, tied_budget)
    assert classify(identify_by_history, tied, tied_budget, exempt)[0] == brute_force_prefix(
        {sid: r for sid, r in tied.items() if sid not in exempt}, tied_budget)

    attackers, legal = classify(identify_greedy, rates, budget)
    assert attackers == brute_force_prefix(rates, budget)
    # partition invariant
    assert attackers | legal == set(rates)
    assert not attackers & legal
    # feasibility
    assert sum(rates[s] for s in attackers) <= budget + 1e-9
    # maximality: the best excluded candidate would exceed the budget
    excluded = sorted(legal, key=lambda sid: (-rates[sid], sid))
    if excluded and attackers != set(rates):
        best = excluded[0]
        total = sum(rates[s] for s in attackers)
        assert total + rates[best] > budget - 1e-9


# ---------------------------------------------------------------------------
# history identification
# ---------------------------------------------------------------------------

def test_history_all_pre_active_blocks_nothing():
    attackers, legal = classify(identify_by_history, {0: 5.0, 1: 4.0}, 100.0, {0, 1})
    assert attackers == set()
    assert legal == {0, 1}


def test_history_empty_exemption_equals_greedy():
    rng = np.random.default_rng(41)
    for _ in range(50):
        rates = {int(i): float(r) for i, r in
                 enumerate(rng.uniform(0, 10, rng.integers(1, 15)))}
        budget = float(rng.uniform(0, 30))
        assert np.array_equal(
            identify_by_history(measurement_of(rates), mask_of([], len(rates)), budget),
            identify_greedy(measurement_of(rates), budget))


def test_history_exempt_sources_never_blocked():
    attackers, _ = classify(identify_by_history, {0: 50.0, 1: 4.0, 2: 3.0}, 10.0, {0})
    assert 0 not in attackers
    assert attackers == {1, 2}


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------

def test_filter_empty_blocked_is_identity():
    ids = slot_of({1: 2, 2: 5})
    out = apply_filter(mask_of([], 3), ids)
    assert out.dtype == np.int64
    assert np.array_equal(out, ids)


def test_filter_all_blocked_zeroes_aggregate():
    ids = slot_of({1: 2, 2: 5})
    out = apply_filter(mask_of({1, 2}, 3), ids)
    assert len(ids) - len(out) == 7
    assert len(out) == 0
    assert not slot_counts(out, 3).any()


def test_filter_never_touches_unblocked_sources():
    rng = np.random.default_rng(42)
    for _ in range(100):
        per_source = {int(i): int(c) for i, c in
                      enumerate(rng.integers(0, 10, 12))}
        blocked = frozenset(int(i) for i in rng.choice(12, 4, replace=False))
        out = apply_filter(mask_of(blocked, 12), slot_of(per_source))
        out_counts = slot_counts(out, 12)
        for sid, c in per_source.items():
            if sid in blocked:
                assert out_counts[sid] == 0
            else:
                assert out_counts[sid] == c
        assert len(out) == out_counts.sum()
