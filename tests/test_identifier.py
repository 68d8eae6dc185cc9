"""Identification and filtering tests: per-source measurement, the
attack-rate budget, the greedy prefix rule (with a brute-force oracle),
the history variant, and filter application."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddossim import identifier
from ddossim.identifier import _greedy_prefix, apply_filter, identify


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


def ranked(monkeypatch, counts, w_s, baseline_rate, exempt=None):
    """(rates, candidate ids, budget) that identify hands to the prefix rule."""
    seen = []

    def spy(rates, ids, budget):
        seen.append((rates, ids, budget))
        return _greedy_prefix(rates, ids, budget)

    monkeypatch.setattr(identifier, "_greedy_prefix", spy)
    identify(counts, w_s, baseline_rate, exempt)
    (got,) = seen
    return got


def measured(monkeypatch, slots, duration, n):
    """The rates of a window of slots, counted as run_once counts it: one
    bincount of the window's packet ids, then identify."""
    ids = np.concatenate([np.empty(0, dtype=np.int64), *slots])
    counts = np.bincount(ids, minlength=n)
    assert counts.sum() == sum(len(ids) for ids in slots)
    return ranked(monkeypatch, counts, duration, 0.0)[0]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_single_source_rate(monkeypatch):
    slots = [slot_of({7: 3}) for _ in range(10)]
    rates = measured(monkeypatch, slots, 10.0, 8)
    assert rates[7] == 3.0
    assert ids_of(rates) == {7}


def test_measure_rates_are_counts_over_window_length(monkeypatch):
    # the window length itself is the denominator: a window placed at a
    # fire time t has (t + w_s) - t != w_s for many t, e.g. 6.1 + 10.0
    rng = np.random.default_rng(43)
    slots = [slot_of(dict(enumerate(rng.integers(0, 9, 20).tolist()))) for _ in range(100)]
    counts = sum(slot_counts(slot, 20) for slot in slots)
    assert (6.1 + 10.0) - 6.1 != 10.0
    assert np.array_equal(measured(monkeypatch, slots, 10.0, 20), counts / 10.0)


def test_measure_absent_source_gets_zero(monkeypatch):
    slots = [slot_of({1: 5})]
    rates = measured(monkeypatch, slots, 1.0, 3)
    assert rates[2] == 0.0


# ---------------------------------------------------------------------------
# attack-rate budget
# ---------------------------------------------------------------------------

def test_estimate_attack_rate(monkeypatch):
    # the budget is the window's total rate less the baseline, clamped at 0
    cases = [({0: 2000, 1: 1000}, 2000.0, {0}),
             ({0: 600, 1: 400}, 0.0, set()),
             ({0: 300, 1: 200}, 0.0, set())]     # clamped
    for per_source, budget, suspects in cases:
        counts = counts_of(per_source, 2)
        assert ranked(monkeypatch, counts, 1.0, 1000.0)[2] == budget
        assert ids_of(identify(counts, 1.0, 1000.0)) == suspects


# ---------------------------------------------------------------------------
# greedy identification
# ---------------------------------------------------------------------------

def classify(counts, baseline_rate, *exempt):
    """(attacker ids, legal ids) from identify over one second, for packet
    counts keyed by arbitrary distinct ids; the budget is their total less
    baseline_rate.

    The ids are mapped in ascending order onto vector positions, which keeps
    the tie-break by ascending id; the legal set is the complement of the
    returned attacker mask.
    """
    ids = sorted(counts)
    slot = {sid: j for j, sid in enumerate(ids)}
    vector = counts_of({slot[sid]: c for sid, c in counts.items()}, len(ids))
    mask = identify(vector, 1.0, baseline_rate,
                    *[mask_of([slot[s] for s in e], len(ids)) for e in exempt])
    assert mask.dtype == bool and len(mask) == len(ids)
    return ({ids[j] for j in np.flatnonzero(mask)},
            {ids[j] for j in np.flatnonzero(~mask)})


def prefix_of(rates, budget, exempt=()):
    """The attacker ids of the prefix rule itself over float rates keyed by
    arbitrary distinct ids, for a budget no window total need give."""
    ids = sorted(rates)
    vector = np.array([rates[sid] for sid in ids], dtype=float)
    candidates = np.array([j for j, sid in enumerate(ids) if sid not in exempt],
                          dtype=np.int64)
    return {ids[j] for j in np.flatnonzero(_greedy_prefix(vector, candidates, budget))}


def test_greedy_prefix_example():
    attackers, legal = classify({0: 5, 1: 4, 2: 3, 3: 2, 4: 1}, 3.0)
    assert attackers == {0, 1, 2}        # 5+4+3 = 12 <= 15 - 3; +2 exceeds
    assert legal == {3, 4}


def test_greedy_zero_budget():
    attackers, legal = classify({0: 5, 1: 1}, 6.0)
    assert attackers == set()
    assert legal == {0, 1}


def test_greedy_unbounded_budget_takes_all():
    attackers, _ = classify({0: 5, 1: 1, 2: 0}, 0.0)
    assert attackers == {0, 1, 2}
    assert prefix_of({0: 5.0, 1: 1.0, 2: 0.0}, 100.0) == {0, 1, 2}


def test_greedy_tie_break_by_ascending_id():
    attackers, _ = classify({9: 2, 3: 2, 5: 2}, 2.0)
    assert attackers == {3, 5}
    # the same ids in a dense vector with silent sources between them
    assert ids_of(identify(counts_of({9: 2, 3: 2, 5: 2}, 10), 1.0, 2.0)) == {3, 5}


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
# a zero budget with every candidate silent under the exemption, which
# takes them all, and a negative tied budget drawn directly, which takes
# none, silent or not
@example(rates={0: 0.0, 1: 0.0, 2: 3.0}, budget=0.0, counts={0: 3, 1: 0, 2: 0}, w_s=1.0,
         budget_packets=0, history={0})
@example(rates={0: 0.0, 1: 0.0}, budget=0.0, counts={0: 0, 1: 0, 2: 1}, w_s=1.0,
         budget_packets=-1, history={2})
def test_greedy_matches_brute_force_oracle(rates, budget, counts, w_s, budget_packets,
                                           history):
    # tie-heavy: small packet counts over w_s, as identify makes rates, so
    # the cut mostly falls inside a run of equal rates; greedy over every
    # source, and the history variant over those without history
    tied = {sid: c / w_s for sid, c in counts.items()}
    exempt = history & set(tied)
    tied_budget = budget_packets / w_s
    assert prefix_of(tied, tied_budget) == brute_force_prefix(tied, tied_budget)
    assert prefix_of(tied, tied_budget, exempt) == brute_force_prefix(
        {sid: r for sid, r in tied.items() if sid not in exempt}, tied_budget)

    attackers = prefix_of(rates, budget)
    legal = set(rates) - attackers
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=40),
       st.sampled_from([1.0, 10.0, 10.5]),
       st.floats(0.0, 10.0, allow_nan=False),
       st.none() | st.lists(st.booleans(), min_size=40, max_size=40))
@example(counts=[3, 1, 2], w_s=1.0, baseline_rate=0.0, exempt=[True] * 40)
@example(counts=[2, 2, 1, 0], w_s=10.0, baseline_rate=0.5, exempt=None)
@example(counts=[0, 0, 0], w_s=10.5, baseline_rate=0.0, exempt=None)
def test_identify_matches_brute_force_prefix(counts, w_s, baseline_rate, exempt):
    # small counts tie often; the oracle walks the candidates' rates against
    # the window's total rate less the baseline, clamped at 0
    counts = np.array(counts, dtype=np.int64)
    mask = None if exempt is None else np.array(exempt[:len(counts)], dtype=bool)
    rates = {sid: int(c) / w_s for sid, c in enumerate(counts)
             if mask is None or not mask[sid]}
    budget = max(0.0, int(counts.sum()) / w_s - baseline_rate)
    suspects = identify(counts, w_s, baseline_rate, mask)
    assert suspects.dtype == bool and len(suspects) == len(counts)
    assert ids_of(suspects) == brute_force_prefix(rates, budget)


# ---------------------------------------------------------------------------
# history identification
# ---------------------------------------------------------------------------

def test_history_all_pre_active_blocks_nothing():
    attackers, legal = classify({0: 5, 1: 4}, 0.0, {0, 1})
    assert attackers == set()
    assert legal == {0, 1}


def test_history_empty_exemption_equals_greedy():
    rng = np.random.default_rng(41)
    for _ in range(50):
        counts = rng.integers(0, 10, rng.integers(1, 15))
        baseline_rate = float(rng.uniform(0, 30))
        assert np.array_equal(
            identify(counts, 1.0, baseline_rate, mask_of([], len(counts))),
            identify(counts, 1.0, baseline_rate))


def test_history_exempt_sources_never_blocked():
    attackers, _ = classify({0: 50, 1: 4, 2: 3}, 47.0, {0})
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
