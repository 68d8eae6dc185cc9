"""Identification tests: per-source window counts, the attack-rate budget,
the greedy prefix rule on integer counts (against a brute-force walk and
the float rule it ranks by), the history variant, and the counts of a
window under the filter, as the traffic stream's split counts them."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddossim.identifier import identify
from ddossim.traffic import ScenarioConfig, TrafficStream
from reference import reference_identify


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


def window_counts(slots, n):
    """A window of slots counted as run_once counts it for identify: one
    bincount of the window's packet ids."""
    ids = np.concatenate([np.empty(0, dtype=np.int64), *slots])
    counts = np.bincount(ids, minlength=n)
    assert counts.dtype == np.int64 and counts.sum() == len(ids)
    return counts


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


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_single_source_rate():
    counts = window_counts([slot_of({7: 3}) for _ in range(10)], 8)
    assert counts[7] == 30
    assert ids_of(counts) == {7}
    # over 10 s its rate is exactly 3.0: within a budget of 3.0, which
    # then takes the silent sources too, and past one a hair below it
    assert ids_of(identify(counts, 10.0, 0.0)) == set(range(8))
    assert ids_of(identify(counts, 10.0, 1e-9)) == set()


def test_measure_rates_are_counts_over_window_length():
    # the window length itself is the denominator: a window placed at a
    # fire time t has (t + w_s) - t != w_s for many t, e.g. 6.1 + 10.0
    rng = np.random.default_rng(43)
    slots = [slot_of(dict(enumerate(rng.integers(0, 9, 20).tolist()))) for _ in range(100)]
    counts = window_counts(slots, 20)
    assert (6.1 + 10.0) - 6.1 != 10.0
    rates = {sid: int(c) / 10.0 for sid, c in enumerate(counts)}
    total = int(counts.sum()) / 10.0
    for baseline_rate in rng.uniform(0.0, total, 50):
        assert ids_of(identify(counts, 10.0, baseline_rate)) == brute_force_prefix(
            rates, total - baseline_rate)


def test_measure_absent_source_gets_zero():
    counts = window_counts([slot_of({1: 5})], 3)
    assert counts[2] == 0


# ---------------------------------------------------------------------------
# attack-rate budget
# ---------------------------------------------------------------------------

def test_estimate_attack_rate():
    cases = [
        # the budget is the window's total rate less the baseline: 2000
        # takes the first source, and 1999.5 not even that
        ({0: 2000, 1: 1000}, 1.0, 1000.0, {0}),
        ({0: 2000, 1: 1000}, 1.0, 1000.5, set()),
        # over 10 s: 3.0 - 1.0 = 2.0, the first source's rate
        ({0: 20, 1: 10}, 10.0, 1.0, {0}),
        # a zero budget, and one clamped at 0, take no source that sent...
        ({0: 600, 1: 400}, 1.0, 1000.0, set()),
        ({0: 300, 1: 200}, 1.0, 1000.0, set()),
        # ...and every source when all are silent
        ({0: 0, 1: 0}, 1.0, 1000.0, {0, 1}),
    ]
    for per_source, w_s, baseline_rate, suspects in cases:
        assert ids_of(identify(counts_of(per_source, 2), w_s, baseline_rate)) == suspects


# ---------------------------------------------------------------------------
# greedy identification
# ---------------------------------------------------------------------------

def classify(counts, baseline_rate, exempt=None, w_s=1.0):
    """(attacker ids, legal ids) from identify over w_s seconds, for packet
    counts keyed by arbitrary distinct ids; the budget is their total rate
    less baseline_rate.

    The ids are mapped in ascending order onto vector positions, which keeps
    the tie-break by ascending id; the legal set is the complement of the
    returned attacker mask.
    """
    ids = sorted(counts)
    slot = {sid: j for j, sid in enumerate(ids)}
    vector = counts_of({slot[sid]: c for sid, c in counts.items()}, len(ids))
    mask = identify(vector, w_s, baseline_rate,
                    None if exempt is None else mask_of([slot[s] for s in exempt], len(ids)))
    assert mask.dtype == bool and len(mask) == len(ids)
    return ({ids[j] for j in np.flatnonzero(mask)},
            {ids[j] for j in np.flatnonzero(~mask)})


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
    # an exempt source's packets count in the budget, so the candidates'
    # sum, 6, sits far inside it
    attackers, _ = classify({0: 5, 1: 1, 2: 0, 3: 100}, 0.0, {3})
    assert attackers == {0, 1, 2}
    # the running sum is first taken over the budget * w_s + 2 candidates
    # it can reach; here both that sent and the two silent ones after them
    # fit, so the silent ones past that prefix fit too
    attackers, _ = classify({0: 1, 1: 1, **dict.fromkeys(range(2, 8), 0)}, 0.0)
    assert attackers == set(range(8))


def test_greedy_tie_break_by_ascending_id():
    attackers, _ = classify({9: 2, 3: 2, 5: 2}, 2.0)
    assert attackers == {3, 5}
    # the same ids in a dense vector with silent sources between them
    assert ids_of(identify(counts_of({9: 2, 3: 2, 5: 2}, 10), 1.0, 2.0)) == {3, 5}


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 100), st.integers(0, 500), max_size=20),
       st.floats(0.0, 200.0, allow_nan=False),
       st.dictionaries(st.integers(0, 100), st.integers(0, 4), max_size=40),
       st.sampled_from([1.0, 2.0, 10.0, 10.5]),
       st.integers(0, 60),
       st.sets(st.integers(0, 100)))
# a zero budget with every candidate silent under the exemption, which
# takes them all, and one with a candidate that sent, which takes none
@example(counts={0: 0, 1: 0, 2: 3}, baseline_rate=3.0, tied={0: 3, 1: 0, 2: 0}, w_s=1.0,
         budget_packets=0, history={0})
@example(counts={0: 0, 1: 1}, baseline_rate=1.0, tied={0: 0, 1: 0, 2: 1}, w_s=1.0,
         budget_packets=0, history={0})
def test_greedy_matches_brute_force_oracle(counts, baseline_rate, tied, w_s, budget_packets,
                                           history):
    # tie-heavy: small packet counts, with a baseline that leaves a budget
    # of about budget_packets over w_s, so the cut mostly falls inside a
    # run of equal rates; greedy over every source, and the history
    # variant over those without history
    tied_baseline = (sum(tied.values()) - budget_packets) / w_s
    tied_budget = max(0.0, sum(tied.values()) / w_s - tied_baseline)
    tied_rates = {sid: c / w_s for sid, c in tied.items()}
    exempt = history & set(tied)
    assert classify(tied, tied_baseline, w_s=w_s)[0] == brute_force_prefix(
        tied_rates, tied_budget)
    assert classify(tied, tied_baseline, exempt, w_s=w_s)[0] == brute_force_prefix(
        {sid: r for sid, r in tied_rates.items() if sid not in exempt}, tied_budget)

    rates = {sid: c / w_s for sid, c in counts.items()}
    budget = max(0.0, sum(counts.values()) / w_s - baseline_rate)
    attackers, legal = classify(counts, baseline_rate, w_s=w_s)
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


# identify ranks ints where the float rule ranks counts / w_s, so each
# w_s is one that rounds those quotients: 0.1 and 1/3 are inexact, 45
# divides few counts evenly
FLOAT_RULE_CASES = dict(
    counts=st.lists(st.integers(0, 4), max_size=60),
    scale=st.sampled_from([1, 7, 2**33]),
    w_s=st.sampled_from([0.1, 1 / 3, 1.0, 10.0, 45.0]),
    budget_packets=st.integers(-5, 80),
    exempt=st.none() | st.lists(st.booleans(), min_size=60, max_size=60),
)


def with_float_rule_examples(test):
    # a budget on a run of tied counts, one on a rate sum that 0.1 rounds,
    # every candidate exempt, silent candidates under a zero budget, and
    # silent candidates past the prefix the running sum first covers
    for case in (dict(counts=[2, 2, 2, 1, 1], scale=1, w_s=0.1, budget_packets=5,
                      exempt=None),
                 dict(counts=[3, 3, 3, 3], scale=1, w_s=0.1, budget_packets=9, exempt=None),
                 dict(counts=[4, 1], scale=1, w_s=45.0, budget_packets=3, exempt=[True] * 60),
                 dict(counts=[4, 0, 0, 2], scale=1, w_s=1 / 3, budget_packets=0,
                      exempt=[True] + [False] * 2 + [True] * 57),
                 # every candidate that sent fits, and silent ones lie past
                 # the budget * w_s + 2 that the running sum first covers
                 dict(counts=[1, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0], scale=1, w_s=0.1,
                      budget_packets=4, exempt=None)):
        test = example(**case)(test)
    return test


def assert_float_rule(counts, scale, w_s, budget_packets, exempt):
    counts = np.array(counts, dtype=np.int64) * scale
    mask = None if exempt is None else np.array(exempt[:len(counts)], dtype=bool)
    baseline_rate = (int(counts.sum()) - budget_packets * scale) / w_s
    assert np.array_equal(identify(counts, w_s, baseline_rate, mask),
                          reference_identify(counts, w_s, baseline_rate, mask))


@with_float_rule_examples
@settings(max_examples=300, deadline=None)
@given(**FLOAT_RULE_CASES)
def test_identify_matches_float_rule(counts, scale, w_s, budget_packets, exempt):
    # integer ranking picks the very suspects of the float prefix rule over
    # counts / w_s, with and without an exemption
    assert_float_rule(counts, scale, w_s, budget_packets, exempt)


@pytest.mark.slow
@with_float_rule_examples
@settings(max_examples=5000, deadline=None)
@given(**FLOAT_RULE_CASES)
def test_identify_matches_float_rule_many(counts, scale, w_s, budget_packets, exempt):
    assert_float_rule(counts, scale, w_s, budget_packets, exempt)


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

# twelve sources whose attackers send over slots 100-199
TWELVE = ScenarioConfig(n_legal=8, n_attack=4, lambda_n=2.0, lambda_a=5.0, mu=100.0, l1=40,
                        l2=160, t_star=10.0, attack_end=20.0, total_duration=30.0)


def counted_window(blocked, seed=0):
    """A copy of the packet ids of a window of slots 100-199 of a stream of
    TWELVE, and its counts by source as the stream's split counts them for
    identify under the blocked mask."""
    stream = TrafficStream(TWELVE, np.random.default_rng(seed), np.random.default_rng(seed + 1))
    split, got = stream._split, []

    def copied(lo, hi):
        ids, bounds = split(lo, hi)
        got.append(ids.copy())
        return ids, bounds

    stream._split = copied
    _, counts = stream.unblocked(100, 200, blocked, 100)
    return got[0], counts


def test_filter_empty_blocked_is_identity():
    ids, out = counted_window(mask_of([], 12))
    assert out.dtype == np.int64
    assert np.array_equal(out, np.bincount(ids, minlength=12))
    assert np.array_equal(out, counted_window(None)[1])


def test_filter_all_blocked_zeroes_aggregate():
    ids, out = counted_window(mask_of(range(12), 12))
    assert len(ids) > 0
    assert out.sum() == 0
    assert not out.any()


def test_filter_never_touches_unblocked_sources():
    rng = np.random.default_rng(42)
    for seed in range(100):
        blocked = frozenset(int(i) for i in rng.choice(12, 4, replace=False))
        ids, out = counted_window(mask_of(blocked, 12), seed)
        per_source = np.bincount(ids, minlength=12)
        for sid, c in enumerate(per_source):
            if sid in blocked:
                assert out[sid] == 0
            else:
                assert out[sid] == c
        # the same vector as a bincount of the ids the filter lets through
        kept = ids[~mask_of(blocked, 12)[ids]]
        assert np.array_equal(out, np.bincount(kept, minlength=12))
