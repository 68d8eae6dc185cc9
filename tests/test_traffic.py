"""Traffic generator tests: population layout, config validation, Poisson
moments, per-source attribution, activity windows, determinism."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddossim.harness import run_once
from ddossim.presets import get_preset
from ddossim.traffic import (ScenarioConfig, TrafficStream, equal_rate_index, slots_in,
                             split_tables)
from reference import CountVectorSplit


def large_config(**overrides) -> ScenarioConfig:
    base = dict(n_legal=10_000, n_attack=5_000, lambda_n=0.1, lambda_a=0.4,
                mu=1500.0, l1=40, l2=30_000, t_star=100.0, attack_end=200.0,
                total_duration=300.0, slot_dt=0.1)
    base.update(overrides)
    return ScenarioConfig(**base)


def small_config(**overrides) -> ScenarioConfig:
    base = dict(n_legal=50, n_attack=50, lambda_n=0.1, lambda_a=0.2,
                mu=8.0, l1=40, l2=160, t_star=100.0, attack_end=200.0,
                total_duration=300.0, slot_dt=0.1)
    base.update(overrides)
    return ScenarioConfig(**base)


def stream_of(cfg, seed=0, split_seed=None):
    split_seed = seed + 1 if split_seed is None else split_seed
    return TrafficStream(cfg, np.random.default_rng(seed),
                         np.random.default_rng(split_seed))


def legal_only(cfg, seed=0):
    """The same-seed stream without attackers.

    Legal draws come first from the aggregate generator, so this stream's
    totals are the legal share of every slot of the full stream.
    """
    return stream_of(dataclasses.replace(cfg, n_attack=0), seed)


def counts_of(ids, n):
    """Packet counts by source id of a slot's packet ids, as a length-n vector."""
    return np.bincount(ids, minlength=n)


def active_ids(stream, slots):
    """Ids of the sources that sent at least one packet over the slots."""
    sent = np.zeros(stream.n_sources, dtype=bool)
    for i in slots:
        sent |= counts_of(stream.slot(i), stream.n_sources) > 0
    return sent


# ---------------------------------------------------------------------------
# population layout
# ---------------------------------------------------------------------------

def test_build_sources_large_population():
    cfg = large_config()
    stream, legal_stream = stream_of(cfg), legal_only(cfg)
    assert stream.n_sources == 15_000
    legal, attack = slice(0, 10_000), slice(10_000, 15_000)
    # legal sources are active over the whole run, attackers over [100, 200)
    for i in (0, 999, 1000, 1999, 2000, 2999):
        ids = stream.slot(i)
        per_source = counts_of(ids, 15_000)
        legal_aggregate = legal_stream.totals[i]
        attack_aggregate = len(ids) - legal_aggregate
        assert per_source[legal].sum() == legal_aggregate > 0
        assert per_source[attack].sum() == attack_aggregate
        assert (attack_aggregate > 0) == (1000 <= i < 2000)


def test_build_sources_small_population():
    cfg = small_config()
    stream = stream_of(cfg)
    assert stream.n_sources == 100
    # every legal source sends before the attack; during it every source
    # of both kinds does, and legal traffic lands on ids 0..49 only
    pre = active_ids(stream, range(0, 1000))
    assert pre[:50].all() and not pre[50:].any()
    during = active_ids(stream, range(1000, 2000))
    assert during.all()


def test_build_sources_no_attackers():
    cfg = small_config(n_attack=0)
    stream = stream_of(cfg)
    assert stream.n_sources == 50
    # every packet is the legal share of the same-seed stream with attackers
    full = stream_of(small_config())
    assert all(stream.totals[i] == counts_of(full.slot(i), 100)[:50].sum()
               for i in range(cfg.n_slots))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(lambda_n=0.0).validate()
    with pytest.raises(ValueError):
        small_config(mu=-1.0).validate()
    with pytest.raises(ValueError):
        small_config(t_star=250.0, attack_end=200.0).validate()
    with pytest.raises(ValueError):
        small_config(slot_dt=0.0).validate()


@pytest.mark.parametrize("field", ["lambda_n", "lambda_a", "mu", "t_star", "attack_end",
                                   "total_duration", "slot_dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        small_config(**{field: value}).validate()


def test_config_derived_values():
    cfg = small_config()
    assert cfg.n_slots == 3000
    assert cfg.slots_per_second == 10
    assert slots_in(cfg.t_star, cfg.slot_dt, "t_star") == 1000
    fine = small_config(slot_dt=0.002, t_star=5.0, attack_end=6.0, total_duration=6.0)
    fine.validate()
    assert (fine.slots_per_second, fine.n_slots) == (500, 3000)


def test_slot_longer_than_a_second_rejected():
    # one-second buckets cannot be built from 2 s slots, so the statistical
    # method would never run
    with pytest.raises(ValueError, match="whole number of slots"):
        small_config(slot_dt=2.0).validate()
    sim2 = get_preset("sim2")
    with pytest.raises(ValueError, match="whole number of slots"):
        run_once(dataclasses.replace(sim2.scenario, slot_dt=2.0), sim2.detector,
                 sim2.id_method, seed=0)


def test_slot_not_tiling_a_second_rejected():
    # three 0.3 s slots make a 0.9 s "one-second" bucket
    with pytest.raises(ValueError, match="whole number of slots"):
        small_config(slot_dt=0.3).validate()


def test_times_off_the_slot_grid_rejected():
    # an onset between slots would skew every latency against it
    with pytest.raises(ValueError, match="t_star=100.05 is not on the grid"):
        small_config(t_star=100.05).validate()
    with pytest.raises(ValueError, match="attack_end"):
        small_config(attack_end=200.01).validate()
    with pytest.raises(ValueError, match="total_duration"):
        small_config(total_duration=300.04).validate()
    small_config(slot_dt=0.5, t_star=100.5, attack_end=200.0).validate()


def test_slots_in_rejects_spans_off_the_grid():
    assert slots_in(45.0, 0.1, "w_l") == 450
    assert slots_in(10.5, 0.1, "w_s") == 105
    assert slots_in(1.0, 0.002, "one second") == 500
    with pytest.raises(ValueError, match="w_l=45.05 is not on the grid"):
        slots_in(45.05, 0.1, "w_l")
    # a span must hold at least one slot
    with pytest.raises(ValueError, match="w_s=0.0 is not on the grid"):
        slots_in(0.0, 0.1, "w_s")
    with pytest.raises(ValueError, match="whole number of slots"):
        slots_in(1.0, 2.0, "one second")


def test_scenario_config_frozen():
    scenario = get_preset("sim2").scenario
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.n_attack = 0
    assert get_preset("sim2").scenario.n_attack == 50


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_stream_bit_exact_determinism():
    cfg = small_config()

    def trace(seed):
        ss = np.random.SeedSequence(seed)
        r1, r2 = (np.random.default_rng(s) for s in ss.spawn(2))
        stream = TrafficStream(cfg, r1, r2)
        return stream.totals, [stream.slot(i) for i in range(cfg.n_slots)]

    (totals_a, a), (totals_b, b) = trace(99), trace(99)
    assert np.array_equal(totals_a, totals_b)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# Poisson moments
# ---------------------------------------------------------------------------

def test_pre_attack_mean_within_three_sigma():
    cfg = small_config(total_duration=10_000.0, t_star=9_000.0,
                       attack_end=9_001.0)
    stream = stream_of(cfg, 3)
    counts = stream.totals[:90_000]
    lam = cfg.n_legal * cfg.lambda_n * cfg.slot_dt
    m = len(counts)
    assert abs(np.mean(counts) - lam) <= 3 * math.sqrt(lam / m)


def test_attack_window_mean():
    cfg = small_config()
    stream = stream_of(cfg, 4)
    lo, hi = int(100 / cfg.slot_dt), int(200 / cfg.slot_dt)
    counts = stream.totals[lo:hi]
    lam = (cfg.n_legal * cfg.lambda_n + cfg.n_attack * cfg.lambda_a) * cfg.slot_dt
    assert abs(np.mean(counts) - lam) <= 3 * math.sqrt(lam / len(counts))


# ---------------------------------------------------------------------------
# attribution and activity windows
# ---------------------------------------------------------------------------

def test_per_source_counts_sum_to_aggregate():
    cfg = small_config()
    stream, legal_stream = stream_of(cfg, 5, 6), legal_only(cfg, 5)
    for i in range(0, cfg.n_slots, 13):
        ids = stream.slot(i)
        assert ids.dtype == np.int64
        per_source = counts_of(ids, cfg.n_legal + cfg.n_attack)
        assert len(per_source) == cfg.n_legal + cfg.n_attack
        assert per_source.sum() == len(ids) == stream.totals[i]
        assert per_source[:cfg.n_legal].sum() == legal_stream.totals[i]


def test_no_attack_packets_outside_window():
    cfg = small_config()
    attackers = slice(cfg.n_legal, cfg.n_legal + cfg.n_attack)
    stream, legal_stream = stream_of(cfg, 7, 8), legal_only(cfg, 7)
    for i in range(cfg.n_slots):
        t = i * cfg.slot_dt
        ids = stream.slot(i)
        if not (cfg.t_star <= t < cfg.attack_end):
            assert len(ids) == legal_stream.totals[i]
            assert not counts_of(ids, cfg.n_legal + cfg.n_attack)[attackers].any()


def test_split_proportions_follow_rates():
    # four legal sources at equal rates should each get a quarter of the counts
    cfg = small_config(n_legal=4, n_attack=0, lambda_n=1.0, total_duration=500.0)
    stream = stream_of(cfg, 9)
    total = np.zeros(4, dtype=np.int64)
    for i in range(cfg.n_slots):
        total += counts_of(stream.slot(i), 4)
    n = int(total.sum())
    # binomial 3-sigma band around 0.25 for each source
    assert np.all(np.abs(total / n - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / n))


def table_keys(cum_probs, rng):
    """Uniform keys, plus every entry of a split table with its two float
    neighbours, the ones in [0, 1)."""
    keys = np.concatenate((rng.random(2000), [0.0], cum_probs,
                           np.nextafter(cum_probs, -np.inf), np.nextafter(cum_probs, np.inf)))
    return keys[(keys >= 0.0) & (keys < 1.0)]


def preset_classes(name):
    s = get_preset(name).scenario
    return [(s.n_legal, s.lambda_n), (s.n_attack, s.lambda_a)]


# sim1 and case3: 10 000 legal at 0.1 pkt/s, 5 000 attackers at 0.4 and 1.0
@example(preset_classes("sim1"), 0)
@example(preset_classes("case3"), 0)
@example(preset_classes("sim2"), 0)
@example(preset_classes("case1"), 0)
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(1, 3), st.integers(1, 20_000),
                                    st.sampled_from([5_000, 10_000])),
                          st.one_of(st.sampled_from([0.1, 0.2, 0.4, 1.0]),
                                    st.floats(1e-3, 1e3))),
                min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_equal_rate_index_matches_searchsorted(classes, seed):
    # against searchsorted(side="left") on each class's own split table: one
    # class at a time with scalar size and first id, and all classes at once
    # with per-key ones, keys shuffled across classes
    rng = np.random.default_rng(seed)
    cum_probs, below = split_tables(classes)
    keys, size, first, want = [], [], [], []
    start = 0
    for n, _ in classes:
        table = cum_probs[start:start + n]
        k = table_keys(table, rng)
        expected = start + table.searchsorted(k, side="left")
        got = equal_rate_index(k, float(n), start, cum_probs, below)
        assert np.array_equal(got, expected), (n, k[got != expected])
        keys.append(k)
        size.append(np.full(len(k), float(n)))
        first.append(np.full(len(k), start))
        want.append(expected)
        start += n
    order = rng.permutation(sum(len(k) for k in keys))
    keys, size, first, want = (np.concatenate(a)[order] for a in (keys, size, first, want))
    assert np.array_equal(equal_rate_index(keys, size, first, cum_probs, below), want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 700), max_size=12), st.integers(0, 2**32 - 1))
def test_random_in_chunks_equals_one_draw(chunks, seed):
    # a block draws its keys at once where one draw per slot and class
    # drew them in pieces; the split stream is unchanged only while numpy's
    # Generator.random consumes the bit stream the same way for both
    whole, pieces = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = [pieces.random(k) for k in chunks]
    assert np.array_equal(whole.random(sum(chunks)),
                          np.concatenate([np.empty(0), *drawn]))
    assert whole.bit_generator.state == pieces.bit_generator.state


def queue_matches_reference(stream, split_rng, ref_split_rng):
    """The stream's queued uniforms are the reference split generator's next
    draws, and drawing them leaves a copy of it in the stream's generator
    state: the stream drew exactly what the reference consumed, plus its
    queue, and nothing else."""
    queued = stream._queued()
    ahead = copy.deepcopy(ref_split_rng)
    return (np.array_equal(queued, ahead.random(len(queued)))
            and split_rng.bit_generator.state == ahead.bit_generator.state)


# slots asked for in order, as run_once asks for episode slots: contiguous
# runs across block ends and across the onset at slot 1000, an episode end
# mid-block (1010) with a miss further into the same block (1020), every
# third slot skipped, a re-entry after a gap longer than a block, and the
# run's last block, which ends at slot 2999
ASKED = [*range(900, 1011), *range(1020, 1040),
         *(i for i in range(1100, 1300) if i % 3), *range(1500, 1530),
         *range(1700, 1800), *range(2930, 3000)]


@pytest.mark.parametrize("cfg", [large_config(), small_config()],
                         ids=["10000-5000", "50-50"])
def test_split_matches_count_vector_reference(cfg):
    n = cfg.n_legal + cfg.n_attack
    split_rng, ref_split_rng = np.random.default_rng(12), np.random.default_rng(12)
    stream = TrafficStream(cfg, np.random.default_rng(11), split_rng)
    ref = CountVectorSplit(cfg, np.random.default_rng(11), ref_split_rng)
    asked = set(ASKED)
    # a slot nobody asks for consumes nothing of the split stream
    for i in range(ASKED[0], cfg.n_slots):
        if i in asked:
            ids = stream.slot(i)
            aggregate, per_source = ref.slot(i)
            assert len(ids) == stream.totals[i] == aggregate
            assert np.array_equal(counts_of(ids, n), per_source)
        assert queue_matches_reference(stream, split_rng, ref_split_rng), i
    # past the run there is no slot, and nothing is split or drawn
    with pytest.raises(ValueError, match="no slot 3000"):
        stream.slot(cfg.n_slots)
    assert queue_matches_reference(stream, split_rng, ref_split_rng)


def test_stream_slot_inactive_population():
    cfg = small_config()
    split_rng, untouched = np.random.default_rng(1), np.random.default_rng(1)
    stream = TrafficStream(cfg, np.random.default_rng(0), split_rng)
    # a slot beyond every activity window, and one before the run
    for i in (cfg.n_slots, cfg.n_slots + 10, -1):
        with pytest.raises(ValueError, match=f"no slot {i} "):
            stream.slot(i)
    assert len(stream._queued()) == 0
    assert split_rng.bit_generator.state == untouched.bit_generator.state


@st.composite
def episode_asks(draw):
    """Slots asked for as run_once asks for them: ranges, each cut short at
    some slot or not, and runs of single slots, each after a gap (0 to
    resume where the last ask stopped, mid-block after single slots)."""
    return draw(st.lists(st.tuples(st.integers(min_value=0, max_value=80), st.booleans(),
                                   st.integers(min_value=1, max_value=150),
                                   st.integers(min_value=0, max_value=149)),
                         min_size=1, max_size=8))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=900, max_value=2950), episode_asks(), st.integers(0, 2**32 - 1))
def test_slot_ranges_match_slot_by_slot(first, asks, seed):
    cfg = small_config(n_legal=300, lambda_a=1.0)
    n = cfg.n_legal + cfg.n_attack
    split_rng, ref_split_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stream = TrafficStream(cfg, np.random.default_rng(11), split_rng)
    # the same stream asked for one slot at a time, and the reference split
    twin = TrafficStream(cfg, np.random.default_rng(11), np.random.default_rng(seed))
    ref = CountVectorSplit(cfg, np.random.default_rng(11), ref_split_rng)
    at = first
    for gap, ranged, length, cut in asks:
        lo = at + gap
        hi = min(lo + length, cfg.n_slots)
        if lo >= hi:
            break
        if ranged:
            ids, bounds = stream.slots(lo, hi)
            assert bounds[0] == 0 and bounds[-1] == len(ids)
            assert np.array_equal(np.diff(bounds), stream.totals[lo:hi])
            at = min(lo + cut + 1, hi)      # the stretch stops after slot at - 1
            if at < hi:
                stream.rewind(at)
            got = [ids[bounds[j]:bounds[j + 1]] for j in range(at - lo)]
        else:
            at = hi
            got = [stream.slot(i) for i in range(lo, hi)]
        for i, slot_ids in zip(range(lo, at), got):
            assert np.array_equal(slot_ids, twin.slot(i))
            assert np.array_equal(counts_of(slot_ids, n), ref.slot(i)[1])
        # the uniforms of the slots after the cut are queued, not consumed
        assert queue_matches_reference(stream, split_rng, ref_split_rng), (lo, at)


def test_slot_range_bounds_checked():
    stream = stream_of(small_config())
    with pytest.raises(ValueError):
        stream.slots(5, 5)
    with pytest.raises(ValueError):
        stream.slots(2990, 3001)
    stream.slots(10, 20)
    with pytest.raises(ValueError):
        stream.rewind(21)
