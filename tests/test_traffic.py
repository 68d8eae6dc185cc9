"""Traffic generator tests: population layout, config validation, Poisson
moments, per-source attribution, activity windows, determinism, and the
split's uniformity and the slot totals' dispersion against scipy."""

import copy
import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddossim import buffer, traffic
from ddossim.buffer import BufferState, run_ahead
from ddossim.harness import run_once
from ddossim.presets import PRESETS, get_preset
from ddossim.traffic import ScenarioConfig, TrafficStream, slots_in
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


def split_copy(stream, lo, hi):
    """Ask for slots lo..hi-1 and split them: a copy of their packet source
    ids, end to end, and each slot's bounds in them, slot lo + j being
    ids[bounds[j]:bounds[j + 1]].  The unsplit ask checks the range and
    takes back what the last split handed out from lo on, as a split ask
    does before it splits."""
    stream.unblocked(lo, hi, None)
    ids, bounds = stream._split(lo, hi)
    return ids.copy(), bounds


def one_slot(stream, i):
    """Slot i's packet source ids: split_copy() over that slot alone."""
    return split_copy(stream, i, i + 1)[0]


def counts_of(ids, n):
    """Packet counts by source id of a slot's packet ids, as a length-n vector."""
    return np.bincount(ids, minlength=n)


def active_ids(stream, slots):
    """Ids of the sources that sent at least one packet over the slots."""
    sent = np.zeros(stream.n_sources, dtype=bool)
    for i in slots:
        sent |= counts_of(one_slot(stream, i), stream.n_sources) > 0
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
        ids = one_slot(stream, i)
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
    assert all(stream.totals[i] == counts_of(one_slot(full, i), 100)[:50].sum()
               for i in range(cfg.n_slots))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(lambda_n=0.0)
    with pytest.raises(ValueError):
        small_config(mu=-1.0)
    with pytest.raises(ValueError):
        small_config(t_star=250.0, attack_end=200.0)
    with pytest.raises(ValueError):
        small_config(slot_dt=0.0)


@pytest.mark.parametrize("field", ["lambda_n", "lambda_a", "mu", "t_star", "attack_end",
                                   "total_duration", "slot_dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32(math.nan),
                                   np.float32(math.inf),
                                   pytest.param(10 ** 400, id="10**400"),
                                   pytest.param(-10 ** 400, id="-10**400")])
def test_config_rejects_non_finite_numbers(field, value):
    # an int past the float range has no finite float value: it would pass
    # the range checks and overflow in the first one that mixes it with a
    # float
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        small_config(**{field: value})


@pytest.mark.parametrize("field", ["n_legal", "n_attack", "l1", "l2"])
@pytest.mark.parametrize("value", [50.0, 1.5, np.float64(50.0), True])
def test_config_rejects_non_integers(field, value):
    # a float count, or a bool, which is an Integral, would pass every
    # range check and fail deep in numpy
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        small_config(**{field: value})


@pytest.mark.parametrize("field", ["lambda_n", "lambda_a", "mu", "t_star", "attack_end",
                                   "total_duration", "slot_dt"])
@pytest.mark.parametrize("value", ["8", None, True])
def test_config_rejects_values_that_are_not_real_numbers(field, value):
    # a string or None would fail a range check with a TypeError that
    # names no field, and a bool would run as 0.0 or 1.0
    with pytest.raises(ValueError, match=f"{field} must be a real number, got {value!r}"):
        small_config(**{field: value})


def test_config_accepts_ints_and_numpy_floats_as_real_numbers():
    assert small_config(mu=8, lambda_n=np.float64(0.1)) == small_config()


def test_config_rejects_a_service_past_int64():
    # the buffer serves p/q = mu * slot_dt as written, and its capacity
    # sums reach k * p at the run's last slot k: 3000 * p and q must stay
    # below SERVICE_SUM_LIMIT; at mu = 1e20 one slot's capacity alone passes it
    with pytest.raises(ValueError, match="mu=1e\\+20 at slot_dt=0.1 .* int64"):
        small_config(mu=1e20)
    most = (buffer.SERVICE_SUM_LIMIT - 1) // 3000      # the largest p over 3000 slots
    cfg = small_config(mu=float(10 * most))
    assert cfg.service_per_slot == most
    with pytest.raises(ValueError, match="int64"):
        small_config(mu=float(10 * (most + 1)))
    # the largest decimal q at slot_dt = 0.1, 4e18, and the next, 5e18
    assert small_config(mu=2.5e-18).service_per_slot == Fraction(1, 4 * 10 ** 18)
    with pytest.raises(ValueError, match="mu=2e-18 .* too precise"):
        small_config(mu=2e-18)
    # and the whole run in one stretch at the largest p does not wrap
    buf = BufferState(cfg.l1, cfg.l2, cfg.service_per_slot)
    stretch = run_ahead(buf, stream_of(cfg).totals)
    assert np.array_equal(stretch.admitted, stream_of(cfg).totals)
    assert not stretch.backlog.any()


def test_config_reads_mu_as_written():
    # each of mu and slot_dt is read from its shortest repr, so the rate is
    # the decimal one wrote, not the float product
    assert small_config(mu=4.5).service_per_slot == Fraction(9, 20)
    assert small_config(mu=2.9, slot_dt=0.5).service_per_slot == Fraction(29, 20)
    assert small_config(mu=np.float64(1.17), slot_dt=0.25).service_per_slot == Fraction(117, 400)
    assert small_config(mu=8).service_per_slot == Fraction(4, 5)
    # the float sum 0.1 + 0.2 is 0.30000000000000004, a numerator that
    # 3000 slots take past int64
    with pytest.raises(ValueError, match=re.escape("mu=0.30000000000000004 at slot_dt=0.1")):
        small_config(mu=0.1 + 0.2)


def test_config_rejects_traffic_past_the_packet_limit():
    # sim2's classes at lambda_n = 1e7 expect 1.5e11 packets, which the
    # split could not hold; the error names the fields
    with pytest.raises(ValueError, match=re.escape("n_legal=50 at lambda_n=10000000.0")):
        small_config(lambda_n=1e7)
    # each class counts over its own active seconds: 1500 legal packets
    # over 300 s, and 50 attackers over the 100 s of [t_star, attack_end)
    most = (traffic.RUN_PACKETS_LIMIT - 1500) / (50 * 100.0)
    with pytest.raises(ValueError, match="lambda_a=.* over \\[t_star, attack_end\\)"):
        small_config(lambda_a=most * 1.000001)
    small_config(lambda_a=most * 0.999999)
    # and at the largest preset, case3, which expects 800 000, a run is
    # far inside the bound
    expected = [p.scenario.n_legal * p.scenario.lambda_n * p.scenario.total_duration
                + p.scenario.n_attack * p.scenario.lambda_a
                * (p.scenario.attack_end - p.scenario.t_star) for p in PRESETS.values()]
    assert max(expected) == 800_000 < traffic.RUN_PACKETS_LIMIT / 100


def test_config_rejects_runs_past_the_slot_limit():
    # sim2 at 1e-3 pkt/s a source over 1e9 s expects 5e7 packets, inside
    # RUN_PACKETS_LIMIT, but no stream could hold its 10**10 slots
    slow = dict(lambda_n=1e-3, lambda_a=1e-3, mu=1.0)
    with pytest.raises(ValueError, match=re.escape(
            "total_duration=1000000000.0 at slot_dt=0.1 is 10000000000 slots")):
        small_config(total_duration=1e9, **slow)
    # or a slot of a microsecond: 3e8 slots over sim2's 300 s
    with pytest.raises(ValueError, match="slot_dt=1e-06 .* more than the 1e\\+06 a run may hold"):
        small_config(slot_dt=1e-6, **slow)
    # the bound itself is a run, one slot more is not
    small_config(total_duration=traffic.RUN_SLOTS_LIMIT * 0.1, **slow)
    with pytest.raises(ValueError, match="is 1000001 slots"):
        small_config(total_duration=(traffic.RUN_SLOTS_LIMIT + 1) * 0.1, **slow)
    # the presets, and the CI's longest run at 6000 slots, are far inside it
    assert max(p.scenario.n_slots for p in PRESETS.values()) == 3000
    assert 6000 < traffic.RUN_SLOTS_LIMIT / 100


def test_config_rejects_sources_past_the_source_limit():
    # sim2's legal class at 1e-9 pkt/s a source expects 3000 packets over
    # 300 s at 10**10 sources, inside RUN_PACKETS_LIMIT, but each
    # classification would build arrays of that length
    with pytest.raises(ValueError, match=re.escape(
            "n_legal=10000000000 and n_attack=50 are 10000000050 sources")):
        small_config(n_legal=10 ** 10, lambda_n=1e-9)
    # the bound itself is a run, one source more is not, in either class
    most = traffic.RUN_SOURCES_LIMIT
    small_config(n_legal=most - 50, lambda_n=1e-3)
    for over in (dict(n_legal=most - 49), dict(n_attack=51)):
        with pytest.raises(ValueError, match=f"are {most + 1} sources, more than the 1e\\+06"):
            small_config(**{"n_legal": most - 50, "lambda_n": 1e-3, **over})
    # the presets are far inside it
    assert max(p.scenario.n_legal + p.scenario.n_attack for p in PRESETS.values()) == 15_000
    assert 15_000 < most / 50


def test_config_accepts_numpy_integers():
    small_config(n_legal=np.int64(50), l1=np.int32(40))


def test_config_derived_values():
    cfg = small_config()
    assert cfg.n_slots == 3000
    assert cfg.slots_per_second == 10
    assert slots_in(cfg.t_star, cfg.slot_dt, "t_star") == 1000
    fine = small_config(slot_dt=0.002, t_star=5.0, attack_end=6.0, total_duration=6.0)
    assert (fine.slots_per_second, fine.n_slots) == (500, 3000)


def test_slot_longer_than_a_second_rejected():
    # one-second buckets cannot be built from 2 s slots, so the statistical
    # method would never run
    with pytest.raises(ValueError, match="whole number of slots"):
        small_config(slot_dt=2.0)
    sim2 = get_preset("sim2")
    with pytest.raises(ValueError, match="whole number of slots"):
        run_once(dataclasses.replace(sim2.scenario, slot_dt=2.0), sim2.detector,
                 sim2.id_method, seed=0)


def test_slot_not_tiling_a_second_rejected():
    # three 0.3 s slots make a 0.9 s "one-second" bucket
    with pytest.raises(ValueError, match="whole number of slots"):
        small_config(slot_dt=0.3)


def test_times_off_the_slot_grid_rejected():
    # an onset between slots would skew every latency against it
    with pytest.raises(ValueError, match="t_star=100.05 is not on the grid"):
        small_config(t_star=100.05)
    with pytest.raises(ValueError, match="attack_end"):
        small_config(attack_end=200.01)
    with pytest.raises(ValueError, match="total_duration"):
        small_config(total_duration=300.04)
    small_config(slot_dt=0.5, t_star=100.5, attack_end=200.0)


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
        return stream.totals, [one_slot(stream, i) for i in range(cfg.n_slots)]

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
        ids = one_slot(stream, i)
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
        ids = one_slot(stream, i)
        if not (cfg.t_star <= t < cfg.attack_end):
            assert len(ids) == legal_stream.totals[i]
            assert not counts_of(ids, cfg.n_legal + cfg.n_attack)[attackers].any()


def test_split_proportions_follow_rates():
    # four legal sources at equal rates should each get a quarter of the counts
    cfg = small_config(n_legal=4, n_attack=0, lambda_n=1.0, total_duration=500.0)
    stream = stream_of(cfg, 9)
    total = np.zeros(4, dtype=np.int64)
    for i in range(cfg.n_slots):
        total += counts_of(one_slot(stream, i), 4)
    n = int(total.sum())
    # binomial 3-sigma band around 0.25 for each source
    assert np.all(np.abs(total / n - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / n))


def test_floor_rule_keeps_the_last_key_in_its_class():
    # the key just below 1 goes to a class's last member, so u * n rounds
    # below n for every key u < 1: for each class size up to 20 000, and
    # for sizes near powers of two up to 2**40, where the spacing of the
    # floats below n halves
    near = [2.0 ** k + d for k in range(41) for d in (-2, -1, 0, 1, 2) if 2.0 ** k + d >= 1]
    n = np.concatenate((np.arange(1, 20_001, dtype=np.float64), near))
    assert np.array_equal((np.nextafter(1.0, 0.0) * n).astype(np.int64), n.astype(np.int64) - 1)


# sim1's and case3's classes: 10 000 legal and 5 000 attackers
@example(10_000, 5_000, 0)
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20_000), st.integers(0, 5_000), st.integers(0, 2**32 - 1))
def test_split_ids_rise_with_the_key_inside_their_class(n_legal, n_attack, seed):
    # a packet's id is its class's first id plus floor(key * n): within a
    # class, ids never fall as the key rises, and they stay in
    # [first, first + n); a run asked for whole takes its keys in one draw
    # of the split RNG, in slot-then-class order
    cfg = small_config(n_legal=n_legal, n_attack=n_attack, t_star=5.0, attack_end=10.0,
                       total_duration=20.0)
    stream = stream_of(cfg, seed)
    ids, _ = split_copy(stream, 0, cfg.n_slots)
    keys = np.random.default_rng(seed + 1).random(len(ids))
    legal = legal_only(cfg, seed).totals
    attack = np.repeat(np.tile([False, True], cfg.n_slots),
                       np.column_stack((legal, stream.totals - legal)).ravel())
    first = np.where(attack, n_legal, 0)
    assert np.all(ids >= first)
    assert np.all(ids < first + np.where(attack, n_attack, n_legal))
    for members in (~attack, attack):
        assert np.all(np.diff(ids[members][np.argsort(keys[members], kind="stable")]) >= 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 700), max_size=12), st.integers(0, 2**32 - 1))
def test_random_in_chunks_equals_one_draw(chunks, seed):
    # an ask draws the keys of all its slots at once where one draw per
    # slot and class drew them in pieces; the split stream is unchanged
    # only while numpy's Generator.random consumes the bit stream the same
    # way for both
    whole, pieces = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = [pieces.random(k) for k in chunks]
    assert np.array_equal(whole.random(sum(chunks)),
                          np.concatenate([np.empty(0), *drawn]))
    assert whole.bit_generator.state == pieces.bit_generator.state


def same_position(split_rng, ref_split_rng):
    """The stream's split generator stands where the reference's does: the
    stream has drawn exactly the uniforms the reference consumed, net of
    the ones it handed back."""
    return split_rng.bit_generator.state == ref_split_rng.bit_generator.state


# slots asked for in order, as run_once asks for episode slots: contiguous
# runs across the onset at slot 1000, an episode end (1010) with a miss
# ten slots on (1020), every third slot skipped, re-entries after gaps of
# 60 to 1130 slots, and the run's last slots, to slot 2999
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
            ids = one_slot(stream, i)
            aggregate, per_source = ref.slot(i)
            assert len(ids) == stream.totals[i] == aggregate
            assert np.array_equal(counts_of(ids, n), per_source)
        assert same_position(split_rng, ref_split_rng), i
    # past the run there is no slot, and nothing is split or drawn
    with pytest.raises(ValueError, match=re.escape("no slot range [3000, 3001)")):
        split_copy(stream, cfg.n_slots, cfg.n_slots + 1)
    assert same_position(split_rng, ref_split_rng)


def test_stream_slot_inactive_population():
    cfg = small_config()
    split_rng, untouched = np.random.default_rng(1), np.random.default_rng(1)
    stream = TrafficStream(cfg, np.random.default_rng(0), split_rng)
    # a slot beyond every activity window, and one before the run
    for i in (cfg.n_slots, cfg.n_slots + 10, -1):
        with pytest.raises(ValueError, match=re.escape(f"no slot range [{i}, {i + 1})")):
            split_copy(stream, i, i + 1)
    assert (stream._lo, stream._hi) == (0, 0)
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
            ids, bounds = split_copy(stream, lo, hi)
            assert bounds[0] == 0 and bounds[-1] == len(ids)
            assert np.array_equal(np.diff(bounds), stream.totals[lo:hi])
            at = min(lo + cut + 1, hi)      # the stretch stops after slot at - 1
            if at < hi:
                # an unsplit ask from the cut takes the slots after it back
                stream.unblocked(at, hi, None)
            got = [ids[bounds[j]:bounds[j + 1]] for j in range(at - lo)]
        else:
            at = hi
            got = [one_slot(stream, i) for i in range(lo, hi)]
        for i, slot_ids in zip(range(lo, at), got):
            assert np.array_equal(slot_ids, one_slot(twin, i))
            assert np.array_equal(counts_of(slot_ids, n), ref.slot(i)[1])
        # the split RNG stepped back over the slots after the cut: it
        # stands where the reference's does, which consumed none of them
        assert same_position(split_rng, ref_split_rng), (lo, at)


class CountingRNG:
    """A split generator that records each draw, on the real PCG64 bit
    generator, which an ask steps back."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.draws = []
        self.drawn = []

    def random(self, size=None, out=None):
        self.draws.append(len(out) if size is None else size)
        drawn = self.rng.random(size, out=out)
        self.drawn.append(drawn.copy())
        return drawn


@pytest.mark.parametrize("cfg", [small_config(), small_config(n_legal=300, lambda_a=1.0)],
                         ids=["50-50", "300-50"])
def test_ask_draws_its_packets_and_the_next_ask_takes_back_the_rest(cfg):
    # a split ask draws the keys of exactly its packets, in one call, and
    # every ask first steps the generator back over exactly the packets of
    # its slots that the last split handed out, drawing nothing for that:
    # the next key is always key k of the seed's stream, k being the
    # packets handed out and not taken back, and the keys of the slots
    # taken back are the next ones drawn, in draw order
    split = CountingRNG(4)
    stream = TrafficStream(cfg, np.random.default_rng(3), split)
    prefix = np.concatenate(([0], np.cumsum(stream.totals)))
    keys = np.random.default_rng(4).random(prefix[-1] + 1)
    consumed = 0                 # keys handed out and not taken back
    stepped = 0                  # keys taken back
    out = 0                      # the end of the slots handed out and not taken back

    def coming(k):
        """The next k keys the split generator gives, without drawing them."""
        return copy.deepcopy(split.rng).random(k)

    def ask(lo, hi, splits=True):
        nonlocal consumed, stepped, out
        draws = len(split.draws)
        back = prefix[out] - prefix[lo] if lo < out else 0
        stream.unblocked(lo, hi, None, lo if splits else None)
        consumed -= back
        stepped += back
        if splits:
            packets = prefix[hi] - prefix[lo]
            assert split.draws[draws:] == [packets]
            assert np.array_equal(split.drawn[-1], keys[consumed:consumed + packets])
            consumed += packets
            out = hi
        else:
            assert len(split.draws) == draws
            assert np.array_equal(coming(back), keys[consumed:consumed + back])
            out = min(out, lo)
        assert coming(1)[0] == keys[consumed]

    # asks as run_once makes them: a window, filter stretches cut short
    # and resumed at the cut, a restoration whose unsplit stretch takes
    # the rest back, then a gap and a short window that takes part of the
    # keys taken back, and two unsplit asks after one split, the second
    # of which has nothing left to take back
    ask(900, 1000)
    ask(1000, 1100)
    ask(1037, 1137)
    ask(1137, 1237)
    ask(1140, 1300, splits=False)
    ask(1300, 1301)
    assert prefix[1301] - prefix[1300] < prefix[1237] - prefix[1140]
    ask(1301, 1400)
    ask(1500, 1600)
    ask(1520, 1530, splits=False)
    ask(1550, 1560, splits=False)
    assert np.array_equal(coming(prefix[1600] - prefix[1520]),
                          keys[consumed:consumed + prefix[1600] - prefix[1520]])
    ask(1550, 1620)
    assert consumed == sum(split.draws) - stepped


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=900, max_value=2950), episode_asks(), st.integers(0, 2**32 - 1))
def test_split_rng_position_is_the_packets_kept(first, asks, seed):
    # after every ask, the split generator's state is that of a fresh
    # PCG64 of the same seed after one draw of k uniforms, k being the
    # packets handed out and not taken back; a cut stretch is taken back
    # by the next split ask, or first by an unsplit ask from the cut
    cfg = small_config(n_legal=300, lambda_a=1.0)
    stream = stream_of(cfg, split_seed=seed)
    prefix = np.concatenate(([0], np.cumsum(stream.totals)))
    kept = 0
    out = 0

    def at_kept():
        fresh = np.random.default_rng(seed)
        fresh.random(kept)
        return stream._split_rng.bit_generator.state == fresh.bit_generator.state

    def take_back(lo):
        nonlocal kept, out
        if lo < out:
            kept -= prefix[out] - prefix[lo]
            out = lo

    at = first
    for gap, unsplit, length, cut in asks:
        lo = at + gap
        hi = min(lo + length, cfg.n_slots)
        if lo >= hi:
            break
        take_back(lo)
        split_copy(stream, lo, hi)
        kept += prefix[hi] - prefix[lo]
        out = hi
        assert at_kept(), (lo, hi)
        at = min(lo + cut + 1, hi)
        if unsplit and at < hi:
            take_back(at)
            stream.unblocked(at, hi, None)
            assert at_kept(), (lo, at)


def fresh_position(seed, packets):
    """The state of a fresh PCG64 of seed after a draw of that many uniforms."""
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(int(packets))
    return bit_generator.state


@st.composite
def forward_asks(draw):
    """Asks of two streams as run_once makes them of one, interleaved:
    each (stream, gap, length, mask, window offset, slots used, bad ask).
    A mask of None or a blocked share; a window offset of None or its
    first slot's place in the ask; the slots used before the next ask of
    the stream starts, at least one; and a bad ask of None or the fault
    of an ask made first, from the cut, which must fail."""
    return draw(st.lists(st.tuples(
        st.integers(0, 1), st.integers(0, 40), st.integers(1, 120),
        st.one_of(st.none(), st.floats(0.0, 1.0)),
        st.one_of(st.none(), st.integers(0, 119)), st.integers(1, 120),
        st.sampled_from([None, "before", "past", "window"])), min_size=1, max_size=12))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=900, max_value=2900), forward_asks(), st.integers(0, 2**32 - 1))
def test_every_ask_takes_back_what_the_last_split_did_not_use(first, asks, seed):
    # before each split the split generator stands where a fresh PCG64 of
    # its seed stands after the packets handed out and kept; an ask with
    # no mask and no window draws nothing; a bad ask fails before the
    # generator moves, and leaves the next ask's hand-back as it was; and
    # two streams on one thread keep a hand-back each
    cfg = small_config(n_legal=300, lambda_a=1.0)
    n = cfg.n_legal + cfg.n_attack
    streams = [stream_of(cfg, split_seed=seed), stream_of(cfg, seed=5, split_seed=seed + 1)]
    prefixes = [np.concatenate(([0], np.cumsum(stream.totals))) for stream in streams]
    seeds = [seed, seed + 1]
    kept = [0, 0]                # packets handed out and kept, each stream
    out = [0, 0]                 # the end of its slots handed out and not taken back
    at = [first, first]          # the first slot of its next ask
    last = [0, 0]                # its last ask's first slot
    splits = []

    for k, stream in enumerate(streams):
        def spied(lo, hi, k=k, split=stream._split):
            splits.append(k)
            assert streams[k]._split_rng.bit_generator.state == fresh_position(seeds[k], kept[k])
            return split(lo, hi)
        stream._split = spied

    for k, gap, length, share, offset, used, bad in asks:
        stream, prefix = streams[k], prefixes[k]
        lo = at[k] + gap
        hi = min(lo + length, cfg.n_slots)
        if lo >= hi:
            continue
        before = stream._split_rng.bit_generator.state
        if bad is not None:
            # each fault from a slot that the last split handed out, so
            # that a hand-back made before the check would show
            if bad == "before" and last[k] > 0:
                bad_ask = (last[k] - 1, hi, None, None)
            elif bad == "window":
                bad_ask = (lo, hi, None, hi)
            else:
                bad_ask = (lo, cfg.n_slots + 1, None, None)
            with pytest.raises(ValueError):
                stream.unblocked(*bad_ask)
            assert stream._split_rng.bit_generator.state == before
        blocked = None if share is None else np.random.default_rng(lo).random(n) < share
        window = None if offset is None else lo + offset % (hi - lo)
        if lo < out[k]:
            kept[k] -= prefix[out[k]] - prefix[lo]
            out[k] = lo
        count = len(splits)
        arrivals, counts = stream.unblocked(lo, hi, blocked, window)
        last[k] = lo
        assert (counts is None) == (window is None)
        if blocked is None and window is None:
            assert len(splits) == count
            assert np.array_equal(arrivals, stream.totals[lo:hi])
        else:
            assert splits[count:] == [k]
            kept[k] += prefix[hi] - prefix[lo]
            out[k] = hi
        assert stream._split_rng.bit_generator.state == fresh_position(seeds[k], kept[k])
        at[k] = min(lo + used, hi)


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937])
def test_split_generator_must_be_a_pcg64(bit_generator):
    # an ask steps the split generator back by a PCG64 jump; Philox's
    # advance counts blocks of four outputs, and MT19937 has none, so a
    # stream on either would hand out other keys or fail at its first
    # hand-back.  It is rejected before a slot is drawn
    cfg = small_config()
    rng = np.random.default_rng(0)
    untouched = copy.deepcopy(rng.bit_generator.state)
    with pytest.raises(ValueError, match="the split generator must run on a PCG64"):
        TrafficStream(cfg, rng, np.random.Generator(bit_generator(1)))
    assert rng.bit_generator.state == untouched
    TrafficStream(cfg, rng, np.random.Generator(np.random.PCG64(1)))


def test_slot_range_bounds_checked():
    stream = stream_of(small_config())
    with pytest.raises(ValueError):
        split_copy(stream, 5, 5)
    with pytest.raises(ValueError):
        split_copy(stream, 2990, 3001)
    split_copy(stream, 10, 20)
    # an ask reaches back only to the last ask's first slot: the slots
    # before it are the caller's.  It may start past the last split's end,
    # and again where the last ask started
    with pytest.raises(ValueError, match="slot 9 is before slot 10, where the last ask started"):
        stream.unblocked(9, 20, None)
    split_copy(stream, 21, 30)
    split_copy(stream, 900, 1000)
    split_copy(stream, 1000, 1010)
    with pytest.raises(ValueError, match="slot 950 is before slot 1000"):
        stream.unblocked(950, 1010, None)
    stream.unblocked(1005, 1010, None)
    with pytest.raises(ValueError):
        split_copy(stream, 1000, 1010)
    split_copy(stream, 1005, 1010)
    stream.unblocked(1005, 1010, None)


def test_unblocked_hands_out_arrays_later_asks_leave_alone():
    # unblocked() hands out arrivals and window counts of the caller's
    # own, with a mask and without one: later asks on the same stream and
    # on another one, which split into the same thread's arena, leave them
    # as they were
    cfg = small_config(n_legal=300, lambda_a=1.0)
    stream, other = stream_of(cfg), stream_of(cfg, seed=5)
    blocked = np.arange(cfg.n_legal + cfg.n_attack) % 3 == 0
    handed = [stream.unblocked(1000, 1100, blocked, 1050)]
    handed.append(stream.unblocked(1000, 1100, None, 1050))
    kept = [(arrivals.copy(), counts.copy()) for arrivals, counts in handed]
    stream.unblocked(1100, 1200, blocked, 1100)
    other.unblocked(1000, 1100, None, 1000)
    other.unblocked(1100, 1200, blocked, 1150)
    for (arrivals, counts), (arrivals_then, counts_then) in zip(handed, kept):
        assert np.array_equal(arrivals, arrivals_then) and np.array_equal(counts, counts_then)


def test_streams_of_one_config_share_read_only_split_tables():
    # each cell's class size and first member id are built once a config,
    # and its streams share them, read-only
    cfg = small_config()
    stream, other = stream_of(cfg), stream_of(dataclasses.replace(cfg), seed=5)
    for table in (stream._size, stream._first):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
    assert stream._size is other._size and stream._first is other._first
    # the tables are keyed on the config alone: a twin of equal values in
    # other types passes its checks and shares them, and the packets split
    # from shared tables are those of tables of the stream's own
    twin = small_config(t_star=100, attack_end=200, lambda_n=np.float64(0.1))
    shared = stream_of(twin)
    assert shared._size is stream._size and shared._first is stream._first
    ids, bounds = split_copy(shared, 1000, 1100)
    for c in (cfg, twin):
        traffic._class_tables.cache_clear()
        fresh, fresh_bounds = split_copy(stream_of(c), 1000, 1100)
        assert np.array_equal(ids, fresh) and np.array_equal(bounds, fresh_bounds)
    # a config one field away gets tables of its own
    for changed in (small_config(mu=9.0), small_config(lambda_a=0.2 + 1e-12)):
        stream, apart = stream_of(cfg), stream_of(changed)
        assert apart._size is not stream._size and apart._first is not stream._first


def test_hand_back_after_another_stream_splits_returns_its_packets():
    # a stream's split state is its generator's position alone: once
    # another stream has split into the same thread's arena, an ask still
    # takes back exactly the packets of the slots from its start on, and
    # gets the ids that one ask over both would have given them
    cfg = small_config(n_legal=300, lambda_a=1.0)
    stream, other = stream_of(cfg), stream_of(cfg, seed=5)
    blocked = np.arange(cfg.n_legal + cfg.n_attack) % 3 == 0
    ids, bounds = split_copy(stream_of(cfg), 1000, 1200)
    stream.unblocked(1000, 1100, blocked)
    split_copy(other, 1000, 1010)
    again, _ = split_copy(stream, 1050, 1200)
    assert stream._hi == 1200
    assert np.array_equal(again, ids[bounds[50]:])


@pytest.mark.parametrize("window", [1000, 1001, 1099])
def test_split_call_counts_the_window_it_is_given(window):
    # the split call counts the window from its first slot to the end of
    # the stretch: the whole stretch, all but its first slot, as after a
    # forced fire, or its last slot; without a mask the arrivals are the
    # slot totals and no source counts zero
    cfg = small_config(n_legal=300, lambda_a=1.0)
    n = cfg.n_legal + cfg.n_attack
    ids, bounds = split_copy(stream_of(cfg), 1000, 1100)
    stream = stream_of(cfg)
    arrivals, counts = stream.unblocked(1000, 1100, None, window)
    assert np.array_equal(arrivals, stream.totals[1000:1100])
    assert np.array_equal(counts, np.bincount(ids[bounds[window - 1000]:], minlength=n))
    assert stream_of(cfg).unblocked(1000, 1100, None)[1] is None
    # a window outside the stretch is rejected before anything is drawn
    for outside in (999, 1100):
        split_rng, untouched = np.random.default_rng(1), np.random.default_rng(1)
        stream = TrafficStream(cfg, np.random.default_rng(0), split_rng)
        with pytest.raises(ValueError, match=re.escape(
                f"window slot {outside} is not in the slots [1000, 1100)")):
            stream.unblocked(1000, 1100, None, outside)
        assert split_rng.bit_generator.state == untouched.bit_generator.state


def test_split_past_the_arena_cap_gets_arrays_of_its_own(monkeypatch):
    # an ask of more packets than SPLIT_ARENA_LIMIT splits into arrays of
    # its own and leaves the arena as it was; its ids, and a window counted
    # in the same call, are those an arena split gives
    cfg = small_config(n_legal=300, lambda_a=1.0)
    n = cfg.n_legal + cfg.n_attack
    blocked = np.arange(n) % 3 == 0
    twin = stream_of(cfg)
    ids, bounds = split_copy(twin, 1000, 1100)
    arrivals, _ = stream_of(cfg).unblocked(1000, 1100, blocked)
    monkeypatch.setattr(traffic, "SPLIT_ARENA_LIMIT", len(ids) // 2)
    monkeypatch.setattr(traffic._arena, "keys", np.empty(10))
    monkeypatch.setattr(traffic._arena, "ids", np.empty(10, dtype=np.int64))
    got, got_bounds = split_copy(stream_of(cfg), 1000, 1100)
    assert len(traffic._arena.keys) == len(traffic._arena.ids) == 10
    assert np.array_equal(got, ids) and np.array_equal(got_bounds, bounds)
    got_arrivals, counts = stream_of(cfg).unblocked(1000, 1100, blocked, 1040)
    assert np.array_equal(got_arrivals, arrivals)
    window = ids[bounds[40]:]
    assert np.array_equal(counts, np.bincount(window[~blocked[window]], minlength=n))
    assert len(traffic._arena.keys) == len(traffic._arena.ids) == 10


# ---------------------------------------------------------------------------
# closed forms: scipy is the oracle, the seeds are fixed, and a test fails
# on correct code with probability 1e-4, shared evenly by its p-values
# ---------------------------------------------------------------------------

FALSE_FAILURE = 1e-4


def preset_stream(scenario, seed):
    """The stream run_once builds for a scenario at a seed."""
    rng_traffic, rng_split = (np.random.default_rng(s)
                              for s in np.random.SeedSequence(seed).spawn(2))
    return TrafficStream(scenario, rng_traffic, rng_split)


@pytest.mark.parametrize("name, seeds", [("sim1", range(3)), ("sim2", range(40))],
                         ids=["sim1", "sim2"])
def test_split_is_uniform_within_each_class(name, seeds):
    # given its class total, a class's per-source counts are uniform
    # multinomial: pooled over the slots used of 100-slot windows, asked
    # after random gaps and half of them cut short, their rest taken back
    # by an unsplit ask from the cut, as run_once cuts a stretch at a fire
    # or a restoration, each class's counts fit a uniform split by
    # chi-square, with at least 5 packets expected a source
    scenario = get_preset(name).scenario
    asks = np.random.default_rng(29)
    counts = np.zeros(scenario.n_legal + scenario.n_attack, dtype=np.int64)
    for seed in seeds:
        stream = preset_stream(scenario, seed)
        at = int(asks.integers(0, 100))
        while at < scenario.n_slots:
            hi = min(at + 100, scenario.n_slots)
            ids, bounds = split_copy(stream, at, hi)
            cut = int(asks.integers(at + 1, hi + 1)) if asks.random() < 0.5 else hi
            if cut < hi:
                stream.unblocked(cut, hi, None)
            counts += np.bincount(ids[:bounds[cut - at]], minlength=len(counts))
            at = cut + int(asks.integers(0, 200))
    classes = (counts[:scenario.n_legal], counts[scenario.n_legal:])
    for members in classes:
        assert members.sum() >= 5 * len(members)
        assert scipy.stats.chisquare(members).pvalue > FALSE_FAILURE / len(classes)


@pytest.mark.parametrize("name", ["sim1", "sim2"])
def test_slot_totals_are_poisson_dispersed(name):
    # a class's slot totals over its active slots are independent Poisson
    # draws: their dispersion index, sum((x - mean)**2) / mean over n
    # slots, is chi-square with n - 1 degrees of freedom, and its sum over
    # seeds with the summed degrees; two-sided, so totals too even fail as
    # well as totals too spread
    scenario = get_preset(name).scenario
    active = (slice(0, scenario.n_slots),
              slice(slots_in(scenario.t_star, scenario.slot_dt, "t_star"),
                    slots_in(scenario.attack_end, scenario.slot_dt, "attack_end")))
    index, dof = np.zeros(2), np.zeros(2)
    for seed in range(20):
        stream = preset_stream(scenario, seed)
        for c, slots in enumerate(active):
            x = stream._cells[c, slots]
            index[c] += ((x - x.mean()) ** 2).sum() / x.mean()
            dof[c] += len(x) - 1
    for d, k in zip(index, dof):
        chi2 = scipy.stats.chi2(k)
        assert 2 * min(chi2.cdf(d), chi2.sf(d)) > FALSE_FAILURE / len(index)
