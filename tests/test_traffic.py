"""Traffic generator tests: population layout, config validation, Poisson
moments, per-source attribution, activity windows, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from ddossim.harness import run_once
from ddossim.presets import get_preset
from ddossim.traffic import ScenarioConfig, TrafficStream, slots_in


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


class CountVectorSplit:
    """Reference split: one count vector over every source per slot.

    Classes, Poisson draws and split tables are built as TrafficStream
    builds them; each active class's uniforms are sorted, looked up in its
    cumulative table and counted into its id range of a zeros vector.
    """

    def __init__(self, cfg, rng, split_rng):
        self.n_sources = cfg.n_legal + cfg.n_attack
        self.split_rng = split_rng
        self.classes = []
        for first_id, n, rate, lo, hi in (
                (0, cfg.n_legal, cfg.lambda_n, 0, cfg.n_slots),
                (cfg.n_legal, cfg.n_attack, cfg.lambda_a,
                 slots_in(cfg.t_star, cfg.slot_dt, "t_star"),
                 slots_in(cfg.attack_end, cfg.slot_dt, "attack_end"))):
            if n == 0:
                continue
            rates = np.full(n, rate)
            total = float(rates.sum())
            cum_probs = np.cumsum(rates) / total
            cum_probs[-1] = 1.0
            draws = rng.poisson(total * cfg.slot_dt, size=hi - lo)
            self.classes.append((slice(first_id, first_id + n), cum_probs, draws, lo, hi))

    def slot(self, i):
        """(aggregate, per-source counts) of slot i."""
        aggregate = 0
        per_source = np.zeros(self.n_sources, dtype=np.int64)
        for ids, cum_probs, draws, lo, hi in self.classes:
            if not lo <= i < hi:
                continue
            count = int(draws[i - lo])
            aggregate += count
            if count:
                u = self.split_rng.random(count)
                u.sort()
                idx = cum_probs.searchsorted(u, side="left")
                per_source[ids] = np.bincount(idx, minlength=len(cum_probs))
        return aggregate, per_source


@pytest.mark.parametrize("cfg", [large_config(), small_config()],
                         ids=["10000-5000", "50-50"])
def test_split_matches_count_vector_reference(cfg):
    n = cfg.n_legal + cfg.n_attack
    split_rng, ref_split_rng = np.random.default_rng(12), np.random.default_rng(12)
    stream = TrafficStream(cfg, np.random.default_rng(11), split_rng)
    ref = CountVectorSplit(cfg, np.random.default_rng(11), ref_split_rng)
    # before the onset at slot 1000, across it, and during the attack;
    # every third slot is skipped, and a slot nobody asks for draws nothing
    for i in [*range(900, 1100), *range(1500, 1530)]:
        if i % 3:
            ids = stream.slot(i)
            aggregate, per_source = ref.slot(i)
            assert len(ids) == stream.totals[i] == aggregate
            assert np.array_equal(counts_of(ids, n), per_source)
        assert split_rng.bit_generator.state == ref_split_rng.bit_generator.state


def test_stream_slot_inactive_population():
    cfg = small_config()
    stream = stream_of(cfg)
    # slot beyond every activity window
    ids = stream.slot(cfg.n_slots + 10)
    assert len(ids) == 0 and ids.dtype == np.int64
    per_source = counts_of(ids, cfg.n_legal + cfg.n_attack)
    assert len(per_source) == cfg.n_legal + cfg.n_attack
    assert not per_source.any()
