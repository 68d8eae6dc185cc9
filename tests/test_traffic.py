"""Traffic generator tests: population building, Poisson moments,
per-source attribution, activity windows, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from ddossim.presets import get_preset
from ddossim.traffic import (ScenarioConfig, SourceKind, TrafficSource,
                             TrafficStream, build_sources)


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


# ---------------------------------------------------------------------------
# population building
# ---------------------------------------------------------------------------

def test_build_sources_large_population():
    sources = build_sources(large_config())
    legal = [s for s in sources if s.kind is SourceKind.LEGAL]
    attack = [s for s in sources if s.kind is SourceKind.ATTACKING]
    assert len(legal) == 10_000
    assert len(attack) == 5_000
    assert all(s.active_from == 0.0 and s.active_to == 300.0 for s in legal)
    assert all(s.active_from == 100.0 and s.active_to == 200.0 for s in attack)


def test_build_sources_small_population():
    sources = build_sources(small_config())
    kinds = [s.kind for s in sources]
    assert kinds.count(SourceKind.LEGAL) == 50
    assert kinds.count(SourceKind.ATTACKING) == 50


def test_build_sources_no_attackers():
    cfg = small_config(n_attack=0)
    sources = build_sources(cfg)
    assert all(s.kind is SourceKind.LEGAL for s in sources)
    stream = TrafficStream(sources, cfg.n_slots, cfg.slot_dt,
                           np.random.default_rng(0))
    assert all(stream.slot(i).attack_aggregate == 0 for i in range(cfg.n_slots))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(lambda_n=0.0).validate()
    with pytest.raises(ValueError):
        small_config(mu=-1.0).validate()
    with pytest.raises(ValueError):
        small_config(t_star=250.0, attack_end=200.0).validate()
    with pytest.raises(ValueError):
        small_config(slot_dt=0.0).validate()


def test_config_derived_values():
    cfg = small_config()
    assert cfg.q == pytest.approx(2.0)
    assert cfg.n_slots == 3000
    assert cfg.sigma_n == pytest.approx(math.sqrt(50 * 0.1 * 0.1))
    assert list(cfg.legal_ids()) == list(range(50))
    assert list(cfg.attacker_ids()) == list(range(50, 100))


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
    sources = build_sources(cfg)

    def trace(seed):
        ss = np.random.SeedSequence(seed)
        r1, r2 = (np.random.default_rng(s) for s in ss.spawn(2))
        stream = TrafficStream(sources, cfg.n_slots, cfg.slot_dt, r1, r2)
        return [stream.slot(i, want_per_source=(i % 7 == 0))
                for i in range(cfg.n_slots)]

    a, b = trace(99), trace(99)
    for x, y in zip(a, b):
        assert (x.aggregate, x.legal_aggregate, x.attack_aggregate) == (
            y.aggregate, y.legal_aggregate, y.attack_aggregate)
        assert (x.per_source is None) == (y.per_source is None)
        if x.per_source is not None:
            assert np.array_equal(x.per_source, y.per_source)


# ---------------------------------------------------------------------------
# Poisson moments
# ---------------------------------------------------------------------------

def test_pre_attack_mean_within_three_sigma():
    cfg = small_config(total_duration=10_000.0, t_star=9_000.0,
                       attack_end=9_001.0)
    stream = TrafficStream(build_sources(cfg), 100_000, cfg.slot_dt,
                           np.random.default_rng(3))
    counts = [stream.slot(i).aggregate for i in range(90_000)]
    lam = cfg.n_legal * cfg.lambda_n * cfg.slot_dt
    m = len(counts)
    assert abs(np.mean(counts) - lam) <= 3 * math.sqrt(lam / m)


def test_attack_window_mean():
    cfg = small_config()
    stream = TrafficStream(build_sources(cfg), cfg.n_slots, cfg.slot_dt,
                           np.random.default_rng(4))
    lo, hi = int(100 / cfg.slot_dt), int(200 / cfg.slot_dt)
    counts = [stream.slot(i).aggregate for i in range(lo, hi)]
    lam = (cfg.n_legal * cfg.lambda_n + cfg.n_attack * cfg.lambda_a) * cfg.slot_dt
    assert abs(np.mean(counts) - lam) <= 3 * math.sqrt(lam / len(counts))


# ---------------------------------------------------------------------------
# attribution and activity windows
# ---------------------------------------------------------------------------

def test_per_source_counts_sum_to_aggregate():
    cfg = small_config()
    stream = TrafficStream(build_sources(cfg), cfg.n_slots, cfg.slot_dt,
                           np.random.default_rng(5), np.random.default_rng(6))
    for i in range(0, cfg.n_slots, 13):
        slot = stream.slot(i, want_per_source=True)
        assert slot.per_source.dtype == np.int64
        assert len(slot.per_source) == cfg.n_legal + cfg.n_attack
        assert slot.per_source.sum() == slot.aggregate
        assert slot.aggregate == slot.legal_aggregate + slot.attack_aggregate


def test_no_attack_packets_outside_window():
    cfg = small_config()
    attackers = list(cfg.attacker_ids())
    stream = TrafficStream(build_sources(cfg), cfg.n_slots, cfg.slot_dt,
                           np.random.default_rng(7), np.random.default_rng(8))
    for i in range(cfg.n_slots):
        t = i * cfg.slot_dt
        slot = stream.slot(i, want_per_source=True)
        if not (cfg.t_star <= t < cfg.attack_end):
            assert slot.attack_aggregate == 0
            assert not slot.per_source[attackers].any()


def test_per_source_counts_land_on_interleaved_ids():
    # a class whose ids are not one contiguous run
    sources = [TrafficSource(0, SourceKind.LEGAL, 1.0, 0.0, 10.0),
               TrafficSource(1, SourceKind.ATTACKING, 2.0, 5.0, 10.0),
               TrafficSource(2, SourceKind.LEGAL, 1.0, 0.0, 10.0),
               TrafficSource(3, SourceKind.ATTACKING, 2.0, 5.0, 10.0)]
    stream = TrafficStream(sources, 100, 0.1, np.random.default_rng(10))
    for i in range(100):
        slot = stream.slot(i, want_per_source=True)
        assert slot.per_source[[0, 2]].sum() == slot.legal_aggregate
        assert slot.per_source[[1, 3]].sum() == slot.attack_aggregate
        if i < 50:
            assert slot.attack_aggregate == 0


def test_split_proportions_follow_rates():
    # two legal sources with rates 1 and 3 should split counts near 1:3
    sources = [TrafficSource(0, SourceKind.LEGAL, 1.0, 0.0, 500.0),
               TrafficSource(1, SourceKind.LEGAL, 3.0, 0.0, 500.0)]
    stream = TrafficStream(sources, 5_000, 0.1, np.random.default_rng(9))
    total = {0: 0, 1: 0}
    for i in range(5_000):
        slot = stream.slot(i, want_per_source=True)
        for sid, c in enumerate(slot.per_source):
            total[sid] += int(c)
    n = total[0] + total[1]
    p = total[1] / n
    # binomial 3-sigma band around 0.75
    assert abs(p - 0.75) <= 3 * math.sqrt(0.75 * 0.25 / n)


def test_stream_slot_inactive_population():
    cfg = small_config()
    sources = build_sources(cfg)
    # slot beyond every activity window
    i = int(cfg.total_duration / cfg.slot_dt) + 10
    stream = TrafficStream(sources, i + 1, cfg.slot_dt, np.random.default_rng(0))
    slot = stream.slot(i, want_per_source=True)
    assert slot.aggregate == 0
    assert len(slot.per_source) == len(sources)
    assert not slot.per_source.any()
