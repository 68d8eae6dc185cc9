"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s, and in
captured output otherwise) and then asserts, so `pytest -v` shows one
verdict per criterion as well.
"""

import dataclasses
import math
import statistics
import time

import numpy as np
import pytest
import scipy.special

from ddossim.buffer import BufferState, step
from ddossim.cli import main
from ddossim.detector import Method, SlidingWindow
from ddossim.harness import run_batch, sweep_window
from ddossim.identifier import identify_greedy, PerSourceMeasurement
from ddossim.presets import get_preset
from ddossim.stats import (SummaryStats, levene_test, pooled_variance,
                           sample_mean, sample_stddev, t_test_pooled,
                           upper_conf_bound)
from ddossim.traffic import TrafficStream

ACCEPTANCE_SEED = 2026


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_statistical_detection_rate():
    p = get_preset("sim2")
    det = dataclasses.replace(p.detector, methods=(Method.STATISTICAL,))
    t0 = time.monotonic()
    stats, _ = run_batch(p.scenario, det, p.id_method, 200,
                         base_seed=ACCEPTANCE_SEED)
    elapsed = time.monotonic() - t0
    ok = stats.detected_rate >= 0.99 and elapsed < 30.0
    verdict(1, ok, f"statistical detection rate {stats.detected_rate:.3f} "
                   f"(need >= 0.99) in {elapsed:.1f}s (budget 30s)")


def test_criterion_2_detection_latency_shape():
    p = get_preset("sim2")
    _, runs = run_batch(p.scenario, p.detector, p.id_method, 200,
                        base_seed=ACCEPTANCE_SEED)
    times = [r.detection_time for r in runs if r.detection_time is not None]
    med = statistics.median(times)
    ok = len(times) == 200 and 0.0 <= med <= 10.0 and min(times) == 0.0
    verdict(2, ok, f"median detection time {med:.2f}s (need in [0, 10]), "
                   f"min {min(times):.2f}s (need 0)")


def test_criterion_3_window_sweep_trend():
    p = get_preset("sim1")
    ws_values = [5.0, 10.0, 20.0, 30.0, 40.0]
    t0 = time.monotonic()
    rows = sweep_window(p.scenario, p.detector, p.id_method, ws_values,
                        runs_per_value=5, base_seed=ACCEPTANCE_SEED)
    elapsed = time.monotonic() - t0
    med_correct = {w: statistics.median(
        [r.correctly_identified_attackers for r in runs]) for w, runs in rows}
    drops = {w: [r.packets_dropped for r in runs] for w, runs in rows}
    seq = [med_correct[w] for w in ws_values]
    nondecreasing = all(a <= b for a, b in zip(seq, seq[1:]))
    growth = med_correct[40.0] >= 1.25 * med_correct[5.0]
    no_early_drops = max(drops[5.0]) == 0 and max(drops[10.0]) == 0
    late_drops = statistics.median(drops[40.0]) > 0
    ok = (nondecreasing and growth and no_early_drops and late_drops
          and elapsed < 300.0)
    verdict(3, ok, f"correct-attacker medians {seq} "
                   f"(nondecreasing {nondecreasing}, w40/w5 = "
                   f"{med_correct[40.0] / med_correct[5.0]:.2f}, need >= 1.25); "
                   f"drops w5/w10 max {max(drops[5.0])}/{max(drops[10.0])}, "
                   f"w40 median {statistics.median(drops[40.0])}; {elapsed:.0f}s")


def test_criterion_4_fluid_fill_time():
    # fine slots so the sub-0.1s fill time is resolvable; short pre-attack
    # phase keeps 20 runs cheap
    p = get_preset("sim1")
    sc = dataclasses.replace(p.scenario, slot_dt=0.002, t_star=5.0,
                             attack_end=6.0, total_duration=6.0)
    expected = sc.l1 / (sc.n_legal * sc.lambda_n
                        + sc.n_attack * sc.lambda_a - sc.mu)
    times = []
    for seed in range(20):
        ss = np.random.SeedSequence(ACCEPTANCE_SEED + seed)
        rng_t, rng_s = (np.random.default_rng(s) for s in ss.spawn(2))
        stream = TrafficStream(sc, rng_t, rng_s)
        buf = BufferState(sc.l1, sc.l2)
        service = sc.mu * sc.slot_dt
        fill = None
        for i in range(sc.n_slots):
            step(buf, stream.slot(i).aggregate, service)
            t = (i + 1) * sc.slot_dt
            if t > sc.t_star and buf.occupancy >= buf.l1:
                fill = t - sc.t_star
                break
        assert fill is not None
        times.append(fill)
    mean_fill = statistics.mean(times)
    ok = 0.5 * expected <= mean_fill <= 1.5 * expected
    verdict(4, ok, f"mean L1 fill time {mean_fill * 1000:.1f}ms vs fluid "
                   f"oracle {expected * 1000:.1f}ms (need within +-50%)")


def test_criterion_5_false_alarm_bounds():
    p = get_preset("sim2")
    sc = dataclasses.replace(p.scenario, n_attack=0)
    _, runs = run_batch(sc, p.detector, p.id_method, 200,
                        base_seed=ACCEPTANCE_SEED)
    ratio_fp_runs = sum(1 for r in runs if r.ratio_fires > 0)
    checks = sum(r.stat_checks for r in runs)
    positives = sum(r.stat_positives for r in runs)
    stat_fp = positives / checks
    bound = p.detector.alpha + 0.03
    ok = ratio_fp_runs <= 0.05 * len(runs) and stat_fp <= bound
    verdict(5, ok, f"ratio false positives in {ratio_fp_runs}/200 runs "
                   f"(need <= 10); statistical positive rate "
                   f"{stat_fp:.4f} over {checks} checks (need <= {bound})")


def test_criterion_6_statistics_kernel_oracles():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    # mean / stddev vs two-pass references on 1000 random vectors
    moments_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        xs = rng.normal(rng.uniform(-100, 100), rng.uniform(0.01, 30), n).tolist()
        ref_mean = sum(xs) / n
        ref_sd = math.sqrt(sum((x - ref_mean) ** 2 for x in xs) / (n - 1))
        if not math.isclose(sample_mean(xs), ref_mean, rel_tol=1e-12, abs_tol=1e-12):
            moments_ok = False
        if not math.isclose(sample_stddev(xs), ref_sd, rel_tol=1e-12, abs_tol=1e-12):
            moments_ok = False
    # pooled variance vs the closed form on 100 fixtures
    pooled_ok = True
    for _ in range(100):
        s1 = SummaryStats(0.0, float(rng.uniform(0.1, 5)), int(rng.integers(2, 40)))
        s2 = SummaryStats(0.0, float(rng.uniform(0.1, 5)), int(rng.integers(2, 40)))
        ref = (((s1.n - 1) * s1.stddev ** 2 + (s2.n - 1) * s2.stddev ** 2)
               / (s1.n + s2.n - 2))
        if not math.isclose(pooled_variance(s1, s2), ref, rel_tol=1e-12):
            pooled_ok = False
    # t / Levene p-values vs independent incomplete-beta evaluations
    p_ok = True
    for _ in range(100):
        a = rng.normal(0, 1, int(rng.integers(2, 30))).tolist()
        b = rng.normal(0.5, 2, int(rng.integers(2, 30))).tolist()
        t_res = t_test_pooled(SummaryStats.from_sample(a), SummaryStats.from_sample(b))
        df = len(a) + len(b) - 2
        t_ref = scipy.special.betainc(df / 2, 0.5,
                                      df / (df + t_res.statistic ** 2))
        lev = levene_test(a, b)
        n_tot = len(a) + len(b)
        lev_ref = scipy.special.betainc((n_tot - 2) / 2, 0.5,
                                        (n_tot - 2) / (n_tot - 2 + lev.statistic)) \
            if lev.statistic > 0 else 1.0
        if abs(t_res.p_value - t_ref) > 1e-9 or abs(lev.p_value - lev_ref) > 1e-9:
            p_ok = False
    # upper-confidence-bound fixture
    t_x = upper_conf_bound(SummaryStats(10.0, 2.0, 100), 0.025)
    ucb_ok = abs(t_x - 10.3920) <= 1e-4
    ok = moments_ok and pooled_ok and p_ok and ucb_ok
    verdict(6, ok, f"moments {moments_ok}, pooled variance {pooled_ok}, "
                   f"p-values vs incomplete beta {p_ok}, "
                   f"confidence bound {t_x:.4f} (need 10.3920 +- 1e-4)")


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    # buffer conservation under 1e5 random arrivals
    buf = BufferState(l1=17, l2=55)
    conserve_ok = True
    for a in rng.integers(0, 25, size=100_000):
        before, served = buf.occupancy, buf.cumulative_served
        admitted = step(buf, int(a), 6.5)
        if buf.occupancy != before - (buf.cumulative_served - served) + admitted:
            conserve_ok = False
        if not 0 <= buf.occupancy <= buf.capacity:
            conserve_ok = False
    if buf.cumulative_offered != (buf.cumulative_served
                                  + buf.cumulative_dropped + buf.occupancy):
        conserve_ok = False
    # classification partition + greedy feasibility/maximality vs the
    # brute-force prefix walk, source counts <= 20
    greedy_ok = True
    for _ in range(500):
        n = int(rng.integers(1, 21))
        rates = {int(i): float(r) for i, r in
                 enumerate(rng.uniform(0, 10, n))}
        budget = float(rng.uniform(0, 12 * n / 2))
        mask = identify_greedy(
            PerSourceMeasurement(np.array([rates[i] for i in range(n)])),
            budget)
        attackers = {int(i) for i in np.flatnonzero(mask)}
        legal = {int(i) for i in np.flatnonzero(~mask)}
        if attackers & legal or attackers | legal != set(rates):
            greedy_ok = False
        total = sum(rates[s] for s in attackers)
        if total > budget + 1e-9:
            greedy_ok = False
        # reference walk
        picked, acc = set(), 0.0
        for sid in sorted(rates, key=lambda s: (-rates[s], s)):
            if acc + rates[sid] > budget:
                break
            acc += rates[sid]
            picked.add(sid)
        if picked != attackers:
            greedy_ok = False
    # window running averages vs recomputed means, exact for integer counts
    win = SlidingWindow(31)
    window_ok = True
    for v in rng.integers(0, 1000, size=20_000):
        win.push(int(v))
        if win.running_sum != sum(win.contents):
            window_ok = False
        if win.average() != sum(win.contents) / len(win.contents):
            window_ok = False
    ok = conserve_ok and greedy_ok and window_ok
    verdict(7, ok, f"buffer conservation {conserve_ok}, greedy prefix vs "
                   f"oracle {greedy_ok}, window averages exact {window_ok}")


def test_criterion_8_cli_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = main(["--preset", "sim2", "--mode", "once", "--seed", "42",
                "--out", str(a)])
    rc2 = main(["--preset", "sim2", "--mode", "once", "--seed", "42",
                "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    verdict(8, ok, f"two seeded CLI runs byte-identical: {identical}")
