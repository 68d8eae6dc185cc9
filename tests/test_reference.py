"""Differential test: run_once against the per-slot reference simulator.

run_once runs stretches of slots ahead to their next event; reference_run
(tests/reference.py) runs the same rules one slot at a time.  Both must
give equal RunMetrics, every field and every float exactly, on
Hypothesis-drawn small scenarios and on the first seed of every case of
tests/golden/record_corpus.py.
"""

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddossim import get_preset, run_once
from ddossim.detector import ALL_METHODS, DetectorConfig, Method
from ddossim.harness import check_configs
from ddossim.traffic import ScenarioConfig
from reference import reference_run

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from record_corpus import CASES, configs  # noqa: E402


@st.composite
def small_runs(draw):
    """(scenario, detector config, identification method, seed) of a run of
    a few hundred to a few thousand slots: 1-30 legal and 0-30 attacking
    sources, each method subset, windows, look-back and baseline sized so
    the warm-up ends before the onset.  Without the statistical method w_s
    may be one slot, where the ratio rule can fire on the first slot after
    a classification."""
    slot_dt = draw(st.sampled_from([0.1, 0.5, 1.0]))
    n_legal = draw(st.integers(1, 30))
    lambda_n = draw(st.sampled_from([0.1, 0.3, 1.0]))
    methods = draw(st.sets(st.sampled_from(ALL_METHODS), min_size=1))
    one_slot = [] if Method.STATISTICAL in methods else [slot_dt]
    w_s = draw(st.sampled_from([2.0, 3.0, 5.0, 10.0] + one_slot))
    cfg = DetectorConfig(w_s=w_s, w_l=w_s + draw(st.integers(1, 15)),
                         c=w_s + draw(st.integers(0, 10)),
                         r=draw(st.sampled_from([0.3, 0.6])),
                         baseline_len=draw(st.sampled_from([8, 12, 30])),
                         methods=tuple(m for m in ALL_METHODS if m in methods))
    t_star = max(cfg.w_l, cfg.c + cfg.baseline_len) + draw(st.integers(1, 30))
    attack_end = t_star + draw(st.integers(5, 60))
    scenario = ScenarioConfig(
        n_legal=n_legal, n_attack=draw(st.integers(0, 30)), lambda_n=lambda_n,
        lambda_a=draw(st.sampled_from([0.2, 1.0, 3.0])),
        # service from just under the legal load to four times it
        mu=round(n_legal * lambda_n * draw(st.sampled_from([0.9, 1.3, 2.0, 4.0])), 2),
        l1=draw(st.sampled_from([5, 20, 40])), l2=draw(st.sampled_from([0, 20, 160])),
        t_star=float(t_star), attack_end=float(attack_end),
        total_duration=float(attack_end + draw(st.integers(0, 60))), slot_dt=slot_dt)
    return (scenario, cfg, draw(st.sampled_from(["greedy", "history"])),
            draw(st.integers(0, 2**32 - 1)))


def fits(scenario, cfg):
    try:
        check_configs(scenario, cfg)
    except ValueError:
        return False
    return True


def assert_run_once_matches_reference(scenario, cfg, id_method, seed):
    got = dataclasses.asdict(run_once(scenario, cfg, id_method, seed=seed))
    expected = dataclasses.asdict(reference_run(scenario, cfg, id_method, seed=seed))
    assert got == expected, {f: (got[f], expected[f]) for f in got if got[f] != expected[f]}


CASE1, SIM2 = get_preset("case1"), get_preset("sim2")
# case1 greedy seed 7 restores inside a re-measurement window; sim2 at
# 1 s slots serves a whole 8 packets a slot; sim2 with the ratio rule
# alone has filter phases of 321, 100, 100 and 591 slots, longer than
# the 100-slot w_s, so a phase runs on over several frozen stretches; sim2
# with the ratio rule and buffer-full at a one-slot w_s of 1 s, where the
# short window refills on the first slot after a classification, so the
# ratio rule can fire there before buffer-full
EXAMPLES = [(CASE1.scenario, CASE1.detector, "greedy", 7),
            (dataclasses.replace(SIM2.scenario, slot_dt=1.0), SIM2.detector, SIM2.id_method, 0),
            (SIM2.scenario, dataclasses.replace(SIM2.detector, methods=(Method.RATIO,)),
             SIM2.id_method, 0),
            (dataclasses.replace(SIM2.scenario, slot_dt=1.0),
             dataclasses.replace(SIM2.detector, w_s=1.0,
                                 methods=(Method.RATIO, Method.BUFFER_FULL)),
             SIM2.id_method, 0)]


def with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


@with_examples
@settings(max_examples=300, deadline=None)
@given(small_runs())
def test_run_once_matches_reference(case):
    assume(fits(*case[:2]))
    assert_run_once_matches_reference(*case)


@pytest.mark.slow
@with_examples
@settings(max_examples=3000, deadline=None)
@given(small_runs())
def test_run_once_matches_reference_many(case):
    assume(fits(*case[:2]))
    assert_run_once_matches_reference(*case)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_corpus_configs_match_reference(case):
    assert_run_once_matches_reference(*configs(case), case["seeds"][0])
