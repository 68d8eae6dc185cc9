"""Spans around the public calls into each ddossim module.

For a traced pass the benchmark replaces module and class attributes of
ddossim with wrappers and puts the originals back afterwards; the program
itself is unchanged.  Each wrapped call makes one span: name, start and
end (perf_counter_ns), parent span and run seed, held in flat arrays and
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import time
import types
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("H")
        self.parent = array("q")
        self.seed = array("Q")
        self.start = array("q")
        self.end = array("q")
        self.current_seed = [0]       # set by the caller before each run
        self._stack = [-1]
        # counts taken at the same boundaries as the spans
        self.split_slots = 0
        self.split_packets = 0
        self.ranked_sources: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(args, kwargs, result) runs once it ends."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ix, parent, seed, start, end = self.name_ix, self.parent, self.seed, self.start, self.end
        stack, current_seed, clock = self._stack, self.current_seed, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            seed.append(current_seed[0])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _arrays(self):
        return (np.frombuffer(self.name_ix, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total ns, self ns)."""
        name, parent, start, end = self._arrays()
        dur = end - start
        covered = np.zeros(len(dur), dtype=np.int64)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_ns = np.bincount(name, weights=dur - covered, minlength=k)
        return {n: (int(calls[i]), int(total[i]), int(self_ns[i]))
                for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        name, parent, start, end = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            seed=np.frombuffer(self.seed, dtype=np.uint64),
                            start=start, end=end)

    def count_split(self, args, kwargs, slot):
        want = kwargs["want_per_source"] if "want_per_source" in kwargs else len(args) > 2 and args[2]
        if want:
            self.split_slots += 1
            self.split_packets += slot.aggregate

    def count_ranked(self, args, kwargs, _classification):
        self.ranked_sources.append(len(args[0].rates))


@contextmanager
def patched(replacements):
    """Set owner.attr = value for each (owner, attr, value) while inside."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _wrapped(t: Tracer, points):
    """Replacements for patched(): each (owner, attr, name[, after]) wrapped.

    A call site that a later version of the program no longer has is
    skipped, and its metrics read zero.
    """
    return [(owner, attr, t.wrap(name, getattr(owner, attr), *after))
            for owner, attr, name, *after in points if hasattr(owner, attr)]


def cli_patches(t: Tracer, cli):
    """The calls cli.main makes into the rest of ddossim."""
    return _wrapped(t, [(cli, "run_batch", "cli.run_batch"),
                        (cli, "emit_results", "cli.emit_results")])


def layer_patches(t: Tracer, harness, detector):
    """The public calls run_once makes into each module, at its call sites.

    stats is wrapped where detector calls it, so the calls stats makes
    inside itself and the harness's batch summaries are not counted.
    """
    patches = _wrapped(t, [
        (harness, "build_sources", "traffic.build_sources"),
        (harness.TrafficStream, "__init__", "traffic.stream_init"),
        (harness.TrafficStream, "slot", "traffic.slot", t.count_split),
        (harness, "step", "buffer.step"),
        (harness.Detector, "observe", "detector.observe"),
        (detector, "detect_statistical", "detector.detect_statistical"),
        (detector, "ks_normality", "stats.ks_normality"),
        (detector, "t_test_pooled", "stats.t_test_pooled"),
        (detector, "levene_test", "stats.levene_test"),
        (detector, "upper_conf_bound", "stats.upper_conf_bound"),
        (detector, "sample_mean", "stats.sample_mean"),
        (harness, "measure_per_source", "identifier.measure_per_source"),
        (harness, "identify_greedy", "identifier.identify_greedy", t.count_ranked),
        (harness, "identify_by_history", "identifier.identify_by_history", t.count_ranked),
        (harness, "apply_filter", "identifier.apply_filter"),
        (harness.RestorationMonitor, "update", "harness.restoration_update"),
    ])
    if hasattr(detector, "SummaryStats"):
        from_sample = t.wrap("stats.from_sample", detector.SummaryStats.from_sample)
        patches.append((detector, "SummaryStats",
                        types.SimpleNamespace(from_sample=from_sample)))
    return patches


def layer_metrics(t: Tracer, runs: int, batch_runs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `runs` traced run_once calls and
    a traced CLI batch pass over `batch_runs` runs.  Seconds are per run."""
    tot = t.totals()

    def calls(*names):
        return sum(tot.get(n, (0, 0, 0))[0] for n in names)

    def self_ns(*names):
        return sum(tot.get(n, (0, 0, 0))[2] for n in names)

    def per_call_ns(name):
        return self_ns(name) / calls(name) if calls(name) else 0.0

    stat_checks = calls("detector.detect_statistical")
    stats_names = ("stats.ks_normality", "stats.t_test_pooled", "stats.levene_test",
                   "stats.from_sample", "stats.upper_conf_bound", "stats.sample_mean")
    classify = ("identifier.identify_greedy", "identifier.identify_by_history")
    return {
        "traffic.slot_ns": (per_call_ns("traffic.slot"), "ns/call"),
        "traffic.slot_self_s": (self_ns("traffic.slot") / 1e9 / runs, "s/run"),
        "traffic.split_slot_share": (t.split_slots / max(1, calls("traffic.slot")), "ratio"),
        "traffic.split_packets": (t.split_packets, "count"),
        "traffic.stream_init_ms": (self_ns("traffic.build_sources", "traffic.stream_init")
                                   / 1e6 / runs, "ms/run"),
        "buffer.step_ns": (per_call_ns("buffer.step"), "ns/call"),
        "buffer.step_self_s": (self_ns("buffer.step") / 1e9 / runs, "s/run"),
        "buffer.step_calls": (calls("buffer.step"), "count"),
        "detector.observe_ns": (per_call_ns("detector.observe"), "ns/call"),
        "detector.observe_self_s": (self_ns("detector.observe") / 1e9 / runs, "s/run"),
        "detector.stat_checks": (stat_checks, "count"),
        "detector.stat_self_s": (self_ns("detector.detect_statistical") / 1e9 / runs, "s/run"),
        "detector.gate_pass_ratio": (calls("stats.t_test_pooled") / stat_checks
                                     if stat_checks else 0.0, "ratio"),
        "stats.ks_s": (self_ns("stats.ks_normality") / 1e9 / runs, "s/run"),
        "stats.tests_s": (self_ns("stats.t_test_pooled", "stats.levene_test") / 1e9 / runs,
                          "s/run"),
        "stats.summary_s": (self_ns("stats.from_sample", "stats.upper_conf_bound",
                                    "stats.sample_mean") / 1e9 / runs, "s/run"),
        "stats.calls": (calls(*stats_names), "count"),
        "identifier.measure_s": (self_ns("identifier.measure_per_source") / 1e9 / runs, "s/run"),
        "identifier.classify_s": (self_ns(*classify) / 1e9 / runs, "s/run"),
        "identifier.filter_s": (self_ns("identifier.apply_filter") / 1e9 / runs, "s/run"),
        "identifier.filter_ns": (per_call_ns("identifier.apply_filter"), "ns/call"),
        "identifier.classify_calls": (calls(*classify), "count"),
        "identifier.ranked_sources": (sum(t.ranked_sources) / len(t.ranked_sources)
                                      if t.ranked_sources else 0.0, "sources"),
        "harness.self_s": (self_ns("harness.run_once") / 1e9 / runs, "s/run"),
        "harness.restore_s": (self_ns("harness.restoration_update") / 1e9 / runs, "s/run"),
        "cli.self_s": (self_ns("cli.main") / 1e9 / batch_runs, "s/run"),
        "cli.emit_s": (self_ns("cli.emit_results") / 1e9 / batch_runs, "s/run"),
    }
