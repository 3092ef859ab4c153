"""Tests of the benchmark's tracer, metric arithmetic and reference check.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import cbdid  # noqa: E402
import cbdid.cli  # noqa: E402
from cbdid import propensity, selection, simlab  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.check import compare_mc  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, as_metrics, layer_values  # noqa: E402
from perfbench.spans import OVERHEAD_SPAN, TARGETS, Tracer, self_times, unwrapped_aliases  # noqa: E402
from perfbench.speed import INTERVAL_S, KERNEL_REF_S, WINDOW, Gauge  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    MC_JOBS, MC_POOL, REFERENCE, child_env, count_units, import_profile, mc_entries, timed_python,
)


def span(id, start, end, parent=None, run_id="r", name="x"):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent,
            "run_id": run_id, "fingerprint": None, "iterations": None}


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 3.0, 6.0, parent=0),    # overlaps its sibling: counted once
        span(3, 2.0, 3.0, parent=1),    # grandchild: only its parent's business
        span(4, 9.0, 12.0, parent=0),   # runs past the parent: clipped
        span(0, 0.0, 5.0, run_id="other"),  # same id in another run: unrelated
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 5.0])


def _originals():
    return {name: getattr(__import__(mod, fromlist=["_"]), name) for mod, name in TARGETS}


def test_install_leaves_no_unwrapped_alias_and_restore_puts_originals_back():
    originals = _originals()
    with Tracer() as tracer:
        assert unwrapped_aliases(originals.values()) == []
        wrapped = propensity.fit_cbd
        assert wrapped is not originals["fit_cbd"]
        for module in (cbdid, selection, simlab, cbdid.cli):
            assert module.fit_cbd is wrapped
    assert unwrapped_aliases(tracer.wrappers) == []
    for module in (cbdid, propensity, selection, simlab, cbdid.cli):
        assert module.fit_cbd is originals["fit_cbd"]
    assert cbdid.cli.main is originals["main"]


def test_spans_name_weighting_and_fingerprint_bound_arguments():
    dataset, _ = simlab.generate(simlab.DgpSpec(simlab.DgpFamily.CASE_1_2, 1.0, 200),
                                 np.random.default_rng(0))
    X, d = dataset.covariates, dataset.treated
    with Tracer("unit") as tracer:
        selection.fit_cbd(X, d)
        simlab.fit_cbd(X, d, propensity.Weighting.IDENTITY, tol=1e-8)
        cbdid.fit_cbd(X, d, weighting=propensity.Weighting.OPTIMAL)
    spans = tracer.span_dicts()
    fits = [s for s in spans if s["name"].startswith("propensity.fit_cbd")]
    assert [s["name"] for s in fits] == ["propensity.fit_cbd.identity"] * 2 + [
        "propensity.fit_cbd.optimal"]
    assert fits[0]["fingerprint"] == fits[1]["fingerprint"] != fits[2]["fingerprint"]
    assert all(isinstance(s["iterations"], int) for s in fits)
    assert {s["name"] for s in spans if s["parent"] is None} == {
        "propensity.fit_cbd.identity", "propensity.fit_cbd.optimal", OVERHEAD_SPAN}
    values = layer_values(spans, passes=1, import_total_s=0.5, import_scipy_s=0.3,
                          overhead_frac=0.1)
    assert set(values) == set(PER_LAYER)
    assert values["propensity.fit_cbd.unique_frac"] == pytest.approx(2 / 3)
    assert values["propensity.fit_cbd.identity.calls"] == 2
    assert values["propensity.fit_mle.calls"] == 3  # the warm starts, nested


def test_printed_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    run = bench.Run("cli", 0, 1, trace=False)
    run.attempted = 1
    measured = {name: 1.0 for name in END_TO_END}
    assert set(bench.result_json(run, measured)["metrics"]) == set(END_TO_END)
    with pytest.raises(ValueError):
        as_metrics({"setup_s": 1.0}, END_TO_END)


def test_reference_check_tolerances():
    want = {"cells": [{"reps_used": 4, "failed": 0,
                       "stats": {"proposal_risk": 2.0, "proposal_tp": 0.5}}]}

    def got(risk, tp):
        return {"cells": [{"reps_used": 4, "failed": 0,
                           "stats": {"proposal_risk": risk, "proposal_tp": tp}}]}

    assert compare_mc(got(2.0 * (1 + 5e-7), 0.75), want, reps=4) == []
    assert compare_mc(got(2.0 * (1 + 5e-6), 0.5), want, reps=4)
    assert compare_mc(got(2.0, 1.0), want, reps=4)
    assert compare_mc({"error": "IndexError"}, want, reps=4)


def test_att_failures_count_fits_not_replications():
    summary = {"cells": [
        {"reps_used": 5, "failed": 1,
         "stats": {"cbd-id_failures": 0.0, "cbd-opt_failures": 1.0, "mle_failures": 0.0}},
        {"reps_used": 4, "failed": 1, "stats": {"cbd-id_failures": 0.0,
                                                 "cbd-opt_failures": 0.0, "mle_failures": 0.0}},
    ]}
    assert count_units("att-comparison", 5, summary, 2) == (10, 30, 4)
    assert count_units("bias-known", 5, summary, 2) == (10, 10, 2)
    assert count_units("bias-known", 5, {"error": "IndexError"}, 2) == (10, 10, 10)


def test_import_profile_reads_cbdid_total_and_scipy_self_time():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1000 |   numpy",
        "import time:      2000 |       2000 |     scipy",
        "import time:       500 |        700 |     scipy.optimize",
        "import time:       300 |       5000 | cbdid",
    ])
    assert import_profile(text) == (pytest.approx(0.005), pytest.approx(0.0025))


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return seconds


def test_gauge_reads_a_unit_from_the_kernel_samples_inside_it(tmp_path):
    gauge = Gauge(tmp_path)
    unit, out = gauge.time(_spin, 5 * INTERVAL_S)
    raw, _, first, end = gauge.units[unit]
    assert out == 5 * INTERVAL_S
    assert end - first >= 3
    assert raw == pytest.approx(5 * INTERVAL_S - sum(gauge.inside[first:end]), abs=0.02)
    expected = raw * KERNEL_REF_S / (sum(gauge.inside[first:end]) / (end - first))
    assert gauge.adjusted(unit) == pytest.approx(expected)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_gauge_takes_a_child_process_samples_from_sampled_py(tmp_path):
    gauge = Gauge(tmp_path)
    unit, (_, stderr) = gauge.time(timed_python, "import time; time.sleep(0.35)", child=True)
    raw, _, first, end = gauge.units[unit]
    assert end - first >= 2
    assert gauge.adjusted(unit) > 0
    assert list(tmp_path.iterdir()) == []
    failing = subprocess.run([sys.executable, str(ROOT / "perfbench" / "sampled.py"),
                              str(tmp_path / "k.json"), "-m", "cbdid.cli", "--no-such-flag"],
                             cwd=ROOT, env=child_env(), capture_output=True, text=True)
    assert failing.returncode == 2 and "usage" in failing.stderr
    assert all(k > 0 for k in json.loads((tmp_path / "k.json").read_text()))


def test_gauge_reads_a_unit_without_samples_from_the_samples_around_it(tmp_path):
    gauge = Gauge(tmp_path)
    units = [gauge.time(_spin, 0.0)[0] for _ in range(2 * WINDOW + 2)]
    assert gauge.inside == []
    assert len(gauge.samples) == len(units) + 1
    gauge.samples[:] = [KERNEL_REF_S * (i + 1) for i in range(len(gauge.samples))]
    first, last = units[0], units[-1]
    # Unit 0 sits between samples 0 and 1 and sees samples 0 to WINDOW.
    assert gauge.adjusted(first) == pytest.approx(gauge.raw(first) / ((WINDOW + 2) / 2))
    # The last unit sees the WINDOW samples before it and the one after.
    n = len(gauge.samples)
    median = statistics.median(range(n - WINDOW, n + 1))
    assert gauge.adjusted(last) == pytest.approx(gauge.raw(last) / median)


def test_mc_pool_entries_fail_no_unit():
    reference = json.loads(REFERENCE.read_text())
    for jobs in MC_JOBS.values():
        for master in MC_POOL:
            for job in jobs:
                want = reference["mc"][job.key(master)]
                assert count_units(job.table, job.reps, want["outcome"], want["n_cells"])[2] == 0
    assert mc_entries("mc-select", 9) == [11, 1]
    assert mc_entries("mc-att-bias", 9) == [11]
