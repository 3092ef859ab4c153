import json
import os
import subprocess
import sys

import pytest

from conftest import TOOLS, load_tool

TOOL = TOOLS / "bench_record.py"
bench_record = load_tool("bench_record")
END_TO_END, main, record, src_digest = (
    bench_record.END_TO_END, bench_record.main, bench_record.record, bench_record.src_digest)


@pytest.mark.slow
def test_records_one_workload(monkeypatch):
    # One traced run keeps this test at one short run per trace setting.
    monkeypatch.setattr(bench_record, "TRACED_RUNS", 1)
    bench = record(0, 1, ("mc-att-bias",))
    assert bench["pr"] == 0 and bench["seconds"] == 1 and bench["traced_runs"] == 1
    assert bench["src_sha256"] == src_digest()
    assert bench["machine"]["nproc"] >= 1
    (name, workload), = bench["workloads"].items()
    assert name == "mc-att-bias"
    assert workload["correct"] is True and workload["failed"] == 0
    assert list(workload["end_to_end"]) == ["setup_s", "import_s", "rate_per_s",
                                            "heavy_rate_per_s", "peak_rss_mb"]
    assert workload["end_to_end"]["rate_per_s"]["unit"] == "1/s"
    calls = workload["per_layer"]["propensity.fit_mle.calls"]
    assert calls["value"] > 0 and calls["min"] == calls["max"] == calls["value"]


def test_record_keeps_the_median_and_range_of_the_traced_runs(monkeypatch):
    # Synthetic reports in place of benchmark runs: one untraced, three traced.
    def report(trace, s, correct=True):
        metrics = {"rate_per_s": {"value": 2.0, "unit": "1/s"}} if not trace else {
            "data.load_csv.s": {"value": s, "unit": "s"},
            "data.load_csv.calls": {"value": 16.0, "unit": "count"}}
        return {"machine": {"nproc": 2}, "result": {
            "correct": correct, "attempted": 10, "failed": 1, "metrics": metrics}}

    reports = iter([report(0, None), report(1, 0.5), report(1, 0.2), report(1, 0.4, False)])
    runs = []

    def fake_run(copy, workload, seconds, trace):
        runs.append((workload, seconds, trace))
        return next(reports)

    monkeypatch.setattr(bench_record, "run_workload", fake_run)
    bench = record(7, 5, ("cli",))
    assert runs == [("cli", 5, 0)] + [("cli", 5, 1)] * 3
    assert bench["traced_runs"] == 3
    (workload,) = bench["workloads"].values()
    assert workload["correct"] is False
    assert workload["attempted"] == 40 and workload["failed"] == 4
    assert workload["end_to_end"] == {"rate_per_s": {"value": 2.0, "unit": "1/s"}}
    assert workload["per_layer"] == {
        "data.load_csv.s": {"value": 0.4, "min": 0.2, "max": 0.5, "unit": "s"},
        "data.load_csv.calls": {"value": 16.0, "min": 16.0, "max": 16.0, "unit": "count"},
    }


def test_src_digest_follows_the_source(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.write_text("x = 1\n")
    before = src_digest(tmp_path)
    module.write_text("x = 2\n")
    assert src_digest(tmp_path) != before


def test_usage():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: bench_record.py")


def synthetic_record(pr: int, values: dict[str, dict[str, float]],
                     layers: dict[str, dict[str, tuple[float, str]]] | None = None) -> dict:
    units = {"setup_s": "s", "import_s": "s", "rate_per_s": "1/s",
             "heavy_rate_per_s": "1/s", "peak_rss_mb": "MiB"}
    layers = layers or {}
    return {"pr": pr, "workloads": {
        name: {"correct": True, "attempted": 10, "failed": 0,
               "per_layer": {m: {"value": v, "unit": u}
                             for m, (v, u) in layers.get(name, {}).items()},
               "end_to_end": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
        for name, metrics in values.items()}}


def test_against_prints_both_records_and_the_ratio(tmp_path, capsys):
    old = synthetic_record(1, {"cli": dict(zip(END_TO_END, (0.2, 0.25, 1.6, 0.7, 100.0))),
                               "gone": {"rate_per_s": 3.0}},
                           {"cli": {"propensity.fit_cbd.identity.s": (0.9, "s"),
                                    "data.load_csv.calls": (16.0, "count"),
                                    "simlab.generate.s": (0.0, "s")},
                            "gone": {"cli.main.s": (1.0, "s")}})
    new = synthetic_record(2, {"cli": dict(zip(END_TO_END, (0.2, 0.25, 2.0, 0.875, 80.0))),
                               "added": {"rate_per_s": 5.0}},
                           {"cli": {"propensity.fit_cbd.identity.s": (0.45, "s"),
                                    "data.load_csv.calls": (16.0, "count"),
                                    "simlab.generate.s": (0.0, "s"),
                                    "estimator.fit_theta.s": (0.02, "s")}})
    (tmp_path / "BENCH_1.json").write_text(json.dumps(old))
    (tmp_path / "BENCH_2.json").write_text(json.dumps(new))
    assert main(["2", "--out", str(tmp_path / "BENCH_2.json"),
                 "--against", str(tmp_path / "BENCH_1.json")]) == 0
    end_to_end, per_layer = (table.splitlines()
                             for table in capsys.readouterr().out.split("\n\n"))
    assert end_to_end[0] == "| workload | metric | unit | BENCH_1.json | BENCH_2.json | new/old |"
    rows = {tuple(cell.strip() for cell in line.strip("|").split("|")[:2]): line
            for line in end_to_end[2:]}
    assert len(rows) == 3 * len(END_TO_END) == len(end_to_end) - 2
    assert rows["cli", "rate_per_s"] == "| cli | rate_per_s | 1/s | 1.6 | 2 | 1.250 |"
    assert rows["cli", "heavy_rate_per_s"] == "| cli | heavy_rate_per_s | 1/s | 0.7 | 0.875 | 1.250 |"
    assert rows["cli", "peak_rss_mb"] == "| cli | peak_rss_mb | MiB | 100 | 80 | 0.800 |"
    # A workload or metric in one record only shows its value and no ratio.
    assert rows["added", "rate_per_s"] == "| added | rate_per_s | 1/s | - | 5 | - |"
    assert rows["gone", "rate_per_s"] == "| gone | rate_per_s | 1/s | 3 | - | - |"
    assert rows["gone", "setup_s"] == "| gone | setup_s |  | - | - | - |"
    # The layers whose values differ, in the same form; equal ones are left out.
    assert per_layer == [
        "| workload | layer | unit | BENCH_1.json | BENCH_2.json | new/old |",
        "|---|---|---|---|---|---|",
        "| cli | propensity.fit_cbd.identity.s | s | 0.9 | 0.45 | 0.500 |",
        "| cli | estimator.fit_theta.s | s | - | 0.02 | - |",
        "| gone | cli.main.s | s | 1 | - | - |",
    ]


def test_against_prints_the_difference_of_the_tracer_overhead(tmp_path, capsys):
    # The overhead may read negative, so a ratio of two values means nothing.
    end_to_end = dict(zip(END_TO_END, (0.2, 0.25, 2.0, 1.0, 80.0)))
    old = synthetic_record(25, {"cli": end_to_end},
                           {"cli": {"trace.overhead_frac": (-0.110, "ratio"),
                                    "data.load_csv.s": (0.4, "s")}})
    new = synthetic_record(26, {"cli": end_to_end},
                           {"cli": {"trace.overhead_frac": (-0.5, "ratio"),
                                    "data.load_csv.s": (0.1, "s")}})
    (tmp_path / "BENCH_25.json").write_text(json.dumps(old))
    (tmp_path / "BENCH_26.json").write_text(json.dumps(new))
    assert main(["26", "--out", str(tmp_path / "BENCH_26.json"),
                 "--against", str(tmp_path / "BENCH_25.json")]) == 0
    per_layer = capsys.readouterr().out.split("\n\n")[1].splitlines()
    assert per_layer[2:] == [
        "| cli | trace.overhead_frac | ratio | -0.11 | -0.5 | new-old -0.390 |",
        "| cli | data.load_csv.s | s | 0.4 | 0.1 | 0.250 |",
    ]


def test_against_a_missing_record(tmp_path, capsys):
    (tmp_path / "BENCH_1.json").write_text(json.dumps(synthetic_record(1, {})))
    assert main(["2", "--out", str(tmp_path / "BENCH_2.json"),
                 "--against", str(tmp_path / "BENCH_1.json")]) == 2
    assert "BENCH_2.json" in capsys.readouterr().err


def test_against_marks_layer_ranges_that_do_not_overlap(tmp_path, capsys):
    end_to_end = dict(zip(END_TO_END, (0.2, 0.25, 2.0, 1.0, 80.0)))

    def ranged(value, low, high, unit="s"):
        return {"value": value, "min": low, "max": high, "unit": unit}

    old, new = (synthetic_record(pr, {"cli": end_to_end}) for pr in (26, 27))
    old["workloads"]["cli"]["per_layer"] = {
        "data.load_csv.s": ranged(0.4, 0.38, 0.58),
        "estimator.fit_theta.s": ranged(0.1, 0.09, 0.12),
        "selection.forward_select.s": {"value": 0.5, "unit": "s"},
        "simlab.generate.s": ranged(0.2, 0.2, 0.2),
    }
    new["workloads"]["cli"]["per_layer"] = {
        "data.load_csv.s": ranged(0.1, 0.09, 0.11),
        "estimator.fit_theta.s": ranged(0.11, 0.1, 0.13),
        "selection.forward_select.s": ranged(0.2, 0.1, 0.3),
        "simlab.generate.s": ranged(0.2, 0.19, 0.21),
    }
    (tmp_path / "BENCH_26.json").write_text(json.dumps(old))
    (tmp_path / "BENCH_27.json").write_text(json.dumps(new))
    assert main(["27", "--out", str(tmp_path / "BENCH_27.json"),
                 "--against", str(tmp_path / "BENCH_26.json")]) == 0
    per_layer = capsys.readouterr().out.split("\n\n")[1].splitlines()
    # Equal medians are left out; a side without a range shows no ranges.
    assert per_layer[2:] == [
        "| cli | data.load_csv.s | s | 0.4 (0.38-0.58) | 0.1 (0.09-0.11) | 0.250 disjoint |",
        "| cli | estimator.fit_theta.s | s | 0.1 (0.09-0.12) | 0.11 (0.1-0.13) | 1.100 |",
        "| cli | selection.forward_select.s | s | 0.5 | 0.2 | 0.400 |",
    ]


def test_run_tests_times_one_pytest_run(tmp_path):
    # A copy whose test imports from its own src/ and one that fails.
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "recorded_mod.py").write_text("X = 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_copy.py").write_text(
        "import recorded_mod\n\n\ndef test_src_on_path():\n    assert recorded_mod.X == 1\n")
    (tmp_path / "tests" / "test_fails.py").write_text("def test_fails():\n    assert False\n")
    passed = bench_record.run_tests(tmp_path, ("tests/test_copy.py",))
    assert passed["exit_code"] == 0 and "1 passed" in passed["summary"]
    assert passed["wall_s"] > 0
    failed = bench_record.run_tests(tmp_path, ("tests",))
    assert failed["exit_code"] == 1 and "1 failed, 1 passed" in failed["summary"]


def test_record_times_the_test_runs_in_the_copy(monkeypatch):
    def fake_run(copy, workload, seconds, trace):
        return {"machine": {"nproc": 2}, "result": {
            "correct": True, "attempted": 1, "failed": 0, "metrics": {}}}

    runs = []

    def fake_tests(copy, args):
        assert (copy / "tests" / "conftest.py").is_file()
        assert (copy / "pyproject.toml").is_file() and (copy / "tools").is_dir()
        runs.append(args)
        return {"wall_s": 1.5, "exit_code": 0, "summary": "1 passed"}

    monkeypatch.setattr(bench_record, "run_workload", fake_run)
    monkeypatch.setattr(bench_record, "run_tests", fake_tests)
    assert record(7, 5, ("cli",))["tests"] == {}
    bench = record(7, 5, ("cli",), {"tier1": ("-q",), "criterion6": ("tests/x.py",)})
    assert runs == [("-q",), ("tests/x.py",)]
    assert bench["tests"] == {name: {"wall_s": 1.5, "exit_code": 0, "summary": "1 passed"}
                              for name in ("tier1", "criterion6")}


def test_a_failed_test_run_fails_the_record(tmp_path, monkeypatch):
    def fake_record(pr, seconds, names, tests):
        assert tests is bench_record.TESTS
        return {"pr": pr, "workloads": {"cli": {"correct": True}},
                "tests": {"tier1": {"wall_s": 9.0, "exit_code": 1, "summary": "1 failed"}}}

    monkeypatch.setattr(bench_record, "record", fake_record)
    out = tmp_path / "BENCH_9.json"
    assert main(["9", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["tests"]["tier1"]["exit_code"] == 1


def test_main_leaves_sys_path_as_it_was(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "record", lambda pr, seconds, names, tests: {
        "pr": pr, "workloads": {"cli": {"correct": True}}, "tests": {}})
    before = list(sys.path)
    assert main(["9", "--out", str(tmp_path / "BENCH_9.json")]) == 0
    assert sys.path == before


def test_main_leaves_os_environ_as_it_was(tmp_path, monkeypatch):
    # A fresh import of perfbench.run, which pins BLAS threads when it runs.
    monkeypatch.delitem(sys.modules, "perfbench.run", raising=False)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(bench_record, "record", lambda pr, seconds, names, tests: {
        "pr": pr, "workloads": {"cli": {"correct": True}}, "tests": {}})
    before = dict(os.environ)
    assert main(["9", "--out", str(tmp_path / "BENCH_9.json")]) == 0
    assert "perfbench.run" in sys.modules
    assert dict(os.environ) == before


def test_against_prints_the_test_wall_times(tmp_path, capsys):
    end_to_end = dict(zip(END_TO_END, (0.2, 0.25, 2.0, 1.0, 80.0)))
    old, new = (synthetic_record(pr, {"cli": end_to_end}) for pr in (26, 28))
    new["tests"] = {"tier1": {"wall_s": 99.0, "exit_code": 0, "summary": "440 passed"},
                    "criterion6": {"wall_s": 12.0, "exit_code": 1, "summary": "1 failed"}}
    (tmp_path / "BENCH_26.json").write_text(json.dumps(old))
    (tmp_path / "BENCH_28.json").write_text(json.dumps(new))
    assert main(["28", "--out", str(tmp_path / "BENCH_28.json"),
                 "--against", str(tmp_path / "BENCH_26.json")]) == 0
    tests = capsys.readouterr().out.split("\n\n")[2].splitlines()
    assert tests == [
        "| test run | unit | BENCH_26.json | BENCH_28.json | new/old |",
        "|---|---|---|---|---|",
        "| tier1 | s | - | 99 | - |",
        "| criterion6 | s | - | 12 (exit 1) | - |",
    ]
    old["tests"] = {"tier1": {"wall_s": 110.0, "exit_code": 0, "summary": "436 passed"}}
    (tmp_path / "BENCH_26.json").write_text(json.dumps(old))
    main(["28", "--out", str(tmp_path / "BENCH_28.json"),
          "--against", str(tmp_path / "BENCH_26.json")])
    assert "| tier1 | s | 110 | 99 | 0.900 |" in capsys.readouterr().out
