import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_record.py"
sys.path.insert(0, str(TOOL.parent))

from bench_record import END_TO_END, main, record, src_digest  # noqa: E402


@pytest.mark.slow
def test_records_one_workload():
    bench = record(0, 1, ("mc-att-bias",))
    assert bench["pr"] == 0 and bench["seconds"] == 1
    assert bench["src_sha256"] == src_digest()
    assert bench["machine"]["nproc"] >= 1
    (name, workload), = bench["workloads"].items()
    assert name == "mc-att-bias"
    assert workload["correct"] is True and workload["failed"] == 0
    assert list(workload["end_to_end"]) == ["setup_s", "import_s", "rate_per_s",
                                            "heavy_rate_per_s", "peak_rss_mb"]
    assert workload["end_to_end"]["rate_per_s"]["unit"] == "1/s"
    assert workload["per_layer"]["propensity.fit_mle.calls"]["value"] > 0


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


def test_against_a_missing_record(tmp_path, capsys):
    (tmp_path / "BENCH_1.json").write_text(json.dumps(synthetic_record(1, {})))
    assert main(["2", "--out", str(tmp_path / "BENCH_2.json"),
                 "--against", str(tmp_path / "BENCH_1.json")]) == 2
    assert "BENCH_2.json" in capsys.readouterr().err
