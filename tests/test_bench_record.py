import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_record.py"
sys.path.insert(0, str(TOOL.parent))

from bench_record import record, src_digest  # noqa: E402


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
