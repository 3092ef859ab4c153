import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"

PANEL = """treat,x,y0,y1
1,0.5,1.0,2.0
0,1.5,0.5,0.5
1,1.0,2.0,3.5
0,0.2,1.0,1.5
1,1.8,0.0,1.0
0,0.9,1.0,0.5
"""


def run(tmp_path, *args):
    path = tmp_path / "panel.csv"
    path.write_text(PANEL)
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


def test_passes_the_output_through_and_reports_the_call(tmp_path):
    proc = run(tmp_path, "estimate", "--data", "panel.csv", "--ps", "mle", "--treat", "treat",
               "--ypre", "y0", "--ypost", "y1", "--covars", "x", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert "att" in json.loads(proc.stdout)
    name, peak, wall_name, wall, exit_name, code = proc.stderr.splitlines()[-1].split()
    assert (name, wall_name, exit_name, code) == ("peak_rss_mb", "wall_s", "exit", "0")
    assert float(peak) > 0 and float(wall) > 0


def test_exit_code_of_the_call(tmp_path):
    proc = run(tmp_path, "estimate", "--data", "missing.csv", "--treat", "treat",
               "--ypre", "y0", "--ypost", "y1", "--covars", "x")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith("exit 2")


def test_usage(tmp_path):
    proc = run(tmp_path)
    assert proc.returncode == 2
    assert "python3 tools/peak_rss.py ARGS..." in proc.stderr
