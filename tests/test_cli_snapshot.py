import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_tool

cli_snapshot = load_tool("cli_snapshot")


def test_every_call_writes_a_distinct_output():
    names = [cli_snapshot.output_name(entry, snap.call, fmt)
             for snap in cli_snapshot.CALLS
             for entry in snap.entries
             for fmt in snap.formats]
    names += [cli_snapshot.table_output_name(table, seed, fmt)
              for table, seed, formats, _ in cli_snapshot.TABLE_CALLS
              for fmt in formats]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    assert not duplicates


def test_every_entry_is_in_the_pool():
    # An entry outside the pool would leave its call out of the snapshot.
    pool = set(range(cli_snapshot.POOL))
    assert all(set(snap.entries) <= pool for snap in cli_snapshot.CALLS)


def test_every_table_runs_at_four_seeds():
    calls = {(table, seed): (formats, expected)
             for table, seed, formats, expected in cli_snapshot.TABLE_CALLS}
    assert set(calls) == {(table, seed) for table in cli_snapshot.TABLE_IDS
                          for seed in range(4)}
    assert calls.pop(("sel-cbd-opt", 0)) == (cli_snapshot.FORMATS, 3)
    assert all(expected == 0 and "json" in formats for formats, expected in calls.values())


def snapshots(tmp_path, rev_files, tree_files):
    dirs = []
    for side, files in (("rev", rev_files), ("tree", tree_files)):
        root = tmp_path / side
        root.mkdir()
        for name, content in files.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (root / name).write_text(text)
        dirs.append(root)
    return dirs


PAYLOAD = {"att": 1.5, "n": 300, "propensity": {"converged": True, "sup": 0.5},
           "theta": [0.25, -1.0]}
DRIFTED = {**PAYLOAD, "propensity": {"converged": True, "sup": 0.5 + 2.0**-50},
           "theta": [0.25, -1.0 * (1 + 1e-12)]}


def test_identical_snapshots_exit_0(tmp_path, capsys):
    files = {"00-a.json": PAYLOAD, "00-a.md": "x\n", "exit-codes.txt": "00-a.json 0\n"}
    assert cli_snapshot.compare(*snapshots(tmp_path, files, files)) == 0
    assert capsys.readouterr().out == (
        "3 files in both directories; float drift in 0 key paths\n")


def test_float_drift_is_reported_by_key_path(tmp_path, capsys):
    dirs = snapshots(tmp_path, {"a.json": PAYLOAD, "b.json": PAYLOAD, "a.md": "x\n"},
                     {"a.json": DRIFTED, "b.json": DRIFTED, "a.md": "x\n"})
    assert cli_snapshot.compare(*dirs) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3 files in both directories; float drift in 4 key paths"
    assert "  a: propensity.sup: 1 files, max relative drift 1.78e-15" in out
    assert "  b: theta[*]: 1 files, max relative drift 1.00e-12" in out
    assert "DIFFERS" not in out


def test_float_drift_reads_per_call_without_the_entry_prefix(tmp_path, capsys):
    rev = {"00-estimate.json": PAYLOAD, "03-estimate.json": PAYLOAD,
           "01-simulate-bias-known.json": {"true": 0.5}}
    tree = {"00-estimate.json": DRIFTED, "03-estimate.json": PAYLOAD,
            "01-simulate-bias-known.json": {"true": 0.5 * (1 + 1e-9)}}
    assert cli_snapshot.compare(*snapshots(tmp_path, rev, tree)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "3 files in both directories; float drift in 3 key paths",
        "  estimate: propensity.sup: 1 files, max relative drift 1.78e-15",
        "  estimate: theta[*]: 1 files, max relative drift 1.00e-12",
        "  simulate-bias-known: true: 1 files, max relative drift 1.00e-09",
    ]


@pytest.mark.parametrize("rev, tree, message", [
    ({"a.md": "x\n"}, {"a.md": "y\n"}, "a.md: bytes differ"),
    ({"a.json": PAYLOAD}, {"a.json": {**PAYLOAD, "n": 301}}, "a.json: n: 300 against 301"),
    ({"a.json": PAYLOAD}, {"a.json": {**PAYLOAD, "att": 2}}, "a.json: att: float 1.5 against int 2"),
    ({"a.json": PAYLOAD}, {"a.json": {**PAYLOAD, "theta": [0.25]}},
     "a.json: theta: 2 items against 1"),
    ({"a.json": PAYLOAD}, {"a.json": {**PAYLOAD, "extra": 1}}, "a.json: (top level): keys"),
    ({"a.json": PAYLOAD, "exit-codes.txt": "a 0\n"}, {"a.json": PAYLOAD}, "only in"),
])
def test_any_other_difference_exits_2(tmp_path, capsys, rev, tree, message):
    assert cli_snapshot.compare(*snapshots(tmp_path, rev, tree)) == 2
    assert f"DIFFERS {message}" in capsys.readouterr().out


def test_a_differing_text_file_prints_its_diff(tmp_path, capsys):
    rev = {"00-a.md": "| att |\n| 1.5 |\n", "00-a.json": PAYLOAD}
    tree = {"00-a.md": "| att |\n| 1.6 |\n", "00-a.json": DRIFTED}
    assert cli_snapshot.compare(*snapshots(tmp_path, rev, tree)) == 2
    out = capsys.readouterr().out
    assert "  a: theta[*]: 1 files, max relative drift 1.00e-12" in out
    assert out.split("DIFFERS ")[1].splitlines() == [
        "00-a.md: bytes differ", "--- rev/00-a.md", "+++ tree/00-a.md", "@@ -1,2 +1,2 @@",
        " | att |", "-| 1.5 |", "+| 1.6 |"]


def test_json_of_equal_values_in_other_bytes_exits_2(tmp_path, capsys):
    rev, tree = snapshots(tmp_path, {"a.json": '{"x": 0.0}'}, {"a.json": '{"x": -0.0}'})
    assert cli_snapshot.compare(rev, tree) == 2
    assert "DIFFERS a.json: bytes differ" in capsys.readouterr().out


def fake_sides(monkeypatch, write_side):
    """Run ``against`` with git, tar and the two snapshot processes faked:
    ``write_side(side, out)`` writes a side's snapshot.  Returns the argv of
    each snapshot process."""
    runs = []

    def fake_run(argv, **kwargs):
        if argv[0] == "tar":  # the archive of REV holds a tools/ directory
            (Path(argv[3]) / "checkout" / "tools").mkdir(parents=True)
        elif argv[0] == sys.executable:
            runs.append(argv)
            write_side(Path(argv[2]).name, Path(argv[2]))
        return subprocess.CompletedProcess(argv, 0, stdout=b"")

    monkeypatch.setattr(cli_snapshot.subprocess, "run", fake_run)
    return runs


def test_against_keeps_both_sides_in_outdir(tmp_path, monkeypatch, capsys):
    def write_side(side, out):
        out.mkdir()
        (out / "exit-codes.txt").write_text("00-a.json 0\n")
        (out / "00-a.json").write_text(json.dumps(PAYLOAD if side == "rev" else DRIFTED))

    runs = fake_sides(monkeypatch, write_side)
    (tmp_path / "rev").mkdir()
    (tmp_path / "rev" / "stale.md").write_text("from an earlier run\n")
    assert cli_snapshot.main(["--against", "HEAD", str(tmp_path)]) == 1
    # The revision's side runs this tree's copy of the tool.
    rev_tool, tree_tool = (Path(argv[1]) for argv in runs)
    assert rev_tool.parts[-3:] == ("checkout", "tools", "cli_snapshot.py")
    assert tree_tool == cli_snapshot.ROOT / "tools" / "cli_snapshot.py"
    assert sorted(p.name for p in (tmp_path / "rev").iterdir()) == ["00-a.json", "exit-codes.txt"]
    assert json.loads((tmp_path / "tree" / "00-a.json").read_text()) == DRIFTED
    assert "  a: theta[*]: 1 files" in capsys.readouterr().out


@pytest.mark.parametrize("stopped", ["rev", "tree"])
def test_against_a_side_without_exit_codes_exits_2(tmp_path, monkeypatch, capsys, stopped):
    def write_side(side, out):
        out.mkdir()
        (out / "00-a.json").write_text(json.dumps(PAYLOAD))
        if side != stopped:
            (out / "exit-codes.txt").write_text("00-a.json 0\n")

    fake_sides(monkeypatch, write_side)
    assert cli_snapshot.main(["--against", "HEAD", str(tmp_path)]) == 2
    assert f"{stopped} stopped before exit-codes.txt" in capsys.readouterr().err


def test_against_a_revision_git_cannot_archive(monkeypatch, capsys):
    def failing_git(argv, **kwargs):
        raise subprocess.CalledProcessError(128, argv)

    monkeypatch.setattr(cli_snapshot.subprocess, "run", failing_git)
    assert cli_snapshot.main(["--against", "no-such-rev"]) == 2
    assert "returned non-zero exit status 128" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["--against"], ["a", "b"], ["--against", "R", "O", "x"]])
def test_usage_error(capsys, argv):
    assert cli_snapshot.main(argv) == 2
    assert "--against REV [OUTDIR]" in capsys.readouterr().err
