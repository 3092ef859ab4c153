import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "snapshot_drift.py"
_SPEC = importlib.util.spec_from_file_location("snapshot_drift", _PATH)
snapshot_drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(snapshot_drift)


def snapshots(tmp_path, rev_files, tree_files):
    dirs = []
    for side, files in (("rev", rev_files), ("tree", tree_files)):
        root = tmp_path / side
        root.mkdir()
        for name, content in files.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (root / name).write_text(text)
        dirs.append(str(root))
    return dirs


PAYLOAD = {"att": 1.5, "n": 300, "propensity": {"converged": True, "sup": 0.5},
           "theta": [0.25, -1.0]}


def test_float_drift_is_reported_by_key_path(tmp_path, capsys):
    moved = {**PAYLOAD, "propensity": {"converged": True, "sup": 0.5 + 2.0**-50},
             "theta": [0.25, -1.0 * (1 + 1e-12)]}
    dirs = snapshots(tmp_path, {"a.json": PAYLOAD, "b.json": PAYLOAD, "a.md": "x\n"},
                     {"a.json": moved, "b.json": moved, "a.md": "x\n"})
    assert snapshot_drift.main(dirs) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3 files in both directories; float drift in 2 key paths"
    assert "  propensity.sup: 2 files, max relative drift 1.78e-15" in out
    assert "  theta[*]: 2 files, max relative drift 1.00e-12" in out


@pytest.mark.parametrize("rev, tree, message", [
    ({"a.md": "x\n"}, {"a.md": "y\n"}, "a.md: bytes differ"),
    ({"a.json": PAYLOAD}, {"a.json": {**PAYLOAD, "n": 301}}, "a.json: n: 300 against 301"),
    ({"a.json": PAYLOAD}, {"a.json": {**PAYLOAD, "att": 2}}, "a.json: att: float 1.5 against int 2"),
    ({"a.json": PAYLOAD}, {"a.json": {**PAYLOAD, "theta": [0.25]}},
     "a.json: theta: 2 items against 1"),
    ({"a.json": PAYLOAD}, {"a.json": {**PAYLOAD, "extra": 1}}, "a.json: (top level): keys"),
    ({"a.json": PAYLOAD, "exit-codes.txt": "a 0\n"}, {"a.json": PAYLOAD}, "only in"),
])
def test_any_other_difference_fails(tmp_path, capsys, rev, tree, message):
    assert snapshot_drift.main(snapshots(tmp_path, rev, tree)) == 1
    assert f"DIFFERS {message}" in capsys.readouterr().out


def test_usage_error(capsys):
    assert snapshot_drift.main([]) == 2
    assert "REV_DIR TREE_DIR" in capsys.readouterr().err
