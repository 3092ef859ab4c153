import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_snapshot.py"
_SPEC = importlib.util.spec_from_file_location("cli_snapshot", _PATH)
cli_snapshot = importlib.util.module_from_spec(_SPEC)
# The tool pins BLAS threads and puts src/ and the repo root on sys.path when
# loaded; keep both of those out of the other tests.
with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
    _SPEC.loader.exec_module(cli_snapshot)


def test_every_call_writes_a_distinct_output():
    names = [cli_snapshot.output_name(entry, snap.call, fmt)
             for snap in cli_snapshot.CALLS
             for entry in snap.entries
             for fmt in snap.formats]
    names += [cli_snapshot.table_output_name(table, seed, fmt)
              for table, seed, _ in cli_snapshot.TABLE_CALLS
              for fmt in cli_snapshot.FORMATS]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    assert not duplicates


def test_every_entry_is_in_the_pool():
    # An entry outside the pool would leave its call out of the snapshot.
    pool = set(range(cli_snapshot.POOL))
    assert all(set(snap.entries) <= pool for snap in cli_snapshot.CALLS)
