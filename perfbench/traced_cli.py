"""Run one cbdid CLI call under the span tracer and write its spans as JSON.

Usage: python perfbench/traced_cli.py RUN_ID SPANS_JSON <cbdid cli arguments...>
Exits with the CLI's own exit code.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import cbdid.cli  # noqa: E402

from perfbench.spans import Tracer  # noqa: E402


def main() -> int:
    run_id, spans_path, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    with Tracer(run_id) as tracer:
        code = cbdid.cli.main(argv)
    spans_path.write_text(json.dumps(tracer.span_dicts()))
    return code


if __name__ == "__main__":
    sys.exit(main())
