"""Run the atomon CLI under the benchmark's tracer; write per-layer totals.

    PYTHONPATH=src python3 bench/traced_cli.py SUMMARY.json verify --all --json

Standard output and the exit code are the CLI's own. The summary is
``spans.summarize`` of every span the run recorded; the spans themselves are
not kept, since one ``verify --all`` records a few hundred thousand.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    summary_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import atomon.cli
    import atomon.serialize  # noqa: F401  (every traced layer must be loaded)

    tracer = spans.Tracer()
    with tracer.installed():
        code = atomon.cli.main(argv)
    summary_path.write_text(json.dumps(spans.summarize(tracer.reset())))
    return code


if __name__ == "__main__":
    sys.exit(main())
