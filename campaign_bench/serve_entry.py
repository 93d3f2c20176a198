"""Traced service processes: install the span wrappers, then run ``repro-mc2``.

The traced ``calm-service`` batch starts its coordinator and workers as::

    python3 -u campaign_bench/serve_entry.py --spans DIR serve ARGS...
    python3 -u campaign_bench/serve_entry.py --spans DIR --cells CELLS.json \\
        worker ARGS...

where ``serve ARGS...`` / ``worker ARGS...`` are the same ``repro-mc2``
arguments the untraced batch passes to ``python3 -m repro.cli``.
``--cells`` names the batch's cell list, so worker spans carry each
cell's campaign position.  SIGINT stops either process; the span log is
written when the command returns.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True)
    ap.add_argument("--cells")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    import tracing
    from repro.cli import main as cli_main
    from repro.io.runspec_json import runspec_from_dict

    role = "coordinator" if args.command[:1] == ["serve"] else "worker"
    log = tracing.SpanLog(args.spans, role, "calm-service")
    if args.cells:
        with open(args.cells, encoding="utf-8") as fh:
            docs = json.load(fh)
        log.positions = {runspec_from_dict(d): i for i, d in enumerate(docs)}
    tracing.install(log)
    try:
        return cli_main(args.command)
    finally:
        tracing.uninstall()
        log.dump()


if __name__ == "__main__":
    sys.exit(main())
