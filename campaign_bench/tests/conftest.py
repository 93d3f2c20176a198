"""Make the benchmark modules and the simulator importable for its self-tests."""

import pathlib
import sys

_BENCH = pathlib.Path(__file__).resolve().parents[1]
for path in (_BENCH, _BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
