"""Corpus-verification benchmark for mathverify.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify_both --seed 1 --seconds 12 --trace 0

It builds the workload's inputs from the seed, times passes of the
workload for ``--seconds`` seconds, checks every output against its known
answer and prints one line per metric, then one JSON object as the last
line.  With ``--trace 0`` the metrics are the end-to-end ones, measured
with tracing off; with ``--trace 1`` they are the per-layer ones of a
separate, serial, traced run.  The exit code is 0 only when every check
passed.  See README.md in this directory.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "mathverify" / "__init__.py").is_file():
        print(f"perfbench: no mathverify sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bench
    sys.exit(bench.main(sys.argv[1:]))
