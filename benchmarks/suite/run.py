"""One workload, one mode: the command ``BENCHMARK.json`` names.

``python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1``

Run as a script from any directory; it finds the repo from its own path.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no simulator under {_ROOT / 'src'}; nothing to measure")
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from benchmarks.suite import cli  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    raise SystemExit(cli.workload_main())
