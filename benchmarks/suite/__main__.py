"""``python -m benchmarks.suite {run,compare}`` (from the repo root)."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT / "src")]

from benchmarks.suite import cli  # noqa: E402  (needs the path above)

raise SystemExit(cli.main())
