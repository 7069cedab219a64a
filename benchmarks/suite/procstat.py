"""Host record and ``/proc`` accounting for processes the suite starts."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

from . import spec

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    # The command name (field 2) may contain spaces and parentheses;
    # everything after the *last* ')' is space-separated.
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """utime + stime of one live process."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICK


def children(pid: int) -> List[int]:
    """Direct children of ``pid`` (the server's pool workers)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(int(entry))[1]) == pid:
                found.append(int(entry))
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited while we were looking
    return found


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of one live process (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def loadavg1() -> float:
    return os.getloadavg()[0]


def spin_ms() -> float:
    """CPU milliseconds a fixed pure-Python loop takes right now.

    The yardstick for the host itself: on a shared machine this reads
    1.0x to 1.9x its best from one second to the next, which the load
    average does not show.  Workloads sample it between repeats, outside
    every timed region; ``compare`` will not call a timing regressed when
    the yardstick moved by more than the bound between two documents.
    """
    started = time.process_time()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.process_time() - started) * 1e3


def host_record() -> Dict:
    """What the numbers were taken on; stored beside every result."""
    import numpy

    commit = None
    try:
        out = subprocess.run(
            ["git", "-C", str(spec.ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A directory under the checkout's ``.bench_tmp``, removed on exit."""
    spec.TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=spec.TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            spec.TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
