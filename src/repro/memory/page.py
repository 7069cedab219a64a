"""Page protection states, as a hardware MMU would hold them.

"Page" here (and throughout the protocol layer) means one *coherence
unit* of the address space — the VM page by default, but a sub-page
block or multi-page region under a non-default granularity policy
(docs/POLICIES.md).  Sub-page protection is the policy layer's one
idealisation: real MMUs protect whole pages, so a fine-grained port
would need ECC tricks or instrumentation (Shasta-style) instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np


class Protection(enum.IntEnum):
    """Access rights of one processor's mapping of one page.

    Ordering is meaningful: ``NONE < READ < READ_WRITE``.
    """

    NONE = 0
    READ = 1
    READ_WRITE = 2

    def allows_read(self) -> bool:
        return self >= Protection.READ

    def allows_write(self) -> bool:
        return self >= Protection.READ_WRITE


@dataclass
class Mapping:
    """One processor's mapping of one page: its protection and its
    frame, the bytes it reads and writes (None when it has none)."""

    perm: Protection = Protection.NONE
    copy: Optional[np.ndarray] = None


def shared_frame(data: np.ndarray) -> np.ndarray:
    """A read-only view of ``data``: one physical frame any number of
    processors may map.  NumPy's write flag *is* the shared bit — a
    stray in-place write raises ``ValueError`` instead of corrupting
    every mapper."""
    frame = data.view()
    frame.flags.writeable = False
    return frame


def own_copy(page) -> np.ndarray:
    """``page.copy``, made private first if it is a shared frame:
    call before mutating a page copy in place (copy-on-write)."""
    if not page.copy.flags.writeable:
        page.copy = page.copy.copy()
    return page.copy
