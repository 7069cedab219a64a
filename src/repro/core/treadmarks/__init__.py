"""TreadMarks: lazy release consistency with twins and diffs
(Section 2.2 of the paper)."""

from repro.core.treadmarks.protocol import TreadMarksProtocol

__all__ = ["TreadMarksProtocol"]
