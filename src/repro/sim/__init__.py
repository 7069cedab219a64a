"""A small deterministic discrete-event simulation kernel.

Processes are Python generators that ``yield`` events; the engine resumes
them when the event fires.  The kernel is single-threaded and fully
deterministic: events scheduled for the same instant fire in scheduling
order.
"""

from repro.sim.engine import (
    AnyOf,
    DeadlockError,
    Engine,
    Event,
    Interrupt,
    Process,
    Timeout,
    Until,
)

__all__ = [
    "AnyOf",
    "DeadlockError",
    "Engine",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "Until",
]
