"""Typed simulation options: the one place runtime toggles live.

:class:`SimOptions` is a single dataclass that the CLI plumbs from
flags (``--debug-checks``, ``--network``, the policy flags) and that
the parallel harness ships to worker processes inside each
:class:`~repro.harness.parallel.PointSpec`.  There is one shared-access
path and one body per app: the per-page access loop and the scalar app
helpers they replaced are test oracles (``tests/access_oracle.py``,
``tests/app_oracle.py``), not options.  ``debug_checks`` is a checking
lever only — simulated results are bit-identical with it on or off.
``network`` selects the simulated interconnect backend
(docs/NETWORKS.md) and therefore *changes simulated results*.  It rides in SimOptions because it is plumbed the
same way (CLI flag -> context -> workers), but the authoritative copy
is :attr:`repro.config.RunConfig.network`, which enters the
result-cache key; each backend's results are pinned by their own
goldens (``tests/golden_networks.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class SimOptions:
    """Runtime options for one simulation.

    ``debug_checks``
        Re-verify bitmap/permission coherence at every barrier.
    ``network``
        Interconnect backend name (``memch``, ``rdma``, ``ethernet``;
        see docs/NETWORKS.md).  **Not** a wall-clock toggle: it changes
        simulated results and is copied into
        :attr:`repro.config.RunConfig.network` (the cache-keyed,
        authoritative field) by the facade and harness.
    ``granularity`` / ``prefetch`` / ``homing``
        The sharing-policy triple (docs/POLICIES.md): coherence unit
        size, software prefetch policy, and home-assignment policy.
        Like ``network`` these are simulated semantics, not wall-clock
        toggles — the authoritative, cache-keyed copies live on
        :class:`repro.config.RunConfig`; SimOptions only plumbs them
        CLI flag -> context -> workers.  The default triple
        ``(page, none, first-touch)`` reproduces the pre-policy
        simulator bit-for-bit.
    """

    debug_checks: bool = False
    network: str = "memch"
    granularity: str = "page"
    prefetch: str = "none"
    homing: str = "first-touch"

    @classmethod
    def from_flags(
        cls,
        debug_checks: bool = False,
        network: Optional[str] = None,
        granularity: Optional[str] = None,
        prefetch: Optional[str] = None,
        homing: Optional[str] = None,
    ) -> "SimOptions":
        """Build options from CLI flag values over the defaults."""
        options = cls()
        if debug_checks:
            options = replace(options, debug_checks=True)
        if network is not None:
            options = replace(options, network=network)
        if granularity is not None:
            options = replace(options, granularity=granularity)
        if prefetch is not None:
            options = replace(options, prefetch=prefetch)
        if homing is not None:
            options = replace(options, homing=homing)
        return options

    def apply(self) -> "SimOptions":
        """Install these options as the process-wide current set.

        Mirrors ``debug_checks`` into ``repro.core.fastpath.DEBUG``, the
        module global the barrier hook probes.  Returns self for
        chaining.
        """
        global _current
        _current = self
        from repro.core import fastpath

        fastpath.DEBUG = self.debug_checks
        return self


#: The process-wide options; ``repro.core.fastpath`` reads this at
#: import.  ``SimOptions.apply`` replaces it.
_current: Optional[SimOptions] = None


def current() -> SimOptions:
    """The active options (the defaults until something applies)."""
    global _current
    if _current is None:
        _current = SimOptions()
    return _current
