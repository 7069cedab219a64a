"""Typed simulation options: the one place runtime toggles live.

:class:`SimOptions` is a single dataclass that the CLI plumbs from
flags (``--no-fastpath``, ``--debug-checks``, ``--no-kernels``, ...)
and that the parallel harness ships to worker processes inside each
:class:`~repro.harness.parallel.PointSpec`.  Every toggle is a
wall-clock lever only — simulated results are bit-identical in every
combination (locked in by ``tests/test_engine_equivalence.py``) — with
one documented exception: ``network`` selects the simulated
interconnect backend (docs/NETWORKS.md) and therefore *changes
simulated results*.  It rides in SimOptions because it is plumbed the
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
    """Runtime toggles for one simulation (all default to the fast,
    production configuration; every field is A/B-verified bit-identical).

    ``fastpath``
        Vectorized permission-bitmap hit path for shared accesses
        (PR 3).  Off restores the per-page generator loop.
    ``debug_checks``
        Re-verify bitmap/permission coherence at every barrier.
    ``kernels``
        Vectorized application kernels over the bulk region API
        (PR 5).  Off restores the per-element scalar reference loops
        in every app — the A/B escape hatch for the kernel layer.
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

    fastpath: bool = True
    debug_checks: bool = False
    kernels: bool = True
    network: str = "memch"
    granularity: str = "page"
    prefetch: str = "none"
    homing: str = "first-touch"

    @classmethod
    def from_flags(
        cls,
        no_fastpath: bool = False,
        debug_checks: bool = False,
        no_kernels: bool = False,
        network: Optional[str] = None,
        granularity: Optional[str] = None,
        prefetch: Optional[str] = None,
        homing: Optional[str] = None,
    ) -> "SimOptions":
        """Build options from CLI flag values over the defaults."""
        options = cls()
        if no_fastpath:
            options = replace(options, fastpath=False)
        if debug_checks:
            options = replace(options, debug_checks=True)
        if no_kernels:
            options = replace(options, kernels=False)
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

        Mirrors the toggles into the modules that consume them
        (``repro.core.fastpath`` and ``repro.apps.kernels`` keep
        ``ENABLED``/``DEBUG`` module globals the hot paths probe).
        Returns self for chaining.
        """
        global _current
        _current = self
        from repro.core import fastpath

        fastpath.ENABLED = self.fastpath
        fastpath.DEBUG = self.debug_checks
        from repro.apps import kernels

        kernels.ENABLED = self.kernels
        return self


#: The process-wide options; the fast path and the kernel layer read
#: this at import.  ``SimOptions.apply`` replaces it.
_current: Optional[SimOptions] = None


def current() -> SimOptions:
    """The active options (the defaults until something applies)."""
    global _current
    if _current is None:
        _current = SimOptions()
    return _current
