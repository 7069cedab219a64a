"""Persistent on-disk cache of simulation results.

Every experiment point the harness runs — a parallel protocol run or a
sequential baseline — is a pure function of its configuration: the
simulator is deterministic (see ``tests/test_parallel_harness.py``), so
``(app, params, RunConfig, code version)`` fully determines the
:class:`repro.core.RunResult`.  This module memoizes that function on
disk, so repeated CLI invocations, benchmark reruns, and CI skip
already-computed points.

Keys are SHA-256 content hashes over a canonical JSON encoding of the
full configuration — the variant, processor count, every
:class:`~repro.config.ClusterConfig` and :class:`~repro.config.CostModel`
constant, all protocol feature flags, the application parameters, and a
fingerprint of the ``repro`` source tree (so stale results can never
survive a code change).  Each value is one entry file, written
atomically — see :class:`ResultCache` for its layout.

The cache directory resolves, in order: an explicit ``cache_dir``
argument (the CLI's ``--cache-dir``), ``$REPRO_DSM_CACHE``,
``$XDG_CACHE_HOME/repro-dsm``, then ``~/.cache/repro-dsm``.

Entries live in two-hex-char fingerprint-prefix subdirectories
(``ab/abcdef....pkl``), so a hot cache with tens of thousands of points
never turns a lookup into a linear scan of one huge directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import tempfile
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional

from repro.config import RunConfig

#: Bump to invalidate every existing cache entry (result shape change).
CACHE_SCHEMA = 6  # 6: every entry has its encoded section; no values stored

_ENV_VAR = "REPRO_DSM_CACHE"

_source_fingerprint: Optional[str] = None


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro-dsm"
    return Path.home() / ".cache" / "repro-dsm"


def source_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Computed once per process; any code change yields new cache keys, so
    results produced by older code are never served.
    """
    global _source_fingerprint
    if _source_fingerprint is None:
        import repro

        digest = hashlib.sha256()
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _source_fingerprint = digest.hexdigest()
    return _source_fingerprint


def _canonical(value: Any) -> Any:
    """Reduce a config value to canonically-serializable JSON."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)  # NumPy scalars
    if callable(item):
        return item()
    return repr(value)


def run_key(
    app: str,
    params: Dict[str, Any],
    run_cfg: RunConfig,
) -> str:
    """Cache key for one parallel protocol run."""
    cfg = run_cfg
    payload = {
        "kind": "run",
        "app": app,
        "params": _canonical(params),
        "variant": cfg.variant.name,
        "system": cfg.variant.system.value,
        "mechanism": cfg.variant.mechanism.value,
        "transport": cfg.variant.transport.value,
        "nprocs": cfg.nprocs,
        "cluster": _canonical(asdict(cfg.cluster)),
        "costs": _canonical(asdict(cfg.costs)),
        "flags": {
            "network": cfg.network,
            "exclusive_mode": cfg.exclusive_mode,
            "write_double_dummy": cfg.write_double_dummy,
            "remote_reads": cfg.remote_reads,
            "weak_state": cfg.weak_state,
            "warm_start": cfg.warm_start,
            "trace": cfg.trace,
            # Scaling knobs (PR 7): keyed by their *resolved* values so
            # an explicit setting and the automatic policy that picks
            # the same value share an entry, while policy changes (or
            # crossing the 32-processor threshold) never serve stale
            # results.
            "barrier_fanin": cfg.resolved_barrier_fanin,
            "hierarchical_barriers": cfg.hierarchical_barriers,
            "lrc_barrier_group": cfg.lrc_barrier_group,
            "dir_shards": cfg.resolved_dir_shards,
            "node_mem_pages": cfg.node_mem_pages,
            # Sharing-policy knobs (PR 10): granularity by resolved unit
            # bytes (``page`` and an explicit unit of the same size
            # share an entry).
            "granularity": cfg.resolved_unit_bytes,
            "prefetch": cfg.prefetch,
            "homing": cfg.homing,
        },
    }
    return _digest(payload)


def sequential_key(
    app: str,
    params: Dict[str, Any],
    page_size: int,
    costs,
) -> str:
    """Cache key for one sequential (unlinked) baseline run."""
    payload = {
        "kind": "sequential",
        "app": app,
        "params": _canonical(params),
        "page_size": page_size,
        "costs": _canonical(asdict(costs)),
    }
    return _digest(payload)


def _digest(payload: Dict[str, Any]) -> str:
    payload["schema"] = CACHE_SCHEMA
    payload["code"] = source_fingerprint()
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def key_for_spec(spec) -> str:
    """The cache key for one :class:`~repro.harness.parallel.PointSpec`.

    The single key derivation shared by the harness
    (:class:`~repro.harness.runner.ExperimentContext`), the serving
    layer (``repro.serving``), and the serving-aware
    ``repro.api.run_point`` — one spec, one fingerprint, everywhere.
    """
    if spec.is_sequential:
        return sequential_key(
            spec.app, spec.params, spec.cluster.page_size, spec.costs
        )
    return run_key(spec.app, spec.params, spec.run_config())


@dataclass
class CacheStats:
    """Hit/miss accounting for one harness or serving invocation.

    ``coalesced`` counts requests that never touched the disk at all:
    the serving layer's singleflight folded them onto an identical
    in-flight computation (``repro.serving``).  ``evictions`` counts
    entries removed to keep a bounded cache (``max_bytes`` /
    ``max_entries``) within its limits — whether by
    :meth:`ResultCache.put` making room or by an explicit
    :meth:`ResultCache.prune` (the serving layer's background sweep).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    coalesced: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for result envelopes and JSON payloads."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
        }

    def __str__(self) -> str:
        text = f"{self.hits} hit(s), {self.misses} miss(es)"
        if self.coalesced:
            text += f", {self.coalesced} coalesced"
        return text


class Encoded(NamedTuple):
    """A result in its served form: canonical JSON bytes and their digest.

    ``data`` is :func:`encode_result` of the result; ``digest`` is the
    64-hex SHA-256 of ``data``.  Written by every :meth:`ResultCache.put`
    into the entry header and encoded section, and spliced unchanged
    into every reply that serves the entry.
    """

    digest: str
    data: bytes


def result_payload(result) -> Dict[str, Any]:
    """The canonical client-facing view of one :class:`RunResult`.

    Everything here is a pure function of the simulation — no serving
    metadata, no wall-clock, no ``extras`` — so the payload of a cache
    hit, a coalesced await, and a fresh computation are identical.  The
    workers' return values appear only as their ``values_sha256``.
    """
    return {
        "program": result.program,
        "variant": result.config.variant.name,
        "nprocs": result.config.nprocs,
        "exec_time_us": result.exec_time,
        "network_bytes": result.network_bytes,
        "counters": {
            k: int(v)
            for k, v in sorted(result.stats.aggregate_counters().items())
            if v
        },
        "breakdown_us": result.breakdown.as_dict(),
        "values_sha256": result.values_sha256,
    }


def encode_result(result) -> bytes:
    """Canonical bytes of :func:`result_payload` (sorted, compact)."""
    return json.dumps(
        result_payload(result), sort_keys=True, separators=(",", ":")
    ).encode()


def encode_with_digest(result) -> Encoded:
    """:func:`encode_result` and its SHA-256, as one :class:`Encoded`."""
    data = encode_result(result)
    return Encoded(hashlib.sha256(data).hexdigest(), data)


def result_digest(result) -> str:
    """SHA-256 hexdigest over :func:`encode_result`."""
    return encode_with_digest(result).digest


#: Entry header: magic, encoded-section length, pickle-section length,
#: 64-hex SHA-256 of the encoded section.
_HEADER = struct.Struct(">8sQQ64s")
_MAGIC = b"RDSMres6"

#: What unpickling a length-checked section can still raise: a damaged
#: stream, or a class that moved since the entry was written.
_UNPICKLE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    TypeError,
    ValueError,
)


def _read_entry(stream, encoded: bool):
    """Decode one open entry file; None when truncated or corrupt."""
    head = stream.read(_HEADER.size)
    if len(head) != _HEADER.size:
        return None
    magic, encoded_len, pickle_len, digest = _HEADER.unpack(head)
    size = os.fstat(stream.fileno()).st_size
    if magic != _MAGIC or size != _HEADER.size + encoded_len + pickle_len:
        return None
    if encoded:
        data = stream.read(encoded_len)
        if hashlib.sha256(data).hexdigest().encode() != digest:
            return None
        return Encoded(digest.decode(), data)
    stream.seek(encoded_len, os.SEEK_CUR)
    try:
        return pickle.loads(stream.read(pickle_len))
    except _UNPICKLE_ERRORS:
        return None


@dataclass
class ResultCache:
    """:class:`repro.core.RunResult` objects, one entry file per key.

    An entry is a fixed header, an *encoded section*, and a *pickle
    section*; every :meth:`put` writes all three::

        magic  encoded_len  pickle_len  digest | encoded bytes | pickle
        8s     u64          u64         64s    | encoded_len   | pickle_len

    The pickle section is the ``RunResult`` without its ``values``
    (``values=None``; ``values_sha256`` still pins them), which the
    harness reads back (:meth:`get` seeks past the encoded section).
    The encoded section is the result's served form (:class:`Encoded`):
    the serving lookup — ``get(key, encoded=True)`` — reads header and
    encoded section only, verifies the digest, and never unpickles.

    A file that fails the magic, length, or digest check, or whose
    pickle section does not load, is unlinked and reported as a miss.

    ``refresh=True`` turns every lookup into a miss (results are still
    stored), recomputing and overwriting existing entries — the CLI's
    ``--refresh`` escape hatch.

    ``max_bytes`` / ``max_entries`` (0 = unbounded, the default) bound
    the cache: :meth:`put` makes room *before* installing a new entry,
    evicting least-recently-used entries first, so the configured bound
    is never exceeded — not even transiently.  Recency is tracked in
    memory (seeded from file access times on first use, refreshed by
    every :meth:`get` hit, which also touches the file's ``atime`` so
    recency survives across processes).  :meth:`prune` enforces bounds
    on demand — the serving layer's background sweep hook — and
    :meth:`clear` empties the cache.  All evictions are counted in
    ``stats.evictions``.
    """

    cache_dir: Optional[Path] = None
    refresh: bool = False
    stats: CacheStats = field(default_factory=CacheStats)
    max_bytes: int = 0
    max_entries: int = 0

    def __post_init__(self) -> None:
        if self.cache_dir is None:
            self.cache_dir = default_cache_dir()
        self.cache_dir = Path(self.cache_dir)
        self.max_bytes = int(self.max_bytes or 0)
        self.max_entries = int(self.max_entries or 0)
        # LRU index: key -> entry size, oldest first.  Built lazily by
        # _index() on the first operation that needs it.
        self._lru: Optional[Dict[str, int]] = None
        self._lru_bytes = 0

    @property
    def bounded(self) -> bool:
        return bool(self.max_bytes or self.max_entries)

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key[:2]}" / f"{key}.pkl"

    def get(self, key: str, encoded: bool = False):
        """The cached result for ``key``, or None on a miss.

        ``encoded=True`` is the serving lookup: it returns the entry's
        :class:`Encoded` section without unpickling anything.  On a
        bounded cache every hit refreshes the entry's recency (in
        memory and, best-effort, the file's ``atime``) so LRU eviction
        spares the hot set.
        """
        hit = None if self.refresh else self._load(self._path(key), encoded)
        if hit is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self.bounded:
            self._touch(key)
        return hit

    def _load(self, path: Path, encoded: bool):
        """Read the entry at ``path``; None when missing or damaged."""
        try:
            stream = open(path, "rb", buffering=0)
        except OSError:
            return None
        with stream:
            hit = _read_entry(stream, encoded)
        if hit is None:
            # Interrupted write, bit rot, version skew: drop and recompute.
            try:
                path.unlink()
            except OSError:
                pass
        return hit

    def put(self, key: str, result) -> Encoded:
        """Store ``result`` under ``key`` (atomic rename); returns the
        :class:`Encoded` form it wrote.

        On a bounded cache, room is made *before* the rename installs
        the entry (LRU evictions first), so the byte/entry bound holds
        at every instant — a stats scrape mid-load never observes an
        over-budget cache.
        """
        encoded = encode_with_digest(result)
        digest, data = encoded
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as stream:
                # Sections first, streamed; the header needs the pickle
                # length and is written last, into the gap left for it.
                stream.seek(_HEADER.size)
                stream.write(data)
                pickle.dump(
                    replace(result, values=None),
                    stream,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                size = stream.tell()
                stream.seek(0)
                stream.write(
                    _HEADER.pack(
                        _MAGIC,
                        len(data),
                        size - _HEADER.size - len(data),
                        digest.encode(),
                    )
                )
            if self.bounded:
                self._make_room(size, exclude=key)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        if self.bounded:
            index = self._index()
            self._lru_bytes += size - index.pop(key, 0)
            index[key] = size  # newest position
        return encoded

    # -- bounds: LRU index, eviction, pruning --------------------------

    def _entries(self) -> Iterator[Path]:
        """Every entry file: ``*.pkl`` in a two-hex-char shard directory."""
        try:
            children = list(self.cache_dir.iterdir())
        except OSError:
            return
        for child in children:
            if child.is_dir() and len(child.name) == 2:
                for entry in child.glob("*.pkl"):
                    # pathlib's glob matches dotfiles, so in-flight
                    # ``.tmp-*.pkl`` writes must be filtered or they
                    # count as phantom entries mid-put.
                    if not entry.name.startswith("."):
                        yield entry

    def _index(self) -> Dict[str, int]:
        """The in-memory LRU index (key -> bytes), oldest first.

        Built on first use from one directory scan, ordered by file
        access time so recency carries over from previous processes;
        after that, :meth:`get`/:meth:`put` maintain it incrementally.
        """
        if self._lru is None:
            found = []
            for entry in self._entries():
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                found.append(
                    (max(stat.st_atime, stat.st_mtime),
                     entry.stem, stat.st_size)
                )
            found.sort()
            self._lru = {key: size for _, key, size in found}
            self._lru_bytes = sum(self._lru.values())
        return self._lru

    def _touch(self, key: str) -> None:
        """Move ``key`` to the most-recent end of the LRU index."""
        index = self._index()
        size = index.pop(key, None)
        if size is None:
            return
        index[key] = size
        try:
            os.utime(self._path(key))
        except OSError:
            pass

    def _make_room(self, incoming: int, exclude: str = "") -> None:
        """Evict LRU entries until ``incoming`` bytes fit the bounds.

        ``exclude`` is the key about to be written: never evicted here
        (its old copy is being replaced), and its current size is
        discounted when projecting the post-write totals.
        """
        index = self._index()
        while True:
            replaced = index.get(exclude, 0)
            entries_after = len(index) + (0 if exclude in index else 1)
            bytes_after = self._lru_bytes - replaced + incoming
            over = (
                self.max_entries and entries_after > self.max_entries
            ) or (self.max_bytes and bytes_after > self.max_bytes)
            if not over:
                return
            victim = next((k for k in index if k != exclude), None)
            if victim is None:
                return
            self._evict(victim)

    def _evict(self, key: str) -> None:
        index = self._index()
        size = index.pop(key, 0)
        self._lru_bytes -= size
        try:
            self._path(key).unlink()
        except OSError:
            pass
        self.stats.evictions += 1

    def _sweep_stale(self) -> int:
        """Unlink ``*.pkl`` files in the cache root; returns their bytes.

        Nothing has written there since entries moved into shard
        subdirectories, no key of this schema can name them, and the
        LRU index does not list them — without this they would outlive
        every bound.
        """
        reclaimed = 0
        for stale in self.cache_dir.glob("*.pkl"):
            try:
                size = stale.stat().st_size
                stale.unlink()
            except OSError:
                continue
            reclaimed += size
            self.stats.evictions += 1
        return reclaimed

    def _reclaim(self, over: Callable[[], Any]) -> Dict[str, int]:
        """Sweep stale files, then evict LRU-first while ``over()``."""
        index = self._index()
        before_evictions = self.stats.evictions
        before_bytes = self._lru_bytes
        swept = self._sweep_stale()
        while index and over():
            self._evict(next(iter(index)))
        return {
            "evicted": self.stats.evictions - before_evictions,
            "reclaimed_bytes": swept + before_bytes - self._lru_bytes,
            "entries": len(index),
            "bytes": self._lru_bytes,
        }

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> Dict[str, int]:
        """Enforce the byte/entry bounds now; returns an eviction report.

        ``max_bytes`` / ``max_entries`` override the configured bounds
        for this call (0 = unbounded; ``max_entries=0`` with
        ``max_bytes=0`` therefore evicts no entry).  Files older
        layouts left in the cache root are removed regardless.  This is
        the serving layer's background sweep hook and the engine behind
        ``repro-dsm cache prune`` / :func:`repro.api.cache_prune`.
        """
        bytes_bound = self.max_bytes if max_bytes is None else max_bytes
        entry_bound = (
            self.max_entries if max_entries is None else max_entries
        )
        return self._reclaim(
            lambda: (entry_bound and len(self._lru) > entry_bound)
            or (bytes_bound and self._lru_bytes > bytes_bound)
        )

    def clear(self) -> Dict[str, int]:
        """Delete every entry; returns the same report as :meth:`prune`."""
        return self._reclaim(lambda: True)

    def summary(self) -> Dict[str, Any]:
        """One scan of the cache directory: entry and shard counts.

        Powering the serving layer's ``GET /v1/stats`` endpoint and the
        ``repro-dsm serve`` startup banner.
        """
        entries = 0
        total_bytes = 0
        shards = set()
        for entry in self._entries():
            try:
                total_bytes += entry.stat().st_size
            except OSError:
                continue  # evicted between the scan and the stat
            entries += 1
            shards.add(entry.parent)
        return {
            "cache_dir": str(self.cache_dir),
            "entries": entries,
            "shards": len(shards),
            "bytes": total_bytes,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
        }
