"""Content-addressed result cache for pipeline simulations.

Simulations are deterministic: one configuration always produces the same
``PipelineMetrics``, float for float.  That makes results content-addressable
— a stable key derived from *everything the simulation depends on* (STAP
parameters, processor assignment, machine calibration, CPI count, mode,
input rate, the pipeline switches) maps to the result, and any repeat of an
already-simulated point is a lookup instead of a run.

Key composition
---------------
The key is the SHA-256 of a canonical JSON document containing:

* a cache schema number (:data:`CACHE_SCHEMA`) and the package version —
  bumping either invalidates every entry, the backstop for behaviour
  changes the fingerprint cannot see;
* the resolved simulator-backend identity and its
  :data:`~repro.des.backends.ENGINE_SCHEMA`, so results from different
  engine cores are never conflated even though they are bit-identical by
  contract;
* every declared field of :class:`~repro.radar.parameters.STAPParams`
  (floats rendered with ``float.hex`` so distinct bit patterns never
  collide);
* the assignment's node counts (the cosmetic ``name`` is excluded — two
  differently-named assignments with equal counts simulate identically);
* the machine calibration: mesh dimensions, per-kernel compute rates,
  node model, network and packing cost models — plus the heterogeneous
  speed regions when the machine has any (the key component is omitted
  entirely for homogeneous machines, so their keys predate heterogeneity
  unchanged);
* ``num_cpis``, ``mode``, ``input_rate``, ``contention``,
  ``azimuth_cycle``, ``double_buffering``, ``collect_training``, and
  whether the run is the two-phase ``run_measured`` measurement.

Invalidation rules
------------------
Entries never expire by time; they are invalidated by *content*: change
any fingerprinted input and the key changes.  What the fingerprint cannot
observe — edits to the simulation code itself — is covered by the package
version baked into every key, so a release bump flushes the store.  The
in-process layer additionally evicts least-recently-used entries beyond
``maxsize``; the disk store only grows (delete the directory to reclaim
space).  A corrupt or unreadable disk entry is treated as a miss.

Only ``modeled``-mode points are cacheable: functional runs hash real CPI
cubes, which the fingerprint does not cover.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from copy import deepcopy
from pathlib import Path
from typing import Mapping, Optional

from repro.machine import Machine, Mesh2D, afrl_paragon
from repro.obs.metrics import metrics_registry
from repro.version import __version__

#: Bump to invalidate every cached result (schema or semantics change).
#: 2: cache keys gained the resolved engine-backend identity.
#: 3: campaign-store era — key documents carry the manifest schema, so
#:    results published before campaign manifests existed read as clean
#:    misses (their keys differ) rather than half-compatible entries.
CACHE_SCHEMA = 3

#: Version of the campaign manifest document (``manifest.json`` in a
#: :class:`~repro.exec.campaign.CampaignStore` directory).  A manifest
#: written under a different schema — or a different :data:`CACHE_SCHEMA`,
#: which changes every result key it references — loads as an *empty*
#: manifest (a clean miss for every point), never as an error.  Defined
#: here rather than in :mod:`repro.exec.campaign` because the result-key
#: fingerprint includes it.
MANIFEST_SCHEMA = 1

def _count(name: str, help: str, **labels) -> None:
    """Record one cache event into the metrics registry when it is on."""
    if metrics_registry.enabled:
        metrics_registry.counter(name, help, labels=labels or None).inc()


# -- fingerprinting ------------------------------------------------------------------
def _canon(value):
    """Canonical JSON-ready form of a fingerprint component.

    Floats are rendered with ``float.hex`` so the key distinguishes every
    bit pattern (two floats that print the same but differ in the last ulp
    simulate differently).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return value
    if isinstance(value, Mapping):
        return {str(k): _canon(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, Mesh2D):
        return [value.width, value.height]
    raise TypeError(f"cannot fingerprint {type(value).__name__}: {value!r}")


def machine_fingerprint(machine: Optional[Machine]) -> dict:
    """Everything about a machine the simulation's numbers depend on.

    The machine's display ``name`` is excluded; ``None`` fingerprints the
    default AFRL Paragon (what the pipeline builds when no machine is
    given).
    """
    machine = machine or afrl_paragon()
    fingerprint = {
        "mesh": _canon(machine.mesh),
        "node": _canon(machine.node),
        "network_cost": _canon(machine.network_cost),
        "packing_cost": _canon(machine.packing_cost),
    }
    # Heterogeneity enters the key only when present, so every
    # homogeneous key (the entire pre-heterogeneity store) is unchanged.
    if machine.speed_regions:
        fingerprint["speed_regions"] = _canon(machine.speed_regions)
    return fingerprint


def engine_fingerprint(backend) -> dict:
    """The simulator-core identity a result depends on.

    The *resolved* backend goes into the key (``None`` hashes to the
    default core it runs on), together with :data:`~repro.des.backends.ENGINE_SCHEMA`
    so a scheduling-semantics change in any backend flushes its entries.
    All backends are bit-identical by contract, but the cache must never
    *assume* that — conflating cores would make a backend bug silently
    contaminate reference results.
    """
    from repro.des.backends import ENGINE_SCHEMA, resolve_backend

    return {
        "backend": resolve_backend(backend),
        "engine_schema": ENGINE_SCHEMA,
    }


def point_fingerprint(point) -> dict:
    """The full key document of a :class:`~repro.exec.point.SimPoint`."""
    return {
        "schema": CACHE_SCHEMA,
        "manifest": MANIFEST_SCHEMA,
        "version": __version__,
        "engine": engine_fingerprint(getattr(point, "backend", None)),
        "params": _canon(point.params),
        "assignment": list(point.assignment.counts()),
        "machine": machine_fingerprint(point.machine),
        "num_cpis": point.num_cpis,
        "mode": point.mode,
        "input_rate": _canon(point.input_rate),
        "contention": str(point.contention),
        "azimuth_cycle": point.azimuth_cycle,
        "double_buffering": point.double_buffering,
        "collect_training": point.collect_training,
        "measured": point.measured,
    }


def cache_key(point) -> str:
    """Stable content hash of one simulation point."""
    document = json.dumps(
        point_fingerprint(point), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


# -- the cache -----------------------------------------------------------------------
class ResultCache:
    """Two-layer result store: in-process LRU over an optional disk store.

    ``get``/``put`` deep-copy results across the boundary, so a caller
    mutating a returned object (``run_measured`` patches throughput into
    its metrics, for example) can never poison the cached copy.
    """

    def __init__(self, maxsize: int = 256, directory=None):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: OrderedDict[str, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str):
        """The cached result for ``key``, or ``None`` (counts a miss)."""
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            _count("exec_cache_hits_total", "result-cache hits", layer="memory")
            return deepcopy(cached)
        if self.directory is not None:
            path = self._disk_path(key)
            try:
                with open(path, "rb") as handle:
                    result = pickle.load(handle)
            except FileNotFoundError:
                result = None
            except Exception:
                # Truncated or corrupt entry: a (counted) miss, not a crash.
                _count("exec_cache_corrupt_total",
                       "disk entries that existed but failed to load")
                result = None
            if result is not None:
                _count("exec_cache_hits_total", "result-cache hits", layer="disk")
                self._remember(key, result)
                return deepcopy(result)
        _count("exec_cache_misses_total", "result-cache lookups that missed")
        return None

    def contains(self, key: str) -> bool:
        """Whether an entry exists for ``key`` (memory or published disk).

        A pure existence probe — no counters, no load, no LRU promotion.
        This is the campaign queue's two-state test: atomic publishing
        means an existing file is never half-written, so presence means
        *complete* (a corrupt entry still degrades to a miss at ``get``
        time and the point simply reruns).
        """
        if key in self._memory:
            return True
        return self.directory is not None and self._disk_path(key).exists()

    def peek(self, key: str):
        """Load a result without touching counters or LRU order.

        For status probes (:meth:`~repro.exec.campaign.CampaignStore.progress`)
        that must observe a store without perturbing the hit/miss
        accounting the executor's tests assert on.  Corrupt or missing
        entries read as ``None``.
        """
        cached = self._memory.get(key)
        if cached is not None:
            return deepcopy(cached)
        if self.directory is None:
            return None
        try:
            with open(self._disk_path(key), "rb") as handle:
                return pickle.load(handle)
        except Exception:
            return None

    def put(self, key: str, result) -> None:
        """Store one result under its content key (memory, then disk)."""
        self._remember(key, deepcopy(result))
        _count("exec_cache_stores_total", "results written into the cache")
        if self.directory is None:
            return
        # Atomic publish: each writer fills a private temp file and
        # ``os.replace``\ s it over the entry, so a reader never sees a
        # half-written result and two processes completing the same key
        # concurrently resolve last-writer-wins (both replacements are
        # complete, valid entries — deterministic points make them
        # byte-equal anyway).  The directory (created in the constructor)
        # may have been removed since — a sweep cleaning its results tree,
        # a fresh nested ``--cache-dir`` — so it is (re)created here.
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._disk_path(key)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key[:12]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException as error:
            # Never leave a stray temp file behind; disk trouble (a full
            # or vanished store) degrades to memory-only, but a result
            # that cannot even be pickled is the caller's bug to see.
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            if not isinstance(error, OSError):
                raise

    def _remember(self, key: str, result) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk entries survive)."""
        self._memory.clear()


#: Sentinel distinguishing "use the process default" from "no cache".
USE_DEFAULT_CACHE = object()

_default_cache = ResultCache()


def get_default_cache() -> ResultCache:
    """The process-wide cache used when callers pass no cache of their own."""
    return _default_cache


def set_default_cache(cache: ResultCache) -> ResultCache:
    """Swap the process-wide cache; returns the previous one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def resolve_cache(cache) -> Optional[ResultCache]:
    """Map the public ``cache=`` argument onto an actual cache (or None)."""
    if cache is USE_DEFAULT_CACHE:
        return _default_cache
    return cache
