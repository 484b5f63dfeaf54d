"""Per-layer numbers, measured from outside the program.

Layers are the packages of ``repro``.  A traced run is profiled with
cProfile; from the profile this module derives

* a package's **self time**: time in its own functions plus time in
  library code (NumPy, builtins, the standard library) that it calls
  directly, apportioned among callers by the time each edge recorded —
  never time spent in another ``repro`` package;
* a kernel's **entry time**: cumulative time at the functions through
  which a path enters that kernel (:data:`SEQUENTIAL_ENTRIES` for the
  sequential chain, :data:`TASK_ENTRIES` for the pipeline tasks).
"""

from __future__ import annotations

import cProfile
import os
import pstats
from time import perf_counter

import repro
from repro.core.assignment import TASK_NAMES
from repro.stap.flops import TASK_FLOPS

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep

#: Kernel -> (module path under ``repro/``, function name) through which
#: :meth:`repro.stap.reference.SequentialSTAP.process` enters it.  None
#: of these calls another, so their cumulative times add up.
SEQUENTIAL_ENTRIES = {
    "doppler": [("stap/doppler.py", "doppler_filter")],
    "easy_weight": [
        ("stap/easy_weights.py", "extract_easy_training"),
        ("stap/easy_weights.py", "push_training"),
        ("stap/easy_weights.py", "compute_weights"),
    ],
    "hard_weight": [
        ("stap/hard_weights.py", "extract_hard_training"),
        ("stap/hard_weights.py", "update"),
        ("stap/hard_weights.py", "compute_weights"),
    ],
    "easy_beamform": [("stap/beamform.py", "beamform_easy")],
    "hard_beamform": [("stap/beamform.py", "beamform_hard")],
    "pulse_compression": [
        ("stap/beamform.py", "assemble_beamformed"),
        ("stap/pulse_compression.py", "pulse_compress"),
    ],
    "cfar": [("stap/cfar.py", "cfar_detect")],
}

#: Kernel -> the functional pipeline task's ``compute`` step: the kernel
#: on one rank's block, plus the block assembly and packing around it.
TASK_ENTRIES = {
    name: [(f"core/tasks/{module}", "compute")]
    for name, module in zip(TASK_NAMES, (
        "doppler_task.py", "easy_weight_task.py", "hard_weight_task.py",
        "easy_bf_task.py", "hard_bf_task.py", "pc_task.py", "cfar_task.py",
    ))
}

#: Packages whose self time is reported (``<package>.self_s``).
SIM_PACKAGES = ("des", "mpi", "machine", "core")


def profiled(operation):
    """Run ``operation`` under cProfile: ``(result, wall seconds, stats)``."""
    profiler = cProfile.Profile()
    start = perf_counter()
    profiler.enable()
    try:
        result = operation()
    finally:
        profiler.disable()
    wall = perf_counter() - start
    return result, wall, pstats.Stats(profiler).stats


def package_of(filename: str) -> str | None:
    """``des`` for ``.../repro/des/engine.py``; None outside ``repro``."""
    if not filename.startswith(_REPRO_DIR):
        return None
    head, sep, _ = filename[len(_REPRO_DIR):].partition(os.sep)
    return head if sep else "repro"


def self_seconds(stats) -> dict[str, float]:
    """Self time per ``repro`` package (see the module docstring).

    Library time reached through no ``repro`` caller, such as the
    benchmark's own loop, is filed under ``other``.
    """
    shares: dict = {}

    def share_of(func, visiting) -> dict[str, float]:
        if func in shares:
            return shares[func]
        package = package_of(func[0])
        if package is not None:
            result = {package: 1.0}
        else:
            callers = {c: edge for c, edge in stats[func][4].items() if c in stats}
            total = sum(edge[2] for edge in callers.values())
            if func in visiting or total <= 0.0:
                result = {"other": 1.0}
            else:
                visiting.add(func)
                result = {}
                for caller, edge in callers.items():
                    weight = edge[2] / total
                    for name, part in share_of(caller, visiting).items():
                        result[name] = result.get(name, 0.0) + weight * part
                visiting.discard(func)
        shares[func] = result
        return result

    totals: dict[str, float] = {}
    for func, (_, _, inline, _, _) in stats.items():
        for name, part in share_of(func, set()).items():
            totals[name] = totals.get(name, 0.0) + inline * part
    return totals


def entry_seconds(stats, entries) -> dict[str, float]:
    """Cumulative seconds per kernel at its entry functions.

    Time an entry spends inside another entry is counted once, for the
    outer one.
    """
    owner = {}
    for func in stats:
        path = func[0].replace(os.sep, "/")
        for kernel, specs in entries.items():
            if any(path.endswith("/" + module) and func[2] == name
                   for module, name in specs):
                owner[func] = kernel
    seconds = {kernel: 0.0 for kernel in entries}
    for func, kernel in owner.items():
        cumulative, callers = stats[func][3], stats[func][4]
        nested = sum(edge[3] for caller, edge in callers.items() if caller in owner)
        seconds[kernel] += cumulative - nested
    return seconds


def kernel_layers(params, seconds_per_cpi: dict[str, float]) -> dict[str, float]:
    """``stap.<kernel>_s`` and ``stap.<kernel>_gflops`` (the paper's
    Table 1 flop count per CPI over the measured seconds per CPI)."""
    layers = {}
    for kernel in TASK_NAMES:
        seconds = seconds_per_cpi.get(kernel, 0.0)
        layers[f"stap.{kernel}_s"] = seconds
        layers[f"stap.{kernel}_gflops"] = (
            TASK_FLOPS[kernel](params) / seconds / 1e9 if seconds > 0.0 else 0.0)
    return layers


def rt_layers(snapshot, num_cpis: int) -> dict[str, float]:
    """``rt.<stage>.{comp,wait,backpressure}_s`` per CPI from the merged
    worker histograms of :mod:`repro.rt.metrics`."""
    series = {"comp_s": "rt_comp_seconds", "wait_s": "rt_queue_wait_seconds",
              "backpressure_s": "rt_backpressure_seconds"}
    layers = {}
    for stage in TASK_NAMES:
        for suffix, name in series.items():
            histogram = snapshot.histogram(name, {"stage": stage})
            total = histogram["sum"] if histogram else 0.0
            layers[f"rt.{stage}.{suffix}"] = total / num_cpis
    return layers
