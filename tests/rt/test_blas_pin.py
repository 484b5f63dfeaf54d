"""One-thread BLAS in the runtime's workers: the fork-time pin.

Each ``repro.rt`` worker owns one core's worth of work.  An OpenBLAS left
at the host's thread count starts helper threads that spin after every
BLAS call, on cores the other workers need.  The parent therefore forks
its workers inside :func:`~repro.stap.threads.one_thread_children`.
These tests check that:

* the finder binds every OpenBLAS this process maps — NumPy's and
  SciPy's on a wheel install — so a renamed library or symbol fails here
  instead of silently bringing back spinning workers;
* every worker reports one kernel thread and one BLAS thread, and still
  runs on its main thread alone after a zgemm;
* the parent gets its own kernel budget and BLAS counts back after a
  successful run, a worker exception and a timeout.
"""

import os
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg  # noqa: F401  (maps SciPy's OpenBLAS)

from repro import CPIStream, ParallelSTAP, PipelineError
from repro.stap import threads
from repro.stap.threads import (
    kernel_threads,
    one_thread_children,
    openblas_libraries,
    set_kernel_threads,
)

from tests.core.test_golden_functional import golden_scenario
from tests.rt.test_failures import BrokenStream, StallingStream

pytestmark = [
    pytest.mark.rt,
    pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                       reason="the OpenBLAS finder reads /proc/self/maps"),
]

#: A parent state no run would set by itself: restoring it proves the
#: pin put back what it found rather than some default.
PARENT_BUDGET = 3
PARENT_BLAS_THREADS = 3


def mapped_openblas_paths():
    with open("/proc/self/maps") as maps:
        lines = [line.split() for line in maps]
    return {fields[-1] for fields in lines
            if len(fields) == 6 and "openblas" in fields[-1]}


def owned_by(package, path: str) -> bool:
    """True when ``path`` ships with ``package`` (its directory or the
    wheel's ``<name>.libs`` directory beside it)."""
    root = Path(package.__file__).resolve().parent
    path = Path(path).resolve()
    return root in path.parents or path.parent.name == f"{root.name}.libs"


def blas_counts():
    return [library.get_threads() for library in openblas_libraries()]


@pytest.fixture
def distinct_parent_state():
    """Set the parent's kernel budget and BLAS counts to values a pin
    would never leave behind; put the real ones back afterwards."""
    libraries = openblas_libraries()
    budget = threads._budget
    counts = [library.get_threads() for library in libraries]
    set_kernel_threads(PARENT_BUDGET)
    for library in libraries:
        library.set_threads(PARENT_BLAS_THREADS)
    try:
        yield
    finally:
        threads._budget = budget
        for library, count in zip(libraries, counts):
            library.set_threads(count)


class TestFinder:
    def test_every_mapped_openblas_is_bound(self):
        found = {library.path for library in openblas_libraries()}
        assert found == mapped_openblas_paths()

    def test_numpy_and_scipy_openblas_are_found(self):
        paths = [library.path for library in openblas_libraries()]
        assert any(owned_by(np, path) for path in paths), paths
        assert any(owned_by(scipy, path) for path in paths), paths

    def test_bindings_are_kept(self):
        first, second = openblas_libraries(), openblas_libraries()
        assert all(a.set_threads is b.set_threads for a, b in zip(first, second))


class TestPin:
    def test_pins_inside_and_restores_after(self, distinct_parent_state):
        with one_thread_children() as pinned:
            assert pinned == openblas_libraries() and pinned
            assert kernel_threads() == 1
            assert blas_counts() == [1] * len(pinned)
        assert kernel_threads() == PARENT_BUDGET
        assert blas_counts() == [PARENT_BLAS_THREADS] * len(pinned)

    def test_restores_after_an_exception(self, distinct_parent_state):
        with pytest.raises(KeyError):
            with one_thread_children():
                raise KeyError("boom")
        assert kernel_threads() == PARENT_BUDGET
        assert set(blas_counts()) == {PARENT_BLAS_THREADS}

    def test_without_openblas_pins_only_the_budget(self, monkeypatch):
        monkeypatch.setattr(threads, "openblas_libraries", lambda: ())
        budget = threads._budget
        with one_thread_children() as pinned:
            assert pinned == ()
            assert kernel_threads() == 1
        assert threads._budget == budget


def _threads_after_zgemm():
    """OS threads of this process after one zgemm."""
    a = np.ones((256, 256), dtype=complex)
    a @ a
    return len(os.listdir("/proc/self/task"))


def test_rt_workers_run_one_thread_blas(monkeypatch, tiny_params):
    """Every worker starts with one kernel thread and one BLAS thread,
    and after a zgemm it still runs on its main thread alone: no BLAS
    helper was started (as setting the count inside the child would)."""
    import repro.rt.runtime as runtime

    stage_body = runtime.run_stage

    def checked(ctx, stage, replica):
        counts = blas_counts()
        state = (kernel_threads(), counts, _threads_after_zgemm(), blas_counts())
        if not counts or state != (1, [1] * len(counts), 1, counts):
            raise RuntimeError(f"{stage} worker: budget, BLAS counts, threads "
                               f"after a zgemm, BLAS counts after = {state}")
        stage_body(ctx, stage, replica)

    monkeypatch.setattr(runtime, "run_stage", checked)
    stream = CPIStream(tiny_params, golden_scenario())
    result = ParallelSTAP(tiny_params, stream, num_cpis=3).run(timeout=60.0)
    assert len(result.reports) == 3


class TestParentRestored:
    def test_after_a_successful_run(self, distinct_parent_state, tiny_params):
        stream = CPIStream(tiny_params, golden_scenario())
        result = ParallelSTAP(tiny_params, stream, num_cpis=3).run(timeout=60.0)
        assert len(result.reports) == 3
        assert kernel_threads() == PARENT_BUDGET
        assert set(blas_counts()) == {PARENT_BLAS_THREADS}

    def test_after_a_worker_exception(self, distinct_parent_state, tiny_params):
        stream = BrokenStream(CPIStream(tiny_params, golden_scenario()), fail_at=1)
        with pytest.raises(PipelineError):
            ParallelSTAP(tiny_params, stream, num_cpis=3).run(timeout=60.0)
        assert kernel_threads() == PARENT_BUDGET
        assert set(blas_counts()) == {PARENT_BLAS_THREADS}

    def test_after_a_timeout(self, distinct_parent_state, tiny_params):
        stream = StallingStream(CPIStream(tiny_params, golden_scenario()), fail_at=1)
        with pytest.raises(PipelineError, match="exceeded"):
            ParallelSTAP(tiny_params, stream, num_cpis=3).run(timeout=1.0)
        assert kernel_threads() == PARENT_BUDGET
        assert set(blas_counts()) == {PARENT_BLAS_THREADS}

