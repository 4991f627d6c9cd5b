"""Kernel tiers for the batched cache engine.

The batched simulator (:class:`~repro.cache.batchsim.BatchHierarchy`) runs
its hot loops through one of two tiers, both equivalence-tested to
bit-identical counters against the scalar oracle
:class:`~repro.cache.fastsim.FastHierarchy`:

``cnative``
    Flat-array kernels as one C translation unit, compiled on first use
    with the system C compiler and bound through ``ctypes``
    (:mod:`repro.cache.kernels.cnative`). The fast path.
``numpy``
    Per-set dict replay loops (:mod:`repro.cache.kernels.setreplay`) plus
    vectorized stream merging. The tier used when no C compiler is
    present.

The tier is not a setting: :func:`select_backend` picks ``cnative``
whenever the C library builds and loads, else ``numpy``. Because the
tiers are bit-identical, the choice stays out of result-cache digests.
"""

from __future__ import annotations

from repro.cache.kernels import cnative

__all__ = ["select_backend"]


def select_backend() -> str:
    """The kernel tier this process runs: ``"cnative"`` when the C
    library builds and loads (building it on first call), else
    ``"numpy"``."""
    return "cnative" if cnative.available() else "numpy"
