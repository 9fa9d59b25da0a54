"""Compiled, element-slab-blocked Tensor-C backend (ROADMAP item 1).

The pure-NumPy einsum kernels cap Table 1 runs at 4^3-8^3 meshes: every
chunk materializes ``g``/``t`` temporaries of shape ``(chunk, 27, 3, 3)``
and the BLAS-shaped contractions stream them through memory three times.
Following the 3D-blocking matrix-free-smoother playbook (PAPERS.md,
arXiv 2509.19061), this backend lowers the packed-coefficient apply of
:class:`~repro.matfree.tensor_c.TensorCOperator` to a single C loop
(:mod:`repro.matfree._ckernel`):

* the reference gradient and its adjoint are sum-factorized (Eq. 19):
  eight 3x3 one-dimensional contractions with ``B_hat``/``D_hat`` per
  sweep instead of the dense 27x27 Kronecker factors, 11,907 flops per
  element against 30,375 for the NumPy packed apply;
* per-element scratch lives on the C stack -- the per-chunk ``C``/``g``/
  ``t`` temporaries disappear entirely;
* elements are processed in L2-sized blocks (:attr:`block` elements,
  default sized so a block's packed coefficients + vectors fit in half of
  L2), tiled **in element order** so the result is bit-identical for any
  block size;
* the packed 16-value symmetric coefficient storage (vs the dense 81) is
  streamed directly -- ~5x less coefficient traffic, which is what moves
  the roofline position at 16^3-32^3;
* the kernel is a plain ``ctypes`` call, so the GIL is released: the
  worker threads of :class:`~repro.parallel.executor.ParallelExecutor`
  scale it across element slabs with the same task-ordered, bit-exact
  reduction as every other kernel.

This is the default fine-level kind of ``StokesConfig``/``GMGConfig``.
When no C toolchain is available (or ``$REPRO_NO_CKERNEL`` is set) the
operator transparently degrades to the inherited NumPy packed apply --
same results to rounding, same contracts, slower.
"""

from __future__ import annotations

import os

import numpy as np

from . import _ckernel
from .tensor_c import TensorCOperator, PACKED_VALUES

#: default L2 budget per element block (bytes); half of a typical 1-2 MB
#: private L2 so the streamed coefficients coexist with gather/scatter lines
_DEFAULT_L2_BUDGET = 1 << 20


def default_block_elements(l2_bytes: int | None = None) -> int:
    """Elements per loop tile so one tile's working set sits in L2.

    Per element the kernel streams ``16 * 27`` packed coefficients plus a
    27-entry gather map and touches ~27 nodes of the in/out vectors:
    ~3.9 kB.  ``$REPRO_CKERNEL_BLOCK`` overrides the computed value.
    """
    env = os.environ.get("REPRO_CKERNEL_BLOCK")
    if env:
        return max(1, int(env))
    budget = l2_bytes or _DEFAULT_L2_BUDGET
    per_element = 8 * (PACKED_VALUES * 27 + 27) + 2 * 8 * 3 * 27
    return max(32, budget // per_element)


class TensorCompiledOperator(TensorCOperator):
    """Blocked compiled apply of the packed Tensor-C operator."""

    name = "tensor_compiled"

    def __init__(self, mesh, eta_q, quad=None, chunk=4096,
                 block: int | None = None, **parallel_opts):
        super().__init__(mesh, eta_q, quad, chunk, **parallel_opts)
        #: L2 tile size in elements (order-preserving; any value is exact)
        self.block = int(block) if block else default_block_elements()
        self._lib = _ckernel.load()
        # the kernel reads these as raw pointers: pin dtypes/contiguity once
        self._conn64 = np.ascontiguousarray(
            self.mesh.connectivity, dtype=np.int64
        )
        self._B_c = np.ascontiguousarray(self.B_hat, dtype=np.float64)
        self._D_c = np.ascontiguousarray(self.D_hat, dtype=np.float64)

    @property
    def compiled(self) -> bool:
        """True when applies go through the C kernel (else NumPy fallback)."""
        return self._lib is not None

    @property
    def fallback_reason(self) -> str | None:
        return _ckernel.unavailable_reason() if self._lib is None else None

    def _apply_elements(self, u: np.ndarray, s0: int, e0: int) -> np.ndarray:
        if self._lib is None:
            return super()._apply_elements(u, s0, e0)
        y = np.zeros(self.ndof)
        u = np.ascontiguousarray(u, dtype=np.float64)
        C = self._C
        if not C.flags.c_contiguous:  # pragma: no cover - built contiguous
            C = self._C = np.ascontiguousarray(C)
        self._lib.tc_apply(
            C.ctypes.data, self._conn64.ctypes.data,
            self._B_c.ctypes.data, self._D_c.ctypes.data,
            u.ctypes.data, y.ctypes.data,
            int(s0), int(e0), int(self.block),
        )
        return y
