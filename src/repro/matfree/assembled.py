"""Assembled-CSR baseline operator (Table I row "Assembled")."""

from __future__ import annotations

import numpy as np

from ..fem import assembly
from ..parallel.executor import partition_range
from .base import ViscousOperatorBase


class AssembledOperator(ViscousOperatorBase):
    """SpMV with the assembled viscous block.

    The paper's analysis: 4608 nonzeros per element, 37248 bytes streamed
    per element apply even with perfect vector caching, so peak throughput
    is bounded by memory bandwidth (85% of STREAM triad observed on Edison).
    Assembly cost and matrix storage are the price paid at setup.
    """

    name = "asmb"

    def __init__(self, mesh, eta_q, quad=None, chunk=2048, **parallel_opts):
        super().__init__(mesh, eta_q, quad, chunk, **parallel_opts)
        self.matrix = assembly.assemble_viscous(
            mesh, self.eta_q, self.quad, executor=self._executor
        )
        if self._executor is not None:
            # row-partitioned SpMV: each output row is one dot product
            # computed by exactly one task, so concatenating the blocks is
            # bit-identical to the full matvec.  Blocks are sliced eagerly
            # so forked ranks inherit them.
            self._row_spans = partition_range(self.ndof, self._executor.workers)
            self._row_sizes = [e - s for s, e in self._row_spans]
            self._row_blocks = {(s, e): self.matrix[s:e] for s, e in self._row_spans}

    def _apply_rows(self, u: np.ndarray, s: int, e: int) -> np.ndarray:
        return self._row_blocks[(s, e)] @ u

    def apply(self, u: np.ndarray) -> np.ndarray:
        if self._executor is None:
            return self.matrix @ u
        self._before_apply()
        return self._executor.dispatch(
            self, "_apply_rows", self._row_spans, u,
            sizes=self._row_sizes, mode="concat",
        )

    def apply_serial(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()
