"""Assembled-CSR baseline operator (Table I row "Assembled")."""

from __future__ import annotations

import numpy as np

from ..fem import assembly
from ..parallel.executor import ParallelCSRMatVec
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
        # row-split SpMV through the engine; every row is one dot product,
        # so any split gives the bits of ``matrix @ u``
        self._spmv = (ParallelCSRMatVec(self.matrix, self._executor)
                      if self._executor is not None else None)

    def apply(self, u: np.ndarray) -> np.ndarray:
        if self._spmv is None:
            return self.matrix @ u
        return self._spmv(u)

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()
