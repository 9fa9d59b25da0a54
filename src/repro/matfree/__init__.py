"""Matrix-free application of the Q2 viscous (Stokes momentum) operator.

This package is the paper's headline contribution (SS III-D): applying the
variable-viscosity vector Laplacian ``v -> -div(2 eta D(v))`` without an
assembled sparse matrix.  Four interchangeable implementations are provided,
one per row of Table I:

``AssembledOperator``
    CSR SpMV baseline (memory-bandwidth bound; 4608 nonzeros/element).
``MFOperator``
    Reference matrix-free kernel: recomputes the isoparametric geometry and
    the full 81x27 physical gradient matrix every apply (53622 flops/el).
``TensorOperator``
    Exploits the tensor-product structure of Q2: the reference gradient
    factors into 1D basis/derivative matrices applied along each direction
    (15228 flops/el, ~3.5x fewer), with a working set small enough to batch
    many elements at once -- the NumPy analogue of the paper's AVX
    vectorization over elements.
``TensorCOperator``
    Variant storing a packed symmetric coefficient tensor
    ``(grad xi)^T (w eta) (grad xi)`` at setup (16 values/point), removing
    per-apply geometry recomputation at the cost of extra streamed bytes.
    Runs a sum-factorized, GIL-releasing C kernel when a C toolchain is
    available and a NumPy path otherwise.

All four produce identical discrete operators (to rounding), which the test
suite asserts; they differ only in flops-vs-bytes balance.
"""

from .assembled import AssembledOperator
from .mf import MFOperator
from .tensor import TensorOperator, NewtonTensorOperator
from .tensor_c import TensorCOperator

OPERATOR_TYPES = {
    "asmb": AssembledOperator,
    "mf": MFOperator,
    "tensor": TensorOperator,
    "tensor_c": TensorCOperator,
}


def make_operator(kind: str, mesh, eta_q, **kwargs):
    """Factory over the operator implementations of Table I."""
    try:
        cls = OPERATOR_TYPES[kind]
    except KeyError:
        raise ValueError(
            f"unknown operator kind {kind!r}; expected one of {sorted(OPERATOR_TYPES)}"
        ) from None
    return cls(mesh, eta_q, **kwargs)


__all__ = [
    "AssembledOperator",
    "MFOperator",
    "TensorOperator",
    "NewtonTensorOperator",
    "TensorCOperator",
    "OPERATOR_TYPES",
    "make_operator",
]
