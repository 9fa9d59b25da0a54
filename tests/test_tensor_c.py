"""Tensor-C kernel: both backends, equivalence, determinism, fallback.

``TensorCOperator`` runs the compiled C kernel when it loads and its NumPy
packed path otherwise; the ``kernel`` fixture runs a test on each (the
NumPy leg sets ``$REPRO_NO_CKERNEL``).  Mirrors the
``tests/test_parallel_executor.py`` style: every parallel claim is
``rtol=0`` (bitwise) against a separately built serial operator, because
every engine reduces the mesh's span partials in span order and both
backends accumulate elements strictly in index order; cross-kernel claims
(different arithmetic) use tight ``allclose``.
``backend="process"`` runs the parallel checks on the rank processes of
:mod:`repro.parallel.procomm`.
"""

import numpy as np
import pytest

from repro.fem import StructuredMesh, GaussQuadrature
from repro.matfree import make_operator
from repro.matfree import _ckernel
from repro.matfree.tensor_c import (
    PACKED_VALUES, build_packed_coefficients, unpack_sym,
)
from tests.conftest import parallel_engine

QUAD = GaussQuadrature.hex(3)
BACKENDS = ["thread", "process"]


@pytest.fixture(params=["compiled", "numpy"])
def kernel(request, monkeypatch):
    """Run on the C kernel (when it loads) and on the NumPy path."""
    if request.param == "numpy":
        monkeypatch.setenv(_ckernel.ENV_DISABLE, "1")
    _ckernel._reset_for_tests()
    yield request.param
    _ckernel._reset_for_tests()


def small_setup(shape=(3, 3, 4), seed=11):
    rng = np.random.default_rng(seed)
    mesh = StructuredMesh(shape, order=2, extent=(1.0, 0.8, 1.2))
    mesh.deform(lambda c: c + 0.02 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
    eta = np.exp(rng.normal(scale=0.5, size=(mesh.nel, QUAD.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    return mesh, eta, u


class TestPackedStorage:
    def test_packed_values_is_16(self):
        # 6 (symmetric S) + 9 (K) + 1 (w eta): the ~5x cut vs dense 81
        assert PACKED_VALUES == 16
        assert 81 / PACKED_VALUES > 4.0

    def test_pack_roundtrip_matches_dense_rank4(self):
        """The packed apply must contract exactly like the dense tensor
        C_cdef = w eta (delta_ce M_df + K_de K_fc), M = K K^T."""
        rng = np.random.default_rng(0)
        Jinv = rng.standard_normal((5, 27, 3, 3))
        weta = np.abs(rng.standard_normal((5, 27))) + 0.1
        g = rng.standard_normal((5, 27, 3, 3))
        packed = build_packed_coefficients(Jinv, weta)
        assert packed.shape == (5, 27, PACKED_VALUES)
        S = unpack_sym(packed)
        K = packed[..., 6:15].reshape(5, 27, 3, 3)
        w = packed[..., 15]
        t_packed = np.einsum("nqce,nqed->nqcd", g, S)
        t_packed += w[..., None, None] * np.einsum(
            "nqde,nqef,nqfc->nqdc", K, g, K
        ).transpose(0, 1, 3, 2)
        M = np.einsum("nqde,nqfe->nqdf", Jinv, Jinv)
        C = weta[..., None, None, None, None] * (
            np.einsum("ce,nqdf->nqcdef", np.eye(3), M)
            + np.einsum("nqde,nqfc->nqcdef", Jinv, Jinv)
        )
        t_dense = np.einsum("nqcdef,nqef->nqcd", C, g)
        assert np.allclose(t_packed, t_dense, rtol=1e-13, atol=1e-13)
        # major symmetry C_cdef = C_efcd: the operator stays symmetric
        assert np.allclose(C, C.transpose(0, 1, 4, 5, 2, 3))


class TestEquivalence:
    """tensor_c (both backends) vs the einsum tensor kernel."""

    @pytest.mark.parametrize("chunk", [3, 17, 4096])
    def test_matches_einsum_backends(self, kernel, chunk):
        mesh, eta, u = small_setup()
        y_t = make_operator("tensor", mesh, eta, quad=QUAD, chunk=chunk)(u)
        y_c = make_operator("tensor_c", mesh, eta, quad=QUAD, chunk=chunk)(u)
        assert np.abs(y_c - y_t).max() < 1e-13 * np.abs(y_t).max()

    def test_matches_einsum_backends_high_contrast(self, kernel):
        """Deformed mesh with eta spanning six decades (the sinker and
        rifting regime): still within 1e-13 of the einsum reference."""
        mesh, _, u = small_setup()
        rng = np.random.default_rng(12)
        eta = 10.0 ** rng.uniform(-3.0, 3.0, size=(mesh.nel, QUAD.npoints))
        assert eta.max() / eta.min() > 0.9e6
        y_t = make_operator("tensor", mesh, eta, quad=QUAD)(u)
        y_c = make_operator("tensor_c", mesh, eta, quad=QUAD)(u)
        assert np.abs(y_c - y_t).max() < 1e-13 * np.abs(y_t).max()

    def test_chunk_size_does_not_change_compiled_result(self):
        mesh, eta, u = small_setup()
        op = make_operator("tensor_c", mesh, eta, quad=QUAD, chunk=4)
        y1 = op(u)
        y2 = make_operator("tensor_c", mesh, eta, quad=QUAD)(u)
        if op.compiled:
            # the C path ignores _sub_chunks entirely: chunk-independent
            # bitwise
            assert np.array_equal(y1, y2)
        else:
            # chunk regroups the NumPy path's scatter: rounding only
            assert np.abs(y1 - y2).max() < 1e-13 * np.abs(y2).max()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_matches_serial_exactly(self, kernel, backend, workers):
        mesh, eta, u = small_setup()
        want = make_operator("tensor_c", mesh, eta, quad=QUAD,
                             workers=1).apply(u)
        with parallel_engine(backend, workers) as ex:
            op = make_operator("tensor_c", mesh, eta, quad=QUAD, executor=ex)
            assert np.array_equal(op.apply(u), want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_run_eta_update_parallel(self, kernel, backend):
        """In-place viscosity mutation between applies: coefficients must
        rebuild and rank processes re-snapshot (the headline bugfix)."""
        mesh, eta, u = small_setup()
        with parallel_engine(backend, 2) as ex:
            op = make_operator("tensor_c", mesh, eta.copy(),
                               quad=QUAD, executor=ex)
            op.apply(u)
            op.eta_q *= 3.0
            y_par = op.apply(u)
        # a serial operator built with the new viscosity: a stale
        # coefficient cache or rank snapshot fails the bitwise comparison
        ref_op = make_operator("tensor_c", mesh, eta * 3.0, quad=QUAD,
                               workers=1)
        assert ref_op.executor is None
        assert np.array_equal(y_par, ref_op.apply(u))

    def test_mesh_deform_rebuilds(self, kernel):
        mesh, eta, u = small_setup()
        op = make_operator("tensor_c", mesh, eta, quad=QUAD)
        op.apply(u)
        mesh.deform(lambda c: c * 1.2)
        ref = make_operator("tensor", mesh, eta, quad=QUAD).apply(u)
        assert np.allclose(op.apply(u), ref, rtol=1e-12, atol=1e-12)


class TestFallback:
    def test_kill_switch_forces_numpy_path(self, monkeypatch):
        mesh, eta, u = small_setup()
        _ckernel._reset_for_tests()
        y_default = make_operator("tensor_c", mesh, eta, quad=QUAD).apply(u)
        monkeypatch.setenv(_ckernel.ENV_DISABLE, "1")
        _ckernel._reset_for_tests()
        try:
            op = make_operator("tensor_c", mesh, eta, quad=QUAD)
            assert not op.compiled
            assert _ckernel.ENV_DISABLE in op.fallback_reason
            assert op.count_kind == "tensor_c_numpy"
            y = op.apply(u)
            assert np.abs(y - y_default).max() < 1e-13 * np.abs(y).max()
        finally:
            _ckernel._reset_for_tests()

    def test_compile_failure_degrades_gracefully(self, monkeypatch, tmp_path):
        monkeypatch.delenv(_ckernel.ENV_DISABLE, raising=False)
        monkeypatch.setenv(_ckernel.ENV_CACHE, str(tmp_path))
        monkeypatch.setattr(_ckernel, "_COMPILERS", ("definitely-not-a-cc",))
        _ckernel._reset_for_tests()
        try:
            assert not _ckernel.available()
            assert "compile failed" in _ckernel.unavailable_reason()
            mesh, eta, u = small_setup(shape=(2, 2, 2))
            op = make_operator("tensor_c", mesh, eta, quad=QUAD)
            assert not op.compiled
            assert np.isfinite(op.apply(u)).all()
        finally:
            _ckernel._reset_for_tests()


class TestDiagnostics:
    def test_nullspace_and_symmetry(self):
        from repro.mg.sa import rigid_body_modes

        mesh, eta, u = small_setup()
        op = make_operator("tensor_c", mesh, eta, quad=QUAD)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(u.size)
        assert op(u) @ v == pytest.approx(op(v) @ u, rel=1e-10)
        B = rigid_body_modes(mesh.coords)
        for j in range(6):
            assert np.abs(op(B[:, j])).max() < 1e-9

    def test_counts_follow_the_backend(self, kernel):
        """The flops an apply reports are those of the path that ran: the
        sum-factorized C kernel, or the NumPy dense-Kronecker sweeps."""
        from repro.perf.counts import OPERATOR_COUNTS

        mesh, eta, u = small_setup()
        op = make_operator("tensor_c", mesh, eta, quad=QUAD)
        op(u)
        expected = 11907 if op.compiled else 30375
        assert op.counts is OPERATOR_COUNTS[op.count_kind]
        assert op.counts.flops == expected
        assert op.flops_performed == expected * mesh.nel
        assert op._lookup_event_cost()[0] == expected * mesh.nel

    def test_gmg_fine_level_defaults_to_tensor_c(self):
        from repro.fem import DirichletBC, boundary_nodes, component_dofs
        from repro.mg.gmg import GMGConfig, build_gmg

        rng = np.random.default_rng(5)
        meshes = StructuredMesh((4, 4, 4), order=2).hierarchy(2)[::-1]
        etas = [np.ones((m.nel, 27)) for m in meshes]

        def bc_builder(m):
            bc = DirichletBC(3 * m.nnodes)
            for face, comp in (("xmin", 0), ("xmax", 0), ("ymin", 1),
                               ("ymax", 1), ("zmin", 2)):
                bc.add(component_dofs(boundary_nodes(m, face), comp), 0.0)
            return bc.finalize()

        mg, _ = build_gmg(meshes, etas, bc_builder,
                          GMGConfig(levels=2, coarse_solver="lu"))
        assert mg.levels[0].label == "gmg-fine[tensor_c]"
        b = rng.standard_normal(3 * meshes[0].nnodes)
        b[mg.levels[0].bc_mask] = 0.0
        x = mg(b)
        r = b - mg.levels[0].apply(x)
        assert np.linalg.norm(r) < 0.5 * np.linalg.norm(b)
