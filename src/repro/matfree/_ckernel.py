"""Build/load machinery for the compiled Tensor-C kernel.

The container bakes in NumPy but no Numba/Cython, so the compiled backend
is a small C translation unit compiled *at first use* with whatever system
compiler is available (``cc``/``gcc``/``clang``) and loaded through
:mod:`ctypes`.  Everything is guarded: if no toolchain exists, compilation
fails, or ``$REPRO_NO_CKERNEL`` is set, :func:`load` returns ``None`` and
:class:`~repro.matfree.tensor_c.TensorCOperator` runs its pure-NumPy
packed-coefficient path instead -- the suite passes either way.

Shared objects are cached under ``$REPRO_CKERNEL_CACHE`` (default
``~/.cache/repro``) keyed by a hash of the source and compile flags, so the
compile cost (~1 s) is paid once per machine, not per process.

Kernel contract (mirrors the executor's determinism contract)
-------------------------------------------------------------
``tc_apply(cpk, conn, bh, dh, u, y, s, e, off, ny)`` zeroes the caller's
window ``y`` -- ``ny`` values holding global dofs ``[off, off + ny)``, the
span's node planes (:func:`~repro.parallel.executor.span_window`) -- and
accumulates the viscous contributions of elements ``[s, e)`` into it **in
strictly increasing element order**.  The offset is an explicit argument
(dof ``d`` lands in ``y[d - off]``), so every engine reduces the same
per-span partials in span order; zeroing inside the kernel keeps that
pass outside the interpreter lock.  All per-element scratch (gathered
velocities, the sum-factorization stage buffers, reference gradients,
reference fluxes) lives on the C stack: no ``C``/``g``/``t`` chunk
temporaries are ever allocated.

The reference gradient is sum-factorized (paper Eq. 19): ``bh``/``dh`` are
the 3x3 one-dimensional basis and derivative matrices ``B^``/``D^``, and
each of the forward and adjoint sweeps is 8 one-dimensional contractions
(3888 flops) instead of a dense ``3 x 27 x 27`` apply (13122 flops).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

__all__ = ["available", "load", "unavailable_reason", "KERNEL_SOURCE"]

#: environment kill-switch: force the pure-NumPy fallback (CI fallback leg)
ENV_DISABLE = "REPRO_NO_CKERNEL"
#: override the shared-object cache directory
ENV_CACHE = "REPRO_CKERNEL_CACHE"

_CFLAGS = ["-O3", "-fPIC", "-shared", "-std=c11", "-fno-math-errno"]
_COMPILERS = ("cc", "gcc", "clang")

KERNEL_SOURCE = r"""
#include <stdint.h>

/* In-order, sum-factorized apply of the packed-coefficient Q2 viscous
 * operator.
 *
 * cpk  : (nel, 27, 16) packed per-quadrature-point coefficients
 *        [S00,S01,S02,S11,S12,S22, K row-major (9), w*det*eta]
 *        with S = w*eta * K K^T (K = inverse Jacobian).
 * conn : (nel, 27) element-to-node map (int64), nodes x-fastest.
 * bh,dh: (3, 3) 1D basis / derivative values B^[q][a], D^[q][a].
 * u    : (nnodes*3,) interleaved input velocities.
 * y    : output window holding global dofs [off, off + ny) (the span
 *        partial), zeroed here first.
 * s, e : element half-open range, accumulated in element order.
 * off  : global dof index of y[0]; dof d accumulates into y[d - off].
 * ny   : length of the window.
 *
 * The reference gradient g[q][c][d] = du_c/dxi_d is three passes of 3x3
 * one-dimensional contractions (Eq. 19): along z with B^ and D^, along y,
 * then along x -- 8 contractions instead of the dense 3 x 27 x 27 apply.
 * The adjoint runs the transposed passes x, y, z (again 8).
 */
void tc_apply(const double *restrict cpk,
              const int64_t *restrict conn,
              const double *restrict bh,
              const double *restrict dh,
              const double *restrict u,
              double *restrict y,
              int64_t s, int64_t e, int64_t off, int64_t ny)
{
    for (int64_t i = 0; i < ny; ++i)
        y[i] = 0.0;
    double B[3][3], D[3][3];
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) {
            B[i][j] = bh[3 * i + j];
            D[i][j] = dh[3 * i + j];
        }
    for (int64_t el = s; el < e; ++el) {
        const int64_t *cn = conn + 27 * el;
        const double *cq = cpk + 27 * 16 * el;
        /* ue[az][(ay*3 + ax)*3 + c] */
        double ue[3][27];
        for (int a = 0; a < 27; ++a) {
            const double *un = u + 3 * cn[a];
            double *dst = &ue[a / 9][3 * (a % 9)];
            dst[0] = un[0];
            dst[1] = un[1];
            dst[2] = un[2];
        }
        /* z pass: zb/zd[qz][(ay*3 + ax)*3 + c] */
        double zb[3][27], zd[3][27];
        for (int qz = 0; qz < 3; ++qz) {
            const double b0 = B[qz][0], b1 = B[qz][1], b2 = B[qz][2];
            const double d0 = D[qz][0], d1 = D[qz][1], d2 = D[qz][2];
            for (int i = 0; i < 27; ++i) {
                zb[qz][i] = b0 * ue[0][i] + b1 * ue[1][i] + b2 * ue[2][i];
                zd[qz][i] = d0 * ue[0][i] + d1 * ue[1][i] + d2 * ue[2][i];
            }
        }
        /* y pass: [qz][qy][ax*3 + c]; bb = (B z, B y), bd = (B z, D y),
         * db = (D z, B y) */
        double bb[3][3][9], bd[3][3][9], db[3][3][9];
        for (int qz = 0; qz < 3; ++qz) {
            for (int qy = 0; qy < 3; ++qy) {
                const double b0 = B[qy][0], b1 = B[qy][1], b2 = B[qy][2];
                const double d0 = D[qy][0], d1 = D[qy][1], d2 = D[qy][2];
                for (int i = 0; i < 9; ++i) {
                    const double z0 = zb[qz][i], z1 = zb[qz][9 + i],
                                 z2 = zb[qz][18 + i];
                    bb[qz][qy][i] = b0 * z0 + b1 * z1 + b2 * z2;
                    bd[qz][qy][i] = d0 * z0 + d1 * z1 + d2 * z2;
                    db[qz][qy][i] = b0 * zd[qz][i] + b1 * zd[qz][9 + i]
                                    + b2 * zd[qz][18 + i];
                }
            }
        }
        /* x pass: g[q][c][d], q = (qz*3 + qy)*3 + qx */
        double g[27][3][3];
        for (int qz = 0; qz < 3; ++qz) {
            for (int qy = 0; qy < 3; ++qy) {
                const double *pbb = bb[qz][qy], *pbd = bd[qz][qy],
                             *pdb = db[qz][qy];
                for (int qx = 0; qx < 3; ++qx) {
                    const int q = 9 * qz + 3 * qy + qx;
                    const double b0 = B[qx][0], b1 = B[qx][1],
                                 b2 = B[qx][2];
                    const double d0 = D[qx][0], d1 = D[qx][1],
                                 d2 = D[qx][2];
                    for (int c = 0; c < 3; ++c) {
                        g[q][c][0] = d0 * pbb[c] + d1 * pbb[3 + c]
                                     + d2 * pbb[6 + c];
                        g[q][c][1] = b0 * pbd[c] + b1 * pbd[3 + c]
                                     + b2 * pbd[6 + c];
                        g[q][c][2] = b0 * pdb[c] + b1 * pdb[3 + c]
                                     + b2 * pdb[6 + c];
                    }
                }
            }
        }
        /* reference flux t[q][c][d] = (g S)_cd + w ((K g K))_dc */
        double t[27][3][3];
        for (int q = 0; q < 27; ++q) {
            const double *p = cq + 16 * q;
            const double S00 = p[0], S01 = p[1], S02 = p[2];
            const double S11 = p[3], S12 = p[4], S22 = p[5];
            const double *K = p + 6;
            const double w = p[15];
            /* gk[c][f] = (g K)_cf */
            double gk[3][3];
            for (int c = 0; c < 3; ++c) {
                const double gc0 = g[q][c][0], gc1 = g[q][c][1],
                             gc2 = g[q][c][2];
                gk[c][0] = gc0 * K[0] + gc1 * K[3] + gc2 * K[6];
                gk[c][1] = gc0 * K[1] + gc1 * K[4] + gc2 * K[7];
                gk[c][2] = gc0 * K[2] + gc1 * K[5] + gc2 * K[8];
            }
            for (int c = 0; c < 3; ++c) {
                const double gc0 = g[q][c][0], gc1 = g[q][c][1],
                             gc2 = g[q][c][2];
                /* (g S)_cd with S symmetric */
                const double gs0 = gc0 * S00 + gc1 * S01 + gc2 * S02;
                const double gs1 = gc0 * S01 + gc1 * S11 + gc2 * S12;
                const double gs2 = gc0 * S02 + gc1 * S12 + gc2 * S22;
                /* (K g K)_dc = sum_e K_de (g K)_ec */
                const double kg0 =
                    K[0] * gk[0][c] + K[1] * gk[1][c] + K[2] * gk[2][c];
                const double kg1 =
                    K[3] * gk[0][c] + K[4] * gk[1][c] + K[5] * gk[2][c];
                const double kg2 =
                    K[6] * gk[0][c] + K[7] * gk[1][c] + K[8] * gk[2][c];
                t[q][c][0] = gs0 + w * kg0;
                t[q][c][1] = gs1 + w * kg1;
                t[q][c][2] = gs2 + w * kg2;
            }
        }
        /* adjoint x pass: x0 = D^T along x of t_x, x1/x2 = B^T of
         * t_y/t_z, each [qz][qy][ax*3 + c] */
        double x0[3][3][9], x1[3][3][9], x2[3][3][9];
        for (int qz = 0; qz < 3; ++qz) {
            for (int qy = 0; qy < 3; ++qy) {
                const double (*tq)[3][3] = t + 9 * qz + 3 * qy;
                for (int ax = 0; ax < 3; ++ax) {
                    const double b0 = B[0][ax], b1 = B[1][ax],
                                 b2 = B[2][ax];
                    const double d0 = D[0][ax], d1 = D[1][ax],
                                 d2 = D[2][ax];
                    for (int c = 0; c < 3; ++c) {
                        x0[qz][qy][3 * ax + c] = d0 * tq[0][c][0]
                            + d1 * tq[1][c][0] + d2 * tq[2][c][0];
                        x1[qz][qy][3 * ax + c] = b0 * tq[0][c][1]
                            + b1 * tq[1][c][1] + b2 * tq[2][c][1];
                        x2[qz][qy][3 * ax + c] = b0 * tq[0][c][2]
                            + b1 * tq[1][c][2] + b2 * tq[2][c][2];
                    }
                }
            }
        }
        /* adjoint y pass: y0 = B^T x0 + D^T x1 (feeds B^T along z),
         * y1 = B^T x2 (feeds D^T along z), [qz][(ay*3 + ax)*3 + c] */
        double y0[3][27], y1[3][27];
        for (int qz = 0; qz < 3; ++qz) {
            for (int ay = 0; ay < 3; ++ay) {
                const double b0 = B[0][ay], b1 = B[1][ay], b2 = B[2][ay];
                const double d0 = D[0][ay], d1 = D[1][ay], d2 = D[2][ay];
                for (int i = 0; i < 9; ++i) {
                    y0[qz][9 * ay + i] =
                        b0 * x0[qz][0][i] + b1 * x0[qz][1][i]
                        + b2 * x0[qz][2][i] + d0 * x1[qz][0][i]
                        + d1 * x1[qz][1][i] + d2 * x1[qz][2][i];
                    y1[qz][9 * ay + i] =
                        b0 * x2[qz][0][i] + b1 * x2[qz][1][i]
                        + b2 * x2[qz][2][i];
                }
            }
        }
        /* adjoint z pass, then ordered scatter into the accumulator */
        double ye[3][27];
        for (int az = 0; az < 3; ++az) {
            const double b0 = B[0][az], b1 = B[1][az], b2 = B[2][az];
            const double d0 = D[0][az], d1 = D[1][az], d2 = D[2][az];
            for (int i = 0; i < 27; ++i)
                ye[az][i] = b0 * y0[0][i] + b1 * y0[1][i] + b2 * y0[2][i]
                            + d0 * y1[0][i] + d1 * y1[1][i]
                            + d2 * y1[2][i];
        }
        for (int a = 0; a < 27; ++a) {
            double *yn = y + (3 * cn[a] - off);
            const double *src = &ye[a / 9][3 * (a % 9)];
            yn[0] += src[0];
            yn[1] += src[1];
            yn[2] += src[2];
        }
    }
}
"""

_lib = None
_load_attempted = False
_reason: str | None = None


def _cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE)
    if env:
        return Path(env)
    return Path(os.path.expanduser("~")) / ".cache" / "repro"


def _source_key() -> str:
    payload = KERNEL_SOURCE + "\0" + " ".join(_CFLAGS)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _compile(so_path: Path) -> str | None:
    """Compile the kernel into ``so_path``; return a failure reason or None."""
    so_path.parent.mkdir(parents=True, exist_ok=True)
    last = "no C compiler found (tried: %s)" % ", ".join(_COMPILERS)
    with tempfile.TemporaryDirectory(prefix="repro-ckernel-") as tmp:
        c_path = Path(tmp) / "tensor_kernel.c"
        c_path.write_text(KERNEL_SOURCE)
        tmp_so = Path(tmp) / "tensor_kernel.so"
        for cc in _COMPILERS:
            cmd = [cc, *_CFLAGS, str(c_path), "-o", str(tmp_so)]
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=120
                )
            except (OSError, subprocess.TimeoutExpired) as err:
                last = f"{cc}: {err}"
                continue
            if proc.returncode == 0:
                # atomic publish so concurrent processes race benignly
                os.replace(tmp_so, so_path)
                return None
            last = f"{cc} exited {proc.returncode}: {proc.stderr.strip()[:400]}"
    return last


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.tc_apply.restype = None
    lib.tc_apply.argtypes = [
        ctypes.c_void_p,  # cpk
        ctypes.c_void_p,  # conn
        ctypes.c_void_p,  # bh
        ctypes.c_void_p,  # dh
        ctypes.c_void_p,  # u
        ctypes.c_void_p,  # y
        ctypes.c_int64,   # s
        ctypes.c_int64,   # e
        ctypes.c_int64,   # off
        ctypes.c_int64,   # ny
    ]
    return lib


def load() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` with a recorded reason."""
    global _lib, _load_attempted, _reason
    if _lib is not None:
        return _lib
    if _load_attempted:
        return None
    _load_attempted = True
    if os.environ.get(ENV_DISABLE):
        _reason = f"disabled via ${ENV_DISABLE}"
        return None
    so_path = _cache_dir() / f"tensor_kernel-{_source_key()}.so"
    try:
        if not so_path.exists():
            reason = _compile(so_path)
            if reason is not None:
                _reason = f"compile failed: {reason}"
                return None
        _lib = _bind(ctypes.CDLL(str(so_path)))
    except OSError as err:
        _reason = f"load failed: {err}"
        _lib = None
        return None
    _reason = None
    return _lib


def available() -> bool:
    """True when the compiled kernel can be (or has been) loaded."""
    return load() is not None


def unavailable_reason() -> str | None:
    """Why the compiled kernel is unavailable (None when it is available)."""
    load()
    return _reason


def _reset_for_tests() -> None:
    """Forget the cached load state (used by the fallback-path tests)."""
    global _lib, _load_attempted, _reason
    _lib = None
    _load_attempted = False
    _reason = None
