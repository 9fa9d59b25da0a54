"""Jacobi-preconditioned Chebyshev smoothing (paper SS III-C).

The paper fixes the multigrid smoother on every level -- geometric and
algebraic alike -- as Chebyshev iteration preconditioned by Jacobi,
targeting the interval ``[0.2 lambda_max, 1.1 lambda_max]`` where
``lambda_max`` estimates the largest eigenvalue of the Jacobi-preconditioned
operator, obtained from a few Krylov iterations.  Chebyshev needs only
operator applications (no inner products in the iteration itself) and, per
the cited results [47], matches multiplicative smoothers for elasticity-like
problems while being trivially parallel -- the key requirement for the
matrix-free fine level, where rows of the operator are never available.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..resilience.reasons import BreakdownError, ConvergedReason, nonfinite


def estimate_lambda_max(
    A: Callable[[np.ndarray], np.ndarray],
    dinv: np.ndarray,
    iters: int = 10,
    seed: int = 7,
) -> float:
    """Largest eigenvalue of ``D^{-1} A`` via a short Lanczos process.

    A few iterations of the symmetric Lanczos recurrence in the
    ``D``-weighted inner product (so the preconditioned operator is
    self-adjoint) give an estimate well within the paper's 1.1x safety
    factor.  Falls back to power iteration if the recurrence breaks down.

    The recurrence runs on ``B = D^{-1/2} A D^{-1/2}``, so ``dinv`` must be
    strictly positive: a negative entry (possible on a near-degenerate
    coarse level) would send NaNs from the ``sqrt`` through every later
    V-cycle.  Such diagonals are rejected with :class:`ValueError`; callers
    that want to smooth anyway should hand in ``1/|diag|`` (see
    :class:`ChebyshevSmoother`'s ``indefinite="abs"``).
    """
    dinv = np.asarray(dinv, dtype=np.float64)
    if not np.all(np.isfinite(dinv)) or np.any(dinv <= 0.0):
        raise ValueError(
            "estimate_lambda_max requires a strictly positive Jacobi "
            "diagonal (Lanczos runs on D^{-1/2} A D^{-1/2}); got "
            f"min(dinv) = {float(np.nanmin(dinv))!r}. For an indefinite "
            "diagonal, pass 1/abs(diag) explicitly or construct the "
            "smoother with indefinite='abs'."
        )
    n = dinv.size
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    # Lanczos on B = D^{-1/2} A D^{-1/2} (same spectrum as D^{-1} A)
    dhalf_inv = np.sqrt(dinv)
    v /= np.linalg.norm(v)
    alphas, betas = [], []
    v_prev = np.zeros(n)
    beta = 0.0
    for _ in range(iters):
        w = dhalf_inv * A(dhalf_inv * v)
        alpha = float(v @ w)
        w = w - alpha * v - beta * v_prev
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if beta < 1e-14:
            break
        betas.append(beta)
        v_prev = v
        v = w / beta
    k = len(alphas)
    T = np.diag(alphas)
    if k > 1:
        off = np.array(betas[: k - 1])
        T += np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(T)
    lmax = float(eigs.max())
    if not np.isfinite(lmax) or lmax <= 0:
        # power-iteration fallback
        v = rng.standard_normal(n)
        for _ in range(iters):
            v = dinv * A(v)
            v /= np.linalg.norm(v)
        lmax = float(v @ (dinv * A(v)))
    return lmax


class ChebyshevSmoother:
    """Fixed-iteration-count Chebyshev smoother / preconditioner.

    Parameters
    ----------
    A:
        Operator apply (already carrying boundary conditions).
    diag:
        Operator diagonal (Jacobi preconditioner).
    degree:
        Number of Chebyshev iterations per smooth (2 for the paper's
        V(2,2), 3 for V(3,3)).
    interval:
        Target interval ``(lmin, lmax)``; if omitted, estimated as
        ``(emin_factor * lmax_hat, emax_factor * lmax_hat)`` with the
        paper's factors 0.2 and 1.1.
    indefinite:
        What to do when ``diag`` has negative entries (a near-degenerate
        coarse level).  ``"raise"`` (default) rejects the diagonal with a
        clear :class:`ValueError` instead of letting ``sqrt`` seed silent
        NaNs; ``"abs"`` smooths with ``|diag|`` as the Jacobi scaling,
        which keeps the V-cycle running at reduced smoothing quality.
    guard:
        Check the smoothed iterate for NaN/Inf before returning and raise
        :class:`~repro.resilience.reasons.BreakdownError` (reason
        ``DIVERGED_NAN``) instead of handing a poisoned correction back
        into the V-cycle.  One ``x @ x`` dot product per smooth -- noise
        next to ``degree`` operator applies -- and it turns a silent
        NaN-everywhere V-cycle into a recoverable, attributable failure.
    """

    def __init__(
        self,
        A: Callable[[np.ndarray], np.ndarray],
        diag: np.ndarray,
        degree: int = 2,
        interval: tuple[float, float] | None = None,
        emin_factor: float = 0.2,
        emax_factor: float = 1.1,
        eig_iters: int = 10,
        indefinite: str = "raise",
        guard: bool = True,
    ):
        self.guard = bool(guard)
        if indefinite not in ("raise", "abs"):
            raise ValueError(
                f"indefinite must be 'raise' or 'abs', got {indefinite!r}"
            )
        self.A = A
        diag = np.asarray(diag, dtype=np.float64)
        if np.any(diag == 0.0) or not np.all(np.isfinite(diag)):
            raise ValueError("operator diagonal contains zeros or non-finite entries")
        if np.any(diag < 0.0):
            if indefinite == "abs":
                diag = np.abs(diag)
            else:
                raise ValueError(
                    f"operator diagonal has {int(np.count_nonzero(diag < 0.0))}"
                    " negative entries; Jacobi-Chebyshev requires a positive "
                    "diagonal (sqrt(1/diag) in the eigenvalue estimate would "
                    "produce NaNs). Pass indefinite='abs' to smooth with "
                    "|diag|, or fix the level operator."
                )
        self.dinv = 1.0 / diag
        self.degree = int(degree)
        if self.degree < 1:
            raise ValueError(f"Chebyshev degree must be >= 1, got {degree}")
        if interval is None:
            lmax_hat = estimate_lambda_max(A, self.dinv, iters=eig_iters)
            interval = (emin_factor * lmax_hat, emax_factor * lmax_hat)
        self.lmin, self.lmax = interval
        if not 0 < self.lmin < self.lmax:
            raise ValueError(f"invalid Chebyshev interval {interval}")

    def smooth(self, b: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        """Run ``degree`` Chebyshev iterations on ``A x = b`` from ``x``.

        The recurrence carries the residual ``r = b - A x`` along with the
        iterate, one operator apply per update; it stops after the last
        ``x <- x + d``, since no later direction needs that residual.  So
        a smooth costs ``degree - 1`` applies from a zero guess and
        ``degree`` from a given one (its initial residual).
        """
        theta = 0.5 * (self.lmax + self.lmin)
        delta = 0.5 * (self.lmax - self.lmin)
        if x is None:
            x = np.zeros_like(b)
            r = b
        else:
            r = b - self.A(x)
        sigma = theta / delta
        rho = 1.0 / sigma
        d = (self.dinv * r) / theta
        for _ in range(self.degree - 1):
            x = x + d
            r = r - self.A(d)
            rho_new = 1.0 / (2.0 * sigma - rho)
            d = rho_new * rho * d + (2.0 * rho_new / delta) * (self.dinv * r)
            rho = rho_new
        x = x + d
        if self.guard and nonfinite(float(x @ x)):
            raise BreakdownError(
                "Chebyshev smoother produced a non-finite iterate "
                "(poisoned operator apply or diagonal)",
                reason=ConvergedReason.DIVERGED_NAN,
            )
        return x

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Preconditioner interface: approximate ``A^{-1} r`` from zero."""
        return self.smooth(r, None)
