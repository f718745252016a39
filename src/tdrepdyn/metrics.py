"""Scalar diagnostics for representation/weight pairs on a Markov reward process.

Everything here is a pure function of (mrp, phi, w) snapshots, reading the
process's derived matrices (``mrp.A``, ``mrp.V``, ``mrp.resolvent``, ...) from
its cache. The trajectory metrics (value error and its gradients, trace
objective and its normalized form, covariance drift, critical-point residual)
also take phi and w with leading batch axes, such as a whole trajectory's
(T, n, k) and (T, k, h) stacks, and return one value (or gradient pair) per
snapshot; a single 2-D snapshot gives a scalar ``np.float64``. Span
membership is always tested through weighted projection residuals with
explicit tolerances rather than rank computations; matrix drift norms are max
absolute entry throughout. Every linear solve goes through one guard,
``_solve_guarded_stack``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .mdp import MarkovRewardProcess

COND_LIMIT = 1e12


class IllConditionedError(np.linalg.LinAlgError):
    """A linear subsystem was singular or too ill-conditioned to trust."""

    def __init__(self, matrix_name: str, cond: float):
        super().__init__(
            f"matrix {matrix_name} is singular or ill-conditioned "
            f"(cond = {cond:.3e}, limit {COND_LIMIT:.0e})"
        )
        self.matrix_name = matrix_name
        self.cond = cond


def _solve_guarded_stack(
    G: np.ndarray, rhs: np.ndarray, name: str
) -> tuple[np.ndarray, dict[int, IllConditionedError]]:
    """Solve every G[i] x = rhs[i] of a stack unless G[i] is too ill-conditioned.

    A slice is accepted when its 2-norm condition number s_max / s_min, the
    quantity ``np.linalg.cond`` computes, is at most COND_LIMIT. A cheap
    certificate settles the common case first: for a k x k matrix
    cond_2(G) <= s_max^k / |det G| <= ||G||_F^k / |det G| (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 14), so a stack in which
    every slice has ||G||_F^k < COND_LIMIT |det G| / 10 is solved at once.
    The factor 10 absorbs rounding: the LU determinant is off by about
    k eps ||G||_F^k, far below the ||G||_F^k / COND_LIMIT at stake. A NaN or
    inf makes the test false. Any other stack takes ``np.linalg.svd``, which
    alone decides which slices are rejected and what their condition numbers
    are, so the decisions are those of ``np.linalg.cond`` either way.
    ``np.linalg.solve`` solves the accepted slices; like ``svd`` it makes
    one LAPACK call per slice, so a slice's solution does not depend on the
    others in the stack. Returns the solutions (NaN for a rejected slice)
    and an IllConditionedError per rejected slice index: cond is inf for a
    singular slice and NaN for one with a non-finite entry.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        certified = (G * G).sum(axis=(1, 2)) ** (G.shape[-1] / 2) < (
            0.1 * COND_LIMIT * np.abs(np.linalg.det(G))
        )
    if certified.all():
        return np.linalg.solve(G, rhs), {}
    # LAPACK's SVD fails on a NaN and returns NaN for an inf, so those slices skip it
    finite = np.isfinite(G).all(axis=(1, 2))
    s = np.full(G.shape[:2], np.nan)
    s[finite] = np.linalg.svd(G[finite], compute_uv=False)
    cond = np.divide(s[:, 0], s[:, -1], out=np.full(len(s), np.inf), where=s[:, -1] > 0.0)
    cond[~finite] = np.nan
    ok = cond <= COND_LIMIT
    if ok.all():
        return np.linalg.solve(G, rhs), {}
    x = np.full(rhs.shape, np.nan)
    if ok.any():
        x[ok] = np.linalg.solve(G[ok], rhs[ok])
    return x, {int(i): IllConditionedError(name, float(cond[i])) for i in np.flatnonzero(~ok)}


def _solve_or_raise(G: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """``_solve_guarded_stack`` over any leading axes; raises the first rejected slice's error."""
    x, rejected = _solve_guarded_stack(
        G.reshape(-1, *G.shape[-2:]), rhs.reshape(-1, *rhs.shape[-2:]), name
    )
    if rejected:
        raise rejected[min(rejected)]
    return x.reshape(rhs.shape)


@dataclass(frozen=True)
class MetricReport:
    """One named check: value observed, tolerance applied, pass/fail."""

    name: str
    value: float
    tolerance_used: float
    passed: bool

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tolerance_used", float(self.tolerance_used))
        object.__setattr__(self, "passed", bool(self.passed))
        if np.isnan(self.value):
            raise ValueError(f"metric {self.name!r} has NaN value")


def reports_to_csv(reports: list[MetricReport]) -> str:
    """CSV (header + one row per report) with a trailing pass column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "value", "tolerance", "pass"])
    for r in reports:
        writer.writerow([r.name, repr(r.value), repr(r.tolerance_used), str(r.passed).lower()])
    return buf.getvalue()


def weighted_value_error(
    mrp: MarkovRewardProcess, phi: np.ndarray, w: np.ndarray
) -> float | np.ndarray:
    """Value approximation error 0.5 Tr((phi w - V)^T diag(d)(I - gamma P)(phi w - V)).

    Non-negative because the weighting matrix is positive definite, and zero
    exactly when phi w reproduces the value function.
    """
    err = phi @ w - mrp.V
    weighted = mrp.d[:, None] * (err - mrp.gamma * (mrp.P @ err))
    return 0.5 * np.sum(err * weighted, axis=(-2, -1))


def weighted_error_gradients(
    mrp: MarkovRewardProcess, phi: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """True gradients of the weighted value error with respect to w and phi.

    Uses the symmetrized weighting 0.5 (A + A^T); for reversible chains this
    coincides with the expected semi-gradients of the bootstrapped loss.
    """
    A = mrp.A
    err = phi @ w - mrp.V
    sym_err = 0.5 * (A @ err + A.T @ err)
    return phi.swapaxes(-1, -2) @ sym_err, sym_err @ w.swapaxes(-1, -2)


def trace_objective(mrp: MarkovRewardProcess, phi: np.ndarray) -> float | np.ndarray:
    """Trace of phi^T (I - gamma P)^{-1} phi, with the process's cached resolvent."""
    return np.sum(phi * (mrp.resolvent @ phi), axis=(-2, -1))


def trace_ceiling(mrp: MarkovRewardProcess, k: int) -> float:
    """Sum of the top-k eigenvalues of the symmetrized resolvent (cached per process).

    This is the normalizer for the trace objective; for symmetric P it equals
    the maximum of the objective over orthonormal phi with k columns.
    """
    return float(mrp.resolvent_eigvals[-k:].sum())


def normalized_trace_objective(mrp: MarkovRewardProcess, phi: np.ndarray) -> float | np.ndarray:
    """Trace objective divided by the top-k symmetrized-resolvent eigenvalue sum, k = phi's width.

    Upper bounded by 1 for orthonormal phi when P is symmetric; reported
    unclamped, so asymmetric P may exceed 1.
    """
    return trace_objective(mrp, phi) / trace_ceiling(mrp, phi.shape[-1])


def covariance_drift(phi: np.ndarray, phi0: np.ndarray) -> float | np.ndarray:
    """Max-abs-entry of phi^T phi - phi0^T phi0 (``phi`` may be a stack, ``phi0`` is n x k)."""
    if phi.shape[-2:] != phi0.shape:
        raise ValueError(f"shape mismatch: {phi.shape} vs {phi0.shape}")
    drift = phi.swapaxes(-1, -2) @ phi - phi0.T @ phi0
    return np.abs(drift).max(axis=(-2, -1))


def critical_point_residual(mrp: MarkovRewardProcess, phi: np.ndarray) -> float | np.ndarray:
    """How far phi is from the stationarity condition of the joint dynamics.

    Projects diag(d) R R^T diag(d) phi onto span(A phi) in the (A^T)^{-1}
    geometry, where A is the key matrix; the projector reduces to
    A phi (phi^T A phi)^{-1} phi^T. Returns the max-abs-entry of the part
    left outside the span; zero (up to tolerance) iff phi is stationary
    once w sits at its fixed point. On a stack, the first snapshot whose
    phi^T A phi fails the guard raises its IllConditionedError.
    """
    A = mrp.A
    phi_t = phi.swapaxes(-1, -2)
    target = mrp.dR @ (mrp.dR.T @ phi)
    G = phi_t @ A @ phi
    projected = (A @ phi) @ _solve_or_raise(G, phi_t @ target, "phi^T A phi")
    return np.abs(target - projected).max(axis=(-2, -1))


def invariant_subspace_residual(P: np.ndarray, phi: np.ndarray) -> float:
    """Max-abs-entry of the part of P phi outside span(phi).

    Zero iff span(phi) is invariant under P. Raises on rank-deficient phi.
    """
    sv = np.linalg.svd(phi, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise np.linalg.LinAlgError(
            f"phi is rank deficient (min singular value {sv[-1]:.3e})"
        )
    target = P @ phi
    projected = phi @ _solve_or_raise(phi.T @ phi, phi.T @ target, "phi^T phi")
    return float(np.abs(target - projected).max())


def gradient_check(mrp: MarkovRewardProcess, phi: np.ndarray, w: np.ndarray) -> float:
    """Max relative error between semi-gradient directions and finite differences.

    The analytic side is the negated, rate-normalized drift of the joint
    dynamics; the numeric side is a central finite difference of the weighted
    value error with step eps = 1e-6. For reversible chains the two agree to
    O(eps^2); otherwise the returned discrepancy quantifies how far the
    dynamics is from a true gradient flow (a diagnostic, not a failure).
    """
    from .dynamics import expected_semi_gradients

    grad_w, grad_phi = expected_semi_gradients(mrp, phi, w)
    eps = 1e-6

    def central_difference(x: np.ndarray, error_at) -> np.ndarray:
        fd = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            step = np.zeros_like(x)
            step[idx] = eps
            fd[idx] = (error_at(x + step) - error_at(x - step)) / (2 * eps)
        return fd

    fd_w = central_difference(w, lambda q: weighted_value_error(mrp, phi, q))
    fd_phi = central_difference(phi, lambda p: weighted_value_error(mrp, p, w))

    scale = max(np.abs(grad_w).max(), np.abs(grad_phi).max(), 1e-12)
    err = max(np.abs(grad_w - fd_w).max(), np.abs(grad_phi - fd_phi).max())
    return float(err / scale)
