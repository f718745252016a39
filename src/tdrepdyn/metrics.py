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
absolute entry throughout. Every linear solve of the library, here, in
``dynamics`` and for the process's ``V`` and resolvent in ``mdp``, goes
through ``_checked_solve``: one condition guard, ``_solve_guarded_stack``,
and one residual bound, ``_residual_bound``, whose failures raise
IllConditionedError, SolutionOverflowError and FixedPointResidualError.
``mdp`` imports from here, so this module imports ``MarkovRewardProcess``
for its annotations only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import _umath_linalg

if TYPE_CHECKING:
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


class SolutionOverflowError(np.linalg.LinAlgError):
    """A linear subsystem passed the condition guard, but its solution overflowed."""


class FixedPointResidualError(np.linalg.LinAlgError):
    """A solve passed the condition guard but missed its residual bound: the
    process's value function or resolvent, the TD fixed point, the inverse the
    two-time-scale drift is formed with, or a metric's projection."""


def _solve_guarded_stack(
    G: np.ndarray, rhs: np.ndarray, name: str
) -> tuple[np.ndarray, dict[int, np.linalg.LinAlgError]]:
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

    The determinant and the solves call the LAPACK gufuncs that
    ``np.linalg.det`` and ``np.linalg.solve`` wrap, with the same bits and
    without the wrappers' per-call type and shape checks, which the float64
    stacks built here never need. Like ``svd`` they make one LAPACK call per
    slice, so a slice's solution does not depend on the others in the stack.
    The certified path's reductions call the ufuncs' ``reduce`` directly: the
    ndarray methods (``.sum``, ``.all``) give the same bits through a Python
    wrapper that costs more than a reduction over a few slices.
    A slice the SVD accepts may still have no finite solution: huge
    right-hand sides overflow it, and LU breaks down on a well-conditioned
    slice of subnormal entries whose pivot underflows to zero (where
    ``np.linalg.solve`` would raise "Singular matrix", the gufunc returns
    NaN). Such a slice is rejected with a SolutionOverflowError, so its
    condition number is not misreported. A certified slice cannot break
    down: its non-zero determinant comes from the same LU factorization.

    Returns the solutions (NaN for a rejected slice) and an error per
    rejected slice index: SolutionOverflowError for an overflow, otherwise
    IllConditionedError, whose cond is inf for a singular slice and NaN for
    one with a non-finite entry.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        certified = np.add.reduce(G * G, axis=(1, 2)) ** (G.shape[-1] / 2) < (
            0.1 * COND_LIMIT * np.abs(_umath_linalg.det(G, signature="d->d"))
        )
        if np.logical_and.reduce(certified):
            return _umath_linalg.solve(G, rhs, signature="dd->d"), {}
        # LAPACK's SVD fails on a NaN and returns NaN for an inf, so those slices skip it
        finite = np.isfinite(G).all(axis=(1, 2))
        s = np.full(G.shape[:2], np.nan)
        s[finite] = np.linalg.svd(G[finite], compute_uv=False)
        cond = np.divide(s[:, 0], s[:, -1], out=np.full(len(s), np.inf), where=s[:, -1] > 0.0)
        cond[~finite] = np.nan
        ok = cond <= COND_LIMIT
        x = np.full(rhs.shape, np.nan)
        if ok.any():
            x[ok] = _umath_linalg.solve(G[ok], rhs[ok], signature="dd->d")
        overflowed = ok & ~np.isfinite(x).all(axis=(1, 2))
        x[overflowed] = np.nan  # so that no residual is formed from an inf
    failures = {int(i): IllConditionedError(name, float(cond[i])) for i in np.flatnonzero(~ok)}
    for i in np.flatnonzero(overflowed):
        failures[int(i)] = SolutionOverflowError(
            f"solve with matrix {name} overflowed (cond = {cond[i]:.3e}, within limit {COND_LIMIT:.0e})"
        )
    return x, failures


def _checked_solve(
    G: np.ndarray, b: np.ndarray, name: str, bound: np.ndarray | None = None
) -> tuple[np.ndarray, dict[int, np.linalg.LinAlgError]]:
    """Solve each G[i] x = b[i] of a stack under the condition guard and the residual bound.

    Returns ``_solve_guarded_stack``'s solutions and rejections, plus a
    FixedPointResidualError for each accepted slice whose residual
    max|G x - b| exceeds its bound, or is NaN. ``bound`` holds each slice's
    ``_residual_bound(b)``, passed by a caller that solves against the same
    ``b`` many times; it is worked out here if None. The reductions call the
    ufuncs' ``reduce`` directly, as in ``_solve_guarded_stack``: the
    two-time-scale drift calls this six times per step.
    """
    x, failures = _solve_guarded_stack(G, b, name)
    residual = np.maximum.reduce(np.abs(G @ x - b), axis=(1, 2))
    if bound is None:
        bound = _residual_bound(b)
    missed = ~(residual <= bound)  # a NaN residual misses too
    if np.logical_or.reduce(missed):
        for i in np.flatnonzero(missed):
            # a slice the guard rejected (NaN solution) keeps its IllConditionedError
            failures.setdefault(int(i), FixedPointResidualError(
                f"{name} residual {residual[i]:.3e} exceeds {bound[i]:.3e}"
            ))
    return x, failures


def _residual_bound(b: np.ndarray) -> np.ndarray:
    """The largest residual a solve against each slice of ``b`` may leave: 1e-10 max(1, max|b|)."""
    return 1e-10 * np.maximum.reduce(np.abs(b), axis=(1, 2), initial=1.0)


def _solve_or_raise(G: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """``_checked_solve`` over any leading axes; raises the first failed slice's error."""
    x, failures = _checked_solve(G.reshape(-1, *G.shape[-2:]), rhs.reshape(-1, *rhs.shape[-2:]), name)
    if failures:
        raise failures[min(failures)]
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
    """CSV (header + one row per report) with a trailing pass column.

    Check names hold no comma, quote or newline, so no field needs quoting.
    """
    return "name,value,tolerance,pass\n" + "".join(
        f"{r.name},{r.value!r},{r.tolerance_used!r},{str(r.passed).lower()}\n" for r in reports
    )


def weighted_value_error(
    mrp: MarkovRewardProcess, phi: np.ndarray, w: np.ndarray
) -> float | np.ndarray:
    """Value approximation error 0.5 Tr((phi w - V)^T A (phi w - V)), A the cached key matrix.

    Non-negative because A = diag(d)(I - gamma P) is positive definite, and zero
    exactly when phi w reproduces the value function.
    """
    err = phi @ w - mrp.V
    return 0.5 * np.sum(err * (mrp.A @ err), axis=(-2, -1))


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
    solve with phi^T A phi fails raises: IllConditionedError past the
    condition guard, FixedPointResidualError past the residual bound.
    """
    A = mrp.A
    phi_t = phi.swapaxes(-1, -2)
    target = mrp.C @ phi
    G = phi_t @ A @ phi
    projected = (A @ phi) @ _solve_or_raise(G, phi_t @ target, "phi^T A phi")
    return np.abs(target - projected).max(axis=(-2, -1))


def invariant_subspace_residual(P: np.ndarray, phi: np.ndarray) -> float:
    """Max-abs-entry of the part of P phi outside span(phi).

    Zero iff span(phi) is invariant under P. Raises LinAlgError on
    rank-deficient phi, IllConditionedError if phi^T phi fails the condition
    guard and FixedPointResidualError if its solve misses the residual bound.
    """
    sv = np.linalg.svd(phi, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise np.linalg.LinAlgError(
            f"phi is rank deficient (min singular value {sv[-1]:.3e})"
        )
    target = P @ phi
    projected = phi @ _solve_or_raise(phi.T @ phi, phi.T @ target, "phi^T phi")
    return float(np.abs(target - projected).max())
