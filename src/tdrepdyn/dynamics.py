"""Joint representation/weight dynamics: fixed points, drift fields, integration.

Three dynamics are supported, all driven by the expected bootstrapped update
on a fixed Markov reward process:

- ``linear_td``: the representation is frozen, only the weights move.
- ``end_to_end``: weights and representation follow their semi-gradients
  jointly, a coupled nonlinear system.
- ``two_time_scale``: the weights are pinned to their fixed point for the
  current representation while the representation drifts slowly.

Trajectories are integrated with SciPy's adaptive Dormand-Prince RK45 pair
(dense output drives the metric log), and a discrete Euler stepper is
provided as an alternative integrator for the same drift fields.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from . import metrics as _metrics
from .mdp import MarkovRewardProcess, key_matrix, make_rng, value_function
from .metrics import IllConditionedError, _solve_guarded

LINEAR_TD = "linear_td"
END_TO_END = "end_to_end"
TWO_TIME_SCALE = "two_time_scale"
KINDS = (LINEAR_TD, END_TO_END, TWO_TIME_SCALE)

METRIC_COLUMNS = (
    "E",
    "f",
    "f_norm",
    "cov_drift",
    "grad_norm_w",
    "grad_norm_phi",
    "crit_residual",
)


class IntegrationError(RuntimeError):
    """Trajectory integration failed (step-size underflow or a solve broke down)."""


class FixedPointResidualError(np.linalg.LinAlgError):
    """The TD fixed-point solve passed the condition guard but missed its residual bound."""


# Failures of the fixed-point solve.
SOLVE_FAILURES = (IllConditionedError, FixedPointResidualError)


@dataclass(frozen=True)
class DynamicsSpec:
    """Which drift field to integrate and at what learning rates.

    ``linear_td`` requires eta_phi == 0 (the representation is fixed);
    ``two_time_scale`` ignores eta_w (weights are always at the fixed point).
    """

    kind: str
    eta_w: float = 1.0
    eta_phi: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dynamics kind {self.kind!r}; choose from {KINDS}")
        if self.eta_w < 0 or self.eta_phi < 0:
            raise ValueError("learning rates must be non-negative")
        if self.kind == LINEAR_TD and self.eta_phi != 0.0:
            raise ValueError("linear_td keeps the representation fixed; eta_phi must be 0")


def linear_td(eta_w: float = 1.0) -> DynamicsSpec:
    return DynamicsSpec(LINEAR_TD, eta_w=eta_w, eta_phi=0.0)


def end_to_end(eta_w: float = 1.0, eta_phi: float = 1.0) -> DynamicsSpec:
    return DynamicsSpec(END_TO_END, eta_w=eta_w, eta_phi=eta_phi)


def two_time_scale(eta_phi: float = 1.0) -> DynamicsSpec:
    return DynamicsSpec(TWO_TIME_SCALE, eta_w=0.0, eta_phi=eta_phi)


@dataclass(frozen=True)
class IntegratorConfig:
    """Horizon, tolerances, and metric sampling for trajectory integration."""

    t_end: float = 1000.0
    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = np.inf
    log_points: int = 201

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("rtol and atol must be > 0")
        if not self.max_step > 0:
            raise ValueError("max_step must be > 0")
        if self.log_points < 2:
            raise ValueError("log_points must be >= 2")


@dataclass
class TrajectoryLog:
    """Time-indexed metric series, optionally with full state snapshots."""

    times: np.ndarray
    metrics: dict[str, np.ndarray]
    states: list[tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        for name, series in self.metrics.items():
            if len(series) != len(self.times):
                raise ValueError(f"metric {name!r} length does not match times")

    def to_csv(self, path: str | Path | None = None) -> str:
        """CSV with header ``t`` plus the logged metric columns (canonical order)."""
        columns = [c for c in METRIC_COLUMNS if c in self.metrics]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t"] + columns)
        for i, t in enumerate(self.times):
            writer.writerow([repr(float(t))] + [repr(float(self.metrics[c][i])) for c in columns])
        text = buf.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    def states_to_json(self, path: str | Path | None = None) -> str:
        """Sidecar JSON with the (phi, w) snapshots, if they were stored."""
        if self.states is None:
            raise ValueError("trajectory was integrated without store_states=True")
        doc = {
            "times": self.times.tolist(),
            "phi": [p.tolist() for p, _ in self.states],
            "w": [w.tolist() for _, w in self.states],
        }
        text = json.dumps(doc)
        if path is not None:
            Path(path).write_text(text)
        return text


def validate_representation(phi: np.ndarray, min_sv: float = 1e-10) -> np.ndarray:
    """Check full column rank (minimum singular value above ``min_sv``)."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2:
        raise ValueError(f"representation must be a 2-d matrix, got ndim={phi.ndim}")
    if phi.shape[1] > phi.shape[0]:
        raise ValueError(f"need k <= n, got shape {phi.shape}")
    sv = np.linalg.svd(phi, compute_uv=False)
    if sv[-1] <= min_sv:
        raise ValueError(f"representation is rank deficient (min singular value {sv[-1]:.3e})")
    return phi


def orthonormal_init(
    n: int, k: int, seed: int | np.random.SeedSequence, max_attempts: int = 5
) -> np.ndarray:
    """Orthonormal n x k representation: Gram-Schmidt on standard-normal columns.

    Columns are re-orthogonalized with a second pass so that phi^T phi = I
    holds to machine precision. A near-zero pivot (astronomically unlikely
    for Gaussian draws) triggers a fresh draw, and after ``max_attempts``
    failures an error is raised.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = make_rng(seed)
    for _ in range(max_attempts):
        cols = rng.standard_normal((n, k))
        try:
            return _gram_schmidt(cols)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        f"orthonormal init failed: rank-deficient draws in {max_attempts} attempts"
    )


def _gram_schmidt(cols: np.ndarray) -> np.ndarray:
    n, k = cols.shape
    Q = np.empty_like(cols)
    for j in range(k):
        v = cols[:, j].copy()
        norm_before = np.linalg.norm(v)
        for _ in range(2):  # second pass keeps orthogonality at machine precision
            for i in range(j):
                v -= (Q[:, i] @ v) * Q[:, i]
        norm = np.linalg.norm(v)
        if norm <= 1e-10 * max(norm_before, 1.0):
            raise np.linalg.LinAlgError(f"near-zero pivot at column {j}")
        Q[:, j] = v / norm
    return Q


def td_fixed_point(mrp: MarkovRewardProcess, phi: np.ndarray) -> np.ndarray:
    """Weights solving phi^T A (phi w - V) = 0, with A the key matrix.

    Equivalently (phi^T A phi) w = phi^T diag(d) R, with A and diag(d) R
    taken from the process's cache. The guard is the 2-norm condition number
    of the k x k system, s_max / s_min from LAPACK ``gesdd``: beyond 1e12 it
    raises IllConditionedError instead of returning an untrustworthy
    solution. A solution whose residual exceeds 1e-10 max(1, max|rhs|)
    raises FixedPointResidualError.
    """
    A = key_matrix(mrp)
    G = phi.T @ A @ phi
    b = phi.T @ mrp.dR
    w = _solve_guarded(G, b, "phi^T A phi")
    residual = np.abs(G @ w - b).max()
    bound = 1e-10 * max(1.0, np.abs(b).max())
    if residual > bound:
        raise FixedPointResidualError(
            f"fixed-point residual {residual:.3e} exceeds {bound:.3e}"
        )
    return w


def expected_semi_gradients(
    mrp: MarkovRewardProcess, phi: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expected semi-gradients of the bootstrapped squared error.

    With the residual Z = R - (I - gamma P) phi w, returns
    (-phi^T diag(d) Z, -diag(d) Z w^T) for the weight and representation slots.
    """
    if phi.shape[0] != mrp.n:
        raise ValueError(f"phi has {phi.shape[0]} rows, expected {mrp.n}")
    if w.shape != (phi.shape[1], mrp.h):
        raise ValueError(f"w has shape {w.shape}, expected {(phi.shape[1], mrp.h)}")
    pred = phi @ w
    resid = mrp.R - (pred - mrp.gamma * (mrp.P @ pred))
    weighted = mrp.d[:, None] * resid
    return -phi.T @ weighted, -weighted @ w.T


def rhs_linear_td(
    mrp: MarkovRewardProcess, phi: np.ndarray, w: np.ndarray, eta_w: float
) -> np.ndarray:
    """Weight drift eta_w phi^T diag(d) (R - (I - gamma P) phi w) at fixed phi."""
    grad_w, _ = expected_semi_gradients(mrp, phi, w)
    return -eta_w * grad_w


def rhs_end_to_end(
    mrp: MarkovRewardProcess,
    phi: np.ndarray,
    w: np.ndarray,
    eta_w: float,
    eta_phi: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint drift of (w, phi) under the coupled semi-gradient dynamics."""
    grad_w, grad_phi = expected_semi_gradients(mrp, phi, w)
    return -eta_w * grad_w, -eta_phi * grad_phi


def rhs_two_time_scale(
    mrp: MarkovRewardProcess, phi: np.ndarray, eta_phi: float
) -> np.ndarray:
    """Representation drift with the weights pinned to their fixed point."""
    w_star = td_fixed_point(mrp, phi)
    _, grad_phi = expected_semi_gradients(mrp, phi, w_star)
    return -eta_phi * grad_phi


def discrete_step(
    mrp: MarkovRewardProcess,
    spec: DynamicsSpec,
    phi: np.ndarray,
    w: np.ndarray,
    step_size: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One explicit Euler step of the chosen dynamics.

    For ``two_time_scale`` the weights are reset to the fixed point before
    the representation moves, and that fixed point is what gets returned.
    """
    if not step_size > 0:
        raise ValueError(f"step_size must be > 0, got {step_size}")
    if spec.kind == LINEAR_TD:
        dw = rhs_linear_td(mrp, phi, w, spec.eta_w)
        return phi, w + step_size * dw
    if spec.kind == END_TO_END:
        dw, dphi = rhs_end_to_end(mrp, phi, w, spec.eta_w, spec.eta_phi)
        return phi + step_size * dphi, w + step_size * dw
    w_star = td_fixed_point(mrp, phi)
    _, grad_phi = expected_semi_gradients(mrp, phi, w_star)
    return phi - step_size * spec.eta_phi * grad_phi, w_star


def integrate(
    mrp: MarkovRewardProcess,
    spec: DynamicsSpec,
    phi0: np.ndarray,
    w0: np.ndarray | None = None,
    config: IntegratorConfig | None = None,
    metric_set: tuple[str, ...] = METRIC_COLUMNS,
    store_states: bool = False,
) -> TrajectoryLog:
    """Integrate a trajectory and log metrics at evenly spaced times.

    Uses the adaptive Dormand-Prince 5(4) pair; metric samples come from the
    solver's dense output at ``log_points`` times so that different dynamics
    share a comparable time axis. ``w0`` defaults to zeros and is ignored by
    the two-time-scale dynamics.
    """
    if config is None:
        config = IntegratorConfig()
    unknown = set(metric_set) - set(METRIC_COLUMNS)
    if unknown:
        raise ValueError(f"unknown metrics {sorted(unknown)}; choose from {METRIC_COLUMNS}")
    phi0 = validate_representation(phi0)
    n, k = phi0.shape
    if w0 is None:
        w0 = np.zeros((k, mrp.h))
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (k, mrp.h):
        raise ValueError(f"w0 has shape {w0.shape}, expected {(k, mrp.h)}")
    if not np.all(np.isfinite(w0)):
        raise ValueError("w0 has non-finite entries")

    if spec.kind == LINEAR_TD:
        y0 = w0.ravel()

        def unpack(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return phi0, y.reshape(k, mrp.h)

        def fun(t: float, y: np.ndarray) -> np.ndarray:
            return rhs_linear_td(mrp, phi0, y.reshape(k, mrp.h), spec.eta_w).ravel()

    elif spec.kind == END_TO_END:
        y0 = np.concatenate([w0.ravel(), phi0.ravel()])
        split = k * mrp.h

        def unpack(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return y[split:].reshape(n, k), y[:split].reshape(k, mrp.h)

        def fun(t: float, y: np.ndarray) -> np.ndarray:
            phi, w = y[split:].reshape(n, k), y[:split].reshape(k, mrp.h)
            dw, dphi = rhs_end_to_end(mrp, phi, w, spec.eta_w, spec.eta_phi)
            return np.concatenate([dw.ravel(), dphi.ravel()])

    else:  # two_time_scale
        y0 = phi0.ravel()

        def unpack(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            phi = y.reshape(n, k)
            return phi, td_fixed_point(mrp, phi)

        def fun(t: float, y: np.ndarray) -> np.ndarray:
            return rhs_two_time_scale(mrp, y.reshape(n, k), spec.eta_phi).ravel()

    times = np.linspace(0.0, config.t_end, config.log_points)
    last_t = 0.0

    def tracked(t: float, y: np.ndarray) -> np.ndarray:
        nonlocal last_t
        last_t = t
        return fun(t, y)

    try:
        sol = solve_ivp(
            tracked,
            (0.0, config.t_end),
            y0,
            method="RK45",
            t_eval=times,
            rtol=config.rtol,
            atol=config.atol,
            max_step=config.max_step,
        )
    except SOLVE_FAILURES as exc:
        raise IntegrationError(
            f"fixed-point solve broke down at t={last_t:.6g}: {exc}"
        ) from exc
    if not sol.success:
        tail = sol.y[:, -1] if sol.y.size else y0
        raise IntegrationError(
            f"integration failed near t={last_t:.6g} ({sol.message}); "
            f"state norm {np.linalg.norm(tail):.6g}"
        )

    return _log_trajectory(mrp, spec, phi0, sol.t, sol.y, unpack, metric_set, store_states)


def _log_trajectory(mrp, spec, phi0, times, Y, unpack, metric_set, store_states):
    V = value_function(mrp)
    k = phi0.shape[1]
    ceiling = _metrics.trace_ceiling(mrp, k) if "f_norm" in metric_set else None
    series: dict[str, list[float]] = {name: [] for name in metric_set}
    states: list[tuple[np.ndarray, np.ndarray]] | None = [] if store_states else None
    for j in range(Y.shape[1]):
        phi, w = unpack(Y[:, j])
        if states is not None:
            states.append((phi.copy(), w.copy()))
        if "E" in series:
            series["E"].append(_metrics.weighted_value_error(mrp, phi, w, V=V))
        if "f" in series or "f_norm" in series:
            f = _metrics.trace_objective(mrp, phi)
            if "f" in series:
                series["f"].append(f)
            if "f_norm" in series:
                series["f_norm"].append(f / ceiling)
        if "cov_drift" in series:
            series["cov_drift"].append(_metrics.covariance_drift(phi, phi0))
        if "grad_norm_w" in series or "grad_norm_phi" in series:
            grad_w, grad_phi = expected_semi_gradients(mrp, phi, w)
            if "grad_norm_w" in series:
                series["grad_norm_w"].append(float(np.linalg.norm(grad_w)))
            if "grad_norm_phi" in series:
                series["grad_norm_phi"].append(float(np.linalg.norm(grad_phi)))
        if "crit_residual" in series:
            series["crit_residual"].append(_metrics.critical_point_residual(mrp, phi))
    metric_arrays = {name: np.asarray(vals) for name, vals in series.items()}
    return TrajectoryLog(times=np.asarray(times), metrics=metric_arrays, states=states)
