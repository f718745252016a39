"""Joint representation/weight dynamics: fixed points, drift fields, integration.

Three dynamics are supported, all driven by the expected bootstrapped update
on a fixed Markov reward process:

- ``linear_td``: the representation is frozen, only the weights move.
- ``end_to_end``: weights and representation follow their semi-gradients
  jointly, a coupled nonlinear system.
- ``two_time_scale``: the weights are pinned to their fixed point for the
  current representation while the representation drifts slowly.

The linear-TD and end-to-end drifts are formed by one semi-gradient kernel
on the key matrix A and diag(d) R, which the public
``expected_semi_gradients`` calls on one process and the batched integrator
calls on stacks of processes. The two-time-scale drift
needs the weights only at their fixed point, so it is formed through
C = diag(d) R R^T diag(d) instead; its cost does not depend on the number of
rewards h. ``gradient_check`` compares the semi-gradients with finite
differences of the weighted value error.

Trajectories are integrated by one adaptive Dormand-Prince 5(4) loop
(Dormand & Prince 1980; step control as in Hairer, Norsett & Wanner, *Solving
ODEs I*, II.4) that steps a whole batch of trajectories together: the batch
driver ``_dopri45`` owns the active set, each row's exit, the dense output
and the stats, and calls the method's rules, ``_initial_step``,
``_rk_attempt``, ``_step_factor`` and ``_dense_output``, beside the tableau.
Each trajectory keeps its own step size, error norm and accept/reject
decisions, exactly as SciPy's ``RK45`` solver would step it alone, while the
drift fields evaluate on the stacked states with one numpy call per operation
(``np.matmul`` and the LAPACK gufuncs of ``metrics._checked_solve``, through
which every fixed-point solve goes), each making its own BLAS or LAPACK calls
for each trajectory, so a trajectory's result does not depend on which others
share its batch. Each logged metric is evaluated once over the trajectory's
stack of dense-output snapshots, which ``store_states=True`` keeps in its
``TrajectoryLog`` as ``phis`` (T, n, k) and ``ws`` (T, k, h).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import metrics as _metrics
from .mdp import MarkovRewardProcess, _check_int, _check_real, make_rng
# FixedPointResidualError is also a public name of this module, the class metrics defines
from .metrics import FixedPointResidualError, _checked_solve, _residual_bound, _solve_or_raise

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


# Every numerical failure a trajectory may end in (the solve's errors,
# IllConditionedError, SolutionOverflowError and FixedPointResidualError, are
# LinAlgErrors); any other exception is a bug.
NUMERICAL_FAILURES = (IntegrationError, np.linalg.LinAlgError)

_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_MIN_SV = 1e-10  # smallest singular value a representation may have
# Steps (accepted plus rejected) a trajectory may take, 13x a criterion-4 row's 14.9k;
# a flow made stiff by a large eta would otherwise step ever shorter without end.
MAX_STEPS = 200_000


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
        _check_real("eta_w", self.eta_w)
        _check_real("eta_phi", self.eta_phi)
        if self.kind not in KINDS:
            raise ValueError(f"unknown dynamics kind {self.kind!r}; choose from {KINDS}")
        if not (0 <= self.eta_w < np.inf and 0 <= self.eta_phi < np.inf):
            raise ValueError(
                f"learning rates must be finite and non-negative, got eta_w={self.eta_w}, "
                f"eta_phi={self.eta_phi}"
            )
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
    log_points: int = 201

    def __post_init__(self):
        _check_int("log_points", self.log_points)
        for name in ("t_end", "rtol", "atol"):
            _check_real(name, getattr(self, name))
        if not 0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):
            raise ValueError(f"rtol and atol must be finite and > 0, got {self.rtol}, {self.atol}")
        if self.log_points < 2:
            raise ValueError("log_points must be >= 2")
        if not (np.diff(np.linspace(0.0, self.t_end, self.log_points)) > 0).all():
            raise ValueError(f"t_end={self.t_end} is too small for {self.log_points} distinct log_points")


@dataclass(frozen=True)
class SolverStats:
    """Work the integrator did on one trajectory."""

    nfev: int  # drift-field evaluations
    accepted: int  # accepted steps
    rejected: int  # rejected step attempts


@dataclass
class TrajectoryLog:
    """Time-indexed metric series, optionally with the state snapshots.

    ``phis`` (T, n, k) and ``ws`` (T, k, h) stack the representation and the
    weights at each of the T ``times``; both are None unless the trajectory
    was integrated with ``store_states=True``.
    """

    times: np.ndarray
    metrics: dict[str, np.ndarray]
    phis: np.ndarray | None = None
    ws: np.ndarray | None = None
    stats: SolverStats | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1:
            raise ValueError(f"times must be 1-d, got shape {self.times.shape}")
        # NaN compares false, so "no step <= 0" alone would pass [0, nan, 1]
        if not (np.isfinite(self.times).all() and (np.diff(self.times) > 0).all()):
            raise ValueError("times must be finite and strictly increasing")
        for name, series in self.metrics.items():
            if np.shape(series) != self.times.shape:
                raise ValueError(f"metric {name!r} has shape {np.shape(series)}, not {self.times.shape}")

    def to_csv(self, path: str | Path | None = None) -> str:
        """CSV with header ``t`` plus the logged metric columns (canonical order)."""
        columns = [c for c in METRIC_COLUMNS if c in self.metrics]
        return _csv_text(["t"] + columns, [self.times] + [self.metrics[c] for c in columns], path)

    def states_to_json(self, path: str | Path | None = None) -> str:
        """Sidecar JSON with the (phi, w) snapshots, if they were stored.

        The text is byte for byte ``json.dumps`` of the document
        ``{"times": [...], "phi": [...], "w": [...]}`` of nested lists.
        """
        if self.phis is None:
            raise ValueError("trajectory was integrated without store_states=True")
        text = (
            f'{{"times": {_json_array(self.times)}, "phi": {_json_array(self.phis)}, '
            f'"w": {_json_array(self.ws)}}}'
        )
        if path is not None:
            Path(path).write_text(text)
        return text


def _json_array(a: np.ndarray) -> str:
    """``json.dumps(a.tolist())`` for a float array, in one ``%`` format.

    json writes a float as ``float.__repr__``, which ``%r`` also calls, and
    spells the non-finite ones NaN, Infinity and -Infinity. The ``repr`` of a
    finite float holds none of the letters of ``nan`` and ``inf``, so mapping
    those two words on the formatted text, where there are any, is exact.
    """
    text = _json_template(a.shape) % tuple(a.ravel().tolist())
    if not np.isfinite(a).all():
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json_template(shape: tuple[int, ...]) -> str:
    """The nested ``[%r, %r, ...]`` text of an array of ``shape``, as json spaces it."""
    template = "%r"
    for size in reversed(shape):
        template = "[" + ", ".join([template] * size) + "]"
    return template


def _csv_text(header: list[str], columns: list[np.ndarray], path: str | Path | None) -> str:
    """CSV with the given header and one row per entry of the columns, floats as ``repr``.

    ``repr`` round-trips a float exactly. Written to ``path`` if given.
    """
    rows = np.column_stack(columns).tolist()
    text = "".join([",".join(header) + "\n"] + [",".join(map(repr, row)) + "\n" for row in rows])
    if path is not None:
        Path(path).write_text(text)
    return text


def validate_representation(phi: np.ndarray) -> np.ndarray:
    """Check finite entries and full column rank (minimum singular value above 1e-10)."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2:
        raise ValueError(f"representation must be a 2-d matrix, got ndim={phi.ndim}")
    if not np.all(np.isfinite(phi)):
        raise ValueError("representation has non-finite entries")
    if phi.shape[1] > phi.shape[0]:
        raise ValueError(f"need k <= n, got shape {phi.shape}")
    sv = np.linalg.svd(phi, compute_uv=False)
    if sv[-1] <= _MIN_SV:
        raise ValueError(f"representation is rank deficient (min singular value {sv[-1]:.3e})")
    return phi


def orthonormal_init(n: int, k: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """Orthonormal n x k representation: Gram-Schmidt on standard-normal columns.

    Columns are re-orthogonalized with a second pass so that phi^T phi = I
    holds to machine precision. A near-zero pivot (astronomically unlikely
    for Gaussian draws) raises ``LinAlgError``, a numerical failure.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _gram_schmidt(make_rng(seed).standard_normal((n, k)))


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
    taken from the process's cache. ``phi`` may carry leading batch axes, such
    as a trajectory's (T, n, k) stack; the weights then carry them too, and
    each snapshot's are bitwise its own call's. The k x k solve is
    ``metrics._checked_solve``: a singular phi^T A phi, or one whose 2-norm
    condition number exceeds 1e12, raises IllConditionedError instead of
    returning an untrustworthy solution, and a solution whose residual
    exceeds 1e-10 max(1, max|rhs|), or is NaN, raises FixedPointResidualError.
    On a stack, the first failing snapshot raises.
    """
    phi_t = phi.swapaxes(-1, -2)
    return _solve_or_raise(phi_t @ mrp.A @ phi, phi_t @ mrp.dR, "phi^T A phi")


def expected_semi_gradients(
    mrp: MarkovRewardProcess, phi: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expected semi-gradients of the bootstrapped squared error.

    With the residual Z = R - (I - gamma P) phi w, returns
    (-phi^T diag(d) Z, -diag(d) Z w^T) for the weight and representation slots.
    ``phi`` and ``w`` may carry leading batch axes, such as a trajectory's
    (T, n, k) and (T, k, h) stacks; the gradients then carry them too.
    """
    if phi.shape[-2] != mrp.n:
        raise ValueError(f"phi has {phi.shape[-2]} rows, expected {mrp.n}")
    if w.shape[-2:] != (phi.shape[-1], mrp.h):
        raise ValueError(f"w has shape {w.shape}, expected (..., {phi.shape[-1]}, {mrp.h})")
    descent_w, descent_phi = _semi_gradients(mrp.A, mrp.dR, phi, w)
    return -descent_w, -descent_phi


def gradient_check(mrp: MarkovRewardProcess, phi: np.ndarray, w: np.ndarray) -> float:
    """Max relative error between semi-gradient directions and finite differences.

    The analytic side is the negated, rate-normalized drift of the joint
    dynamics; the numeric side is a central finite difference of the weighted
    value error with step eps = 1e-6. For reversible chains the two agree to
    O(eps^2); otherwise the returned discrepancy quantifies how far the
    dynamics is from a true gradient flow (a diagnostic, not a failure).
    """
    grad_w, grad_phi = expected_semi_gradients(mrp, phi, w)
    eps = 1e-6

    def central_difference(x: np.ndarray, error_at) -> np.ndarray:
        fd = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            step = np.zeros_like(x)
            step[idx] = eps
            fd[idx] = (error_at(x + step) - error_at(x - step)) / (2 * eps)
        return fd

    fd_w = central_difference(w, lambda q: _metrics.weighted_value_error(mrp, phi, q))
    fd_phi = central_difference(phi, lambda p: _metrics.weighted_value_error(mrp, p, w))

    scale = max(np.abs(grad_w).max(), np.abs(grad_phi).max(), 1e-12)
    err = max(np.abs(grad_w - fd_w).max(), np.abs(grad_phi - fd_phi).max())
    return float(err / scale)


def _semi_gradients(A, dR, phi, w, with_phi=True):
    """The descent directions (phi^T diag(d) Z, diag(d) Z w^T), on one process or stacks.

    ``A`` and ``dR`` are the key matrix and diag(d) R, so diag(d) Z = dR - A phi w.
    These are the negated ``expected_semi_gradients``, so the drift fields
    scale them by the rates as they are. Rounding is symmetric in sign, so
    negating an operand negates the rounded product exactly. The one
    exception is a sum that cancels to exactly zero, which is +0 for either
    sign of the operands; a zero's sign changes no norm or logged metric.

    ``with_phi=False`` skips the representation's direction, which linear
    TD does not move; it is then None.
    """
    weighted = dR - A @ (phi @ w)
    # phi^T as a view of a C-ordered phi: each snapshot of a strided stack
    # then takes the BLAS product one C-ordered 2-D snapshot takes, bit for bit
    descent_w = np.ascontiguousarray(phi).swapaxes(-1, -2) @ weighted
    return descent_w, weighted @ w.swapaxes(-1, -2) if with_phi else None


class Problem(NamedTuple):
    """One trajectory to integrate: a drift field on a process, started at (phi0, w0).

    ``w0`` defaults to zeros and is ignored by the two-time-scale dynamics.
    """

    mrp: MarkovRewardProcess
    spec: DynamicsSpec
    phi0: np.ndarray
    w0: np.ndarray | None = None


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

    A batch of one for ``integrate_batch``; raises the trajectory's failure.
    ``w0`` defaults to zeros and is ignored by the two-time-scale dynamics.
    """
    (result,) = integrate_batch([Problem(mrp, spec, phi0, w0)], config, metric_set, store_states)
    if isinstance(result, Exception):
        raise result
    return result


def integrate_batch(
    problems: list[Problem],
    config: IntegratorConfig | None = None,
    metric_set: tuple[str, ...] = METRIC_COLUMNS,
    store_states: bool = False,
) -> list[TrajectoryLog | IntegrationError | np.linalg.LinAlgError]:
    """Integrate many trajectories together; one result per problem, in order.

    Uses the adaptive Dormand-Prince 5(4) pair; metric samples come from its
    dense output at ``log_points`` times so that different dynamics share a
    comparable time axis. Problems of the same dynamics kind, shape of phi and
    number of reward columns h are stepped as one batch, save that the
    two-time-scale flow, whose drift sees the rewards only through the n x n
    matrix ``C``, batches problems of every h.
    Each trajectory keeps its own steps, so its result is bitwise the same
    whichever problems share its batch.

    A trajectory whose integration breaks down gets its IntegrationError
    instead of a log, and one whose logged metrics need a fixed-point or
    linear solve that cannot be trusted gets that LinAlgError; the others
    carry on. Invalid inputs raise ValueError before anything is integrated.
    """
    if config is None:
        config = IntegratorConfig()
    unknown = set(metric_set) - set(METRIC_COLUMNS)
    if unknown:
        raise ValueError(f"unknown metrics {sorted(unknown)}; choose from {METRIC_COLUMNS}")
    problems = [_validated(Problem(*p)) for p in problems]
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(problems):
        h = None if p.spec.kind == TWO_TIME_SCALE else p.mrp.h
        groups.setdefault((p.spec.kind, p.phi0.shape, h), []).append(i)

    times = np.linspace(0.0, config.t_end, config.log_points)
    results: list = [None] * len(problems)
    for (kind, *_), members in groups.items():
        rows = [problems[i] for i in members]
        y0 = np.stack([_initial_state(row) for row in rows])
        outcomes = _dopri45(_StackedField.build(kind, rows), y0, times, config)
        for i, row, outcome in zip(members, rows, outcomes):
            if isinstance(outcome, IntegrationError):
                results[i] = outcome
                continue
            Y, stats = outcome
            try:
                results[i] = _log_trajectory(row, times, Y, stats, metric_set, store_states)
            except np.linalg.LinAlgError as exc:
                results[i] = exc
    return results


def _validated(p: Problem) -> Problem:
    phi0 = validate_representation(p.phi0)
    n, k = phi0.shape
    if n != p.mrp.n:
        raise ValueError(f"phi has {n} rows, expected {p.mrp.n}")
    w0 = np.zeros((k, p.mrp.h)) if p.w0 is None else np.asarray(p.w0, dtype=float)
    if w0.shape != (k, p.mrp.h):
        raise ValueError(f"w0 has shape {w0.shape}, expected {(k, p.mrp.h)}")
    if not np.all(np.isfinite(w0)):
        raise ValueError("w0 has non-finite entries")
    return Problem(p.mrp, p.spec, phi0, w0)


def _initial_state(p: Problem) -> np.ndarray:
    if p.spec.kind == LINEAR_TD:
        return p.w0.ravel()
    if p.spec.kind == END_TO_END:
        return np.concatenate([p.w0.ravel(), p.phi0.ravel()])
    return p.phi0.ravel()


class _StackedField:
    """The drift field of one batch: each row's process data stacked on a leading axis."""

    def __init__(self, kind: str, shape: tuple[int, int, int], arrays: dict[str, np.ndarray]):
        self.kind = kind
        self.n, self.k, self.h = shape  # two-time-scale rows may differ in h and never read it
        self.arrays = arrays

    @classmethod
    def build(cls, kind: str, rows: list[Problem]) -> "_StackedField":
        (n, k), h = rows[0].phi0.shape, rows[0].mrp.h
        mrps = [row.mrp for row in rows]

        def full(per_row, shape):
            # each row's scalar, repeated to (rows, *shape): numpy multiplies two
            # contiguous operands of one shape several times faster than it
            # broadcasts a (rows, 1, 1) one, bit for bit
            columns = np.array(per_row, dtype=float).reshape(len(rows), -1, 1)
            return np.ascontiguousarray(np.broadcast_to(columns, (len(rows), *shape)))

        arrays = {"eta_phi": full([row.spec.eta_phi for row in rows], (n, k))}
        if kind == TWO_TIME_SCALE:
            arrays["AC"] = np.stack([(m.A, m.C) for m in mrps]).reshape(len(rows), 2 * n, n)
            arrays["eye"] = np.tile(np.eye(k), (len(rows), 1, 1))
            arrays["eye_bound"] = _residual_bound(arrays["eye"])
        else:
            arrays |= {
                "A": np.stack([m.A for m in mrps]),
                "dR": np.stack([m.dR for m in mrps]),
                "eta_w": full([row.spec.eta_w for row in rows], (k, h)),
            }
        if kind == LINEAR_TD:
            arrays["phi0"] = np.stack([row.phi0 for row in rows])
        return cls(kind, (n, k, h), arrays)

    def take(self, keep: np.ndarray) -> "_StackedField":
        arrays = {name: a[keep] for name, a in self.arrays.items()}
        return _StackedField(self.kind, (self.n, self.k, self.h), arrays)

    def __call__(self, y: np.ndarray) -> tuple[np.ndarray, dict[int, np.linalg.LinAlgError]]:
        """Drift at the stacked states ``y``, plus the fixed-point failures by row."""
        a, rows = self.arrays, len(y)
        n, k, h = self.n, self.k, self.h
        if self.kind == TWO_TIME_SCALE:
            # With G = phi^T A phi, M = phi^T C phi and the fixed point w = G^-1 phi^T dR,
            # the descent direction diag(d) (R - (I - gamma P) phi w) w^T is
            # (C phi - A phi G^-1 M) G^-T: one product gives [A phi; C phi], one [G, M]
            phi = y.reshape(rows, n, k)
            AC_phi = a["AC"] @ phi
            G, M = (phi.swapaxes(1, 2)[:, None] @ AC_phi.reshape(rows, 2, n, k)).swapaxes(0, 1)
            G_inv, failures = _checked_solve(G, a["eye"], "phi^T A phi", a["eye_bound"])
            # numpy multiplies by a C-ordered copy of G^-T faster than by the transposed view
            G_inv_t = np.ascontiguousarray(G_inv.swapaxes(1, 2))
            descent = (AC_phi[:, n:] - AC_phi[:, :n] @ (G_inv @ M)) @ G_inv_t
            return (a["eta_phi"] * descent).reshape(rows, -1), failures
        if self.kind == LINEAR_TD:
            phi, w = a["phi0"], y.reshape(rows, k, h)
        else:
            phi, w = y[:, k * h :].reshape(rows, n, k), y[:, : k * h].reshape(rows, k, h)
        dw, dphi = _semi_gradients(a["A"], a["dR"], phi, w, self.kind == END_TO_END)
        if dphi is None:
            return (a["eta_w"] * dw).reshape(rows, -1), {}
        parts = (a["eta_w"] * dw, a["eta_phi"] * dphi)
        return np.concatenate([part.reshape(rows, -1) for part in parts], axis=1), {}


def _norms(x: np.ndarray) -> np.ndarray:
    """2-norm of each row, with the BLAS dot product ``np.linalg.norm`` takes."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _rms(x: np.ndarray) -> np.ndarray:
    """RMS norm of each row."""
    return _norms(x) / x.shape[-1] ** 0.5


# The Dormand-Prince 5(4) pair with Shampine's quartic dense output, and the
# step-size controller constants, as in SciPy's RK45.
_RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_RK_STAGES = tuple(_RK_A[s, :s] for s in range(1, 6))  # each stage's weights on the earlier ones
_RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY = 0.9
_MIN_FACTOR = 0.2  # smallest step-size decrease
_MAX_FACTOR = 10  # largest step-size increase
_ERROR_EXPONENT = -1 / 5  # -1 / (order of the embedded error estimate + 1)


def _initial_step(evaluate, y, f, rtol, atol, t_bound):
    """SciPy's ``select_initial_step`` for each row of ``y``, whose drift is ``f``."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), t_bound)
    f1 = evaluate(y + h0[:, None] * f, 1.0, h0)
    d2 = _rms((f1 - f) / scale) / h0
    h_abs = np.empty(len(y))
    for i in range(len(y)):
        if d1[i] <= 1e-15 and d2[i] <= 1e-15:
            h1 = max(1e-6, h0[i] * 1e-3)
        else:
            h1 = (0.01 / max(d1[i], d2[i])) ** (1 / 5)
        h_abs[i] = min(100 * h0[i], h1, t_bound)
    return h_abs


def _rk_attempt(evaluate, y, f, h, K, rtol, atol):
    """One attempt of each row's step ``h``: fills ``K``, returns y_new, f_new and the RMS error norm."""
    h_col = h[:, None]
    K[:, 0] = f
    for s, weights in enumerate(_RK_STAGES, start=1):
        K[:, s] = evaluate(y + (weights @ K[:, :s]) * h_col, _RK_C[s], h)
    y_new = y + h_col * (_RK_B @ K[:, :6])
    f_new = K[:, 6] = evaluate(y_new, 1.0, h)
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    return y_new, f_new, _rms((_RK_E @ K) * h_col / scale)


def _step_factor(error_norm, accept, fresh):
    """What each row's step is multiplied by: no growth right after a rejection (``~fresh``)."""
    # the scalar power keeps SciPy's rounding (numpy's array power may differ by an ulp)
    growth = np.array([_SAFETY * e ** _ERROR_EXPONENT if e else np.inf for e in error_norm.tolist()])
    factor = np.where(growth < _MAX_FACTOR, growth, _MAX_FACTOR)
    factor = np.where(~fresh & ~(factor < 1), 1.0, factor)
    shrink = np.where(growth > _MIN_FACTOR, growth, _MIN_FACTOR)
    return np.where(accept, factor, shrink)


def _dense_output(K, t_old, h, y_old, t):
    """SciPy's RK45 dense output (Shampine's quartic) of one step of size ``h``, at the times ``t``."""
    Q = K.T.dot(_RK_P)
    x = (t - t_old) / h
    p = np.multiply.accumulate(np.repeat(x[None], Q.shape[1], axis=0), axis=0)  # x, x^2, ...
    y = h * np.dot(Q, p)
    y += y_old[:, None]
    return y


def _dopri45(field: _StackedField, y0: np.ndarray, times: np.ndarray, config: IntegratorConfig) -> list:
    """Integrate y' = field(y) for every row of ``y0`` from t = 0 to ``config.t_end``.

    The batch driver: rows that finish or fail leave through ``leave``, and
    the batch and its field (``field.take``) are compacted, as is a row that
    has taken ``MAX_STEPS`` steps. It owns SciPy's min_step floor, the clip
    at t_end, the dense output at the ``times`` in (t_old, t_new] and the
    ``SolverStats``, and it calls the Dormand-Prince rules beside the tableau
    (``_initial_step``, ``_rk_attempt``, ``_step_factor``, ``_dense_output``),
    so each row takes the steps SciPy's ``RK45`` takes for it alone. A row
    that fails at the min_step floor reports its last accepted t and state,
    as SciPy does. Returns per row either ``(Y, SolverStats)``, with Y
    holding the state at each of ``times`` as a column, or its IntegrationError.
    """
    n_rows, size = y0.shape
    t_bound = float(config.t_end)
    rtol = max(config.rtol, 100 * np.finfo(float).eps)  # SciPy's floor on rtol
    atol = config.atol
    Y = np.empty((n_rows, size, len(times)))
    results: list = [None] * n_rows

    ids = np.arange(n_rows)  # the row in each slot of the active batch
    t = np.zeros(n_rows)
    leaving = np.zeros(n_rows, dtype=bool)  # slots that leave at the next compaction

    def leave(slot: int, result) -> None:
        # the one way out of the batch: a row's first result is its result
        if not leaving[slot]:
            leaving[slot] = True
            results[ids[slot]] = result

    def evaluate(y: np.ndarray, c: float, step) -> np.ndarray:
        f, failures = field(y)
        for slot, exc in failures.items():
            error = IntegrationError(
                f"fixed-point solve broke down at t={(t + c * step)[slot]:.6g}: {exc}"
            )
            error.__cause__ = exc
            leave(slot, error)
        return f

    # where a huge drift overflows the initial-step estimate, the row starts
    # from the min_step floor and MAX_STEPS ends it
    y = y0
    with np.errstate(all="ignore"):
        f = evaluate(y, 0.0, 0.0)
        h_abs = _initial_step(evaluate, y, f, rtol, atol, t_bound)

    fresh = np.ones(n_rows, dtype=bool)  # starting a step, not retrying a rejected attempt
    emitted = np.zeros(n_rows, dtype=int)  # entries of ``times`` already written
    accepted = np.zeros(n_rows, dtype=int)  # accepted steps of the row in each slot
    taken = 0  # steps each row in the batch has taken, as all rows start together
    K = np.empty((n_rows, _RK_E.size, size))  # the stages of the current attempt
    while True:
        if np.logical_or.reduce(leaving):
            keep = ~leaving
            ids, t, y, f, h_abs, fresh, emitted, accepted = (
                a[keep] for a in (ids, t, y, f, h_abs, fresh, emitted, accepted)
            )
            field = field.take(keep)
            leaving = np.zeros(ids.size, dtype=bool)
            K = np.empty((ids.size, *K.shape[1:]))
        if not ids.size:
            break

        # SciPy's floor 10 |nextafter(t, inf) - t|, which is 10 spacing(t) as t >= 0
        min_step = 10 * np.spacing(t)
        if not np.logical_and.reduce(h_abs >= min_step):  # a NaN step fails this too
            h_abs = np.where(fresh & (h_abs < min_step), min_step, h_abs)
            for slot in np.flatnonzero(~(h_abs >= min_step)):
                leave(slot, IntegrationError(
                    f"integration failed near t={t[slot]:.6g} ({_TOO_SMALL_STEP}); "
                    f"state norm {np.linalg.norm(y[slot]):.6g}"
                ))
            if np.logical_or.reduce(leaving):
                continue

        t_new = np.minimum(t + h_abs, t_bound)
        h = h_abs = t_new - t  # never negative: t_new is at least t
        y_new, f_new, error_norm = _rk_attempt(evaluate, y, f, h, K, rtol, atol)
        accept = error_norm < 1
        h_abs = h_abs * _step_factor(error_norm, accept, fresh)

        reached = np.searchsorted(times, t_new, side="right")
        for slot in np.flatnonzero(accept & (reached > emitted) & ~leaving):
            lo, hi = emitted[slot], reached[slot]
            Y[ids[slot], :, lo:hi] = _dense_output(K[slot], t[slot], h[slot], y[slot], times[lo:hi])
            emitted[slot] = hi
        accepted += accept
        taken += 1
        done = accept & (t_new >= t_bound)
        if np.logical_or.reduce(done):
            for slot in np.flatnonzero(done):
                steps = int(accepted[slot])
                leave(slot, (Y[ids[slot]], SolverStats(2 + 6 * taken, steps, taken - steps)))
        if np.logical_and.reduce(accept):
            t, y, f = t_new, y_new, f_new
        else:
            t = np.where(accept, t_new, t)
            y = np.where(accept[:, None], y_new, y)
            f = np.where(accept[:, None], f_new, f)
        fresh = accept
        if taken >= MAX_STEPS:
            for slot in range(ids.size):
                leave(slot, IntegrationError(f"step budget of {MAX_STEPS} steps spent at t={t[slot]:.6g}"))
    return results


def _log_trajectory(row: Problem, times, Y, stats, metric_set, store_states) -> TrajectoryLog:
    """Metrics (and states) at each column of ``Y``, the integrated state at ``times``.

    Each requested metric is evaluated once, on the trajectory's stacked
    snapshots: (T, n, k) representations and (T, k, h) weights.
    """
    mrp, phi0 = row.mrp, row.phi0
    n, k = phi0.shape
    split = k * mrp.h
    wanted = set(metric_set)
    if row.spec.kind == LINEAR_TD:
        phis = np.broadcast_to(phi0, (len(times), n, k))
        ws = Y.T.reshape(-1, k, mrp.h)
    elif row.spec.kind == END_TO_END:
        phis = Y[split:].T.reshape(-1, n, k)
        ws = Y[:split].T.reshape(-1, k, mrp.h)
    else:
        phis = Y.T.reshape(-1, n, k)
        reads_w = store_states or wanted & {"E", "grad_norm_w", "grad_norm_phi"}
        ws = td_fixed_point(mrp, phis) if reads_w else None  # unread, a rejected fixed point fails no row
    logged = {}
    if "E" in wanted:
        logged["E"] = _metrics.weighted_value_error(mrp, phis, ws)
    if wanted & {"f", "f_norm"}:
        logged["f"] = _metrics.trace_objective(mrp, phis)
        if "f_norm" in wanted:
            logged["f_norm"] = logged["f"] / _metrics.trace_ceiling(mrp, k)
    if "cov_drift" in wanted:
        logged["cov_drift"] = _metrics.covariance_drift(phis, phi0)
    if wanted & {"grad_norm_w", "grad_norm_phi"}:
        grad_w, grad_phi = expected_semi_gradients(mrp, phis, ws)
        logged["grad_norm_w"] = _norms(grad_w.reshape(len(times), -1))
        logged["grad_norm_phi"] = _norms(grad_phi.reshape(len(times), -1))
    if "crit_residual" in wanted:
        logged["crit_residual"] = _metrics.critical_point_residual(mrp, phis)
    metrics = {name: logged[name] for name in metric_set}
    stacks = (phis.copy(), ws.copy()) if store_states else (None, None)
    return TrajectoryLog(times, metrics, *stacks, stats=stats)
