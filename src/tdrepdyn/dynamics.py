"""Joint representation/weight dynamics: fixed points, drift fields, integration.

Three dynamics are supported, all driven by the expected bootstrapped update
on a fixed Markov reward process:

- ``linear_td``: the representation is frozen, only the weights move.
- ``end_to_end``: weights and representation follow their semi-gradients
  jointly, a coupled nonlinear system.
- ``two_time_scale``: the weights are pinned to their fixed point for the
  current representation while the representation drifts slowly.

Each drift is formed by one semi-gradient kernel, which the public
``expected_semi_gradients`` calls on one process and the batched integrator
calls on stacks of processes.

Trajectories are integrated by one adaptive Dormand-Prince 5(4) loop
(Dormand & Prince 1980; step control as in Hairer, Norsett & Wanner, *Solving
ODEs I*, II.4) that steps a whole batch of trajectories together. Each
trajectory keeps its own step size, error norm and accept/reject decisions,
exactly as SciPy's ``RK45`` solver would step it alone, while the drift
fields evaluate on the stacked states with one numpy call per operation
(``np.matmul``; the LAPACK gufuncs behind ``np.linalg.det`` and
``np.linalg.solve``, called directly by the fixed-point condition guard; and
``np.linalg.svd`` when that guard cannot certify a stack), each making one
BLAS or LAPACK call per trajectory. A trajectory's result therefore does not
depend on which others share its batch. Dense output gives the state at every
log time, and each logged metric is evaluated once over the trajectory's whole
stack of snapshots. With ``store_states=True`` a ``TrajectoryLog`` keeps those
stacks as ``phis`` (T, n, k) and ``ws`` (T, k, h).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import metrics as _metrics
from .mdp import MarkovRewardProcess, _check_int, _check_real, make_rng
from .metrics import _solve_guarded_stack

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


# Every numerical failure a trajectory may end in (the fixed-point guard's
# errors are LinAlgErrors); any other exception is a bug.
NUMERICAL_FAILURES = (IntegrationError, np.linalg.LinAlgError)

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
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_H_BLOCK = 8  # two-time-scale rewards are padded to a multiple of this many columns
_MIN_SV = 1e-10  # smallest singular value a representation may have


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
    max_step: float = np.inf
    log_points: int = 201

    def __post_init__(self):
        _check_int("log_points", self.log_points)
        for name in ("t_end", "rtol", "atol", "max_step"):
            _check_real(name, getattr(self, name))
        if not 0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):
            raise ValueError(f"rtol and atol must be finite and > 0, got {self.rtol}, {self.atol}")
        if not self.max_step > 0:
            raise ValueError("max_step must be > 0")
        if self.log_points < 2:
            raise ValueError("log_points must be >= 2")


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
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        for name, series in self.metrics.items():
            if len(series) != len(self.times):
                raise ValueError(f"metric {name!r} length does not match times")

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
    """Check full column rank (minimum singular value above 1e-10)."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2:
        raise ValueError(f"representation must be a 2-d matrix, got ndim={phi.ndim}")
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
    taken from the process's cache. The guard is the 2-norm condition number
    of the k x k system: beyond 1e12 it raises IllConditionedError instead of
    returning an untrustworthy solution. A system with ||G||_F^k < 1e11 |det G|
    is certified without computing it; any other takes s_max / s_min from
    ``np.linalg.svd``, and one whose LU factorization breaks down all the same
    is rejected as singular. A solution whose residual exceeds
    1e-10 max(1, max|rhs|), or is NaN, raises FixedPointResidualError.
    """
    w, failures = _fixed_points(mrp.A, mrp.dR, phi[None])
    if failures:
        raise failures[0]
    return w[0]


def _fixed_points(
    A: np.ndarray, dR: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, dict[int, np.linalg.LinAlgError]]:
    """``td_fixed_point`` for a stack of representations ``phi`` (B x n x k).

    ``A`` and ``dR`` are one process's key matrix and diag(d) R, or stacks of
    them. Returns the weights (NaN where a slice failed) and, per failed slice
    index, the error ``td_fixed_point`` raises for that slice.
    """
    phi_t = phi.swapaxes(1, 2)
    G = phi_t @ A @ phi
    b = phi_t @ dR
    w, failures = _solve_guarded_stack(G, b, "phi^T A phi")
    residual = np.abs(G @ w - b).max(axis=(1, 2))
    bound = 1e-10 * np.abs(b).max(axis=(1, 2), initial=1.0)
    missed = ~(residual <= bound)  # a NaN residual misses too
    if missed.any():
        for i in np.flatnonzero(missed):
            # a slice the guard rejected (NaN weights) keeps its IllConditionedError
            failures.setdefault(int(i), FixedPointResidualError(
                f"fixed-point residual {residual[i]:.3e} exceeds {bound[i]:.3e}"
            ))
    return w, failures


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
    descent_w, descent_phi = _semi_gradients(mrp.P, mrp.R, mrp.gamma, mrp.d[:, None], phi, w)
    return -descent_w, -descent_phi


def _semi_gradients(P, R, gamma, d, phi, w, slots=(True, True)):
    """The descent directions (phi^T diag(d) Z, diag(d) Z w^T), on one process or stacks.

    These are the negated ``expected_semi_gradients``, so the drift fields
    scale them by the rates as they are. Rounding is symmetric in sign, so
    negating an operand negates the rounded product exactly. The one
    exception is a sum that cancels to exactly zero, which is +0 for either
    sign of the operands; a zero's sign changes no norm or logged metric.

    ``d`` is a column; it and ``gamma`` may also come repeated to the shape
    they broadcast to, which gives the same bits.

    ``slots`` says which of the two to form, so a drift that moves only w or
    only phi pays for one product; a skipped one is None.
    """
    pred = phi @ w
    weighted = d * (R - (pred - gamma * (P @ pred)))
    descent_w = descent_phi = None
    if slots[0]:
        # phi^T as a view of a C-ordered phi: each snapshot of a strided stack
        # then takes the BLAS product one C-ordered 2-D snapshot takes, bit for bit
        descent_w = np.ascontiguousarray(phi).swapaxes(-1, -2) @ weighted
    if slots[1]:
        descent_phi = weighted @ w.swapaxes(-1, -2)
    return descent_w, descent_phi


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
    comparable time axis. Problems of the same dynamics kind and state shape
    are stepped as one batch (two-time-scale problems also share one across
    h, see ``_padded_h``). Each trajectory keeps its own steps, so its result
    is bitwise the same whichever problems share its batch.

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
        h = _padded_h(p.mrp.h) if p.spec.kind == TWO_TIME_SCALE else p.mrp.h
        groups.setdefault((p.spec.kind, p.phi0.shape, h), []).append(i)

    times = np.linspace(0.0, config.t_end, config.log_points)
    results: list = [None] * len(problems)
    for (kind, _, _), members in groups.items():
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


def _padded_h(h: int) -> int:
    """Reward columns a two-time-scale trajectory is integrated with.

    h >= 2 is rounded up to a multiple of 8, so rows with h = 2..8 share one
    batch: zero reward columns give exactly-zero weight columns. BLAS picks
    its kernels by matrix width, so padding can move the drift by rounding;
    because the width depends on h alone, a trajectory's bits still do not
    depend on the other rows of its batch. A single reward column stays
    unpadded, as numpy takes a matrix-vector (gemv) path for it: the
    single-reward trajectories of fig1 and fig2 then keep the rounding of the
    unbatched field, and cost one more batch only where h varies.
    """
    return h if h == 1 else -(-h // _H_BLOCK) * _H_BLOCK


class _StackedField:
    """The drift field of one batch: each row's process data stacked on a leading axis."""

    def __init__(self, kind: str, shape: tuple[int, int, int], arrays: dict[str, np.ndarray]):
        self.kind = kind
        self.n, self.k, self.h = shape
        self.arrays = arrays
        self.slots = (kind != TWO_TIME_SCALE, kind != LINEAR_TD)

    @classmethod
    def build(cls, kind: str, rows: list[Problem]) -> "_StackedField":
        n, k = rows[0].phi0.shape
        h = _padded_h(rows[0].mrp.h) if kind == TWO_TIME_SCALE else rows[0].mrp.h
        mrps = [row.mrp for row in rows]

        def padded(mats):
            return np.stack([np.pad(m, ((0, 0), (0, h - m.shape[1]))) for m in mats])

        def full(per_row, shape):
            # each row's scalar or column, repeated to (rows, *shape): numpy multiplies
            # two contiguous operands of one shape several times faster than it
            # broadcasts a (rows, 1, 1) or (rows, n, 1) one, bit for bit
            columns = np.array(per_row, dtype=float).reshape(len(rows), -1, 1)
            return np.ascontiguousarray(np.broadcast_to(columns, (len(rows), *shape)))

        arrays = {
            "P": np.stack([m.P for m in mrps]),
            "R": padded([m.R for m in mrps]),
            "gamma": full([m.gamma for m in mrps], (n, h)),
            "d": full([m.d for m in mrps], (n, h)),
            "eta_w": full([row.spec.eta_w for row in rows], (k, h)),
            "eta_phi": full([row.spec.eta_phi for row in rows], (n, k)),
        }
        if kind == TWO_TIME_SCALE:
            arrays["A"] = np.stack([m.A for m in mrps])
            arrays["dR"] = padded([m.dR for m in mrps])
        elif kind == LINEAR_TD:
            arrays["phi0"] = np.stack([row.phi0 for row in rows])
        return cls(kind, (n, k, h), arrays)

    def take(self, keep: np.ndarray) -> "_StackedField":
        arrays = {name: a[keep] for name, a in self.arrays.items()}
        return _StackedField(self.kind, (self.n, self.k, self.h), arrays)

    def __call__(self, y: np.ndarray) -> tuple[np.ndarray, dict[int, np.linalg.LinAlgError]]:
        """Drift at the stacked states ``y``, plus the fixed-point failures by row."""
        a, rows = self.arrays, len(y)
        n, k, h = self.n, self.k, self.h
        failures = {}
        if self.kind == LINEAR_TD:
            phi, w = a["phi0"], y.reshape(rows, k, h)
        elif self.kind == END_TO_END:
            phi, w = y[:, k * h :].reshape(rows, n, k), y[:, : k * h].reshape(rows, k, h)
        else:
            phi = y.reshape(rows, n, k)
            w, failures = _fixed_points(a["A"], a["dR"], phi)
        dw, dphi = _semi_gradients(a["P"], a["R"], a["gamma"], a["d"], phi, w, self.slots)
        if dphi is None:
            return (a["eta_w"] * dw).reshape(rows, -1), failures
        if dw is None:
            return (a["eta_phi"] * dphi).reshape(rows, -1), failures
        parts = (a["eta_w"] * dw, a["eta_phi"] * dphi)
        return np.concatenate([part.reshape(rows, -1) for part in parts], axis=1), failures


def _norms(x: np.ndarray) -> np.ndarray:
    """2-norm of each row, with the BLAS dot product ``np.linalg.norm`` takes."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _rms(x: np.ndarray) -> np.ndarray:
    """RMS norm of each row."""
    return _norms(x) / x.shape[-1] ** 0.5


def _dopri45(field: _StackedField, y0: np.ndarray, times: np.ndarray, config: IntegratorConfig) -> list:
    """Integrate y' = field(y) for every row of ``y0`` from t = 0 to ``config.t_end``.

    Each row takes the steps SciPy's ``RK45`` solver takes for it alone: the
    same initial step (``select_initial_step``), min_step floor, max_step cap,
    clipping at t_end, RMS error norm over the row's own state, step-size
    factors (with no growth right after a rejection) and dense output at the
    ``times`` in (t_old, t_new]. Rows that finish or fail leave the batch,
    which is compacted. Returns per row either ``(Y, SolverStats)``, with Y
    holding the state at each of ``times`` as a column, or its
    IntegrationError.
    """
    n_rows, size = y0.shape
    t_bound = float(config.t_end)
    rtol = max(config.rtol, 100 * np.finfo(float).eps)  # SciPy's floor on rtol
    atol, max_step = config.atol, config.max_step
    Y = np.empty((n_rows, size, len(times)))
    results: list = [None] * n_rows
    accepted = np.zeros(n_rows, dtype=int)
    rejected = np.zeros(n_rows, dtype=int)

    ids = np.arange(n_rows)  # the row in each slot of the active batch
    t = np.zeros(n_rows)
    h = np.zeros(n_rows)  # the attempt's step: stage times are t + c h
    failed = np.zeros(n_rows, dtype=bool)

    def evaluate(y: np.ndarray, c: float) -> np.ndarray:
        f, failures = field(y)
        for slot, exc in failures.items():
            if not failed[slot]:
                failed[slot] = True
                error = IntegrationError(
                    f"fixed-point solve broke down at t={t[slot] + c * h[slot]:.6g}: {exc}"
                )
                error.__cause__ = exc
                results[ids[slot]] = error
        return f

    # select_initial_step, per row
    y = y0
    f = evaluate(y, 0.0)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.empty(n_rows)
    for i in range(n_rows):
        h0[i] = min(1e-6 if d0[i] < 1e-5 or d1[i] < 1e-5 else 0.01 * d0[i] / d1[i], t_bound)
    h = h0
    f1 = evaluate(y + h0[:, None] * f, 1.0)
    d2 = _rms((f1 - f) / scale) / h0
    h_abs = np.empty(n_rows)
    for i in range(n_rows):
        if d1[i] <= 1e-15 and d2[i] <= 1e-15:
            h1 = max(1e-6, h0[i] * 1e-3)
        else:
            h1 = (0.01 / max(d1[i], d2[i])) ** (1 / 5)
        h_abs[i] = min(100 * h0[i], h1, t_bound, max_step)

    last_t = h0.copy()  # time of each row's latest drift evaluation
    fresh = np.ones(n_rows, dtype=bool)  # starting a step, not retrying a rejected attempt
    emitted = np.zeros(n_rows, dtype=int)  # entries of ``times`` already written
    leaving = failed.copy()
    while True:
        if leaving.any():
            keep = ~leaving
            ids, t, y, f, h, h_abs, last_t, fresh, emitted = (
                a[keep] for a in (ids, t, y, f, h, h_abs, last_t, fresh, emitted)
            )
            field = field.take(keep)
            failed = np.zeros(ids.size, dtype=bool)
        if not ids.size:
            break

        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(
            fresh & (h_abs > max_step), max_step,
            np.where(fresh & (h_abs < min_step), min_step, h_abs),
        )
        leaving = ~(h_abs >= min_step)  # a NaN step fails here too
        if leaving.any():
            for slot in np.flatnonzero(leaving):
                i = ids[slot]
                tail = Y[i, :, emitted[slot] - 1] if emitted[slot] else y0[i]
                results[i] = IntegrationError(
                    f"integration failed near t={last_t[slot]:.6g} ({_TOO_SMALL_STEP}); "
                    f"state norm {np.linalg.norm(tail):.6g}"
                )
            continue

        t_new = t + h_abs
        t_new = np.where(t_new - t_bound > 0, t_bound, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        K = np.empty((ids.size, 7, size))
        K[:, 0] = f
        for s in range(1, 6):
            dy = (_RK_A[s, :s] @ K[:, :s]) * h[:, None]
            K[:, s] = evaluate(y + dy, _RK_C[s])
        y_new = y + h[:, None] * (_RK_B @ K[:, :6])
        f_new = K[:, 6] = evaluate(y_new, 1.0)
        last_t = t + h
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _rms((_RK_E @ K) * h[:, None] / scale)

        # the scalar power keeps SciPy's rounding (numpy's array power may differ by an ulp)
        growth = np.array(
            [_SAFETY * e ** _ERROR_EXPONENT if e else np.inf for e in error_norm.tolist()]
        )
        accept = error_norm < 1
        factor = np.where(growth < _MAX_FACTOR, growth, _MAX_FACTOR)
        factor = np.where(~fresh & ~(factor < 1), 1.0, factor)
        shrink = np.where(growth > _MIN_FACTOR, growth, _MIN_FACTOR)
        h_abs = h_abs * np.where(accept, factor, shrink)

        reached = np.searchsorted(times, t_new, side="right")
        for slot in np.flatnonzero(accept & (reached > emitted) & ~failed):
            lo, hi = emitted[slot], reached[slot]
            Y[ids[slot], :, lo:hi] = _dense_output(K[slot], t[slot], t_new[slot], y[slot], times[lo:hi])
            emitted[slot] = hi
        accepted[ids[accept]] += 1
        rejected[ids[~accept]] += 1
        done = accept & (t_new - t_bound >= 0) & ~failed
        for i in ids[done]:
            steps = int(accepted[i] + rejected[i])
            results[i] = (Y[i], SolverStats(2 + 6 * steps, int(accepted[i]), int(rejected[i])))
        if accept.all():
            t, y, f = t_new, y_new, f_new
        else:
            t = np.where(accept, t_new, t)
            y = np.where(accept[:, None], y_new, y)
            f = np.where(accept[:, None], f_new, f)
        fresh = accept
        leaving = done | failed
    return results


def _dense_output(K, t_old, t_new, y_old, t):
    """SciPy's RK45 dense output (Shampine's quartic) of one step, at the times ``t``."""
    Q = K.T.dot(_RK_P)
    h = t_new - t_old
    x = (t - t_old) / h
    p = np.multiply.accumulate(np.repeat(x[None], Q.shape[1], axis=0), axis=0)  # x, x^2, ...
    y = h * np.dot(Q, p)
    y += y_old[:, None]
    return y


def _log_trajectory(row: Problem, times, Y, stats, metric_set, store_states) -> TrajectoryLog:
    """Metrics (and states) at each column of ``Y``, the integrated state at ``times``.

    Each requested metric is evaluated once, on the trajectory's stacked
    snapshots: (T, n, k) representations and (T, k, h) weights.
    """
    mrp, phi0 = row.mrp, row.phi0
    n, k = phi0.shape
    split = k * mrp.h
    if row.spec.kind == LINEAR_TD:
        phis = np.broadcast_to(phi0, (len(times), n, k))
        ws = Y.T.reshape(-1, k, mrp.h)
    elif row.spec.kind == END_TO_END:
        phis = Y[split:].T.reshape(-1, n, k)
        ws = Y[:split].T.reshape(-1, k, mrp.h)
    else:
        phis = Y.T.reshape(-1, n, k)
        ws, failures = _fixed_points(mrp.A, mrp.dR, phis)
        if failures:
            raise failures[min(failures)]
    wanted = set(metric_set)
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
