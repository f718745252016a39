"""Markov reward processes: construction, validation, and derived quantities.

This module provides:
- ``seed_streams``, the one table of a trial seed's child streams, and
  ``make_mdp``, the one generator body: a Sinkhorn doubly-stochastic core,
  permutation-mixed or symmetrized (strictly positive after mixing, hence
  irreducible), with i.i.d. standard normal rewards and uniform d, the only
  way to draw a chain or its rewards. ``check_chain_args`` holds the bounds
  of its arguments. The reward-concentration invariant reads its rewards
  scaled by 1 / h: R R^T / h concentrates around I as h grows.
- A reversibility residual and a checked JSON round trip.

Every quantity that depends only on the process (I - gamma P, the key matrix
``A`` = diag(d) (I - gamma P), ``dR`` = diag(d) R, ``C`` = dR dR^T, the value
function ``V``, the resolvent and its symmetrized spectrum) is a cached
read-only attribute of the instance, computed on first use; callers read it
there. The instance and its input arrays are frozen, so a cached value can
never go stale; ``with_rewards`` builds a new instance with an empty cache.
``V`` and the resolvent are solved with ``metrics._solve_or_raise``, the
library's one guarded solve; a rejected solve's error is kept and raised
again on every later read, not solved for again.

All randomness is threaded through a counter-based Philox generator so that
identical seeds give bit-identical output across platforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .metrics import _solve_or_raise

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10

SINKHORN_TOL = 1e-12
SINKHORN_MAX_ITER = 10_000


class ConvergenceError(RuntimeError):
    """An iterative routine hit its iteration cap before reaching tolerance."""

    def __init__(self, what: str, iterations: int, residual: float):
        super().__init__(
            f"{what} did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Philox generator keyed by ``seed`` or a ``seed_streams`` child, bitwise on any platform."""
    return np.random.Generator(np.random.Philox(seed))


def _check_int(name: str, value) -> None:
    """Reject a value that is not an integer (a bool or a float such as 2.0 included)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    """Reject a value that is not a real number (a bool, a string or None included)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True, eq=False)
class MarkovRewardProcess:
    """Finite Markov reward process (P, R, gamma, d).

    P is |X| x |X| row-stochastic, R is |X| x h, d is the stationary
    distribution of P. Instances are validated on construction and their
    arrays are frozen, so they are safe to share across threads. The derived
    matrices below are computed once per instance and are read-only too.
    Instances compare and hash by identity, so they can key a dict: each
    carries its own cache, and arrays have no single-valued equality.
    """

    P: np.ndarray
    R: np.ndarray
    gamma: float
    d: np.ndarray

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        R = np.asarray(self.R, dtype=float)
        if R.ndim == 1:
            R = R[:, None]
        if R.ndim != 2:
            raise ValueError(f"R must be a vector or a matrix, got shape {R.shape}")
        d = np.asarray(self.d, dtype=float).ravel()
        n = P.shape[0]
        if P.shape != (n, n):
            raise ValueError(f"P must be square, got shape {P.shape}")
        if R.shape[0] != n:
            raise ValueError(f"R must have {n} rows, got shape {R.shape}")
        if R.shape[1] < 1:
            raise ValueError("R must have at least one reward column")
        if d.shape != (n,):
            raise ValueError(f"d must have length {n}, got shape {d.shape}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        for name, arr in (("P", P), ("R", R), ("d", d)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
        if np.any(P < 0):
            raise ValueError("P has negative entries")
        row_err = np.abs(P.sum(axis=1) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"P rows must sum to 1 (max deviation {row_err:.3e})")
        if np.any(d < 0):
            raise ValueError("d has negative entries")
        if abs(d.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"d must sum to 1, got {d.sum()!r}")
        stat_err = np.abs(d @ P - d).max()
        if stat_err > STATIONARY_TOL:
            raise ValueError(
                f"d is not stationary for P (max |d^T P - d^T| = {stat_err:.3e})"
            )
        for name, arr in (("P", P), ("R", R), ("d", d)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_rejected", {})  # the error of each solve the guard rejected

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def h(self) -> int:
        return self.R.shape[1]

    def with_rewards(self, R: np.ndarray) -> "MarkovRewardProcess":
        """Same chain, different reward matrix."""
        return MarkovRewardProcess(P=self.P, R=R, gamma=self.gamma, d=self.d)

    def __reduce__(self):
        # Unpickled arrays are writeable; rebuilding re-validates and re-freezes
        # them, and the copy starts with an empty cache.
        return MarkovRewardProcess, (self.P, self.R, self.gamma, self.d)

    @cached_property
    def system(self) -> np.ndarray:
        """I - gamma P, the matrix of the Bellman linear system."""
        return _frozen(np.eye(self.n) - self.gamma * self.P)

    @cached_property
    def A(self) -> np.ndarray:
        """The key matrix diag(d) (I - gamma P); positive definite for gamma < 1."""
        return _frozen(self.d[:, None] * self.system)

    @cached_property
    def dR(self) -> np.ndarray:
        """diag(d) R, the right-hand side of the TD fixed point before projection."""
        return _frozen(self.d[:, None] * self.R)

    @cached_property
    def C(self) -> np.ndarray:
        """diag(d) R R^T diag(d), through which the two-time-scale flow sees the rewards."""
        return _frozen(self.dR @ self.dR.T)

    @cached_property
    def V(self) -> np.ndarray:
        """Discounted values solving (I - gamma P) V = R, one column per reward.

        The library's guarded solve: IllConditionedError past cond 1e12,
        SolutionOverflowError for a non-finite solution, such as one that huge
        rewards overflow, and FixedPointResidualError for a residual above
        1e-10 max(1, max|R|). A rejection is raised again on every read.
        """
        return self._solved("V", self.R)

    @cached_property
    def resolvent(self) -> np.ndarray:
        """(I - gamma P)^{-1}, the discounted state-occupancy matrix, guarded as ``V`` is."""
        return self._solved("resolvent", np.eye(self.n))

    def _solved(self, name: str, rhs: np.ndarray) -> np.ndarray:
        # cached_property keeps no exception, so the guard's rejection is kept here
        if name not in self._rejected:
            try:
                return _frozen(_solve_or_raise(self.system, rhs, "I - gamma P"))
            except np.linalg.LinAlgError as exc:
                self._rejected[name] = exc
                raise
        raise self._rejected[name].with_traceback(None)  # a fresh traceback per read, not a growing one

    @cached_property
    def resolvent_eigvals(self) -> np.ndarray:
        """Eigenvalues of the symmetrized resolvent, in ascending order."""
        return _frozen(np.linalg.eigvalsh(0.5 * (self.resolvent + self.resolvent.T)))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _sample_doubly_stochastic(n: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """Random doubly-stochastic matrix via Sinkhorn normalization.

    Starts from a strictly positive uniform-random matrix and alternates
    column and row normalization until every column sum is within
    ``SINKHORN_TOL`` of 1 (rows are exact after the final row pass), or
    raises ``ConvergenceError`` after ``SINKHORN_MAX_ITER`` passes. Strict
    positivity of the start guarantees convergence and an irreducible result.
    """
    M = make_rng(seed).uniform(0.1, 1.0, size=(n, n))
    residual = np.inf
    for _ in range(SINKHORN_MAX_ITER):
        M /= M.sum(axis=0, keepdims=True)
        M /= M.sum(axis=1, keepdims=True)
        residual = np.abs(M.sum(axis=0) - 1.0).max()
        if residual <= SINKHORN_TOL:
            return M
    raise ConvergenceError("Sinkhorn normalization", SINKHORN_MAX_ITER, residual)


def _sample_permutation(n: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """Random n x n permutation matrix; row i has its 1 in a permuted column."""
    return np.eye(n)[make_rng(seed).permutation(n)]


def seed_streams(seed: int) -> list[np.random.SeedSequence]:
    """The four child streams of a trial seed, the one table of their order.

    0 draws the doubly-stochastic core, 1 the permutation, 2 the rewards and
    3 the initial representation, so one seed drives a chain and its init
    without replaying any draws.
    """
    return np.random.SeedSequence(seed).spawn(4)


def check_chain_args(n, h, gamma, alpha, seed) -> None:
    """A generated chain's bounds: TypeError or ValueError naming the first bad argument."""
    for name, value in (("n", n), ("h", h), ("seed", seed)):
        _check_int(name, value)
    for name, value in (("gamma", gamma), ("alpha", alpha)):
        _check_real(name, value)
    for name, value, holds, bound in (
        ("alpha", alpha, 0 <= alpha <= 1, "be in [0, 1]"),
        ("gamma", gamma, 0 <= gamma < 1, "be in [0, 1)"),
        ("n", n, n >= 1, "be >= 1"),
        ("h", h, h >= 1, "be >= 1"),
        ("seed", seed, seed >= 0, "be >= 0"),
    ):
        if not holds:
            raise ValueError(f"{name} must {bound}, got {value}")


def make_mdp(
    symmetric: bool, h: int = 1, *, n: int = 30, gamma: float = 0.9, alpha: float = 0.95,
    seed: int = 0,
) -> MarkovRewardProcess:
    """The symmetric chain, or the mixed one with weight ``alpha``, for one int seed.

    Mixed: P = alpha P_perm + (1 - alpha) P_ds, doubly stochastic, so d is
    exactly uniform; a large alpha makes it very likely non-reversible.
    Symmetric: P = (P_ds + P_ds^T) / 2, reversible; it ignores ``alpha``.
    Rewards are standard normal.
    """
    check_chain_args(n, h, gamma, alpha, seed)
    ds_seed, perm_seed, reward_seed, _ = seed_streams(seed)
    P_ds = _sample_doubly_stochastic(n, ds_seed)
    if symmetric:
        P = (P_ds + P_ds.T) / 2.0
    else:
        P = alpha * _sample_permutation(n, perm_seed) + (1.0 - alpha) * P_ds
    R = make_rng(reward_seed).standard_normal((n, h))
    return MarkovRewardProcess(P=P, R=R, gamma=gamma, d=np.full(n, 1.0 / n))


def reversibility_residual(mrp: MarkovRewardProcess) -> float:
    """Max-abs-entry of diag(d) P - P^T diag(d); zero iff the chain is reversible."""
    DP = mrp.d[:, None] * mrp.P
    return float(np.abs(DP - DP.T).max())


def mdp_to_json(
    mrp: MarkovRewardProcess,
    seed: int | None = None,
    generator: str | None = None,
) -> dict:
    """JSON document for an MDP (matrices row-major), plus metadata fields."""
    return {
        "n": mrp.n,
        "h": mrp.h,
        "gamma": mrp.gamma,
        "P": mrp.P.ravel().tolist(),
        "R": mrp.R.ravel().tolist(),
        "d": mrp.d.tolist(),
        "seed": seed,
        "generator": generator,
    }


def mdp_from_json(doc: dict) -> MarkovRewardProcess:
    """Rebuild (and re-validate) an MDP from its JSON object; ill-typed fields raise TypeError."""
    if not isinstance(doc, dict):
        raise TypeError(f"MDP document must be an object, got {type(doc).__name__}")
    missing = {"n", "h", "gamma", "P", "R", "d"} - set(doc)
    if missing:
        raise ValueError(f"MDP document is missing fields: {sorted(missing)}")
    for name, check in (("n", _check_int), ("h", _check_int), ("gamma", _check_real)):
        check(name, doc[name])
    for name in ("P", "R", "d"):  # numpy would read "0.5" as 0.5, and true among floats as 1.0
        for entry in {type(e): e for e in np.asarray(doc[name], dtype=object).flat}.values():
            _check_real(f"{name} entry", entry)  # one entry of each type
    n, h = doc["n"], doc["h"]
    return MarkovRewardProcess(
        P=np.asarray(doc["P"], dtype=float).reshape(n, n),
        R=np.asarray(doc["R"], dtype=float).reshape(n, h),
        gamma=float(doc["gamma"]),
        d=np.asarray(doc["d"], dtype=float),
    )


def save_mdp(mrp: MarkovRewardProcess, path: str | Path, **meta) -> None:
    Path(path).write_text(json.dumps(mdp_to_json(mrp, **meta)))


def load_mdp(path: str | Path) -> MarkovRewardProcess:
    return mdp_from_json(json.loads(Path(path).read_text()))
