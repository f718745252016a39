"""Chains for the enumeration oracles, including two with a non-uniform ``d``.

Every chain the library generates is doubly stochastic, so its stationary
distribution is uniform, and code that swaps ``P`` and ``P^T`` beside a
``diag(d)`` weighting gives the same numbers on it. The two hand-built kinds
here have a non-uniform ``d``: a birth-death chain, reversible, with ``d``
from detailed balance, and a positive row-stochastic chain, in general not
reversible, with ``d`` from a linear solve.
"""

import numpy as np

from tdrepdyn.mdp import MarkovRewardProcess, make_mdp, make_rng

CHAIN_KINDS = ("mixed", "symmetric", "birth_death", "positive")


def build_chain(kind: str, h: int, *, n: int, gamma: float, seed: int) -> MarkovRewardProcess:
    if kind in ("mixed", "symmetric"):
        return make_mdp(kind == "symmetric", h, n=n, gamma=gamma, alpha=0.95, seed=seed)
    rng = make_rng(seed)
    if kind == "birth_death":
        up, down = rng.uniform(0.05, 0.5, n - 1), rng.uniform(0.05, 0.5, n - 1)
        P = np.diag(up, 1) + np.diag(down, -1)
        P[np.diag_indices(n)] = 1.0 - P.sum(axis=1)
        # detailed balance: d(i) up(i) = d(i + 1) down(i)
        d = np.concatenate(([1.0], np.cumprod(up / down)))
        d /= d.sum()
    else:
        P = rng.uniform(0.1, 1.0, (n, n))
        P /= P.sum(axis=1, keepdims=True)
        # d (P - I) = 0 with the last equation replaced by sum(d) = 1
        system = P.T - np.eye(n)
        system[-1] = 1.0
        d = np.linalg.solve(system, np.eye(n)[-1])
    return MarkovRewardProcess(P=P, R=rng.standard_normal((n, h)), gamma=gamma, d=d)
