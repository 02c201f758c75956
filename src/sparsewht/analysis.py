"""Density-evolution recursion and minimum-redundancy thresholds.

The recursion p_i = (1 - exp(-p_{i-1} / eta))^(C-1) tracks the expected
fraction of unresolved edges per peeling round at redundancy eta = B/K
with C groups. It converges iff eta exceeds the threshold
eta*(C) = sup_{y>0} (1 - e^-y)^(C-1) / y (the recursion stalls at a
positive fixed point p = eta y exactly when some y > 0 has
(1 - e^-y)^(C-1) = eta y), so the minimum workable redundancy is that
one-dimensional maximum rather than a search over eta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DeTrace:
    c_groups: int
    eta: float
    probs: tuple
    converged: bool


def density_evolution(c_groups: int, eta: float, max_iters: int = 10_000, tol: float = 1e-12) -> DeTrace:
    """Iterate the recursion from p_0 = 1, recording the trajectory."""
    if c_groups < 2:
        raise ValueError("need at least two groups")
    if eta <= 0:
        raise ValueError("eta must be positive")
    probs = [1.0]
    p = 1.0
    for _ in range(max_iters):
        p = (1.0 - math.exp(-p / eta)) ** (c_groups - 1)
        probs.append(p)
        if p < tol:
            break
    return DeTrace(c_groups, eta, tuple(probs), p < tol)


def min_eta(c_groups: int) -> float:
    """Threshold redundancy eta*(C) below which the recursion stalls.

    For C = 2, (1 - e^-y) / y decreases in y, so the supremum is its
    y -> 0 limit, 1. For C >= 3 the maximum sits where the log-derivative
    vanishes, (C - 1) y = e^y - 1; that root is found by Newton steps
    from the right, where the convex left side converges monotonically.
    """
    if c_groups < 2:
        raise ValueError("need at least two groups")
    if c_groups == 2:
        return 1.0
    a = c_groups - 1
    y = 2.0 * math.log(a) + 2.0  # right of the root, where e^y - 1 > a y
    for _ in range(100):
        step = (math.expm1(y) - a * y) / (math.exp(y) - a)
        y -= step
        if step <= 1e-15 * y:
            break
    return (-math.expm1(-y)) ** a / y


def de_table(c_values=(2, 3, 4, 5, 6)):
    """Rows (C, eta_min, C * eta_min) for the redundancy table."""
    rows = []
    for c in c_values:
        eta = min_eta(c)
        rows.append((c, eta, c * eta))
    return rows
