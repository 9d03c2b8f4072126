"""Self-contained dense LP solver: two-phase simplex with Bland's rule.

The programs built elsewhere in this package are small (the allocation LP
has I*J + 1 variables, 257 at 16x16), so the design optimizes for
determinism and robustness rather than speed: full-tableau pivoting,
lowest-index entering rule, and a hard iteration budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .model import DEFAULT_TOL

# Entries below this magnitude are never used as pivots.
PIVOT_TOL = 1e-10

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class NumericalFailure(RuntimeError):
    """Pivoting stalled beyond the iteration budget."""


def _as_constraints(rows: Iterable[tuple[Sequence[float], float]], n_vars: int, kind: str):
    out = []
    for coef, rhs in rows:
        arr = np.asarray(coef, dtype=float)
        if arr.shape != (n_vars,):
            raise ValueError(f"{kind} coefficient vector has shape {arr.shape}, expected ({n_vars},)")
        out.append((arr, float(rhs)))
    return tuple(out)


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  eq rows (=), ub rows (<=) and x >= 0."""

    n_vars: int
    objective: np.ndarray
    eq: tuple[tuple[np.ndarray, float], ...] = field(default=())
    ub: tuple[tuple[np.ndarray, float], ...] = field(default=())

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        if obj.shape != (self.n_vars,):
            raise ValueError(f"objective has shape {obj.shape}, expected ({self.n_vars},)")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "eq", _as_constraints(self.eq, self.n_vars, "equality"))
        object.__setattr__(self, "ub", _as_constraints(self.ub, self.n_vars, "upper-bound"))


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None


def _pivot(A: np.ndarray, b: np.ndarray, row: int, col: int) -> None:
    piv = A[row, col]
    A[row] /= piv
    b[row] /= piv
    factors = A[:, col].copy()
    factors[row] = 0.0
    A -= np.outer(factors, A[row])
    b -= factors * b[row]
    A[:, col] = 0.0
    A[row, col] = 1.0
    # rounding can push a basic value epsilon-negative; keep the tableau canonical
    b[(b < 0) & (b > -1e-12)] = 0.0


class _Budget:
    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.cap:
            raise NumericalFailure(f"simplex exceeded {self.cap} pivots")


def _iterate(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray,
             budget: _Budget, allowed: int) -> str:
    """Run simplex iterations in place; returns OPTIMAL or UNBOUNDED.

    ``allowed`` bounds the entering-column index so phase 2 never re-admits
    artificial columns. Bland's rule: lowest eligible index enters, ties in
    the ratio test break on the lowest basis label, so cycling is impossible.
    """
    while True:
        reduced = c - c[basis] @ A
        eligible = np.flatnonzero(reduced[:allowed] < -PIVOT_TOL)
        if eligible.size == 0:
            return OPTIMAL
        enter = int(eligible[0])
        col = A[:, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return UNBOUNDED
        ratios = b[rows] / col[rows]
        best = ratios.min()
        tied = rows[ratios == best]
        leave = int(tied[np.argmin(basis[tied])])
        budget.spend()
        _pivot(A, b, leave, enter)
        basis[leave] = enter


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve ``lp``; statuses are reported faithfully and results are
    bit-for-bit deterministic in the input.

    Raises:
        NumericalFailure: iteration count passed 50 * (variables + rows).
    """
    n = lp.n_vars
    m_eq, m_ub = len(lp.eq), len(lp.ub)
    m = m_eq + m_ub
    budget = _Budget(50 * (n + m))

    A = np.zeros((m, n + m_ub))
    b = np.zeros(m)
    for r, (coef, rhs) in enumerate(lp.eq):
        A[r, :n] = coef
        b[r] = rhs
    for k, (coef, rhs) in enumerate(lp.ub):
        r = m_eq + k
        A[r, :n] = coef
        A[r, n + k] = 1.0
        b[r] = rhs

    flipped = b < 0
    A[flipped] *= -1.0
    b[flipped] *= -1.0

    n_real = n + m_ub
    basis = np.full(m, -1, dtype=int)
    for k in range(m_ub):
        r = m_eq + k
        if not flipped[r]:
            basis[r] = n + k
    needs_artificial = np.flatnonzero(basis < 0)

    if needs_artificial.size:
        A = np.hstack([A, np.zeros((m, needs_artificial.size))])
        for t, r in enumerate(needs_artificial):
            A[r, n_real + t] = 1.0
            basis[r] = n_real + t
        phase1 = np.zeros(A.shape[1])
        phase1[n_real:] = 1.0
        status = _iterate(A, b, phase1, basis, budget, allowed=A.shape[1])
        if status != OPTIMAL:
            raise NumericalFailure("phase-1 subproblem reported unbounded")
        if float(phase1[basis] @ b) > DEFAULT_TOL:
            return LPResult(status=INFEASIBLE)
        A, b, basis = _expel_artificials(A, b, basis, n_real, budget)

    c = np.zeros(A.shape[1])
    c[:n] = lp.objective
    status = _iterate(A, b, c, basis, budget, allowed=n_real)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)

    full = np.zeros(A.shape[1])
    full[basis] = b
    x = full[:n].copy()
    _check_residuals(lp, x)
    return LPResult(status=OPTIMAL, x=x, value=float(lp.objective @ x))


def _expel_artificials(A, b, basis, n_real, budget):
    """Pivot zero-level artificials out of the basis; drop redundant rows."""
    drop = []
    for r in range(A.shape[0]):
        if basis[r] < n_real:
            continue
        candidates = np.flatnonzero(np.abs(A[r, :n_real]) > PIVOT_TOL)
        if candidates.size == 0:
            drop.append(r)
            continue
        enter = int(candidates[0])
        budget.spend()
        _pivot(A, b, r, enter)
        basis[r] = enter
    if drop:
        keep = np.setdiff1d(np.arange(A.shape[0]), np.array(drop))
        A = A[keep]
        b = b[keep]
        basis = basis[keep]
    return A, b, basis


def _check_residuals(lp: LinearProgram, x: np.ndarray) -> None:
    # a gross violation here is a solver bug, not a property of the instance
    worst = 0.0
    for coef, rhs in lp.eq:
        worst = max(worst, abs(float(coef @ x) - rhs))
    for coef, rhs in lp.ub:
        worst = max(worst, float(coef @ x) - rhs)
    if x.size:
        worst = max(worst, float(-x.min()))
    if worst > 1e-7:
        raise NumericalFailure(f"solution residual {worst:.3e} exceeds sanity bound")

