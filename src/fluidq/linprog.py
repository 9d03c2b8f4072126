"""Self-contained dense LP solver: two-phase simplex, Dantzig pricing.

A program is given in matrix form, a_eq x = b_eq, a_ub x <= b_ub, x >= 0,
and row k of ``a_eq`` (then of ``a_ub``) is row k of the tableau. The
programs built elsewhere in this package are small: they carry one variable
per activity (pair with mu_ij > 0), so the allocation LP has at most
I*J + 1 variables (257 at 16x16). The design keeps full-tableau pivoting and
a hard iteration budget. The most negative reduced cost enters (Dantzig),
ties going to the lowest index; after DEGENERATE_RUN consecutive degenerate
pivots the lowest eligible index enters instead (Bland), until the next
pivot that moves the objective. Bland's rule cannot cycle within a
degenerate run and every other pivot strictly lowers the objective, so the
method terminates, and it is deterministic in the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_TOL

# Entries below this magnitude are never used as pivots.
PIVOT_TOL = 1e-10
# Consecutive degenerate pivots after which Bland's rule replaces Dantzig's.
DEGENERATE_RUN = 50

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class NumericalFailure(RuntimeError):
    """Pivoting stalled beyond the iteration budget, or the program is not finite."""


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  a_eq x = b_eq, a_ub x <= b_ub, x >= 0.

    A block left out has no rows.
    """

    objective: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        if obj.ndim != 1:
            raise ValueError(f"objective has shape {obj.shape}, expected a vector")
        object.__setattr__(self, "objective", obj)
        n = obj.size
        for kind in ("eq", "ub"):
            a, b = getattr(self, "a_" + kind), getattr(self, "b_" + kind)
            a = np.zeros((0, n)) if a is None else np.asarray(a, dtype=float)
            b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
            if a.ndim != 2 or a.shape[1] != n or b.shape != (a.shape[0],):
                raise ValueError(
                    f"{kind} block has shapes {a.shape} and {b.shape}, expected (m, {n}) and (m,)"
                )
            object.__setattr__(self, "a_" + kind, a)
            object.__setattr__(self, "b_" + kind, b)


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None
    pivots: int = 0


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
    artificial columns. Ties in the ratio test break on the lowest basis
    label, as Bland's rule needs.
    """
    degenerate = 0
    while True:
        reduced = c - c[basis] @ A
        eligible = np.flatnonzero(reduced[:allowed] < -PIVOT_TOL)
        if eligible.size == 0:
            return OPTIMAL
        # Bland's lowest index once a degenerate run is long, else Dantzig's
        if degenerate >= DEGENERATE_RUN:
            enter = int(eligible[0])
        else:
            enter = int(eligible[np.argmin(reduced[eligible])])
        col = A[:, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return UNBOUNDED
        ratios = b[rows] / col[rows]
        best = ratios.min()
        tied = rows[ratios == best]
        leave = int(tied[np.argmin(basis[tied])])
        degenerate = degenerate + 1 if best <= 0.0 else 0
        budget.spend()
        _pivot(A, b, leave, enter)
        basis[leave] = enter


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve ``lp``; statuses are reported faithfully and results are
    bit-for-bit deterministic in the input.

    Raises:
        NumericalFailure: iteration count passed 50 * (variables + rows), or
            a coefficient is not finite (rates whose products overflow).
    """
    if not all(np.isfinite(v).all() for v in (lp.objective, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub)):
        raise NumericalFailure("the program has a non-finite coefficient")
    n = lp.objective.size
    m_eq, m_ub = lp.b_eq.size, lp.b_ub.size
    m = m_eq + m_ub
    budget = _Budget(50 * (n + m))

    A = np.zeros((m, n + m_ub))
    A[:m_eq, :n] = lp.a_eq
    A[m_eq:, :n] = lp.a_ub
    A[m_eq:, n:] = np.eye(m_ub)
    b = np.concatenate([lp.b_eq, lp.b_ub])

    flipped = b < 0
    A[flipped] *= -1.0
    b[flipped] *= -1.0

    n_real = n + m_ub
    basis = np.full(m, -1, dtype=int)
    basis[m_eq:] = np.where(flipped[m_eq:], -1, np.arange(n, n_real))
    needs_artificial = np.flatnonzero(basis < 0)

    if needs_artificial.size:
        A = np.hstack([A, np.zeros((m, needs_artificial.size))])
        basis[needs_artificial] = n_real + np.arange(needs_artificial.size)
        A[needs_artificial, basis[needs_artificial]] = 1.0
        phase1 = np.zeros(A.shape[1])
        phase1[n_real:] = 1.0
        status = _iterate(A, b, phase1, basis, budget, allowed=A.shape[1])
        if status != OPTIMAL:
            raise NumericalFailure("phase-1 subproblem reported unbounded")
        if float(phase1[basis] @ b) > DEFAULT_TOL:
            return LPResult(status=INFEASIBLE, pivots=budget.used)
        A, b, basis = _expel_artificials(A, b, basis, n_real, budget)

    c = np.zeros(A.shape[1])
    c[:n] = lp.objective
    status = _iterate(A, b, c, basis, budget, allowed=n_real)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED, pivots=budget.used)

    full = np.zeros(A.shape[1])
    full[basis] = b
    x = full[:n].copy()
    _check_residuals(lp, x)
    return LPResult(status=OPTIMAL, x=x, value=float(lp.objective @ x), pivots=budget.used)


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
    worst = max(
        np.abs(lp.a_eq @ x - lp.b_eq).max(initial=0.0),
        (lp.a_ub @ x - lp.b_ub).max(initial=0.0),
        -x.min(initial=0.0),
    )
    if worst > 1e-7:
        raise NumericalFailure(f"solution residual {worst:.3e} exceeds sanity bound")

