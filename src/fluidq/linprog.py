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

Tolerances are absolute, so a caller scales its objective to entries of
order 1 (``optimality.max_throughput`` divides by its largest rate).

The solver is internal, reached as ``fluidq.linprog.*``; its three builders
agree in shape by construction, so ``LinearProgram`` checks no shapes.

Warm start. ``solve_lp(lp, basis)`` starts phase 2 at a given basis, one
column per row: it inverts the basis matrix once and applies the inverse to
every column. A basis of the wrong length, with a repeated column or an
index out of range, singular (condition number past WARM_COND) or
infeasible falls back to the cold two-phase start, which then runs exactly
as without a basis, and so does a warm solution that fails the residual
check; ``LPResult`` records which start ran and why. The tableau is kept
C-contiguous, as pivoting is row arithmetic: 82 pivots of the 50x50
``max_throughput`` program took 26 ms on a C-contiguous tableau, 39 ms on a
strided view and 63 ms on a Fortran-ordered copy, against 54 ms for the 148
pivots of the cold start (2 cores, numpy 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import DEFAULT_TOL

# Entries below this magnitude are never used as pivots.
PIVOT_TOL = 1e-10
# Consecutive degenerate pivots after which Bland's rule replaces Dantzig's.
DEGENERATE_RUN = 50
# A warm basis is refused as singular past this 1-norm condition number (rows
# scaled), and as infeasible if a basic value is below -WARM_FEASIBILITY
# times the largest one; values above that but below 0 are set to 0.
WARM_COND = 1e9
WARM_FEASIBILITY = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

COLD = "cold"
WARM = "warm"


class NumericalFailure(RuntimeError):
    """Pivoting stalled beyond the iteration budget, or the program is not finite."""


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  a_eq x = b_eq, a_ub x <= b_ub, x >= 0.

    A block left out has no rows; a given one, a bool matrix too, becomes float.
    """

    objective: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        object.__setattr__(self, "objective", obj)
        n = obj.size
        for kind in ("eq", "ub"):
            a, b = getattr(self, "a_" + kind), getattr(self, "b_" + kind)
            a = np.zeros((0, n)) if a is None else np.asarray(a, dtype=float)
            b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
            object.__setattr__(self, "a_" + kind, a)
            object.__setattr__(self, "b_" + kind, b)


@dataclass(frozen=True)
class LPResult:
    """``basis`` is the final basis, in the indexing of ``solve_lp``'s
    argument, one column per row the solve kept; ``start`` is WARM when
    phase 2 ran from the given basis, else COLD; ``fallback`` says why a
    given basis was not used, or why its solution was discarded."""

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    pivots: int = 0
    basis: np.ndarray | None = None
    start: str = COLD
    fallback: str | None = None


def _pivot(A: np.ndarray, b: np.ndarray, row: int, col: int) -> None:
    piv = A[row, col]
    A[row] /= piv
    b[row] /= piv
    factors = A[:, col].copy()
    factors[row] = 0.0
    A -= factors[:, None] * A[row]
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
        # array methods and ufunc reductions skip numpy's Python-level
        # wrappers: on 200 entries flatnonzero takes 1.5 us, .nonzero() 0.5
        eligible = (reduced[:allowed] < -PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return OPTIMAL
        # Bland's lowest index once a degenerate run is long, else Dantzig's
        if degenerate >= DEGENERATE_RUN:
            enter = int(eligible[0])
        else:
            enter = int(eligible[reduced[eligible].argmin()])
        col = A[:, enter]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = b[rows] / col[rows]
        best = np.minimum.reduce(ratios)
        tied = rows[ratios == best]
        leave = int(tied[basis[tied].argmin()])
        degenerate = degenerate + 1 if best <= 0.0 else 0
        budget.spend()
        _pivot(A, b, leave, enter)
        basis[leave] = enter


def solve_lp(lp: LinearProgram, basis: np.ndarray | None = None) -> LPResult:
    """Solve ``lp``; statuses are reported faithfully and results are
    bit-for-bit deterministic in the input.

    ``basis`` names one column per row of the program, row k of ``a_eq``
    then of ``a_ub`` first: a variable's index, or ``n + k`` for the slack
    of row k of ``a_ub``. When it is given, feasible and well conditioned,
    phase 2 starts there; otherwise the cold two-phase start runs, exactly
    as without it, and ``fallback`` says why. It also runs when the warm
    solution fails the residual check: at large coefficients the rounding
    of the inverse can pass that absolute bound where cold pivots stay exact.

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
    n_real = n + m_ub

    warm = None if basis is None else _warm_start(A, b, basis)
    start = WARM if isinstance(warm, tuple) else COLD
    fallback = warm if isinstance(warm, str) else None
    if start == WARM:
        A, b, basis = warm
    else:
        cold = _cold_start(A, b, n, m_eq, budget)
        if cold is None:
            return LPResult(status=INFEASIBLE, pivots=budget.used, fallback=fallback)
        A, b, basis = cold

    c = np.zeros(A.shape[1])
    c[:n] = lp.objective
    status = _iterate(A, b, c, basis, budget, allowed=n_real)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED, pivots=budget.used, start=start, fallback=fallback)

    full = np.zeros(A.shape[1])
    full[basis] = b
    x = full[:n].copy()
    try:
        _check_residuals(lp, x)
    except NumericalFailure as exc:
        if start == COLD:
            raise
        # a warm start must not fail a program that the cold start solves
        cold = solve_lp(lp)
        return replace(cold, pivots=cold.pivots + budget.used, fallback=f"warm start: {exc}")
    return LPResult(status=OPTIMAL, x=x, value=float(lp.objective @ x), pivots=budget.used,
                    basis=basis, start=start, fallback=fallback)


def _cold_start(A, b, n, m_eq, budget):
    """Phase 1 from the slacks, with an artificial on every other row.

    Returns a feasible tableau with its basis, or None if there is none.
    """
    m, n_real = A.shape
    flipped = b < 0
    A[flipped] *= -1.0
    b[flipped] *= -1.0

    basis = np.full(m, -1, dtype=int)
    basis[m_eq:] = np.where(flipped[m_eq:], -1, np.arange(n, n_real))
    needs_artificial = np.flatnonzero(basis < 0)
    if not needs_artificial.size:
        return A, b, basis

    A = np.hstack([A, np.zeros((m, needs_artificial.size))])
    basis[needs_artificial] = n_real + np.arange(needs_artificial.size)
    A[needs_artificial, basis[needs_artificial]] = 1.0
    phase1 = np.zeros(A.shape[1])
    phase1[n_real:] = 1.0
    status = _iterate(A, b, phase1, basis, budget, allowed=A.shape[1])
    if status != OPTIMAL:
        raise NumericalFailure("phase-1 subproblem reported unbounded")
    if float(phase1[basis] @ b) > DEFAULT_TOL:
        return None
    return _expel_artificials(A, b, basis, n_real, budget)


def _warm_start(A, b, basis):
    """The tableau of ``A x = b`` in canonical form for ``basis``, with its
    basic values, or the reason ``basis`` cannot start phase 2.

    One inverse of the basis matrix, rows scaled to a largest entry of 1,
    is applied to every column. The product is C-contiguous, as the pivots
    that follow need (see the module docstring).
    """
    m, n_real = A.shape
    basis = np.array(basis, dtype=int)
    if basis.shape != (m,):
        return f"basis has shape {basis.shape}, the program has {m} rows"
    if ((basis < 0) | (basis >= n_real)).any():
        return f"basis names a column outside 0..{n_real - 1}"
    if np.unique(basis).size < m:
        return "basis repeats a column"
    B = A[:, basis]
    scale = np.abs(B).max(axis=1, initial=0.0)
    if not scale.all():
        return "basis is singular"
    B /= scale[:, None]
    try:
        inv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return "basis is singular"
    if np.abs(B).sum(axis=0).max(initial=0.0) * np.abs(inv).sum(axis=0).max(initial=0.0) > WARM_COND:
        return "basis is singular"
    inv /= scale[None, :]  # the inverse of the unscaled basis matrix
    x_basic = inv @ b
    if (x_basic < -WARM_FEASIBILITY * np.abs(x_basic).max(initial=0.0)).any():
        return "basis is infeasible"
    x_basic[x_basic < 0] = 0.0
    tableau = inv @ A
    tableau[:, basis] = np.eye(m)
    return tableau, x_basic, basis


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

