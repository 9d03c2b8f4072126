"""Event-driven simulation of the n-th system under preemptive policies.

Arrivals are Poisson at n times the fluid rates; a customer in service at a
pair completes at that pair's rate, so each activity contributes an aggregate
exponential clock proportional to its in-service count (memorylessness makes
resampling after every event exact). Policies are called after every state
change and may reassign everything, subject only to head counts, server
counts and the activity mask. The tracked output is the time the total head
count spends at or above the total server count, the quantity whose decay
distinguishes drainable systems from undrainable ones.

The event loop and the built-in policies run on Python ints and floats: the
arrays are a few entries long, and a numpy call on them costs more than the
arithmetic it does. Policies therefore see the state as lists (see
``SystemState``) and may answer with lists; ``SimResult`` holds numpy arrays.
One pass over each assignment, ``_checked``, both checks it and prices it:
the running sums of its service clocks are the table the next event is
drawn from.

Each replication draws its randoms from its own ``default_rng(seed)`` in
blocks of ``DRAW_BLOCK`` events: at event e with e % DRAW_BLOCK == 0 it draws
``standard_exponential(DRAW_BLOCK)`` and then ``random(DRAW_BLOCK)``, and
event e reads element e % DRAW_BLOCK of each. Its holding time is that
exponential over the total rate, and that uniform times the total rate
selects what happens. A replication's stream therefore depends on its seed
alone, not on the engine or on how many replications run with it.

``run_nc_experiment`` has a second route for many replications of a built-in
policy: ``_simulate_lockstep`` steps all replications of one scale together,
one event of each per step, on arrays whose column c is replication c from the
first event to the last. Its integer state is one block, the tally: the bound
of the feasibility check, then the event counts; one table moves the heads and
the counts, and one product right after gives the counting identity and the
head total, from which the engine sets the congestion flag once per step. The
built-ins answer through a vectorized form of the same integer algorithm,
``assign(heads, busy)``, into a buffer the policy overwrites on its next call
(the engine copies what it keeps). A replication that reaches T is recorded;
its column keeps stepping, unrecorded and still checked, until the last one
ends. Each replication keeps its own generator, blocks of draws and float
arithmetic, so its result is bit-identical to ``simulate``'s, which stays the
reference; user policies, and fewer than ``LOCKSTEP_MIN_REPS`` replications,
always take ``simulate``.

Both engines start from the one rounding of the fluid split, ``SystemInstance.core``,
made by ``build_system``, and share the fill, ``_fill``, which all three built-ins
run (``IdlePolicy`` over no pairs) in an order that marks each class's and station's
last pair, the pump's displacement rule, ``NegativePathPump._displace`` (each indexes
``psi[i][j]`` and takes the engine's ``min``/``max`` and constants: builtins and ints
on ints, numpy's and 0-d arrays on columns; the rule also takes the engine's congestion
flag), the checks (``_counts``, ``_violation``), and ``_Record``, which samples a
replication and builds its ``SimResult``. The head clip has one closed form, over
``SystemInstance.ahead``. Only the event selection keeps a form per engine:
``bisect_right`` on one list, one count per column on columns.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import reduce
from numbers import Real
from operator import add, gt, sub

import numpy as np

from .model import NetworkModel, _as_int, activity_set, lp_columns
from .optimality import throughput_verdict_paths
from .paths import SimplePath, enumerate_simple_paths
from .static_fluid import FluidSolution


# From this many replications on, stepping a scale's replications together
# beats looping ``simulate`` (see ``run_nc_experiment``).
LOCKSTEP_MIN_REPS = 16

# Events per block of draws (see the module docstring); part of every
# replication's stream, so changing it changes every result.
DRAW_BLOCK = 256


class ScalingViolation(ValueError):
    """Rounded server counts drifted more than 0.5/sqrt(n) from n times the
    capacities, or scaling overflowed: a rate past the float range or a count
    past int64. The first-order bound cannot fail (see ``build_system``):
    sum |x0_i/n - m_i| <= I/(2n) < (I+J+1)/sqrt(n) for every n >= 1."""


class PolicyViolation(RuntimeError):
    """A policy returned an infeasible assignment."""


def _round_half_up(values) -> np.ndarray:
    return np.floor(np.asarray(values, dtype=float) + 0.5).astype(np.int64)


@dataclass(frozen=True)
class SystemInstance:
    """Integer-sized system at scale n, tied to its fluid solution. Its arrays,
    the clip table ``ahead`` too, are read-only: all replications share them."""

    n: int
    arrival_rates: np.ndarray   # (I,) events per unit time, n * fluid rate
    servers: np.ndarray         # (J,) integer server counts
    service_rates: np.ndarray   # (I, J) per-server completion rates, the model's
    x0: np.ndarray              # (I,) integer initial head counts
    core: np.ndarray            # (I, J) integer fluid split, within the server counts
    ahead: np.ndarray           # (I, J) the class's core counts kept before the pair's
    model: NetworkModel
    solution: FluidSolution


def build_system(model: NetworkModel, sol: FluidSolution, n: int) -> SystemInstance:
    """Scale the fluid model to n servers-per-capacity-unit and round.

    The sum-abs drift of servers/n from the capacities must stay within half
    of 1/sqrt(n). The first-order bound (I+J+1)/sqrt(n) on the rest holds by
    construction, up to float rounding: arrival rates are exact multiples,
    service rates are not scaled, and x0 rounds half up, so
    sum |x0_i/n - m_i| <= I/(2n) < (I+J+1)/sqrt(n).

    ``core``, the one rounding of the fluid split, is n * masses rounded half
    up, each column then shaved one customer at a time off its largest entry
    down to its server count. ``ahead``, the head clip's table, holds at each pair
    its class's ``core`` counts at the pairs kept before it: the faster ones, then
    those of equal rate at a higher station. The t = 0 state and the pump read both.

    Raises:
        ValueError: n is a bool, not an integer, or below 1.
        ScalingViolation: the server bound fails, typically capacities near
            half-integers at a tiny n (use a larger n), or n times a rate is not
            finite, or n times a capacity or class mass, the server total or I
            times the largest server count does not fit in int64.
    """
    n = _as_int(n, "scale parameter n")
    if n < 1:
        raise ValueError(f"scale parameter n must be an integer of at least 1, got {n!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        arrivals, capacity = n * model.arrival_rates, n * model.capacities
        mass, servers = n * sol.class_masses, _round_half_up(capacity)
    if (not np.isfinite(arrivals).all() or max(capacity.max(), mass.max()) >= 2.0**63
            or max(model.num_classes * int(servers.max()), sum(servers.tolist())) >= 2**63):
        raise ScalingViolation(f"scaling by n = {n} overflows a rate or an int64 count")
    server_drift = np.abs(servers / n - model.capacities).sum()
    if server_drift > 0.5 / math.sqrt(n) + 1e-12:
        raise ScalingViolation(
            f"server counts drifted {server_drift:.6g} > 0.5/sqrt({n}); adjust n"
        )
    x0, core = _round_half_up(mass), _round_half_up(n * sol.masses)
    for column, cap in zip(core.T, servers):
        while column.sum() > cap:
            column[column.argmax()] -= 1
    fastest = np.argsort(model.service_rates, axis=1, kind="stable")[:, ::-1]
    kept = np.take_along_axis(core, fastest, 1)
    ahead = np.take_along_axis(kept.cumsum(1) - kept, fastest.argsort(1), 1)
    for arr in (arrivals, servers, x0, core, ahead):
        arr.setflags(write=False)
    return SystemInstance(n=n, arrival_rates=arrivals, servers=servers,
                          service_rates=model.service_rates, x0=x0, core=core, ahead=ahead,
                          model=model, solution=sol)


class SystemState:
    """Mutable snapshot handed to policies.

    ``t`` is the time of the event just handled. ``heads`` (I ints) counts the
    customers of each class in the system and ``servers`` (J ints) the servers
    of each station, both as lists. ``in_service`` is the previous assignment
    as I lists of J ints, less the customer whose completion was the event.
    Policies read the state and must not change it.
    """

    __slots__ = ("t", "heads", "in_service", "servers")

    def __init__(self, t: float, heads: list[int], in_service: list[list[int]],
                 servers: list[int]):
        self.t, self.heads, self.in_service, self.servers = t, heads, in_service, servers


class Policy:
    """Decision rule mapping a state to a full in-service assignment.

    ``assign`` returns how many customers of each class are in service at
    each station: I lists of J ints, or an (I, J) integer array. The
    simulator checks every assignment against the state and keeps a copy.

    ``prepare`` runs once per simulation before the first assignment and may
    cache scale-dependent data; it must also reset any internal state, since
    policy objects are reused across replications.
    """

    name = "abstract"

    def prepare(self, sys: SystemInstance) -> None:
        pass

    def assign(self, state: SystemState, sys: SystemInstance) -> list[list[int]] | np.ndarray:
        raise NotImplementedError


class GreedyBasic(Policy):
    """Work-conserving fill of basic activities in decreasing-rate order."""

    name = "greedy-basic"

    def __init__(self, model: NetworkModel, sol: FluidSolution):
        self._order = _by_decreasing_rate(map(model.edge_positions, sol.basic_edges), model)

    def assign(self, state: SystemState, sys: SystemInstance) -> list[list[int]]:
        psi = [[0] * len(state.servers) for _ in state.heads]
        return _fill(psi, list(state.heads), list(state.servers), self._order, min)

    def _lockstep(self, sys: SystemInstance, reps: int):
        psi, (by_class, by_station), rows, heads_left, servers_left = _lockstep_buffers(sys, reps)
        servers, flat = sys.servers[:, None], psi.reshape(-1, reps)

        def assign(heads: np.ndarray, busy: np.ndarray) -> np.ndarray:
            psi.fill(0)
            by_class[...], by_station[...] = heads, servers
            _fill(rows, heads_left, servers_left, self._order, np.minimum)
            return flat
        return assign


class IdlePolicy(GreedyBasic):
    """The fill over no activities, so it serves nobody: a corner for tests."""

    name = "idle"

    def __init__(self):
        self._order = []


class NegativePathPump(Policy):
    """Static split plus a congestion-scaled shift along the most negative path.

    The baseline tracks the rounded fluid masses clipped to the current head
    counts, then fills leftovers work-conservingly across all activities.
    While the total head count is at or above the total server count, the
    assignment is displaced along the most negative simple path in its signed
    direction (decreasing +1 edges, increasing -1 edges, which activates the
    leaf pair on closed paths). Each invocation moves the displacement by at
    most ceil(sqrt(n)) toward the feasibility cap; the applied displacement
    is further limited by what the head-clipped baseline can give up on the
    decreasing edges, so pumping never outruns the donor classes. When the
    congestion clears, the displacement unwinds at the same pace: sustained
    displacement erodes the donor class at fluid rate and must stay
    transient. This is a stand-in heuristic that demonstrates drainability
    at desk scale. It enumerates the model's simple paths if ``paths`` is None
    (``NotATree`` off a tree); with no negative path among them, as with ``[]``,
    it is inert and only the baseline acts.
    """

    name = "negative-path"

    def __init__(self, model: NetworkModel, sol: FluidSolution,
                 paths: list[SimplePath] | None = None):
        if paths is None:
            paths = enumerate_simple_paths(sol, activity_set(model), model)
        self.path = throughput_verdict_paths(paths).witness_path
        self._fastest_first = _by_decreasing_rate(
            zip(*(c.tolist() for c in lp_columns(model))), model)
        edges = self.path.signed_edges if self.path is not None else ()
        self._dec = [model.edge_positions(e) for e, s in edges if s > 0]
        self._inc = [model.edge_positions(e) for e, s in edges if s < 0]

    def prepare(self, sys: SystemInstance) -> None:
        self._core, self._ahead = sys.core.tolist(), sys.ahead.tolist()
        self._shift = 0
        cap = min((self._core[i][j] for i, j in self._dec), default=0)
        self._servers_total = int(sys.servers.sum())
        self._limits = (cap, math.ceil(math.sqrt(sys.n)))

    def _displace(self, psi, busy, shift, limits, minimum, maximum):
        """Move ``shift`` at most one step toward its target (the feasibility
        cap while ``busy``, the engine's flag that the head total is at least the
        server total, else 0), apply what the decreasing edges of ``psi`` can give
        up, and return the moved shift. ``limits`` holds the cap and the step.
        ``psi[i][j]`` and ``limits`` are ints and ``busy`` a bool with ``min``/``max``,
        or columns, 0-d arrays and a bool column with ``np.minimum``/``np.maximum``.
        No row or column sum grows: each class and station on the path has as many
        decreasing edges as increasing ones, except an open path's first class
        and last station."""
        cap, step = limits
        shift = minimum(maximum(busy * cap, shift - step), shift + step)
        applied = reduce(minimum, [psi[i][j] for i, j in self._dec], shift)
        for i, j in self._dec:
            psi[i][j] -= applied
        for i, j in self._inc:
            psi[i][j] += applied
        return shift

    def assign(self, state: SystemState, sys: SystemInstance) -> list[list[int]]:
        heads = state.heads
        # clip rows to the available heads before sizing the displacement
        psi = _clip_to_heads(self._core, self._ahead, heads)
        self._shift = self._displace(psi, sum(heads) >= self._servers_total, self._shift,
                                     self._limits, min, max)
        # work-conserving completion, fastest activities first
        heads_left = [h - sum(row) for h, row in zip(heads, psi)]
        servers_left = [s - sum(col) for s, col in zip(state.servers, zip(*psi))]
        return _fill(psi, heads_left, servers_left, self._fastest_first, min)

    def _lockstep(self, sys: SystemInstance, reps: int):
        self.prepare(sys)
        psi, (by_class, by_station), rows, heads_left, servers_left = _lockstep_buffers(sys, reps)
        servers, flat = sys.servers[:, None], psi.reshape(-1, reps)
        ahead, count = sys.ahead[:, :, None], sys.core[:, :, None]
        zero, limits = np.zeros((), np.int64), tuple(map(np.asarray, self._limits))
        shift = np.zeros(reps, dtype=np.int64)  # the displacement of each replication

        def assign(heads: np.ndarray, busy: np.ndarray) -> np.ndarray:
            nonlocal shift
            np.subtract(heads[:, None], ahead, out=psi)  # _clip_to_heads on columns
            np.minimum(np.maximum(psi, zero, out=psi), count, out=psi)
            shift = self._displace(rows, busy, shift, limits, np.minimum, np.maximum)
            np.subtract(heads, np.add.reduce(psi, axis=1, out=by_class), out=by_class)
            np.subtract(servers, np.add.reduce(psi, axis=0, out=by_station), out=by_station)
            _fill(rows, heads_left, servers_left, self._fastest_first, np.minimum)
            return flat
        return assign


POLICIES = {
    "greedy-basic": lambda model, sol, paths: GreedyBasic(model, sol),
    "negative-path": NegativePathPump,
    "idle": lambda model, sol, paths: IdlePolicy(),
}


def make_policy(
    name: str,
    model: NetworkModel,
    sol: FluidSolution,
    paths: list[SimplePath] | None = None,
) -> Policy:
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; choose from {sorted(POLICIES)}") from None
    return factory(model, sol, paths)


def _fill(psi, heads_left, servers_left, order: list[tuple[int, int, bool, bool]], minimum):
    """Work-conserving fill: at each pair of ``order`` in turn, put in service
    as many of the class's remaining heads as the station has servers left.

    Takes ints with ``minimum=min``, or columns with ``np.minimum``. No
    leftover a built-in policy passes is negative (the head clip bounds rows,
    the core split columns, and ``NegativePathPump._displace`` raises
    neither), so every step adds at least 0. A leftover is updated only while
    ``order``, from ``_by_decreasing_rate``, has its class or station again.
    """
    for i, j, class_again, station_again in order:
        k = minimum(heads_left[i], servers_left[j])
        psi[i][j] += k
        if class_again:
            heads_left[i] -= k
        if station_again:
            servers_left[j] -= k
    return psi


def _lockstep_buffers(sys: SystemInstance, reps: int):
    """A built-in's lockstep buffers, overwritten by each ``assign``: the (I, J, R) assignment, the
    (I, R) and (J, R) leftovers, and the lists of rows that ``_fill`` and ``_displace`` index."""
    psi = np.empty((*sys.core.shape, reps), dtype=np.int64)
    left = [np.empty((size, reps), dtype=np.int64) for size in sys.core.shape]
    return psi, left, [list(row) for row in psi], *map(list, left)


def _by_decreasing_rate(pairs, model: NetworkModel) -> list[tuple[int, int, bool, bool]]:
    """``_fill``'s order: the (class, station) positions ``pairs`` by decreasing service
    rate, ties by position, each with whether its class and its station come again later."""
    order = sorted(pairs, key=lambda pos: (-model.service_rates[pos], pos))
    last_i, last_j = ({pos[side]: k for k, pos in enumerate(order)} for side in (0, 1))
    return [(i, j, last_i[i] > k, last_j[j] > k) for k, (i, j) in enumerate(order)]


def _clip_to_heads(core, ahead, heads) -> list[list[int]]:
    """A copy of ``core`` with each row cut to its head count h, slowest pairs first:
    each pair keeps clip(h - ahead, 0, count); conditionals beat ``min``/``max`` here."""
    return [[c if h - a >= c else h - a if h > a else 0 for c, a in zip(row, sums)]
            for row, sums, h in zip(core, ahead, heads)]


def _counts(psi, shape: tuple[int, int]) -> np.ndarray:
    """The assignment ``psi`` as an integer array of ``shape``, or a
    PolicyViolation with the reason alone: ragged, shape, integer, in order."""
    try:
        arr = np.asarray(psi)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise PolicyViolation("assignment is ragged") from None
    if arr.shape != shape:
        raise PolicyViolation(f"assignment shape {arr.shape} does not match the network")
    if arr.dtype.kind not in "iu":
        raise PolicyViolation("assignment is not integer-valued")
    return arr


def _violation(psi: np.ndarray, heads: np.ndarray, servers: np.ndarray,
               zero_rate) -> tuple[str, int] | None:
    """(reason, first offending column) of the first rule, in the order
    negative, zero rate, over heads, over servers, that the (pairs, R) counts
    ``psi`` break against their (classes, R) ``heads``, or None. ``zero_rate``
    lists the pairs with zero service rate."""
    by_class = psi.reshape(heads.shape[0], servers.size, -1)
    for bad, reason in (
        (psi < 0, "negative in-service count"),
        (psi.take(zero_rate, axis=0), "in-service count on a pair with zero service rate"),
        (np.add.reduce(by_class, axis=1) > heads,
         "class has more customers in service than in the system"),
        (np.add.reduce(by_class, axis=0) > servers[:, None],
         "station has more customers in service than servers"),
    ):
        if bad.any():
            return reason, int(bad.any(axis=0).argmax())
    return None


def _checked(psi, heads: list[int], servers: list[int], rates: list[float],
             inactive: list[tuple[int, int]]) -> tuple[list[list[int]], list[float]]:
    """Check and price the assignment ``psi`` in one pass over its counts.

    Returns a copy of ``psi`` as I lists of J ints and the running sums of
    ``rates`` (row-major) times those counts, which the next event is drawn
    from. The sums start from -0.0, the exact identity of float addition, so
    they equal ``accumulate``'s bit for bit. Any form but I lists of J ``int``
    stops the pass with a TypeError and goes through ``_counts`` and then
    through the pass again. The pass only detects that a rule broke;
    ``_violation`` names the first one.

    Raises:
        PolicyViolation: the reason alone; the caller names the policy and event.
    """
    I, J = len(heads), len(servers)
    rows, cum = [], []
    total, low, over_heads, k = -0.0, 0, False, 0
    try:
        if type(psi) is not list or len(psi) != I:
            raise TypeError
        for row, h in zip(psi, heads):
            if type(row) is not list or len(row) != J:
                raise TypeError
            in_row = 0
            for v in row:
                if type(v) is not int:
                    raise TypeError
                if v < low:
                    low = v
                in_row += v
                total += rates[k] * v
                cum.append(total)
                k += 1
            over_heads |= in_row > h
            rows.append(row[:])
    except TypeError:
        return _checked(_counts(psi, (I, J)).tolist(), heads, servers, rates, inactive)
    if (low < 0 or over_heads or (inactive and any(rows[i][j] for i, j in inactive))
            or any(map(gt, map(sum, zip(*rows)), servers))):
        exact = np.array(rows, dtype=object).reshape(-1, 1)  # Python ints: no sum wraps
        raise PolicyViolation(_violation(exact, np.array(heads)[:, None], np.array(servers),
                                         [i * J + j for i, j in inactive])[0])
    return rows, cum


@dataclass
class SimResult:
    n: int
    rep: int
    seed: int
    policy: str
    T: float
    warmup: float
    queue_occupancy: float          # time in [warmup, T] with total heads >= total servers
    sample_times: np.ndarray        # (S,)
    sample_heads: np.ndarray        # (S, I)
    sample_in_service: np.ndarray   # (S, I, J)
    sample_occupancy: np.ndarray    # (S,) running occupancy integral
    arrivals: np.ndarray            # (I,) event counts
    completions: np.ndarray         # (I, J) event counts
    x0: np.ndarray
    final_heads: np.ndarray
    events: int
    invariants_checked: bool


def _check_run(T: float, warmup: float, sample_points: int) -> None:
    if isinstance(T, bool) or not isinstance(T, Real) or not 0 < T < math.inf:
        raise ValueError(f"horizon T must be positive, finite and a real number, not {T!r}")
    if isinstance(warmup, bool) or not isinstance(warmup, Real) or not 0 <= warmup < T:
        raise ValueError(f"warmup must be a real number in [0, T), not {warmup!r}")
    if _as_int(sample_points, "sample_points") < 2:  # _Record samples at both ends, 0 and T
        raise ValueError(f"sample_points must be at least 2, got {sample_points}")


class _Record:
    """What one replication records: its head counts, in-service counts and
    running occupancy integral at ``sample_points`` times from 0 to T, both
    ends included, as it runs, and its ``SimResult`` once it reaches T."""

    def __init__(self, sys: SystemInstance, policy: Policy, seed: int, T: float,
                 warmup: float, sample_points: int):
        self.sys, self.policy, self.seed, self.T, self.warmup = sys, policy, seed, T, warmup
        self.times = np.linspace(0.0, T, sample_points)
        self._at = self.times.tolist() + [math.inf]
        self._next = 0
        self.heads = np.empty((sample_points, sys.x0.size), dtype=np.int64)
        self.in_service = np.empty((sample_points, *sys.service_rates.shape), dtype=np.int64)
        self.occupancy = np.empty(sample_points)

    def sample(self, heads, psi, occupancy: float, busy_from: float, seg_end: float,
               final: bool) -> float:
        """Write the state held until ``seg_end`` at each sample time before
        it, and at ``seg_end`` too if ``final``; return the next sample time.
        The integral, ``occupancy`` so far, grows from ``busy_from`` (inf: not at all)."""
        at, si = self._at, self._next
        while at[si] < seg_end or (final and at[si] <= seg_end):
            self.heads[si] = heads
            self.in_service[si] = psi
            self.occupancy[si] = occupancy + (at[si] - busy_from if at[si] > busy_from else 0.0)
            si += 1
        self._next = si
        return at[si]

    def result(self, occupancy: float, arrivals, completions, heads, events: int) -> SimResult:
        """The ``SimResult``, with fresh int64 copies of the (I,) ``arrivals``
        and ``heads`` and the (I·J,) ``completions``."""
        sys = self.sys
        return SimResult(
            n=sys.n, rep=0, seed=self.seed, policy=self.policy.name, T=self.T, warmup=self.warmup,
            queue_occupancy=float(occupancy), sample_times=self.times, sample_heads=self.heads,
            sample_in_service=self.in_service, sample_occupancy=self.occupancy,
            arrivals=np.array(arrivals, dtype=np.int64),
            completions=np.array(completions, dtype=np.int64).reshape(sys.service_rates.shape),
            x0=sys.x0.copy(), final_heads=np.array(heads, dtype=np.int64),
            events=events, invariants_checked=True,
        )


def simulate(sys: SystemInstance, policy: Policy, T: float, seed: int, warmup: float = 0.0,
             sample_points: int = 101) -> SimResult:
    """Run one replication on [0, T]; deterministic in ``seed``.

    The policy is invoked at time zero on the initial split and again after
    every arrival or completion. Between events the congestion indicator is
    constant, so the occupancy integral accumulates exactly. Conservation
    (head counts vs. in-service counts, the activity mask, and the integrated
    arrival/completion identity) is checked after every event.

    ``_checked`` prices each assignment as it checks it: its running sums of
    the service clocks give both the total rate and the table the completing
    pair is drawn from. Numpy's ``sum`` adds in that order below 8 pairs and
    pairwise from 8 on, so a total rate may differ from it in its last bit.

    The blocks of draws (see ``DRAW_BLOCK``) are turned into Python floats once
    per block, so the loop does its arithmetic on Python floats.

    Raises:
        ValueError: an invalid ``seed`` (a bool or non-integer), T, warmup or ``sample_points``.
        PolicyViolation: the policy returned an infeasible assignment; the
            message identifies the policy and the event index.
    """
    _check_run(T, warmup, sample_points)
    seed = _as_int(seed, "seed")
    rng = np.random.default_rng(seed)
    I, J = sys.model.num_classes, sys.model.num_stations
    rates = sys.service_rates.ravel().tolist()
    inactive = [divmod(k, J) for k, rate in enumerate(rates) if not rate > 0]
    servers = sys.servers.tolist()
    servers_total = sum(servers)
    x0 = sys.x0.tolist()
    heads = list(x0)
    arrivals = [0] * I
    completions = [[0] * J for _ in range(I)]
    lam_total = float(sys.arrival_rates.sum())
    lam_cum = np.cumsum(sys.arrival_rates).tolist()

    initial = _clip_to_heads(sys.core.tolist(), sys.ahead.tolist(), heads)
    state = SystemState(0.0, heads, initial, servers)
    policy.prepare(sys)

    def decide(event: int) -> tuple[list[list[int]], list[float]]:
        try:
            state.in_service, svc_cum = _checked(policy.assign(state, sys), heads, servers,
                                                 rates, inactive)
        except PolicyViolation as exc:
            raise PolicyViolation(f"policy {policy.name!r} at event {event}: {exc}") from None
        return state.in_service, svc_cum

    psi, svc_cum = decide(0)
    record = _Record(sys, policy, seed, T, warmup, sample_points)
    t = occupancy = due = 0.0  # due: the next sample time, or any time before it
    events = 0

    while True:
        k = events % DRAW_BLOCK
        if not k:
            exponentials = rng.standard_exponential(DRAW_BLOCK).tolist()
            uniforms = rng.random(DRAW_BLOCK).tolist()
        busy_from = max(t, warmup) if sum(heads) >= servers_total else math.inf
        total_rate = lam_total + svc_cum[-1]
        t_next = t + exponentials[k] / total_rate
        final = t_next >= T
        seg_end = T if final else t_next

        if due < seg_end or final:
            due = record.sample(heads, psi, occupancy, busy_from, seg_end, final)
        if seg_end > busy_from:
            occupancy += seg_end - busy_from
        if final:
            break

        t = t_next
        u = uniforms[k] * total_rate
        if u < lam_total:
            i = min(bisect_right(lam_cum, u), I - 1)
            heads[i] += 1
            arrivals[i] += 1
        else:
            i, j = divmod(min(bisect_right(svc_cum, u - lam_total), I * J - 1), J)
            heads[i] -= 1
            psi[i][j] -= 1
            completions[i][j] += 1
        events += 1

        state.t = t
        psi, svc_cum = decide(events)
        if heads != [*map(sub, map(add, x0, arrivals), map(sum, completions))]:
            raise RuntimeError("event accounting broke the counting identity")

    return record.result(occupancy, arrivals, completions, heads, events)


def _event_heads(I: int, J: int) -> np.ndarray:
    """Each event's change of the I head counts: arrivals by class, then completions by pair."""
    return np.hstack([np.eye(I, dtype=np.int64), -np.eye(I, dtype=np.int64).repeat(J, axis=1)])


def _event_table(I: int, J: int) -> np.ndarray:
    """Each event's change of the lockstep tally's moving rows: the I head counts, then
    one count per event, arrivals by class and completions by pair."""
    return np.vstack([_event_heads(I, J), np.eye(I + I * J, dtype=np.int64)])


def _simulate_lockstep(sys: SystemInstance, policy: Policy, T: float, seeds: list[int],
                       warmup: float = 0.0, sample_points: int = 101) -> list[SimResult]:
    """``simulate`` for each seed of ``seeds``, all replications stepped together.

    Each step handles one event of every replication, on (pairs, R) and
    (classes, R) int64 counts whose column k is replication k for the whole
    call. Every ``DRAW_BLOCK`` steps each column's own generator draws its
    next blocks, exactly what ``simulate(sys, policy, T, seeds[k], warmup,
    sample_points)`` draws, and each step reads one (R,) row of each, with
    the same float arithmetic (``np.add.accumulate`` adds in order, as
    ``accumulate`` does): the k-th result equals that run's in every field.
    A replication that reaches its ``horizon``, T, is recorded and its
    horizon becomes nan, which no time reaches: the column keeps stepping,
    unrecorded, until the last one ends.

    The integer state is one (rows, R) int64 block, ``tally``: zeros for the
    zero-rate pairs, the server counts and the heads, which together are the
    ``bound`` of ``G @ psi``, then the arrivals by class and the completions
    by pair. Its last three parts, ``moving``, are all that changes: a
    column's event e adds column e of ``_event_table``. Right after, one
    integer product, ``audit @ moving``, gives each class's heads - arrivals
    + completions, which must equal x0 (the counting identity), and the head
    total, from which the engine sets ``busy``, the congestion flag, once per
    step; the policy and the next step's occupancy integral both read it.

    ``policy`` must be a built-in: its ``_lockstep(sys, reps)`` returns
    ``assign(heads, busy)``, which maps the (classes, R) head counts and the
    (R,) flags to the (pairs, R) assignment and keeps any per-replication state
    of its own, a column per replication: a buffer the policy owns and
    overwrites on its next call, read by the step before that call and copied
    by a record where it samples. Every assignment, and the counting identity,
    is checked on every step for every column, ended ones too: each entry,
    read as uint64, against its station's server count (a negative one fails
    too, and no sum of entries that pass wraps), and ``G @ psi <= bound`` over
    the zero-rate pairs, stations and classes. ``_violation`` names the rule,
    over Python ints, only if one broke.

    Raises:
        ValueError: the horizon or ``sample_points`` is invalid, as in ``simulate``.
        PolicyViolation: an infeasible assignment; the message names the
            policy, the replication and the event.
    """
    _check_run(T, warmup, sample_points)
    (I, J), R = sys.service_rates.shape, len(seeds)
    assign = policy._lockstep(sys, R)
    x0, rates = sys.x0[:, None], sys.service_rates.reshape(I * J, 1)
    zero_rate = np.flatnonzero(~(rates > 0))
    # the step's scalars as 0-d arrays, which a ufunc takes faster than Python numbers
    servers_total, lam_total, start, zero = map(
        np.asarray, (sys.servers.sum(), sys.arrival_rates.sum(), float(warmup), 0.0))
    lam_cum = np.append(np.minimum(sys.arrival_rates.cumsum()[:-1], lam_total), lam_total)[:, None]
    table = _event_table(I, J)
    pairs = np.eye(I * J, dtype=np.int64).reshape(I, J, -1)
    G = np.vstack([pairs.reshape(I * J, -1)[zero_rate], pairs.sum(0), pairs.sum(1)])
    # an entry read as uint64 within its station's server count puts no sum of G @ psi past int64
    per_pair = np.tile(np.maximum(sys.servers, 0), I).astype(np.uint64)[:, None]
    # over the moving rows: heads - arrivals + completions by class, and the head total
    eye = np.eye(I, dtype=np.int64)
    audit = np.block([[eye, -eye, eye.repeat(J, 1)],
                      [np.ones((1, I), np.int64), np.zeros((1, I + I * J), np.int64)]])

    # column c is replication c for the whole call
    gens = [np.random.default_rng(seed) for seed in seeds]
    records = [_Record(sys, policy, seed, T, warmup, sample_points) for seed in seeds]
    results: list[SimResult | None] = [None] * R
    tally = np.concatenate([np.zeros_like(zero_rate), sys.servers, sys.x0,
                            np.zeros(I + I * J, np.int64)])[:, None].repeat(R, 1)
    bound, moving = tally[:len(G)], tally[len(G) - I:]
    heads, arrived, completed = moving[:I], moving[I:2 * I], moving[2 * I:]
    audited, busy = np.empty((I + 1, R), np.int64), np.empty(R, bool)
    kept, total, drift = audited[:I], audited[I], np.empty((I, R), bool)
    t, occupancy = np.zeros((2, R))
    horizon = np.full(R, T)  # T until the column's replication is recorded, then nan
    due = np.zeros(R)  # time of each column's next sample
    # the step's temporaries, made once: final stays False until a time reaches T, and as
    # times never decrease, every step from then on rewrites it
    final = np.zeros(R, dtype=bool)
    rated, svc_cum = np.empty((2, I * J, R))
    over, below = np.empty((I * J + len(G), R), dtype=bool), np.empty((I + I * J - 1, R), bool)
    pairs_over, sums_over, lam_below, svc_below = *np.split(over, [I * J]), *np.split(below, [I])
    svc_total, svc_low = svc_cum[-1], svc_cum[:-1]

    def decide(event: int) -> np.ndarray:
        """Check the counting identity, set ``busy`` and return the checked assignment."""
        np.matmul(audit, moving, out=audited)
        if np.count_nonzero(np.not_equal(kept, x0, out=drift)):
            raise RuntimeError("event accounting broke the counting identity")
        np.greater_equal(total, servers_total, out=busy)
        try:
            psi = _counts(assign(heads, busy), (I * J, R)).astype(np.int64, copy=False)
            np.greater(psi.view(np.uint64), per_pair, out=pairs_over)
            np.greater(G @ psi, bound, out=sums_over)
            found = (np.count_nonzero(over)  # then Python ints: no sum wraps
                     and _violation(psi.astype(object), heads, sys.servers, zero_rate))
        except PolicyViolation as exc:
            found = exc, 0
        if not found:
            return psi
        raise PolicyViolation(f"policy {policy.name!r} in replication {found[1]} "
                              f"at event {event}: {found[0]}")

    events, first_due = 0, 0.0  # first_due: the earliest of the columns' next sample times
    psi = decide(0)
    with np.errstate(over="ignore"):  # a holding time past the float range is inf, as in simulate
        while True:
            k = events % DRAW_BLOCK
            if not k:
                exponentials = np.column_stack([g.standard_exponential(DRAW_BLOCK) for g in gens])
                uniforms = np.column_stack([g.random(DRAW_BLOCK) for g in gens])
                warm = np.minimum.reduce(t) >= warmup  # times never decrease: it stays so
            np.add.accumulate(np.multiply(rates, psi, out=rated), axis=0, out=svc_cum)
            total_rate = lam_total + svc_total
            t_next = t + exponentials[k] / total_rate
            latest = np.maximum.reduce(t_next)  # < T: no column ends; <= first_due: none samples
            ending = latest >= T and np.logical_or.reduce(
                np.greater_equal(t_next, horizon, out=final))
            seg_end = np.where(final, T, t_next) if ending else t_next

            if ending or first_due < latest:
                for c in ((due < seg_end) | final).nonzero()[0]:
                    busy_from = max(t[c], warmup) if busy[c] else math.inf
                    due[c] = records[c].sample(heads[:, c], psi[:, c].reshape(I, J), occupancy[c],
                                               busy_from, seg_end[c], final[c])
                first_due = np.minimum.reduce(due)
            # once every column is past warmup, seg_end - t needs no clamp: it is at least 0
            piece = seg_end - t if warm else np.maximum(seg_end - np.maximum(t, start), zero)
            np.add(occupancy, piece, out=occupancy, where=busy)

            if ending:
                for c in np.flatnonzero(final):
                    results[c] = records[c].result(
                        occupancy[c], arrived[:, c], completed[:, c], heads[:, c], events)
                horizon[final] = math.nan  # no time reaches it, not even an inf one
                if np.logical_and.reduce(np.isnan(horizon)):
                    return results

            t = t_next
            u = uniforms[k] * total_rate
            # bisect_right's count in lam_cum (all <= lam_total) if u < lam_total, when no service
            # rate is <= u - lam_total < 0; else I plus its count in the service rates but the last
            np.less_equal(lam_cum, u, out=lam_below)
            np.less_equal(svc_low, u - lam_total, out=svc_below)
            e = np.add.reduce(below, axis=0)
            np.add(moving, table.take(e, 1), out=moving)
            events += 1

            psi = decide(events)


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(base: int, n: int, rep: int) -> int:
    """Stable per-replication seed: ``base``, in 0 ... 2**63 - 1, xor a mix of
    (n, rep), each in 0 ... 2**32 - 1, the bits kept; any other input, a bool
    or a float included, would share another's stream and is a ValueError."""
    base = _as_int(base, "seed")
    if not 0 <= base < 2**63:
        raise ValueError(f"seed must be in 0 ... 2**63 - 1, got {base}")
    n, rep = _as_int(n, "scale parameter n"), _as_int(rep, "replication index rep")
    if not (0 <= n < 2**32 and 0 <= rep < 2**32):
        raise ValueError(f"n and rep must be in 0 ... 2**32 - 1, got {n} and {rep}")
    return (base ^ _splitmix64((n << 32) | rep)) & 0x7FFFFFFFFFFFFFFF


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    reps: int
    mean: float
    median: float
    q10: float
    q90: float


@dataclass
class ExperimentResult:
    rows: list[ExperimentRow]
    results: list[SimResult]

    def summary(self) -> list[dict]:
        return [asdict(row) for row in self.rows]


def run_nc_experiment(
    model: NetworkModel,
    sol: FluidSolution,
    policy: Policy | str,
    n_list: list[int],
    T: float,
    reps: int,
    seed: int,
    paths: list[SimplePath] | None = None,
    warmup: float = 0.0,
    sample_points: int = 51,
) -> ExperimentResult:
    """Occupancy statistics across scales: ``reps`` replications per n.

    Replication seeds derive from (seed, n, rep), with ``seed`` in
    0 ... 2**63 - 1, the bits ``derive_seed`` keeps, so the aggregate is
    independent of execution order and bitwise reproducible. ``reps`` and
    ``seed`` must be ints or numpy integers; a bool or a float is a ValueError.

    A policy name is built by ``make_policy`` with ``paths``. A built-in policy
    (``GreedyBasic``, ``NegativePathPump``, ``IdlePolicy``) with at least
    ``LOCKSTEP_MIN_REPS`` replications runs each scale's replications in lockstep
    on arrays; any other policy, or fewer replications, runs ``simulate`` once per
    replication. Both routes give bit-identical results.

    Raises:
        ValueError: before any draw, on either route, for an n that ``build_system``
            or ``derive_seed`` refuses, a ScalingViolation included, an ``n_list``
            not strictly ascending or an invalid ``reps``, ``seed``, ``T``, ``warmup``
            or ``sample_points``.
    """
    systems = [build_system(model, sol, n) for n in n_list]
    if any(a.n >= b.n for a, b in zip(systems, systems[1:])):
        raise ValueError("n_list must be strictly ascending")
    reps = _as_int(reps, "reps")
    if reps < 1:
        raise ValueError("need at least one replication")
    # refuses the seed, the largest n and the last rep as their replications' calls would
    derive_seed(seed, systems[-1].n if systems else 0, reps - 1)
    _check_run(T, warmup, sample_points)
    pol = make_policy(policy, model, sol, paths) if isinstance(policy, str) else policy
    lockstep = (type(pol) in (GreedyBasic, NegativePathPump, IdlePolicy)
                and reps >= LOCKSTEP_MIN_REPS)

    rows: list[ExperimentRow] = []
    results: list[SimResult] = []
    for sys in systems:
        seeds = [derive_seed(seed, sys.n, rep) for rep in range(reps)]
        if lockstep:
            batch = _simulate_lockstep(sys, pol, T, seeds, warmup, sample_points)
        else:
            batch = [simulate(sys, pol, T, s, warmup=warmup, sample_points=sample_points)
                     for s in seeds]
        for rep, res in enumerate(batch):
            res.rep = rep
        results.extend(batch)
        arr = np.array([res.queue_occupancy for res in batch])
        rows.append(ExperimentRow(
            n=sys.n, reps=reps, mean=float(arr.mean()), median=float(np.median(arr)),
            q10=float(np.quantile(arr, 0.1)), q90=float(np.quantile(arr, 0.9))))
    return ExperimentResult(rows=rows, results=results)
