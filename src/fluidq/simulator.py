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

``run_nc_experiment`` has a second route for many replications of a built-in
policy: ``_simulate_lockstep`` steps all replications of one scale together,
one event of each per step, on arrays with a column per replication, and the
built-ins answer through a vectorized form of the same integer algorithm.
Each replication keeps its own generator, draws and float arithmetic, so its
result is bit-identical to ``simulate``'s, which stays the reference; user
policies, and fewer than ``LOCKSTEP_MIN_REPS`` replications, always take
``simulate``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import accumulate, chain, compress
from operator import gt, mul

import numpy as np

from .model import NetworkModel
from .paths import NEGATIVE, SimplePath
from .static_fluid import FluidSolution


# From this many replications on, stepping a scale's replications together
# beats looping ``simulate`` (see ``run_nc_experiment``).
LOCKSTEP_MIN_REPS = 16


class ScalingViolation(RuntimeError):
    """Rounded integer parameters broke the second-order closeness bounds."""


class PolicyViolation(RuntimeError):
    """A policy returned an infeasible assignment."""


def _round_half_up(values) -> np.ndarray:
    return np.floor(np.asarray(values, dtype=float) + 0.5).astype(np.int64)


@dataclass(frozen=True)
class SystemInstance:
    """Integer-sized system at scale n, tied to its fluid solution."""

    n: int
    arrival_rates: np.ndarray   # (I,) events per unit time, n * fluid rate
    servers: np.ndarray         # (J,) integer server counts
    service_rates: np.ndarray   # (I, J) per-server completion rates
    x0: np.ndarray              # (I,) integer initial head counts
    model: NetworkModel
    solution: FluidSolution


def build_system(model: NetworkModel, sol: FluidSolution, n: int) -> SystemInstance:
    """Scale the fluid model to n servers-per-capacity-unit and round.

    Rounding must respect the square-root closeness bounds (sum-abs distance
    of the normalized parameters within (I+J+1)/sqrt(n), server counts within
    half of 1/sqrt(n)); construction fails loudly otherwise.

    Raises:
        ScalingViolation: the bounds fail, typically capacities near
            half-integers at a tiny n. Use a larger n.
    """
    if n < 1:
        raise ValueError("scale parameter n must be at least 1")
    arrival = n * model.arrival_rates
    servers = _round_half_up(n * model.capacities)
    x0 = _round_half_up(n * sol.class_masses)
    service = np.array(model.service_rates)

    c = model.num_classes + model.num_stations + 1
    first_order = (
        np.abs(arrival / n - model.arrival_rates).sum()
        + np.abs(service - model.service_rates).sum()
        + np.abs(x0 / n - sol.class_masses).sum()
    )
    if first_order > c / math.sqrt(n) + 1e-12:
        raise ScalingViolation(
            f"rates/initial heads drifted {first_order:.6g} > {c}/sqrt({n})"
        )
    server_drift = np.abs(servers / n - model.capacities).sum()
    if server_drift > 0.5 / math.sqrt(n) + 1e-12:
        raise ScalingViolation(
            f"server counts drifted {server_drift:.6g} > 0.5/sqrt({n}); adjust n"
        )
    return SystemInstance(
        n=n,
        arrival_rates=arrival,
        servers=servers,
        service_rates=service,
        x0=x0,
        model=model,
        solution=sol,
    )


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
        self.t = t
        self.heads = heads
        self.in_service = in_service
        self.servers = servers


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


class IdlePolicy(Policy):
    """Serves nobody. Exists to exercise the degenerate corner in tests."""

    name = "idle"

    def assign(self, state: SystemState, sys: SystemInstance) -> list[list[int]]:
        return [[0] * len(state.servers) for _ in state.heads]

    def _lockstep(self, sys: SystemInstance, reps: int):
        pairs = sys.service_rates.size
        return lambda heads, live: np.zeros((pairs, heads.shape[1]), dtype=np.int64)


class GreedyBasic(Policy):
    """Work-conserving fill of basic activities in decreasing-rate order."""

    name = "greedy-basic"

    def __init__(self, model: NetworkModel, sol: FluidSolution):
        self._order = sorted(
            (model.edge_positions(e) for e in sol.basic_pairs),
            key=lambda pos: (-model.service_rates[pos], pos),
        )

    def assign(self, state: SystemState, sys: SystemInstance) -> list[list[int]]:
        psi = [[0] * len(state.servers) for _ in state.heads]
        return _fill(psi, list(state.heads), list(state.servers), self._order)

    def _lockstep(self, sys: SystemInstance, reps: int):
        pairs, servers = sys.service_rates.size, sys.servers[:, None]

        def assign(heads: np.ndarray, live: np.ndarray) -> np.ndarray:
            width = heads.shape[1]
            psi = np.zeros((pairs, width), dtype=np.int64)
            return _fill_batch(psi, heads.copy(), servers.repeat(width, axis=1), self._order)
        return assign


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
    at desk scale; without a negative path it is inert and only the baseline
    acts.
    """

    name = "negative-path"

    def __init__(self, model: NetworkModel, sol: FluidSolution, paths: list[SimplePath] = ()):
        negative = [p for p in paths if p.sign_class == NEGATIVE]
        self.path = min(negative, key=lambda p: p.weight) if negative else None
        self._model = model

    def prepare(self, sys: SystemInstance) -> None:
        rates = sys.service_rates
        self._core = _core_split(sys)
        self._servers_total = int(sys.servers.sum())
        self._step = math.ceil(math.sqrt(sys.n))
        self._shift = 0
        self._fastest_first = sorted(
            ((i, j) for i in range(rates.shape[0]) for j in range(rates.shape[1])
             if rates[i, j] > 0),
            key=lambda pos: (-rates[pos], pos),
        )
        self._slowest_first = _slowest_first(rates)
        if self.path is not None:
            edges = self.path.signed_edges
            self._dec = [self._model.edge_positions(e) for e, s in edges if s > 0]
            self._inc = [self._model.edge_positions(e) for e, s in edges if s < 0]
            self._max_shift = min(self._core[i][j] for i, j in self._dec)
        else:
            self._max_shift = 0

    def assign(self, state: SystemState, sys: SystemInstance) -> list[list[int]]:
        heads = state.heads
        psi = [row[:] for row in self._core]
        # clip rows to the available heads before sizing the displacement
        _shave(psi, heads, self._slowest_first)
        if self.path is not None:
            surplus = sum(heads) - self._servers_total
            headroom = min(psi[i][j] for i, j in self._dec)
            target = self._max_shift if surplus >= 0 else 0
            if target > self._shift:
                self._shift = min(self._shift + self._step, target)
            else:
                self._shift = max(self._shift - self._step, target)
            applied = min(self._shift, headroom)
            if applied:
                for i, j in self._dec:
                    psi[i][j] -= applied
                for i, j in self._inc:
                    psi[i][j] += applied
        # work-conserving completion, fastest activities first
        heads_left = [h - sum(row) for h, row in zip(heads, psi)]
        servers_left = [s - sum(col) for s, col in zip(state.servers, zip(*psi))]
        return _fill(psi, heads_left, servers_left, self._fastest_first)

    def _lockstep(self, sys: SystemInstance, reps: int):
        self.prepare(sys)
        I, J = sys.service_rates.shape
        core = np.array(self._core, dtype=np.int64)
        slowest = np.array(self._slowest_first)
        # _shave of the fixed core in closed form: it takes a class's excess
        # off its pairs slowest first, so the pair at step k of that walk keeps
        # clip(sum of the counts at steps 0..k - excess, 0, its count)
        walked = np.take_along_axis(core, slowest, axis=1)[:, :, None]
        kept_upto = walked.cumsum(axis=1)
        row_totals = core.sum(axis=1)[:, None]
        unwalk = (np.arange(I)[:, None] * J + np.argsort(slowest, axis=1)).ravel()
        servers = sys.servers[:, None]
        fastest, path = self._fastest_first, self.path is not None
        if path:
            dec = [i * J + j for i, j in self._dec]
            inc = [i * J + j for i, j in self._inc]
            step, max_shift, servers_total = self._step, self._max_shift, self._servers_total
            shift = np.zeros(reps, dtype=np.int64)  # the displacement of each replication

        def assign(heads: np.ndarray, live: np.ndarray) -> np.ndarray:
            kept = kept_upto - (row_totals - heads)[:, None, :]
            np.minimum(np.maximum(kept, 0, out=kept), walked, out=kept)
            psi = kept.reshape(I * J, -1).take(unwalk, axis=0)
            if path:
                # as in assign: toward the target by at most one step
                target = (np.add.reduce(heads, axis=0) >= servers_total) * max_shift
                now = shift[live]
                now = np.minimum(np.maximum(target, now - step), now + step)
                shift[live] = now
                applied = np.minimum(now, np.minimum.reduce(psi.take(dec, axis=0), axis=0))
                for k in dec:
                    psi[k] -= applied
                for k in inc:
                    psi[k] += applied
            by_class = psi.reshape(I, J, -1)
            heads_left = heads - np.add.reduce(by_class, axis=1)
            servers_left = servers - np.add.reduce(by_class, axis=0)
            # _fill skips a pair with nothing left, so a negative leftover acts as 0
            np.maximum(heads_left, 0, out=heads_left)
            np.maximum(servers_left, 0, out=servers_left)
            return _fill_batch(psi, heads_left, servers_left, fastest)
        return assign


POLICIES = {
    "greedy-basic": lambda model, sol, paths: GreedyBasic(model, sol),
    "negative-path": lambda model, sol, paths: NegativePathPump(model, sol, paths or ()),
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


def _fill(psi: list[list[int]], heads_left: list[int], servers_left: list[int],
          order: list[tuple[int, int]]) -> list[list[int]]:
    """Work-conserving fill: at each pair of ``order`` in turn, put in service
    as many of the class's remaining heads as the station has servers left."""
    for i, j in order:
        k = min(heads_left[i], servers_left[j])
        if k > 0:
            psi[i][j] += k
            heads_left[i] -= k
            servers_left[j] -= k
    return psi


def _fill_batch(psi: np.ndarray, heads_left: np.ndarray, servers_left: np.ndarray,
                order: list[tuple[int, int]]) -> np.ndarray:
    """``_fill`` on (pairs, R) counts: the same pairs in the same order, each
    column one replication. No leftover may be negative."""
    J = servers_left.shape[0]
    for i, j in order:
        k = np.minimum(heads_left[i], servers_left[j])
        psi[i * J + j] += k
        heads_left[i] -= k
        servers_left[j] -= k
    return psi


def _slowest_first(rates: np.ndarray) -> list[list[int]]:
    """Per class, the stations by increasing service rate, ties by index."""
    return [sorted(range(len(row)), key=lambda j: (row[j], j)) for row in rates.tolist()]


def _shave(psi: list[list[int]], heads: list[int], slowest_first: list[list[int]]) -> None:
    """Cut each row of ``psi`` down to its head count, slowest pairs first."""
    for row, h, order in zip(psi, heads, slowest_first):
        excess = sum(row) - h
        for j in order:
            if excess <= 0:
                break
            take = min(excess, row[j])
            row[j] -= take
            excess -= take


def _core_split(sys: SystemInstance) -> list[list[int]]:
    """Rounded fluid masses, shaved so no station exceeds its server count."""
    core = _round_half_up(sys.n * sys.solution.masses)
    for j in range(core.shape[1]):
        while core[:, j].sum() > sys.servers[j]:
            core[int(np.argmax(core[:, j])), j] -= 1
    return core.tolist()


def _checked(psi, heads: list[int], servers: list[int],
             inactive: list[tuple[int, int]]) -> list[list[int]]:
    """A copy of the assignment ``psi`` as lists of ints, once it is feasible.

    Anything but I lists of J ``int`` goes through ``np.asarray`` first.

    Raises:
        PolicyViolation: the reason alone; the caller names the policy and event.
    """
    shape = (len(heads), len(servers))
    if (type(psi) is list and len(psi) == shape[0]
            and all(type(row) is list and len(row) == shape[1] for row in psi)
            and all(type(v) is int for v in chain.from_iterable(psi))):
        psi = [row[:] for row in psi]
    else:
        arr = np.asarray(psi)
        if arr.shape != shape:
            raise PolicyViolation(f"assignment shape {arr.shape} does not match the network")
        if not np.issubdtype(arr.dtype, np.integer):
            raise PolicyViolation("assignment is not integer-valued")
        psi = arr.tolist()
    if min(map(min, psi)) < 0:
        raise PolicyViolation("negative in-service count")
    if any(psi[i][j] for i, j in inactive):
        raise PolicyViolation("in-service count on a pair with zero service rate")
    if any(map(gt, map(sum, psi), heads)):
        raise PolicyViolation("class has more customers in service than in the system")
    if any(map(gt, map(sum, zip(*psi)), servers)):
        raise PolicyViolation("station has more customers in service than servers")
    return psi


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


@dataclass(frozen=True)
class ScaledTrajectories:
    """Centred and sqrt(n)-scaled trajectories with derived queue/idle parts."""

    times: np.ndarray
    heads: np.ndarray        # (S, I)
    in_service: np.ndarray   # (S, I, J)
    servers: np.ndarray      # (J,)
    queued: np.ndarray       # (S, I)
    idle: np.ndarray         # (S, J)


def _check_horizon(T: float, warmup: float) -> None:
    if not 0 < T < math.inf:
        raise ValueError(f"horizon T must be positive and finite, not {T}")
    if not 0 <= warmup < T:
        raise ValueError("warmup must lie in [0, T)")


def simulate(
    sys: SystemInstance,
    policy: Policy,
    T: float,
    seed: int,
    warmup: float = 0.0,
    sample_points: int = 101,
) -> SimResult:
    """Run one replication on [0, T]; deterministic in ``seed``.

    The policy is invoked at time zero on the initial split and again after
    every arrival or completion. Between events the congestion indicator is
    constant, so the occupancy integral accumulates exactly. Conservation
    (head counts vs. in-service counts, the activity mask, and the integrated
    arrival/completion identity) is checked after every event.

    The service clocks are summed in one running pass, which gives both the
    total rate and the table the completing pair is drawn from. For fewer than
    8 pairs numpy's ``sum`` adds in the same order; from 8 pairs on it adds
    pairwise, so a total rate may differ from that sum in its last bit.

    Raises:
        PolicyViolation: the policy returned an infeasible assignment; the
            message identifies the policy and the event index.
    """
    _check_horizon(T, warmup)
    rng = np.random.default_rng(seed)
    exponential, uniform = rng.exponential, rng.random
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

    initial = _core_split(sys)
    _shave(initial, heads, _slowest_first(sys.service_rates))
    state = SystemState(0.0, heads, initial, servers)
    policy.prepare(sys)

    def decide(event: int) -> list[list[int]]:
        try:
            state.in_service = _checked(policy.assign(state, sys), heads, servers, inactive)
        except PolicyViolation as exc:
            raise PolicyViolation(f"policy {policy.name!r} at event {event}: {exc}") from None
        return state.in_service

    psi = decide(0)
    sample_ts = np.linspace(0.0, T, sample_points)
    times = sample_ts.tolist()
    s_heads = np.empty((sample_points, I), dtype=np.int64)
    s_psi = np.empty((sample_points, I, J), dtype=np.int64)
    s_occ = np.empty(sample_points)
    si = 0

    t = 0.0
    occupancy = 0.0
    events = 0

    def occ_piece(t0: float, t1: float) -> float:
        lo = max(t0, warmup)
        return t1 - lo if t1 > lo else 0.0

    while True:
        busy = sum(heads) >= servers_total
        svc_cum = list(accumulate(map(mul, rates, chain.from_iterable(psi))))
        total_rate = lam_total + svc_cum[-1]
        t_next = t + exponential() / total_rate
        final = t_next >= T
        seg_end = T if final else t_next

        while si < sample_points and (times[si] < seg_end or (final and times[si] <= seg_end)):
            s_heads[si] = heads
            s_psi[si] = psi
            s_occ[si] = occupancy + (occ_piece(t, times[si]) if busy else 0.0)
            si += 1
        if busy:
            occupancy += occ_piece(t, seg_end)
        if final:
            break

        t = t_next
        u = uniform() * total_rate
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
        psi = decide(events)
        if heads != [x + a - sum(c) for x, a, c in zip(x0, arrivals, completions)]:
            raise RuntimeError("event accounting broke the counting identity")

    return SimResult(
        n=sys.n,
        rep=0,
        seed=seed,
        policy=policy.name,
        T=T,
        warmup=warmup,
        queue_occupancy=occupancy,
        sample_times=sample_ts,
        sample_heads=s_heads,
        sample_in_service=s_psi,
        sample_occupancy=s_occ,
        arrivals=np.array(arrivals, dtype=np.int64),
        completions=np.array(completions, dtype=np.int64),
        x0=sys.x0.copy(),
        final_heads=np.array(heads, dtype=np.int64),
        events=events,
        invariants_checked=True,
    )


def _checked_batch(psi, heads: np.ndarray, servers: np.ndarray,
                   zero_rate: np.ndarray) -> np.ndarray:
    """``_checked`` for R replications at once: an int64 copy of the (pairs, R)
    assignment ``psi`` once every column is feasible against its (classes, R)
    ``heads``. ``zero_rate`` lists the pairs with zero service rate.

    Raises:
        PolicyViolation: args (``_checked``'s reason, first offending column).
    """
    arr = np.asarray(psi)
    if arr.shape != (servers.size * heads.shape[0], heads.shape[1]):
        raise PolicyViolation(f"assignment shape {arr.shape} does not match the network", 0)
    if arr.dtype.kind not in "iu":
        raise PolicyViolation("assignment is not integer-valued", 0)
    psi = arr.astype(np.int64)
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
            raise PolicyViolation(reason, int(bad.any(axis=0).argmax()))
    return psi


def _apply_events(u: np.ndarray, lam_total: float, lam_cum: np.ndarray, svc_cum: np.ndarray,
                  heads: np.ndarray, psi: np.ndarray, arrivals: np.ndarray,
                  completions: np.ndarray) -> None:
    """Fire in each column the event that ``u`` selects, as ``simulate`` does:
    the class or pair is the number of cumulative rates at or below ``u``
    (what ``bisect_right`` returns), capped at the last one."""
    classes, pairs = lam_cum.shape[0], svc_cum.shape[0]
    arrive = u < lam_total
    i = np.add.reduce(lam_cum <= u, axis=0)
    np.minimum(i, classes - 1, out=i)
    arrived = (np.arange(classes)[:, None] == i) & arrive
    k = np.add.reduce(svc_cum <= u - lam_total, axis=0)
    np.minimum(k, pairs - 1, out=k)
    completed = (np.arange(pairs)[:, None] == k) > arrive
    heads += arrived
    arrivals += arrived
    heads -= np.add.reduce(completed.reshape(classes, -1, u.size), axis=1)
    psi -= completed
    completions += completed


def _simulate_lockstep(
    sys: SystemInstance,
    policy: Policy,
    T: float,
    seeds: list[int],
    warmup: float = 0.0,
    sample_points: int = 101,
) -> list[SimResult]:
    """``simulate`` for each seed of ``seeds``, all replications stepped together.

    Each step handles one event of every replication still running, on
    (pairs, R) and (classes, R) int64 counts with one column per replication.
    Replication k draws from its own generator exactly what
    ``simulate(sys, policy, T, seeds[k], warmup, sample_points)`` draws, in
    the same order, and does the same float arithmetic on the same values:
    ``np.add.accumulate`` adds in order, as ``accumulate`` does, at any number
    of pairs. So the k-th result equals that run's in every field. A
    replication that reaches T leaves the arrays; the steps go on until the
    last one ends.

    ``policy`` must be a built-in: its ``_lockstep(sys, reps)`` returns
    ``assign(heads, live)``, which maps the (classes, R) head counts of the
    replications numbered ``live`` to their (pairs, R) assignment and keeps any
    per-replication state of its own. Every assignment, and the counting
    identity, is checked on every step for every running replication.

    Raises:
        PolicyViolation: an infeasible assignment; the message names the
            policy, the replication and the event.
    """
    _check_horizon(T, warmup)
    I, J = sys.model.num_classes, sys.model.num_stations
    R = len(seeds)
    assign = policy._lockstep(sys, R)
    rates = sys.service_rates.reshape(I * J, 1)
    zero_rate = np.flatnonzero(~(rates > 0))
    servers = sys.servers
    servers_total = int(servers.sum())
    x0 = sys.x0[:, None]
    lam_total = float(sys.arrival_rates.sum())
    lam_cum = np.cumsum(sys.arrival_rates)[:, None]
    sample_ts = np.linspace(0.0, T, sample_points)
    times = sample_ts.tolist() + [math.inf]

    # per replication, by its number
    gens = [np.random.default_rng(seed) for seed in seeds]
    exponentials, uniforms = [g.exponential for g in gens], [g.random for g in gens]
    s_heads = np.empty((R, sample_points, I), dtype=np.int64)
    s_psi = np.empty((R, sample_points, I, J), dtype=np.int64)
    s_occ = np.empty((R, sample_points))
    s_next = [0] * R
    results: list[SimResult | None] = [None] * R
    # per column, one column per running replication
    live = np.arange(R)
    heads = np.repeat(x0, R, axis=1)
    arrivals = np.zeros((I, R), dtype=np.int64)
    completions = np.zeros((I * J, R), dtype=np.int64)
    t = np.zeros(R)
    occupancy = np.zeros(R)
    due = np.zeros(R)  # time of each column's next sample

    def decide(event: int) -> np.ndarray:
        try:
            return _checked_batch(assign(heads, live), heads, servers, zero_rate)
        except PolicyViolation as exc:
            reason, col = exc.args
            raise PolicyViolation(f"policy {policy.name!r} in replication {live[col]} "
                                  f"at event {event}: {reason}") from None

    events = 0
    psi = decide(0)
    while True:
        busy = np.add.reduce(heads, axis=0) >= servers_total
        svc_cum = np.add.accumulate(rates * psi, axis=0)
        total_rate = lam_total + svc_cum[-1]
        t_next = t + np.array([draw() for draw in exponentials]) / total_rate
        final = t_next >= T
        ending = final.any()
        seg_end = np.where(final, T, t_next) if ending else t_next

        late = t_next > due
        if ending:
            late |= final
        for c in late.nonzero()[0]:
            r, fin, t1 = live[c], final[c], seg_end[c]
            occ, lo = occupancy[c], max(t[c], warmup)
            si = s_next[r]
            while times[si] < t1 or (fin and times[si] <= t1):
                s_heads[r, si] = heads[:, c]
                s_psi[r, si] = psi[:, c].reshape(I, J)
                s_occ[r, si] = occ + (times[si] - lo if busy[c] and times[si] > lo else 0.0)
                si += 1
            s_next[r], due[c] = si, times[si]
        piece = seg_end - np.maximum(t, warmup)
        np.add(occupancy, np.maximum(piece, 0.0, out=piece), out=occupancy, where=busy)

        if ending:
            for c in np.flatnonzero(final):
                r = live[c]
                results[r] = SimResult(
                    n=sys.n, rep=0, seed=seeds[r], policy=policy.name, T=T, warmup=warmup,
                    queue_occupancy=float(occupancy[c]),
                    sample_times=sample_ts.copy(),
                    sample_heads=s_heads[r],
                    sample_in_service=s_psi[r],
                    sample_occupancy=s_occ[r],
                    arrivals=arrivals[:, c].copy(),
                    completions=completions[:, c].reshape(I, J).copy(),
                    x0=sys.x0.copy(),
                    final_heads=heads[:, c].copy(),
                    events=events,
                    invariants_checked=True,
                )
            keep = ~final
            exponentials = list(compress(exponentials, keep))
            uniforms = list(compress(uniforms, keep))
            (live, heads, psi, arrivals, completions, t_next, occupancy, due, svc_cum,
             total_rate) = (a[..., keep] for a in (
                live, heads, psi, arrivals, completions, t_next, occupancy, due, svc_cum,
                total_rate))
        if not live.size:
            return results

        t = t_next
        u = np.array([draw() for draw in uniforms]) * total_rate
        _apply_events(u, lam_total, lam_cum, svc_cum, heads, psi, arrivals, completions)
        events += 1

        psi = decide(events)
        completed = np.add.reduce(completions.reshape(I, J, -1), axis=1)
        if not (heads == x0 + arrivals - completed).all():
            raise RuntimeError("event accounting broke the counting identity")


def scale_result(res: SimResult, sys: SystemInstance, sol: FluidSolution) -> ScaledTrajectories:
    """Centre the sampled trajectories at the fluid quantities and divide by
    sqrt(n); queue and idle parts follow from the head-count identities."""
    root = math.sqrt(sys.n)
    heads_hat = (res.sample_heads - sys.n * sol.class_masses[None, :]) / root
    psi_hat = (res.sample_in_service - sys.n * sol.masses[None, :, :]) / root
    servers_hat = (sys.servers - sys.n * sys.model.capacities) / root
    queued_hat = heads_hat - psi_hat.sum(axis=2)
    idle_hat = servers_hat[None, :] - psi_hat.sum(axis=1)
    return ScaledTrajectories(
        times=res.sample_times,
        heads=heads_hat,
        in_service=psi_hat,
        servers=servers_hat,
        queued=queued_hat,
        idle=idle_hat,
    )


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(base: int, n: int, rep: int) -> int:
    """Stable per-replication seed: base xor a mix of (n, rep)."""
    return (int(base) ^ _splitmix64((int(n) << 32) | (int(rep) & 0xFFFFFFFF))) & 0x7FFFFFFFFFFFFFFF


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

    Replication seeds derive from (seed, n, rep), so the aggregate is
    independent of execution order and bitwise reproducible.

    A built-in policy (``GreedyBasic``, ``NegativePathPump``, ``IdlePolicy``)
    with at least ``LOCKSTEP_MIN_REPS`` replications runs each scale's
    replications in lockstep on arrays; any other policy, or fewer
    replications, runs ``simulate`` once per replication. Both routes give
    bit-identical results.
    """
    n_list = list(n_list)
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    if reps < 1:
        raise ValueError("need at least one replication")
    _check_horizon(T, warmup)
    pol = make_policy(policy, model, sol, paths) if isinstance(policy, str) else policy
    lockstep = (type(pol) in (GreedyBasic, NegativePathPump, IdlePolicy)
                and reps >= LOCKSTEP_MIN_REPS)

    rows: list[ExperimentRow] = []
    results: list[SimResult] = []
    for n in n_list:
        sys = build_system(model, sol, n)
        seeds = [derive_seed(seed, n, rep) for rep in range(reps)]
        if lockstep:
            batch = _simulate_lockstep(sys, pol, T, seeds, warmup, sample_points)
        else:
            batch = [simulate(sys, pol, T, s, warmup=warmup, sample_points=sample_points)
                     for s in seeds]
        for rep, res in enumerate(batch):
            res.rep = rep
        results.extend(batch)
        arr = np.array([res.queue_occupancy for res in batch])
        rows.append(
            ExperimentRow(
                n=n,
                reps=reps,
                mean=float(arr.mean()),
                median=float(np.median(arr)),
                q10=float(np.quantile(arr, 0.1)),
                q90=float(np.quantile(arr, 0.9)),
            )
        )
    return ExperimentResult(rows=rows, results=results)
