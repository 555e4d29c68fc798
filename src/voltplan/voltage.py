"""Voltage-level assignment over a split-node timing graph.

The netlist becomes a DAG with per-module input/output nodes; choosing one
delay point per module subject to a cycle-time bound is the dual of a
min-cost circulation on an expanded network whose parallel arcs carry the
curve's slope magnitudes as capacities. Residual shortest-path distances
from the source recover node potentials, and the potential drop across each
module picks its level.

Rounding the drop down to the nearest delay point is not always the exact
discrete optimum (the discrete time-cost tradeoff is NP-hard in general),
so the relaxation value is kept as a lower bound: when the recovered power
does not meet it, an independent branch-and-bound search closes the gap for
instances up to `exact_limit` modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm

import numpy as np

from .errors import TimingInfeasible, TooLarge, VoltplanError
from .flow import FlowNetwork, network, residual_shortest_paths, solve_min_cost_circulation
from .model import DPCurve, Netlist, topological_order


@dataclass(frozen=True)
class TimingGraph:
    """Split-node DAG: s, t, and one input/output node pair per module.

    Edge classes: one delay edge per module (input to output node), one wire
    edge per net (output of the source to input of the sink, fixed delay),
    and zero-delay hookups from s to every primary input and from every
    primary output to t. The cycle-time bound is kept as a constraint edge.

    The topological order of the modules and each module's fan-in are
    derived once at construction; a cyclic wire set raises CyclicNetlist.
    """

    m: int
    wires: tuple[tuple[int, int, int], ...]  # (src module, dst module, delay)
    sources: tuple[int, ...]  # modules with no fan-in
    sinks: tuple[int, ...]  # modules with no fan-out
    t_cycle: int
    order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # per module: (src module, wire delay) of each incoming wire, in wire order
    preds: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    S = 0
    T = 1

    def __post_init__(self):
        order = topological_order(self.m, self.wires)
        preds = [[] for _ in range(self.m)]
        for src, dst, w in self.wires:
            preds[dst].append((src, w))
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "preds", tuple(map(tuple, preds)))

    @property
    def n_nodes(self) -> int:
        return 2 * self.m + 2

    def node_in(self, i: int) -> int:
        return 2 + 2 * i

    def node_out(self, i: int) -> int:
        return 3 + 2 * i


def build_timing_graph(netlist: Netlist, wire_delays) -> TimingGraph:
    """Translate a netlist into the split-node timing graph.

    wire_delays maps net index -> nonnegative integer delay.
    """
    m = netlist.m
    has_in = [False] * m
    has_out = [False] * m
    wires = []
    for idx, (src, dst) in enumerate(netlist.nets):
        d = int(wire_delays[idx])
        if d < 0:
            raise ValueError(f"net {idx}: negative wire delay")
        wires.append((src, dst, d))
        has_out[src] = True
        has_in[dst] = True
    return TimingGraph(
        m=m,
        wires=tuple(wires),
        sources=tuple(i for i in range(m) if not has_in[i]),
        sinks=tuple(i for i in range(m) if not has_out[i]),
        t_cycle=netlist.t_cycle,
    )


def compute_breakpoints(curve: DPCurve) -> list[Fraction]:
    """Slope magnitudes b(2)..b(k); strictly decreasing, all positive."""
    out = []
    for q in range(2, curve.k + 1):
        dp = curve.power(q - 1) - curve.power(q)
        dd = curve.delay(q) - curve.delay(q - 1)
        out.append(Fraction(dp, dd))
    return out


def _expanded(tg: TimingGraph, curves):
    """Expanded network plus its capacity scale and the all-slowest power sum.

    Finite capacities are the breakpoint slopes; scaling every capacity by
    the lcm of their denominators keeps them integral without touching the
    node potentials, which are scale-invariant.
    """
    breaks = [compute_breakpoints(c) for c in curves]
    scale = 1
    for bs in breaks:
        for b in bs:
            scale = lcm(scale, b.denominator)
    finite_total = 0
    scaled = []
    for bs in breaks:
        row = [int(b * scale) for b in bs]
        scaled.append(row)
        if row:
            finite_total += row[0]  # per-module finite caps telescope to b(2)
    big = finite_total + 1

    arcs = []
    for i, curve in enumerate(curves):
        u, v = tg.node_in(i), tg.node_out(i)
        k = curve.k
        if k == 1:
            arcs.append((u, v, -curve.delay(1), 0, big, ("lvl", i, 1)))
            continue
        row = scaled[i]
        # slowest level first: cost -d^k cap b(k), then the slope gaps,
        # finally -d^1 with the huge remainder cap
        arcs.append((u, v, -curve.delay(k), 0, row[k - 2], ("lvl", i, k)))
        for q in range(k - 1, 1, -1):
            cap = row[q - 2] - row[q - 1]
            arcs.append((u, v, -curve.delay(q), 0, cap, ("lvl", i, q)))
        arcs.append((u, v, -curve.delay(1), 0, big - row[0], ("lvl", i, 1)))
    for idx, (src, dst, d) in enumerate(tg.wires):
        arcs.append((tg.node_out(src), tg.node_in(dst), -d, 0, big, ("wire", idx)))
    for i in tg.sources:
        arcs.append((tg.S, tg.node_in(i), 0, 0, big, ("from_s", i)))
    for i in tg.sinks:
        arcs.append((tg.node_out(i), tg.T, 0, 0, big, ("to_t", i)))
    arcs.append((tg.T, tg.S, tg.t_cycle, 0, big, ("cycle",)))
    net = network(tg.n_nodes, arcs)
    slowest_power = sum(c.power(c.k) for c in curves)
    return net, scale, slowest_power


def build_expanded_network(tg: TimingGraph, curves) -> FlowNetwork:
    """Circulation network whose optimum dualizes the assignment program."""
    net, _, _ = _expanded(tg, curves)
    return net


@dataclass(frozen=True)
class VoltageAssignment:
    level: tuple[int, ...]
    total_power: int
    arrival: tuple[int, ...]  # per timing-graph node


def longest_path_delay(tg: TimingGraph, curves, assignment) -> int:
    """Exact longest s-to-t path under the assigned module delays."""
    levels = assignment.level if isinstance(assignment, VoltageAssignment) else assignment
    return longest_path_for(tg, _delays_for(curves, levels))[0]


def longest_path_for(tg: TimingGraph, delays) -> tuple[int, list[int]]:
    """Longest path given per-module integer delays; returns (length, module path)."""
    preds = tg.preds
    arr_in = [0] * tg.m
    best_pred = [-1] * tg.m
    for i in tg.order:
        best = 0
        bp = -1
        for src, w in preds[i]:
            cand = arr_in[src] + delays[src] + w
            if cand > best:
                best = cand
                bp = src
        arr_in[i] = best
        best_pred[i] = bp
    finish = 0
    last = -1
    for i in tg.sinks:
        cand = arr_in[i] + delays[i]
        if cand > finish:
            finish = cand
            last = i
    path = []
    v = last
    while v != -1:
        path.append(v)
        v = best_pred[v]
    path.reverse()
    return finish, path


def _delays_for(curves, levels):
    return [c.delay(q) for c, q in zip(curves, levels)]


def assign_voltages(
    tg: TimingGraph,
    curves,
    *,
    exact_limit: int = 16,
    search_cap: int = 1_000_000,
) -> VoltageAssignment:
    """Minimum-power level assignment meeting the cycle-time bound.

    Pipeline: expanded network -> min-cost circulation -> residual shortest
    paths from s -> potential drop per module -> largest level whose delay
    fits the drop. The relaxation objective gives a certified lower bound;
    when the rounded assignment misses it and the instance is small enough,
    a branch-and-bound search finishes the job exactly.
    """
    curves = list(curves)
    if len(curves) != tg.m:
        raise ValueError("one curve per module required")
    fastest = [c.delay(1) for c in curves]
    worst, path = longest_path_for(tg, fastest)
    if worst > tg.t_cycle:
        raise TimingInfeasible(
            f"critical path {worst} exceeds cycle time {tg.t_cycle} "
            f"even at the fastest levels",
            critical_path=path,
        )

    net, scale, slowest_power = _expanded(tg, curves)
    result = solve_min_cost_circulation(net)
    dist = residual_shortest_paths(net, result, tg.S)
    levels = []
    for i, curve in enumerate(curves):
        din = dist[tg.node_in(i)]
        dout = dist[tg.node_out(i)]
        if din is None or dout is None:
            raise VoltplanError(f"module {i} unreachable in the residual network")
        drop = din - dout
        q = 1
        while q < curve.k and curve.delay(q + 1) <= drop:
            q += 1
        levels.append(q)
    power = sum(c.power(q) for c, q in zip(curves, levels))

    # relaxation value: all-slowest power minus the circulation objective,
    # rescaled back from the capacity scaling
    bound = ceil(Fraction(slowest_power) - Fraction(result.objective, scale))
    if power > bound and tg.m <= exact_limit:
        better = _branch_and_bound(tg, curves, levels, power, search_cap)
        if better is not None:
            levels, power = better

    arrival = tuple(-(dist[v] if dist[v] is not None else 0) for v in range(tg.n_nodes))
    if not _arrivals_consistent(tg, curves, levels, arrival):
        arrival = _earliest_arrivals(tg, _delays_for(curves, levels))
    finish = longest_path_for(tg, _delays_for(curves, levels))[0]
    if finish > tg.t_cycle:
        raise VoltplanError(
            f"recovered levels finish at {finish}, past the cycle time {tg.t_cycle}"
        )
    return VoltageAssignment(level=tuple(levels), total_power=power, arrival=arrival)


def _arrivals_consistent(tg, curves, levels, arrival):
    for i in range(tg.m):
        if arrival[tg.node_out(i)] - arrival[tg.node_in(i)] < curves[i].delay(levels[i]):
            return False
    for src, dst, w in tg.wires:
        if arrival[tg.node_in(dst)] - arrival[tg.node_out(src)] < w:
            return False
    return arrival[tg.T] - arrival[tg.S] <= tg.t_cycle


def _earliest_arrivals(tg, delays):
    arr = [0] * tg.n_nodes
    for i in tg.order:
        ai = 0
        for src, w in tg.preds[i]:
            ai = max(ai, arr[tg.node_out(src)] + w)
        arr[tg.node_in(i)] = ai
        arr[tg.node_out(i)] = ai + delays[i]
    arr[tg.T] = max((arr[tg.node_out(i)] for i in tg.sinks), default=0)
    return tuple(arr)


def _branch_and_bound(tg, curves, inc_levels, inc_power, search_cap):
    """Exact search over level vectors, independent of the flow recovery.

    Modules are fixed in topological order; partial states prune on the
    optimistic finish time (remaining modules at their fastest) and on the
    optimistic power (remaining modules at their cheapest). Levels are tried
    cheap-first so good incumbents arrive early. Returns (levels, power) or
    None if no improvement was found within the node budget.
    """
    order = tg.order
    m = tg.m
    min_power_suffix = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        curve = curves[order[j]]
        min_power_suffix[j] = min_power_suffix[j + 1] + curve.power(curve.k)
    fastest = [c.delay(1) for c in curves]

    best_levels = list(inc_levels)
    best_power = inc_power
    levels = [0] * m
    delays = list(fastest)
    nodes = 0

    def finish_bound():
        # longest path with chosen delays for fixed modules, fastest for the rest
        length, _ = longest_path_for(tg, delays)
        return length

    def dfs(j, power_so_far):
        nonlocal nodes, best_power, best_levels
        if nodes > search_cap:
            return
        nodes += 1
        if power_so_far + min_power_suffix[j] >= best_power:
            return
        if j == m:
            if finish_bound() <= tg.t_cycle:
                best_power = power_so_far
                best_levels = list(levels)
            return
        i = order[j]
        c = curves[i]
        for q in range(c.k, 0, -1):
            levels[i] = q
            delays[i] = c.delay(q)
            if finish_bound() <= tg.t_cycle:
                dfs(j + 1, power_so_far + c.power(q))
            if nodes > search_cap:
                break
        levels[i] = 0
        delays[i] = fastest[i]

    dfs(0, 0)
    if best_power < inc_power:
        return best_levels, best_power
    return None


def brute_force_assign(tg: TimingGraph, curves, *, bound: int = 8) -> VoltageAssignment:
    """Exhaustive oracle: enumerate every level vector, keep the cheapest
    feasible one, ties broken by the lexicographically smallest vector.

    Vectorized over numpy so 4^8 instances stay fast; raises TooLarge above
    `bound` modules and TimingInfeasible when nothing fits the cycle time.
    """
    m = tg.m
    if m > bound:
        raise TooLarge(f"{m} modules exceeds the oracle bound {bound}")
    curves = list(curves)
    ks = [c.k for c in curves]
    total = 1
    for k in ks:
        total *= k
    # combo index c enumerates level vectors lexicographically with module 0
    # as the most significant digit
    level_of = []
    radix = total
    for i in range(m):
        radix //= ks[i]
        idx = (np.arange(total) // radix) % ks[i]
        level_of.append(idx)
    delays = []
    powers = np.zeros(total, dtype=np.int64)
    for i, c in enumerate(curves):
        dl = np.asarray(c.delays, dtype=np.int64)
        pw = np.asarray(c.powers, dtype=np.int64)
        delays.append(dl[level_of[i]])
        powers += pw[level_of[i]]

    arr_in = [None] * m
    for i in tg.order:
        ai = np.zeros(total, dtype=np.int64)
        for src, w in tg.preds[i]:
            np.maximum(ai, arr_in[src] + delays[src] + w, out=ai)
        arr_in[i] = ai
    finish = np.zeros(total, dtype=np.int64)
    for i in tg.sinks:
        np.maximum(finish, arr_in[i] + delays[i], out=finish)
    feasible = finish <= tg.t_cycle
    if not feasible.any():
        raise TimingInfeasible("no level vector meets the cycle time")
    masked = np.where(feasible, powers, np.iinfo(np.int64).max)
    best = int(np.argmin(masked))  # first minimum == lexicographically smallest
    levels = tuple(int(level_of[i][best]) + 1 for i in range(m))
    power = int(powers[best])
    arrival = _earliest_arrivals(tg, _delays_for(curves, levels))
    return VoltageAssignment(level=levels, total_power=power, arrival=arrival)
