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
instances up to `exact_limit` modules. The search fixes modules in
topological order and keeps each unfixed module's arrival through the
fixed ones, the rest at their fastest: fixing a module raises only its
descendants' arrivals, by all-fastest paths computed once. A module's
arrival plus its delay plus its all-fastest path to t is exactly the
longest path a full recomputation would give, and the power floor charges
each unfixed module the slowest level that fits the cycle time at its
arrival. Both bounds are exact or admissible and the search order is
fixed, so it returns the same vector as a search that recomputes every
path.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import SolverError, TimingInfeasible, ValidationError
# no solve here calls residual_shortest_paths or solve_min_cost_circulation;
# they stay names of this module, which perfbench/tracer.py wraps
from .flow import (
    FlowNetwork,
    ResidualNetwork,
    network,
    residual_shortest_paths,
    solve_min_cost_circulation,
)
from .model import DPCurve, Netlist, fanin_of, fastest_finish, topological_order

# the largest module count the exact search runs on by default
EXACT_LIMIT = 16
# the node budget of one exact search; a search that runs out keeps its
# incumbent, unproved
SEARCH_CAP = 1_000_000


@dataclass(frozen=True)
class TimingGraph:
    """Split-node DAG: s, t, and one input/output node pair per module.

    Edge classes: one delay edge per module (input to output node), one wire
    edge per net (output of the source to input of the sink, fixed delay),
    and zero-delay hookups from s to every primary input and from every
    primary output to t. The cycle-time bound is kept as a constraint edge.

    The sources and sinks, the topological order of the modules and each
    module's fan-in are derived once from the wires at construction, and
    with_delays carries them over to the same wires at other delays; a
    cyclic wire set raises CyclicNetlist. An anneal derives its graphs so
    from one, for which it builds its one WarmStart.
    """

    m: int
    wires: tuple[tuple[int, int, int], ...]  # (src module, dst module, delay)
    t_cycle: int
    sources: tuple[int, ...] = field(init=False, repr=False, compare=False)  # no fan-in
    sinks: tuple[int, ...] = field(init=False, repr=False, compare=False)  # no fan-out
    order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # per module: (src module, wire index) of each incoming wire, in wire order
    fanin: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    S = 0
    T = 1

    def __post_init__(self):
        fanin = fanin_of(self.m, self.wires)
        has_out = [False] * self.m
        for src, _dst, _w in self.wires:
            has_out[src] = True
        object.__setattr__(self, "sources", tuple(i for i in range(self.m) if not fanin[i]))
        object.__setattr__(self, "sinks", tuple(i for i in range(self.m) if not has_out[i]))
        object.__setattr__(self, "order", tuple(topological_order(self.m, self.wires)))
        object.__setattr__(self, "fanin", fanin)

    def with_delays(self, delays) -> TimingGraph:
        """This graph with wire w at delay delays[w], one nonnegative integer
        per wire. The sources, sinks, order and fan-in depend only on the
        wires' ends, so they carry over instead of being derived again."""
        wires = tuple(
            (src, dst, d) for (src, dst, _), d in zip(self.wires, delays, strict=True)
        )
        tg = object.__new__(TimingGraph)
        for name, value in (
            ("m", self.m), ("wires", wires), ("t_cycle", self.t_cycle),
            ("sources", self.sources), ("sinks", self.sinks),
            ("order", self.order), ("fanin", self.fanin),
        ):
            object.__setattr__(tg, name, value)
        return tg

    @property
    def n_nodes(self) -> int:
        return 2 * self.m + 2

    def node_in(self, i: int) -> int:
        return 2 + 2 * i

    def node_out(self, i: int) -> int:
        return 3 + 2 * i


def build_timing_graph(netlist: Netlist, wire_delays) -> TimingGraph:
    """Translate a netlist into the split-node timing graph.

    wire_delays maps net index -> nonnegative integer delay, else ValidationError.
    """
    wires = []
    for idx, (src, dst) in enumerate(netlist.nets):
        d = wire_delays[idx]
        if not isinstance(d, int) or d < 0:
            raise ValidationError(f"net {idx}: wire delay must be a nonnegative integer, got {d!r}")
        wires.append((src, dst, d))
    return TimingGraph(m=netlist.m, wires=tuple(wires), t_cycle=netlist.t_cycle)


def compute_breakpoints(curve: DPCurve) -> list[Fraction]:
    """Slope magnitudes b(2)..b(k); strictly decreasing, all positive."""
    out = []
    for q in range(2, curve.k + 1):
        dp = curve.power(q - 1) - curve.power(q)
        dd = curve.delay(q) - curve.delay(q - 1)
        out.append(Fraction(dp, dd))
    return out


# The curve-dependent part of the expanded network: every module's parallel
# level arcs, the capacity scale, the huge capacity and the all-slowest power
# sum. Like _Circulation below, a namedtuple: a frozen dataclass costs about a
# millisecond at every import of this module, which perfbench's setup times.
_LevelArcs = namedtuple("_LevelArcs", "rows scale big slowest_power")


def _level_arcs(tg: TimingGraph, curves) -> _LevelArcs:
    """Finite capacities are the breakpoint slopes; scaling every capacity by
    the lcm of their denominators keeps them integral without touching the
    node potentials, which are scale-invariant."""
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
            arcs.append((u, v, -curve.delay(1), big))
            continue
        row = scaled[i]
        # slowest level first: cost -d^k cap b(k), then the slope gaps,
        # finally -d^1 with the huge remainder cap
        arcs.append((u, v, -curve.delay(k), row[k - 2]))
        for q in range(k - 1, 1, -1):
            cap = row[q - 2] - row[q - 1]
            arcs.append((u, v, -curve.delay(q), cap))
        arcs.append((u, v, -curve.delay(1), big - row[0]))
    slowest_power = sum(c.power(c.k) for c in curves)
    return _LevelArcs(tuple(arcs), scale, big, slowest_power)


def build_expanded_network(
    tg: TimingGraph, curves, level_arcs: _LevelArcs | None = None
) -> tuple[FlowNetwork, int, int]:
    """Circulation network whose optimum dualizes the assignment program,
    plus its capacity scale and the all-slowest power sum.

    level_arcs, when given, is _level_arcs(tg, curves) computed earlier.
    """
    la = _level_arcs(tg, curves) if level_arcs is None else level_arcs
    big = la.big
    arcs = list(la.rows)
    for src, dst, d in tg.wires:
        arcs.append((tg.node_out(src), tg.node_in(dst), -d, big))
    for i in tg.sources:
        arcs.append((tg.S, tg.node_in(i), 0, big))
    for i in tg.sinks:
        arcs.append((tg.node_out(i), tg.T, 0, big))
    arcs.append((tg.T, tg.S, tg.t_cycle, big))
    return network(tg.n_nodes, arcs), la.scale, la.slowest_power


class WarmStart:
    """State shared by a sequence of assign_voltages calls on graphs with
    tg's fan-in and cycle time and on one set of curves, such as one
    anneal's candidates: each anneal builds one, for its timing graph.

    It keeps the curve-dependent part of the expanded network, level_arcs,
    and the network itself as a flow.ResidualNetwork, both built with it,
    and two optimal circulations, each with the potentials that certify it
    and its residual capacities: `last`, of the latest solve, and `anchor`,
    which every later solve re-optimizes from in place. The first solve, at
    its own costs, starts from zero flow and potentials and anchors; advance()
    moves the anchor to the latest solve. The anneal advances when it
    accepts a move it solved, so the anchor is its current state and each
    candidate, one move from that state, starts one move from the optimum.
    Only the wire arcs' costs depend on the wire delays, so a solve
    restores the anchor, writes and re-prices the wire arcs alone, ships,
    and takes the residual distances on the same arrays: the flow and
    potentials are those of solve_min_cost_circulation started from the
    anchor's (flow, potentials), or from nothing for the first solve. Any optimal
    circulation gives the same residual distances, so the levels do not
    depend on where a solve started.

    The anchor's flow is a circulation of every network that differs from
    its own in the wire costs alone; its cost there bounds the optimum
    from above, and power_floor turns that into a floor on the LP bound.
    """

    def __init__(self, tg: TimingGraph, curves):
        self.tg = tg  # the graph shape every solve must have
        self.curves = tuple(curves)
        self.level_arcs = _level_arcs(tg, self.curves)
        self._kept = ResidualNetwork(build_expanded_network(tg, self.curves, self.level_arcs)[0])
        self.last = None  # _Circulation of the latest solve, or None
        self.anchor = None  # _Circulation every solve starts from, or None

    def solve(self, tg: TimingGraph):
        """The optimal circulation of tg's expanded network, as a certified
        FlowResult, and the residual distances from tg.S. Kept as the
        latest solve; without an anchor, the solve is cold and anchors."""
        lo = len(self.level_arcs.rows)
        hi = lo + len(tg.wires)
        wire_costs = [-d for _, _, d in tg.wires]
        if self.anchor is None:
            costs = list(self._kept.costs)
            costs[lo:hi] = wire_costs
            start = self._kept.caps(), [0] * tg.n_nodes, range(len(costs)), costs
        else:
            a = self.anchor
            start = a.cap, a.potentials, range(lo, hi), wire_costs
        result = self._kept.reoptimize(*start)
        dist = self._kept.distances(tg.S)
        wire_flow = result.flow[lo:hi]
        self.last = _Circulation(
            result.flow,
            result.potentials,
            wire_flow,
            result.objective - sum(map(mul, wire_flow, self._kept.costs[lo:hi])),
            self._kept.caps(),
        )
        if self.anchor is None:
            self.anchor = self.last
        return result, dist

    def advance(self):
        """Anchor every later solve at the latest one."""
        self.anchor = self.last

    def power_floor(self, delays) -> int:
        """A floor on the LP bound, and so on the in-loop power, at wire
        delays delays[w] on the anchor's network: the anchor's flow costs
        base - sum(f_w * d_w) there, at least the optimal circulation's
        cost, so slowest - that cost // scale is at most the bound
        assign_voltages reports. It equals that bound at the anchor's own
        delays, where the anchor is optimal."""
        la, a = self.level_arcs, self.anchor
        return la.slowest_power - (a.base - sum(map(mul, a.wire_flow, delays))) // la.scale


# An optimal circulation of an expanded network: its flow, the potentials
# that certify it, the flow on each wire arc, base, its cost with every
# wire arc's cost taken out, and cap, its ResidualNetwork.caps().
_Circulation = namedtuple("_Circulation", "flow potentials wire_flow base cap")


@dataclass(frozen=True)
class VoltageAssignment:
    """Levels and their power. lower_bound is the LP relaxation bound on the
    power of any feasible assignment; proved_optimal says the power is the
    discrete optimum: it meets the bound, or the exact search finished.
    search_nodes counts the branch-and-bound nodes, 0 when no search ran."""

    level: tuple[int, ...]
    total_power: int
    lower_bound: int
    proved_optimal: bool
    search_nodes: int = 0


def longest_path_for(tg: TimingGraph, delays) -> tuple[int, list[int]]:
    """Longest path given per-module integer delays; returns (length, module path)."""
    fanin, wires = tg.fanin, tg.wires
    arr_in = [0] * tg.m
    best_pred = [-1] * tg.m
    for i in tg.order:
        best = 0
        bp = -1
        for src, w in fanin[i]:
            cand = arr_in[src] + delays[src] + wires[w][2]
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


def _slowest_fit(curve: DPCurve, budget: int) -> int:
    """The slowest level whose delay fits budget; level 1 when none does."""
    q = 1
    while q < curve.k and curve.delay(q + 1) <= budget:
        q += 1
    return q


def assign_voltages(
    tg: TimingGraph,
    curves,
    *,
    exact_limit: int = EXACT_LIMIT,
    warm: WarmStart | None = None,
) -> VoltageAssignment:
    """Minimum-power level assignment meeting the cycle-time bound.

    Pipeline: expanded network -> min-cost circulation -> residual shortest
    paths from s -> potential drop per module -> largest level whose delay
    fits the drop. The relaxation objective gives a certified lower bound;
    when the rounded assignment misses it and the instance is small enough,
    a branch-and-bound search finishes the job exactly. With warm, built
    once per anneal for tg's fan-in, cycle time and curves (else ValueError),
    the circulation re-optimizes in place from warm's anchor, and warm keeps it
    as its latest solve; the result is the same as without.
    """
    curves = list(curves)
    if len(curves) != tg.m:
        raise ValueError("one curve per module required")
    if warm is not None and (warm.tg.fanin, warm.tg.t_cycle, warm.curves) != (
        tg.fanin, tg.t_cycle, tuple(curves)
    ):
        raise ValueError("warm was built for another fan-in, cycle time or curves")
    fastest = [c.delay(1) for c in curves]
    if fastest_finish(tg.order, tg.fanin, fastest, [w for _, _, w in tg.wires]) > tg.t_cycle:
        worst, path = longest_path_for(tg, fastest)
        raise TimingInfeasible(
            f"critical path {worst} exceeds cycle time {tg.t_cycle} "
            f"even at the fastest levels",
            critical_path=path,
        )

    if warm is None:
        warm = WarmStart(tg, curves)  # a fresh state solves cold
    la = warm.level_arcs
    result, dist = warm.solve(tg)
    levels = []
    for i, curve in enumerate(curves):
        din = dist[tg.node_in(i)]
        dout = dist[tg.node_out(i)]
        if din is None or dout is None:
            raise SolverError(f"module {i} unreachable in the residual network")
        levels.append(_slowest_fit(curve, din - dout))
    power = sum(c.power(q) for c, q in zip(curves, levels))

    # relaxation value: all-slowest power minus the circulation objective,
    # rescaled back from the capacity scaling and rounded up
    bound = la.slowest_power - result.objective // la.scale
    proved = power <= bound
    nodes = 0
    if not proved and tg.m <= exact_limit:
        levels, power, proved, nodes = _branch_and_bound(tg, curves, levels, power, SEARCH_CAP)

    finish = longest_path_for(tg, [c.delay(q) for c, q in zip(curves, levels)])[0]
    if finish > tg.t_cycle:
        raise SolverError(
            f"recovered levels finish at {finish}, past the cycle time {tg.t_cycle}"
        )
    return VoltageAssignment(
        level=tuple(levels),
        total_power=power,
        lower_bound=bound,
        proved_optimal=proved,
        search_nodes=nodes,
    )


def _branch_and_bound(tg, curves, inc_levels, inc_power, cap):
    """Exact search over level vectors, independent of the flow recovery.

    Modules are fixed in topological order, each trying its levels slowest
    (cheapest) first so good incumbents arrive early. Requires the
    all-fastest levels to meet the cycle time, as assign_voltages checks.

    The finish bound of a partial state is the longest path with the fixed
    modules at their levels and the rest at their fastest. Two of its terms
    are precomputed once: after[i], the all-fastest path from module i's
    output to t, and below[i], each descendant u of i with the all-fastest
    path from i's output to u's input. lb[u], the longest path into an
    unfixed module u, starts at its all-fastest arrival; fixing module i
    with output time out raises it to at least out + path for each u in
    below[i], all unfixed, since modules are fixed in topological order. A
    path whose last fixed module is v is at most v's output time plus
    after[v], a sum tested when v was fixed; a path through no fixed module
    runs all-fastest and fits by the precondition. So level q of module i
    fits exactly when lb[i] + delay(q) + after[i] <= t_cycle, the answer a
    full longest path gives.

    The power floor of the unfixed modules charges each the power of its
    slowest level that fits lb[u] + delay + after[u] <= t_cycle. Any
    completion arrives at u no earlier than lb[u], so the floor is
    admissible. A child updates the lb and floor terms of the descendants
    it raises and undoes them on return. The search order is fixed and a
    subtree is cut only when no vector in it can beat the incumbent, so
    the incumbents found, and the result, are those of a search that
    recomputes the longest path at every node.

    Returns (levels, power, finished, nodes): the best vector found, the
    incumbent when nothing beat it, whether the search ended within
    cap nodes, which proves that vector optimal, and the node count.
    """
    order, fanin, wires = tg.order, tg.fanin, tg.wires
    m = tg.m
    fastest = [c.delay(1) for c in curves]
    lb = [0] * m
    for i in order:
        lb[i] = max((lb[src] + fastest[src] + wires[w][2] for src, w in fanin[i]), default=0)
    after = [0] * m
    for i in reversed(order):
        tail = fastest[i] + after[i]
        for src, w in fanin[i]:
            after[src] = max(after[src], wires[w][2] + tail)
    below = [()] * m
    for j, i in enumerate(order):
        path = {}
        for u in order[j + 1:]:
            for src, w in fanin[u]:
                if src == i:
                    d = wires[w][2]
                elif src in path:
                    d = path[src] + fastest[src] + wires[w][2]
                else:
                    continue
                path[u] = max(path.get(u, d), d)
        below[i] = tuple(path.items())

    # per module, its delays and powers fastest first, the room its input
    # arrival and delay share, and its floor term at the current lb
    delays = [tuple(c.delay(q) for q in range(1, c.k + 1)) for c in curves]
    powers = [tuple(c.power(q) for q in range(1, c.k + 1)) for c in curves]
    room = [tg.t_cycle - a for a in after]
    term = [powers[u][bisect_right(delays[u], room[u] - lb[u]) - 1] for u in range(m)]

    best_levels = list(inc_levels)
    best_power = inc_power
    levels = [0] * m
    nodes = 0

    def dfs(j, power_so_far, floor):
        nonlocal nodes, best_power, best_levels
        if nodes > cap:
            return
        nodes += 1
        if power_so_far + floor >= best_power:
            return
        if j == m:
            best_power = power_so_far
            best_levels = list(levels)
            return
        i = order[j]
        arr_in = lb[i]
        dl, pw = delays[i], powers[i]
        floor -= term[i]
        for q in range(bisect_right(dl, room[i] - arr_in), 0, -1):
            out = arr_in + dl[q - 1]
            child_floor = floor
            raised = []
            for u, d in below[i]:
                a = out + d
                if a > lb[u]:
                    t = powers[u][bisect_right(delays[u], room[u] - a) - 1]
                    raised.append((u, lb[u], term[u]))
                    child_floor += t - term[u]
                    lb[u] = a
                    term[u] = t
            levels[i] = q
            dfs(j + 1, power_so_far + pw[q - 1], child_floor)
            for u, old_lb, old_term in raised:
                lb[u] = old_lb
                term[u] = old_term
            if nodes > cap:
                break

    dfs(0, 0, sum(term))
    return best_levels, best_power, nodes <= cap, nodes
