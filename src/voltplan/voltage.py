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
topological order and tests each level in O(fan-in): all-fastest arrivals
and all-fastest paths to t, computed once, make the arrival at the module
plus its delay plus its path to t exactly the longest path a full
recomputation would give. Its power floor charges each unfixed module the
slowest level that fits the cycle time at the all-fastest arrival. Both
bounds are exact or admissible and the search order is fixed, so it
returns the same vector as a search that recomputes every path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import SolverError, TimingInfeasible, ValidationError
from .flow import FlowNetwork, network, residual_shortest_paths, solve_min_cost_circulation
from .model import DPCurve, Netlist, topological_order

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
    module's fan-in are derived once from the wires at construction; a
    cyclic wire set raises CyclicNetlist.
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
    # per module: (src module, wire delay) of each incoming wire, in wire order
    preds: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    S = 0
    T = 1

    def __post_init__(self):
        order = topological_order(self.m, self.wires)
        fanin = fanin_of(self.m, self.wires)
        has_out = [False] * self.m
        for src, _dst, _w in self.wires:
            has_out[src] = True
        preds = tuple(tuple((src, self.wires[w][2]) for src, w in row) for row in fanin)
        object.__setattr__(self, "sources", tuple(i for i in range(self.m) if not fanin[i]))
        object.__setattr__(self, "sinks", tuple(i for i in range(self.m) if not has_out[i]))
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "fanin", fanin)
        object.__setattr__(self, "preds", preds)

    @property
    def n_nodes(self) -> int:
        return 2 * self.m + 2

    def node_in(self, i: int) -> int:
        return 2 + 2 * i

    def node_out(self, i: int) -> int:
        return 3 + 2 * i


def fanin_of(m, wires) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per module, (src module, wire index) of each incoming wire, in wire
    order; wires are (src, dst, ...) rows, a netlist's nets among them."""
    fanin = [[] for _ in range(m)]
    for w, (src, dst, *_) in enumerate(wires):
        fanin[dst].append((src, w))
    return tuple(map(tuple, fanin))


def fastest_finish(order, fanin, fastest, wire_delays) -> int:
    """The longest s-to-t path with module i at delay fastest[i], its
    fastest level: no level vector finishes sooner. order is a topological
    order of the modules, fanin is fanin_of the wires and wire_delays[w] is
    wire w's delay. With nonnegative delays the latest module output is a
    sink's, so the longest path is the latest output."""
    out = [0] * len(fastest)
    finish = 0
    for i in order:
        arrive = 0
        for src, w in fanin[i]:
            at = out[src] + wire_delays[w]
            if at > arrive:
                arrive = at
        out[i] = done = arrive + fastest[i]
        if done > finish:
            finish = done
    return finish


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


@dataclass(frozen=True)
class _LevelArcs:
    """The curve-dependent part of the expanded network: every module's
    parallel level arcs, the capacity scale, the huge capacity and the
    all-slowest power sum."""

    rows: tuple[tuple[int, int, int, int], ...]
    scale: int
    big: int
    slowest_power: int


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
    """State shared by a sequence of assign_voltages calls on one netlist
    and one set of curves, such as one anneal's candidates.

    It keeps the curve-dependent part of the expanded network, built once,
    and the last optimal circulation with the potentials that certify it,
    so the next solve re-optimizes from that circulation instead of solving
    cold. Any optimal circulation gives the same residual distances, so the
    levels do not depend on where a solve started.
    """

    def __init__(self):
        self._curves = None
        self._level_arcs = None
        self._ends = None  # (tails, heads) of the network last solved
        self.start = None  # (flow, potentials) of that solve, or None

    def level_arcs(self, tg: TimingGraph, curves) -> _LevelArcs:
        curves = tuple(curves)
        if curves != self._curves:
            self._curves, self._level_arcs = curves, _level_arcs(tg, curves)
            self.start = None
        return self._level_arcs

    def start_for(self, net: FlowNetwork):
        """The last (flow, potentials) if net has the same arcs, else None."""
        if self._ends != (net.tails, net.heads):
            return None
        return self.start

    def remember(self, net: FlowNetwork, result):
        self._ends = (net.tails, net.heads)
        self.start = (result.flow, result.potentials)


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
    a branch-and-bound search finishes the job exactly. With warm, the
    circulation re-optimizes from the one warm kept from its last solve;
    the result is the same as without.
    """
    curves = list(curves)
    if len(curves) != tg.m:
        raise ValueError("one curve per module required")
    fastest = [c.delay(1) for c in curves]
    if fastest_finish(tg.order, tg.fanin, fastest, [w for _, _, w in tg.wires]) > tg.t_cycle:
        worst, path = longest_path_for(tg, fastest)
        raise TimingInfeasible(
            f"critical path {worst} exceeds cycle time {tg.t_cycle} "
            f"even at the fastest levels",
            critical_path=path,
        )

    if warm is None:
        warm = WarmStart()  # a fresh state solves cold
    net, scale, slowest_power = build_expanded_network(tg, curves, warm.level_arcs(tg, curves))
    result = solve_min_cost_circulation(net, warm.start_for(net))
    dist = residual_shortest_paths(net, result, tg.S)
    warm.remember(net, result)
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
    bound = slowest_power - result.objective // scale
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
    modules at their levels and the rest at their fastest. Its terms are
    precomputed once: head[i], module i's all-fastest arrival, and after[i],
    the all-fastest path from i's output to t. A path whose last fixed
    module is u is at most arr_out[u] + after[u], a sum tested when u was
    fixed; a path through no fixed module runs all-fastest and fits by the
    precondition. So level q of module i fits exactly when arr_in +
    delay(q) + after[i] <= t_cycle, an O(fan-in) test with the same answer
    as a full longest path.

    The power floor of the unfixed modules charges each the power of its
    slowest level that fits head[i] + delay + after[i] <= t_cycle: any
    completion's arrival at i is at least head[i], so the floor is
    admissible and at least as tight as every module at its slowest level.
    The search order is fixed and a subtree is cut only when no vector in
    it can beat the incumbent, so the incumbents found, and the result, are
    those of a search that recomputes the longest path at every node.

    Returns (levels, power, finished, nodes): the best vector found, the
    incumbent when nothing beat it, whether the search ended within
    cap nodes, which proves that vector optimal, and the node count.
    """
    order = tg.order
    preds = tg.preds
    m = tg.m
    t_cycle = tg.t_cycle
    fastest = [c.delay(1) for c in curves]
    head = [0] * m
    for i in order:
        head[i] = max((head[src] + fastest[src] + w for src, w in preds[i]), default=0)
    after = [0] * m
    for i in reversed(order):
        tail = fastest[i] + after[i]
        for src, w in preds[i]:
            after[src] = max(after[src], w + tail)

    # per module, (level, delay, power) slowest first, from the slowest
    # level any completion can afford
    choices = []
    for i, c in enumerate(curves):
        top = _slowest_fit(c, t_cycle - head[i] - after[i])
        choices.append(tuple((q, c.delay(q), c.power(q)) for q in range(top, 0, -1)))
    floor = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        floor[j] = floor[j + 1] + choices[order[j]][0][2]

    best_levels = list(inc_levels)
    best_power = inc_power
    levels = [0] * m
    arr_out = [0] * m
    nodes = 0

    def dfs(j, power_so_far):
        nonlocal nodes, best_power, best_levels
        if nodes > cap:
            return
        nodes += 1
        if power_so_far + floor[j] >= best_power:
            return
        if j == m:
            best_power = power_so_far
            best_levels = list(levels)
            return
        i = order[j]
        arr_in = max((arr_out[src] + w for src, w in preds[i]), default=0)
        budget = t_cycle - after[i]
        for q, delay, power in choices[i]:
            if arr_in + delay <= budget:
                levels[i] = q
                arr_out[i] = arr_in + delay
                dfs(j + 1, power_so_far + power)
            if nodes > cap:
                break

    dfs(0, 0)
    return best_levels, best_power, nodes <= cap, nodes
