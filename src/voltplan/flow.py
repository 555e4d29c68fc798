"""Integer min-cost flow machinery.

Provides min-cost circulation (negative arc costs allowed), min-cost max
flow, and residual shortest-path distances. Every arc carries flow in
[0, upper]; there are no lower bounds. The solver core is successive
shortest augmenting paths with node potentials. Every solve returns the
kernel's final flow and potentials once they pass a check that proves the
flow feasible and optimal (_certified); the residual distances are one
Dijkstra over those potentials.

A circulation solve re-optimizes from a start: a flow within the bounds
and node potentials, as left by an optimal solve of the same network under
other costs. The re-pricing rule (_reprice) saturates every arc whose
reduced cost is negative and empties every arc whose reduced cost is
positive, which leaves every residual arc at a nonnegative reduced cost;
the kernel then ships the node imbalances from a super-source to a
super-sink, starting from those potentials, each Dijkstra pass stopping
once it settles the super-sink. The cold solve is the zero start: zero
flow, zero potentials, so exactly the negative-cost arcs are saturated. A
start close to the optimum leaves little to ship (Ahuja, Magnanti & Orlin,
Network Flows, 1993, ch. 9). The min-cost max-flow runs full passes, which
fix how it breaks ties between equal-cost flows.

A ResidualNetwork keeps one circulation network in the kernel's residual
arrays for a sequence of solves that change only some arcs' costs. The
first solve is the cold one, every arc re-priced from the zero start; each
later solve starts from an optimum under the other costs, where every
unchanged arc already meets the re-pricing rule, so it re-prices the
changed arcs alone. Each ships on the same arrays and takes its distances
from them.

A FlowNetwork stores its arcs as four equal-length integer columns,
tails, heads, costs and uppers, with arc i at index i of each. Builders
pass (tail, head, cost, upper) rows to network(), which transposes them
once; the solvers hand the columns to the kernel as they are, and every
flow vector is indexed by the same arc order.

The kernel lives in _speedups_py and is always called through that module
attribute, so a caller can wrap it there. It runs on Python ints, so every
solve stays exact at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from . import _speedups_py
from .errors import NegativeResidualCycle, SolverError

_speedups = None  # no second kernel; perfbench/tracer.py skips this slot


def kernel_name() -> str:
    """Name of the flow kernel, reported in benchmark records."""
    return "pure"


@dataclass(frozen=True)
class FlowNetwork:
    """Arcs as four parallel columns: arc i runs tails[i] -> heads[i] at
    cost costs[i] with capacity uppers[i]."""

    n_nodes: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    costs: tuple[int, ...]
    uppers: tuple[int, ...]

    def __post_init__(self):
        if not len(self.tails) == len(self.heads) == len(self.costs) == len(self.uppers):
            raise ValueError("arc columns differ in length")
        n = self.n_nodes
        for i, (t, h, u) in enumerate(zip(self.tails, self.heads, self.uppers)):
            if not (0 <= t < n and 0 <= h < n):
                raise ValueError(f"arc {i}: node id out of range")
            if t == h:
                raise ValueError(f"arc {i}: self loop")
            if u < 0:
                raise ValueError(f"arc {i}: negative capacity {u}")


def network(n_nodes, arcs) -> FlowNetwork:
    """Build a FlowNetwork from (tail, head, cost, upper) tuples; a row of
    any other length raises ValueError."""
    tails, heads, costs, uppers = tuple(zip(*arcs, strict=True)) or ((), (), (), ())
    return FlowNetwork(n_nodes, tails, heads, costs, uppers)


@dataclass(frozen=True)
class FlowResult:
    """A solve's flow, its cost, node potentials that certify it optimal
    (one of many, so not compared), and for a max flow its value."""

    flow: tuple[int, ...]
    objective: int
    potentials: tuple[int, ...] = field(compare=False)
    value: int | None = None


def _certified(net: FlowNetwork, flow, pot, value=None, costs=None) -> FlowResult:
    """The result of a solve on net, at costs in place of net.costs when
    given, once its flow lies within [0, upper] on every arc, else
    SolverError, and its potentials leave every residual arc a nonnegative
    reduced cost, else NegativeResidualCycle."""
    costs = net.costs if costs is None else costs
    for i, (t, h, c, u, f) in enumerate(zip(net.tails, net.heads, costs, net.uppers, flow)):
        if not 0 <= f <= u:
            raise SolverError(f"arc {i}: flow {f} outside [0, {u}]")
        rc = c + pot[t] - pot[h]
        if (rc < 0 and f < u) or (rc > 0 and f > 0):
            raise NegativeResidualCycle(f"arc {i}: flow {f} of {u} at reduced cost {rc}")
    return FlowResult(tuple(flow), sum(map(mul, costs, flow)), tuple(pot), value)


def _reprice(arcs, tails, heads, costs, uppers, flows, pot, excess):
    """Saturate each arc i in arcs whose reduced cost costs[i] +
    pot[tail] - pot[head] is negative and empty each whose reduced cost is
    positive, which leaves both of its residual arcs a nonnegative reduced
    cost; flows[i] takes the new flow and excess the inflow it adds."""
    for i in arcs:
        t, h = tails[i], heads[i]
        rc = costs[i] + pot[t] - pot[h]
        f = uppers[i] if rc < 0 else 0 if rc > 0 else flows[i]
        df = f - flows[i]
        if df:
            flows[i] = f
            excess[h] += df
            excess[t] -= df


def solve_min_cost_circulation(net: FlowNetwork, start=None) -> FlowResult:
    """Minimum-cost circulation, re-optimized from start = (flow, potentials).

    start is any per-arc flow within [0, upper] and any per-node integer
    potentials; None means zero flow and zero potentials (the cold solve).
    The closer start is to an optimum for these costs, the less is left to
    ship.
    """
    n, n_arcs = net.n_nodes, len(net.tails)
    if start is None:
        flows, pot = [0] * n_arcs, [0] * n
    else:
        flows, pot = list(start[0]), list(start[1])
        if len(flows) != n_arcs or len(pot) != n:
            raise ValueError("start flow or potentials do not match the network")
        if not all(0 <= f <= u for f, u in zip(flows, net.uppers)):
            raise ValueError("start flow outside the arc bounds")
    # re-price every arc; what is left is to ship the node imbalances
    excess = [0] * n
    if start is not None:  # the start's own imbalances
        for t, h, f in zip(net.tails, net.heads, flows):
            excess[h] += f
            excess[t] -= f
    _reprice(range(n_arcs), net.tails, net.heads, net.costs, net.uppers, flows, pot, excess)

    # super-source and super-sink priced so their arcs keep that property
    s_node, t_node = n, n + 1
    tails, heads = list(net.tails), list(net.heads)
    caps, costs = list(net.uppers), list(net.costs)
    supply = 0
    for v in range(n):
        if excess[v] > 0:
            supply += excess[v]
            tails.append(s_node)
            heads.append(v)
        elif excess[v] < 0:
            tails.append(v)
            heads.append(t_node)
        else:
            continue
        caps.append(abs(excess[v]))
        costs.append(0)
        flows.append(0)
    pot += [max(pot, default=0), min(pot, default=0)]

    # each pass stops at the super-sink: any optimal circulation gives the
    # same residual distances, so how the kernel breaks ties changes nothing
    value, kflows, kpot = _speedups_py.mcmf(
        n + 2, tails, heads, caps, costs, s_node, t_node, supply, flows, pot, True
    )
    # returning every arc to zero flow would ship the whole supply, so this
    # never fails
    if value != supply:
        raise SolverError(f"circulation kernel shipped {value} of {supply}")
    return _certified(net, kflows[:n_arcs], kpot[:n])


def solve_min_cost_max_flow(net: FlowNetwork, s: int, t: int) -> FlowResult:
    """Maximum s-t flow of minimum cost; arc costs must be nonnegative."""
    if min(net.costs, default=0) < 0:
        raise ValueError("min-cost max-flow expects nonnegative arc costs")
    # no flow exceeds the total capacity, so that limit never binds
    value, flows, pot = _speedups_py.mcmf(
        net.n_nodes, net.tails, net.heads, net.uppers, net.costs, s, t, sum(net.uppers)
    )
    return _certified(net, flows, pot, value)


def residual_shortest_paths(net: FlowNetwork, result: FlowResult, src: int):
    """Shortest distances from src in the residual network of `result`.

    Distances satisfy d(head) <= d(tail) + cost over every residual arc with
    positive residual capacity; unreachable nodes are None. The result's
    certified potentials make it one Dijkstra.
    """
    return _speedups_py.shortest_paths(
        net.n_nodes, net.tails, net.heads, net.uppers, net.costs, result.flow,
        result.potentials, src,
    )


class ResidualNetwork:
    """A circulation network kept in the kernel's residual arrays across
    solves that change only some arcs' costs.

    The arrays are the kernel's for the network's arcs on n + 2 nodes, plus
    two arc slots per node v: a super-source arc n -> v and a super-sink arc
    v -> n + 1. reoptimize restores an optimum's residual capacities and
    potentials, writes and re-prices the changed arcs, links a super arc
    for each unbalanced node, in node order, at the head of its lists, and
    ships. Linked so, every node's list holds the same edges in the same
    order as in the arrays mcmf builds when solve_min_cost_circulation
    starts from that optimum, so every pass pops the same nodes, and the
    flow and potentials are the same.
    """

    def __init__(self, net: FlowNetwork):
        """Arrays for net at zero flow, costs as in net."""
        n = net.n_nodes
        self.net = net
        self.costs = list(net.costs)  # with every change written since
        self.to, cap, cst, nxt, self.first = _speedups_py._build(
            n + 2, net.tails, net.heads, net.uppers, net.costs
        )
        for v in range(n):
            self.to += (v, n, n + 1, v)
        self.cap, self.cst, self.nxt = cap + [0] * 4 * n, cst + [0] * 4 * n, nxt + [-1] * 4 * n
        self.pot = None  # the latest reoptimize's potentials, super nodes included

    def caps(self) -> list:
        """The residual capacity of each arc's forward and backward edge, in
        arc order, as reoptimize takes them; before the first reoptimize,
        those of zero flow."""
        return self.cap[: 2 * len(self.net.tails)]

    def reoptimize(self, cap, pot, arcs, costs) -> FlowResult:
        """The optimal circulation with cost costs[j] on arc arcs[j],
        started from an optimal circulation of the network under other
        costs on those arcs alone, given by its caps() and potentials pot
        that certify it. Every other arc meets the re-pricing rule there,
        so only these arcs are re-priced. The cold solve is the zero start,
        the caps() of a new network and zero potentials, with every arc
        given: solve_min_cost_circulation(net) with the same passes. The
        arrays keep the result's residual network until the next call."""
        net = self.net
        n, m = net.n_nodes, len(net.tails)
        if len(cap) != 2 * m or len(pot) != n:
            raise ValueError("start capacities or potentials do not match the network")
        tails, heads, uppers, all_costs = net.tails, net.heads, net.uppers, self.costs
        rcap, cst, nxt = self.cap, self.cst, self.nxt
        rcap[: 2 * m] = cap
        for i, c in zip(arcs, costs):
            all_costs[i] = c
            cst[2 * i], cst[2 * i + 1] = c, -c
        flows = rcap[1 : 2 * m : 2]
        pot = list(pot)
        excess = [0] * n
        _reprice(arcs, tails, heads, all_costs, uppers, flows, pot, excess)
        for i in arcs:
            rcap[2 * i], rcap[2 * i + 1] = uppers[i] - flows[i], flows[i]

        s, t = n, n + 1
        first = self.first[:]
        supply = 0
        for v, x in enumerate(excess):
            if x > 0:
                e = 2 * m + 4 * v
                supply += x
                nxt[e], first[s] = first[s], e
                nxt[e + 1], first[v] = first[v], e + 1
            elif x < 0:
                e = 2 * m + 4 * v + 2
                nxt[e], first[v] = first[v], e
                nxt[e + 1], first[t] = first[t], e + 1
            else:
                continue
            rcap[e], rcap[e + 1] = abs(x), 0
        pot += [max(pot, default=0), min(pot, default=0)]
        # mcmf's sentinel, over the same costs and potentials
        inf = 1 + sum(map(abs, all_costs)) + pot[s] - pot[t]
        value, self.pot = _speedups_py.ship(
            n + 2, self.to, rcap, cst, nxt, first, pot, s, t, supply, inf, True
        )
        if value != supply:
            raise SolverError(f"circulation kernel shipped {value} of {supply}")
        return _certified(net, rcap[1 : 2 * m : 2], self.pot[:n], costs=all_costs)

    def distances(self, src):
        """residual_shortest_paths from src for the latest reoptimize's
        result: one Dijkstra over its potentials, on the same arrays with
        the super arcs unlinked."""
        pot, n = self.pot, self.net.n_nodes
        inf = 1 + sum(map(abs, self.costs)) + max(pot) - min(pot)
        dist = _speedups_py.distances(
            n + 2, self.to, self.cap, self.cst, self.nxt, self.first, pot, src, inf
        )
        return dist[:n]
