"""Integer min-cost flow machinery.

Provides min-cost circulation (negative arc costs allowed), min-cost max
flow, and residual shortest-path distances. Every arc carries flow in
[0, upper]; there are no lower bounds. The solver core is successive
shortest augmenting paths with node potentials. Every solve returns the
kernel's final potentials once they pass a check that proves its flow
optimal; the residual distances are one Dijkstra over them.

A circulation solve re-optimizes from a start: a flow within the bounds
and node potentials, as left by an optimal solve of the same network under
other costs. Every arc whose reduced cost is negative is saturated and
every arc whose reduced cost is positive is emptied, which leaves every
residual arc at a nonnegative reduced cost; the kernel then ships the node
imbalances from a super-source to a super-sink, starting from those
potentials. The cold solve is the zero start: zero flow, zero potentials,
so exactly the negative-cost arcs are saturated. A start close to the
optimum leaves little to ship (Ahuja, Magnanti & Orlin, Network Flows,
1993, ch. 9).

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


def _certified(net: FlowNetwork, flow, pot, value=None) -> FlowResult:
    """The result of a solve, once its potentials leave every residual arc a
    nonnegative reduced cost; raises NegativeResidualCycle otherwise."""
    for i, (t, h, c, u, f) in enumerate(zip(net.tails, net.heads, net.costs, net.uppers, flow)):
        rc = c + pot[t] - pot[h]
        if (rc < 0 and f < u) or (rc > 0 and f > 0):
            raise NegativeResidualCycle(f"arc {i}: flow {f} of {u} at reduced cost {rc}")
    return FlowResult(tuple(flow), sum(map(mul, net.costs, flow)), tuple(pot), value)


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
    # Saturate every arc of negative reduced cost and empty every arc of
    # positive reduced cost: each residual arc then has a nonnegative reduced
    # cost, and what is left is to ship the node imbalances this leaves.
    excess = [0] * n
    for i, (t, h, c, u) in enumerate(zip(net.tails, net.heads, net.costs, net.uppers)):
        rc = c + pot[t] - pot[h]
        f = u if rc < 0 else 0 if rc > 0 else flows[i]
        flows[i] = f
        excess[h] += f
        excess[t] -= f

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

    value, kflows, kpot = _speedups_py.mcmf(
        n + 2, tails, heads, caps, costs, s_node, t_node, supply, flows, pot
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
