"""Integer min-cost flow machinery.

Provides min-cost circulation (negative arc costs allowed), min-cost max
flow, and residual shortest-path distances. Every arc carries flow in
[0, upper]; there are no lower bounds. The solver core is successive
shortest augmenting paths with node potentials. In circulation mode every
negative-cost arc is first saturated, which leaves a nonnegative-cost
residual and turns the problem into shipping the resulting node excesses,
so the kernel only ever sees nonnegative costs.

The kernels live in _speedups_py and are always called through that module
attribute, so a caller can wrap them there. They run on Python ints, so
every solve stays exact at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _speedups_py
from .errors import NegativeResidualCycle, SolverError

_speedups = None  # no second kernel; perfbench/tracer.py skips this slot

INF = _speedups_py.INF


def kernel_name() -> str:
    """Name of the flow kernel, reported in benchmark records."""
    return "pure"


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    cost: int
    upper: int
    tag: object = None


@dataclass(frozen=True)
class FlowNetwork:
    n_nodes: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        for i, a in enumerate(self.arcs):
            if not (0 <= a.tail < self.n_nodes and 0 <= a.head < self.n_nodes):
                raise ValueError(f"arc {i}: node id out of range")
            if a.tail == a.head:
                raise ValueError(f"arc {i}: self loop")
            if a.upper < 0:
                raise ValueError(f"arc {i}: negative capacity {a.upper}")


def network(n_nodes, arcs) -> FlowNetwork:
    """Build a FlowNetwork from Arcs or (tail, head, cost, upper[, tag]) tuples."""
    return FlowNetwork(
        n_nodes=n_nodes,
        arcs=tuple(a if isinstance(a, Arc) else Arc(*a) for a in arcs),
    )


@dataclass(frozen=True)
class FlowResult:
    flow: tuple[int, ...]
    objective: int
    value: int | None = None


def _arrays(net: FlowNetwork):
    return (
        [a.tail for a in net.arcs],
        [a.head for a in net.arcs],
        [a.upper for a in net.arcs],
        [a.cost for a in net.arcs],
    )


def solve_min_cost_circulation(net: FlowNetwork) -> FlowResult:
    """Minimum-cost circulation.

    The residual network of the returned flow contains no negative cycle;
    certify_optimal checks that independently.
    """
    # Saturate every negative-cost arc: the kernel gets its reverse, with
    # the undo amount as flow, so every kernel cost is nonnegative and the
    # surplus/deficit ships via min-cost flow. Zero-capacity arcs are left out.
    n = net.n_nodes
    excess = [0] * n
    used = []
    tails, heads, caps, costs = [], [], [], []
    for i, a in enumerate(net.arcs):
        if a.upper == 0:
            continue
        used.append(i)
        if a.cost < 0:
            excess[a.head] += a.upper
            excess[a.tail] -= a.upper
            tails.append(a.head)
            heads.append(a.tail)
            costs.append(-a.cost)
        else:
            tails.append(a.tail)
            heads.append(a.head)
            costs.append(a.cost)
        caps.append(a.upper)

    s_node, t_node = n, n + 1
    supply = 0
    for v in range(n):
        if excess[v] > 0:
            supply += excess[v]
            tails.append(s_node)
            heads.append(v)
            caps.append(excess[v])
            costs.append(0)
        elif excess[v] < 0:
            tails.append(v)
            heads.append(t_node)
            caps.append(-excess[v])
            costs.append(0)

    value, kflows = _speedups_py.mcmf(n + 2, tails, heads, caps, costs, s_node, t_node, supply)
    # undoing every saturated arc ships the whole supply, so this never fails
    if value != supply:
        raise SolverError(f"circulation kernel shipped {value} of {supply}")

    flows = [0] * len(net.arcs)
    for j, i in enumerate(used):
        a = net.arcs[i]
        flows[i] = a.upper - kflows[j] if a.cost < 0 else kflows[j]
    objective = sum(a.cost * f for a, f in zip(net.arcs, flows))
    return FlowResult(flow=tuple(flows), objective=objective)


def solve_min_cost_max_flow(net: FlowNetwork, s: int, t: int) -> FlowResult:
    """Maximum s-t flow of minimum cost; arc costs must be nonnegative."""
    if any(a.cost < 0 for a in net.arcs):
        raise ValueError("min-cost max-flow expects nonnegative arc costs")
    tails, heads, caps, costs = _arrays(net)
    value, flows = _speedups_py.mcmf(net.n_nodes, tails, heads, caps, costs, s, t, INF)
    objective = sum(a.cost * f for a, f in zip(net.arcs, flows))
    return FlowResult(flow=tuple(flows), objective=objective, value=value)


def certify_optimal(net: FlowNetwork, result: FlowResult) -> tuple[int, ...]:
    """Potentials valid over the whole residual graph (virtual zero source).

    Bellman-Ford from a node wired to every other with cost 0; existence
    proves there is no negative residual cycle, i.e. the flow is optimal.
    """
    n = net.n_nodes
    tails, heads, caps, costs = _arrays(net)
    tails += [n] * n
    heads += range(n)
    caps += [1] * n
    costs += [0] * n
    fl = list(result.flow) + [0] * n
    dist, neg = _speedups_py.shortest_paths(n + 1, tails, heads, caps, costs, fl, n)
    if neg:
        raise NegativeResidualCycle("flow is not optimal: negative residual cycle")
    return tuple(dist[:n])


def residual_shortest_paths(net: FlowNetwork, result: FlowResult, src: int):
    """Shortest distances from src in the residual network of `result`.

    Distances satisfy d(head) <= d(tail) + cost over every residual arc with
    positive residual capacity; unreachable nodes are None. Raises
    NegativeResidualCycle when the flow passed in was not optimal.
    """
    tails, heads, caps, costs = _arrays(net)
    dist, neg = _speedups_py.shortest_paths(
        net.n_nodes, tails, heads, caps, costs, list(result.flow), src
    )
    if neg:
        raise NegativeResidualCycle("negative residual cycle reachable from source")
    return [d if d < INF else None for d in dist]
