"""Integer min-cost flow machinery.

Provides min-cost circulation (negative arc costs allowed), min-cost max
flow, and residual shortest-path distances. Every arc carries flow in
[0, upper]; there are no lower bounds. The solver core is successive
shortest augmenting paths with node potentials. In circulation mode every
negative-cost arc is first saturated, which leaves a nonnegative-cost
residual and turns the problem into shipping the resulting node excesses,
so the kernel only ever sees nonnegative costs.

A FlowNetwork stores its arcs as four equal-length integer columns,
tails, heads, costs and uppers, with arc i at index i of each. Builders
pass (tail, head, cost, upper) rows to network(), which transposes them
once; the solvers hand the columns to the kernels as they are, and every
flow vector is indexed by the same arc order.

The kernels live in _speedups_py and are always called through that module
attribute, so a caller can wrap them there. They run on Python ints, so
every solve stays exact at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import _speedups_py
from .errors import NegativeResidualCycle, SolverError

_speedups = None  # no second kernel; perfbench/tracer.py skips this slot

INF = _speedups_py.INF


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
    flow: tuple[int, ...]
    objective: int
    value: int | None = None


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
    for i, (t, h, c, u) in enumerate(zip(net.tails, net.heads, net.costs, net.uppers)):
        if u == 0:
            continue
        used.append(i)
        if c < 0:
            excess[h] += u
            excess[t] -= u
            tails.append(h)
            heads.append(t)
            costs.append(-c)
        else:
            tails.append(t)
            heads.append(h)
            costs.append(c)
        caps.append(u)

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

    flows = [0] * len(net.tails)
    for j, i in enumerate(used):
        flows[i] = net.uppers[i] - kflows[j] if net.costs[i] < 0 else kflows[j]
    objective = sum(map(mul, net.costs, flows))
    return FlowResult(flow=tuple(flows), objective=objective)


def solve_min_cost_max_flow(net: FlowNetwork, s: int, t: int) -> FlowResult:
    """Maximum s-t flow of minimum cost; arc costs must be nonnegative."""
    if min(net.costs, default=0) < 0:
        raise ValueError("min-cost max-flow expects nonnegative arc costs")
    value, flows = _speedups_py.mcmf(
        net.n_nodes, net.tails, net.heads, net.uppers, net.costs, s, t, INF
    )
    objective = sum(map(mul, net.costs, flows))
    return FlowResult(flow=tuple(flows), objective=objective, value=value)


def certify_optimal(net: FlowNetwork, result: FlowResult) -> tuple[int, ...]:
    """Potentials valid over the whole residual graph (virtual zero source).

    Bellman-Ford from a node wired to every other with cost 0; existence
    proves there is no negative residual cycle, i.e. the flow is optimal.
    """
    n = net.n_nodes
    dist, neg = _speedups_py.shortest_paths(
        n + 1,
        net.tails + (n,) * n,
        net.heads + tuple(range(n)),
        net.uppers + (1,) * n,
        net.costs + (0,) * n,
        result.flow + (0,) * n,
        n,
    )
    if neg:
        raise NegativeResidualCycle("flow is not optimal: negative residual cycle")
    return tuple(dist[:n])


def residual_shortest_paths(net: FlowNetwork, result: FlowResult, src: int):
    """Shortest distances from src in the residual network of `result`.

    Distances satisfy d(head) <= d(tail) + cost over every residual arc with
    positive residual capacity; unreachable nodes are None. Raises
    NegativeResidualCycle when the flow passed in was not optimal.
    """
    dist, neg = _speedups_py.shortest_paths(
        net.n_nodes, net.tails, net.heads, net.uppers, net.costs, result.flow, src
    )
    if neg:
        raise NegativeResidualCycle("negative residual cycle reachable from source")
    return [d if d < INF else None for d in dist]
