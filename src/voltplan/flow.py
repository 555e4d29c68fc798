"""Integer min-cost flow machinery.

Provides min-cost circulation (negative arc costs allowed), min-cost max
flow, and residual shortest-path distances. The solver core is successive
shortest augmenting paths with node potentials; negative-cost arcs in
circulation mode are first saturated, which leaves a nonnegative-cost
residual and turns the problem into shipping the resulting node excesses.

The kernels live in _speedups_py and are always called through that module
attribute, so a caller can wrap them there. They run on Python ints, so
every solve stays exact at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _speedups_py
from .errors import InfeasibleLowerBounds, NegativeResidualCycle

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
    lower: int
    upper: int
    tag: object = None


@dataclass(frozen=True)
class FlowNetwork:
    n_nodes: int
    arcs: tuple[Arc, ...]

    def validate(self):
        for i, a in enumerate(self.arcs):
            if not (0 <= a.tail < self.n_nodes and 0 <= a.head < self.n_nodes):
                raise ValueError(f"arc {i}: node id out of range")
            if a.tail == a.head:
                raise ValueError(f"arc {i}: self loop")
            if a.lower > a.upper:
                raise ValueError(f"arc {i}: lower {a.lower} > upper {a.upper}")
        return self


def network(n_nodes, arcs) -> FlowNetwork:
    """Build and validate a FlowNetwork from (tail, head, cost, lower, upper[, tag])."""
    out = []
    for a in arcs:
        if isinstance(a, Arc):
            out.append(a)
        else:
            out.append(Arc(*a))
    return FlowNetwork(n_nodes=n_nodes, arcs=tuple(out)).validate()


@dataclass(frozen=True)
class FlowResult:
    flow: tuple[int, ...]
    objective: int
    value: int | None = None


def dump_network(net: FlowNetwork) -> str:
    """Line-oriented debug dump: one arc per line `tail head cost lower upper tag`."""
    lines = []
    for a in net.arcs:
        tag = "-" if a.tag is None else str(a.tag).replace(" ", "_")
        lines.append(f"{a.tail} {a.head} {a.cost} {a.lower} {a.upper} {tag}")
    return "\n".join(lines) + "\n"


def _normalize_lowers(net: FlowNetwork):
    """Rewrite arcs so every lower bound is zero.

    Negative lowers become an extra reversed arc; positive lowers are shifted
    out as mandatory base flow, leaving node excesses to reconcile.
    Returns (pieces, excess, base_cost) where each piece is
    (tail, head, cost, cap, orig_idx, sign).
    """
    pieces = []
    excess = [0] * net.n_nodes
    base_cost = 0
    base = [0] * len(net.arcs)
    for i, a in enumerate(net.arcs):
        lo, up = a.lower, a.upper
        if up < 0:
            # wholly negative range: model as a reversed arc with bounds [-up, -lo]
            lo2, up2 = -up, -lo
            excess[a.tail] += lo2
            excess[a.head] -= lo2
            base_cost += -a.cost * lo2
            base[i] = -lo2
            if up2 > lo2:
                pieces.append((a.head, a.tail, -a.cost, up2 - lo2, i, -1))
            continue
        if lo < 0:
            pieces.append((a.head, a.tail, -a.cost, -lo, i, -1))
            lo = 0
        if lo > 0:
            excess[a.head] += lo
            excess[a.tail] -= lo
            base_cost += a.cost * lo
            base[i] = lo
        if up - lo > 0:
            pieces.append((a.tail, a.head, a.cost, up - lo, i, +1))
    return pieces, excess, base_cost, base


def solve_min_cost_circulation(net: FlowNetwork) -> FlowResult:
    """Minimum-cost feasible circulation; raises InfeasibleLowerBounds.

    The residual network of the returned flow contains no negative cycle;
    certify_optimal checks that independently.
    """
    net.validate()
    pieces, excess, base_cost, base = _normalize_lowers(net)

    # Saturate every negative-cost piece; the residual then has only
    # nonnegative costs and the surplus/deficit ships via min-cost flow.
    tails, heads, caps, costs = [], [], [], []
    sat = []
    for tail, head, cost, cap, idx, sign in pieces:
        if cost < 0:
            excess[head] += cap
            excess[tail] -= cap
            sat.append(cap)
            tails.append(head)
            heads.append(tail)
            caps.append(cap)
            costs.append(-cost)
        else:
            sat.append(0)
            tails.append(tail)
            heads.append(head)
            caps.append(cap)
            costs.append(cost)

    n = net.n_nodes
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

    value, kflows, _ = _speedups_py.mcmf(n + 2, tails, heads, caps, costs, s_node, t_node, supply)
    if value != supply:
        raise InfeasibleLowerBounds(
            f"lower bounds unsatisfiable: shipped {value} of {supply}"
        )

    flows = list(base)
    for j, (tail, head, cost, cap, idx, sign) in enumerate(pieces):
        if sat[j] > 0:
            used = sat[j] - kflows[j]  # kernel arc was the reverse
        else:
            used = kflows[j]
        flows[idx] += sign * used
    objective = sum(a.cost * f for a, f in zip(net.arcs, flows))

    return FlowResult(flow=tuple(flows), objective=objective)


def solve_min_cost_max_flow(net: FlowNetwork, s: int, t: int) -> FlowResult:
    """Maximum s-t flow of minimum cost; lower bounds must all be zero."""
    net.validate()
    if any(a.lower != 0 for a in net.arcs):
        raise ValueError("min-cost max-flow expects zero lower bounds")
    tails = [a.tail for a in net.arcs]
    heads = [a.head for a in net.arcs]
    caps = [a.upper for a in net.arcs]
    costs = [a.cost for a in net.arcs]
    value, flows, _ = _speedups_py.mcmf(net.n_nodes, tails, heads, caps, costs, s, t, INF)
    objective = sum(a.cost * f for a, f in zip(net.arcs, flows))
    return FlowResult(flow=tuple(flows), objective=objective, value=value)


def certify_optimal(net: FlowNetwork, result: FlowResult) -> tuple[int, ...]:
    """Potentials valid over the whole residual graph (virtual zero source).

    Bellman-Ford from a node wired to every other with cost 0; existence
    proves there is no negative residual cycle, i.e. the flow is optimal.
    """
    n = net.n_nodes + 1
    virt = net.n_nodes
    tails = [a.tail for a in net.arcs] + [virt] * net.n_nodes
    heads = [a.head for a in net.arcs] + list(range(net.n_nodes))
    caps = [a.upper for a in net.arcs] + [1] * net.n_nodes
    costs = [a.cost for a in net.arcs] + [0] * net.n_nodes
    lowers = [a.lower for a in net.arcs] + [0] * net.n_nodes
    fl = list(result.flow) + [0] * net.n_nodes
    dist, neg = _speedups_py.shortest_paths(n, tails, heads, caps, costs, fl, lowers, virt)
    if neg:
        raise NegativeResidualCycle("flow is not optimal: negative residual cycle")
    return tuple(dist[: net.n_nodes])


def residual_shortest_paths(net: FlowNetwork, result: FlowResult, src: int):
    """Shortest distances from src in the residual network of `result`.

    Distances satisfy d(head) <= d(tail) + cost over every residual arc with
    positive residual capacity; unreachable nodes are None. Raises
    NegativeResidualCycle when the flow passed in was not optimal.
    """
    tails = [a.tail for a in net.arcs]
    heads = [a.head for a in net.arcs]
    caps = [a.upper for a in net.arcs]
    costs = [a.cost for a in net.arcs]
    lowers = [a.lower for a in net.arcs]
    dist, neg = _speedups_py.shortest_paths(
        net.n_nodes, tails, heads, caps, costs, list(result.flow), lowers, src
    )
    if neg:
        raise NegativeResidualCycle("negative residual cycle reachable from source")
    return [d if d < INF else None for d in dist]
