import itertools
import random

import pytest

from voltplan.errors import InfeasibleLowerBounds, NegativeResidualCycle
from voltplan.flow import (
    FlowResult,
    certify_optimal,
    dump_network,
    network,
    residual_shortest_paths,
    solve_min_cost_circulation,
    solve_min_cost_max_flow,
)


def enumerate_min_circulation(net):
    """Oracle: try every integer flow vector within bounds, keep the cheapest
    conserving one. Only usable on tiny networks."""
    best = None
    ranges = [range(a.lower, a.upper + 1) for a in net.arcs]
    for combo in itertools.product(*ranges):
        balance = [0] * net.n_nodes
        for a, f in zip(net.arcs, combo):
            balance[a.tail] -= f
            balance[a.head] += f
        if any(balance):
            continue
        cost = sum(a.cost * f for a, f in zip(net.arcs, combo))
        if best is None or cost < best:
            best = cost
    return best


def check_circulation_invariants(net, result):
    balance = [0] * net.n_nodes
    for a, f in zip(net.arcs, result.flow):
        assert a.lower <= f <= a.upper
        balance[a.tail] -= f
        balance[a.head] += f
    assert all(b == 0 for b in balance)
    assert result.objective == sum(a.cost * f for a, f in zip(net.arcs, result.flow))


class TestCirculation:
    def test_nonnegative_costs_zero_flow(self):
        net = network(3, [(0, 1, 2, 0, 5), (1, 2, 1, 0, 5), (2, 0, 3, 0, 5)])
        res = solve_min_cost_circulation(net)
        assert res.objective == 0
        assert all(f == 0 for f in res.flow)

    def test_negative_cycle_saturates(self):
        net = network(3, [(0, 1, -5, 0, 2), (1, 2, 1, 0, 2), (2, 0, 1, 0, 2)])
        res = solve_min_cost_circulation(net)
        assert res.flow == (2, 2, 2)
        assert res.objective == -6

    def test_mildly_negative_cycle_stays_empty(self):
        net = network(3, [(0, 1, -1, 0, 2), (1, 2, 1, 0, 2), (2, 0, 1, 0, 2)])
        res = solve_min_cost_circulation(net)
        assert res.objective == 0

    def test_positive_lower_bounds_forced(self):
        net = network(2, [(0, 1, 3, 2, 4), (1, 0, 1, 0, 9)])
        res = solve_min_cost_circulation(net)
        assert res.flow[0] >= 2
        check_circulation_invariants(net, res)
        assert res.objective == 2 * 3 + 2 * 1

    def test_negative_lower_bound_normalized(self):
        # one arc with lower -2: the solver may run it backwards for profit
        net = network(2, [(0, 1, 4, -2, 3), (0, 1, -1, 0, 2)])
        res = solve_min_cost_circulation(net)
        check_circulation_invariants(net, res)
        # cheapest conserving flow: push 2 on the -1 arc, -2 back on the +4 arc
        assert res.flow == (-2, 2)
        assert res.objective == -10

    def test_infeasible_lower_bounds(self):
        net = network(3, [(0, 1, 1, 2, 4)])  # nothing returns to node 0
        with pytest.raises(InfeasibleLowerBounds):
            solve_min_cost_circulation(net)

    def test_matches_enumeration_on_random_small(self, rng):
        for _ in range(120):
            n = rng.randint(2, 5)
            m = rng.randint(1, 7)
            arcs = []
            for _ in range(m):
                a, b = rng.sample(range(n), 2)
                arcs.append((a, b, rng.randint(-5, 6), 0, rng.randint(0, 3)))
            net = network(n, arcs)
            res = solve_min_cost_circulation(net)
            check_circulation_invariants(net, res)
            assert res.objective == enumerate_min_circulation(net)
            certify_optimal(net, res)  # raises if a negative residual cycle exists


class TestMaxFlow:
    def test_single_arc(self):
        net = network(2, [(0, 1, 2, 0, 3)])
        res = solve_min_cost_max_flow(net, 0, 1)
        assert res.value == 3
        assert res.objective == 6

    def test_parallel_arcs_both_saturate(self):
        net = network(2, [(0, 1, 5, 0, 1), (0, 1, 1, 0, 1)])
        res = solve_min_cost_max_flow(net, 0, 1)
        assert res.value == 2
        assert res.objective == 6

    def test_bipartite_assignment(self):
        # 2 shifters x 2 rooms, costs [[1,4],[2,3]], unit caps everywhere
        arcs = [
            (0, 1, 0, 0, 1), (0, 2, 0, 0, 1),
            (1, 3, 1, 0, 1), (1, 4, 4, 0, 1),
            (2, 3, 2, 0, 1), (2, 4, 3, 0, 1),
            (3, 5, 0, 0, 1), (4, 5, 0, 0, 1),
        ]
        net = network(6, arcs)
        res = solve_min_cost_max_flow(net, 0, 5)
        assert res.value == 2
        assert res.objective == 4  # matching {s1->r1, s2->r2}

    def test_min_cost_among_max_flows_random(self, rng):
        # oracle: enumerate all integer flows, keep max value then min cost
        for _ in range(80):
            n = rng.randint(2, 5)
            m = rng.randint(1, 7)
            arcs = []
            for _ in range(m):
                a, b = rng.sample(range(n), 2)
                arcs.append((a, b, rng.randint(0, 6), 0, rng.randint(0, 3)))
            net = network(n, arcs)
            s, t = 0, n - 1
            best = None
            for combo in itertools.product(*[range(a.upper + 1) for a in net.arcs]):
                balance = [0] * n
                for a, f in zip(net.arcs, combo):
                    balance[a.tail] -= f
                    balance[a.head] += f
                ok = all(
                    b == 0 for v, b in enumerate(balance) if v not in (s, t)
                ) and balance[t] >= 0
                if not ok:
                    continue
                value = balance[t]
                cost = sum(a.cost * f for a, f in zip(net.arcs, combo))
                if best is None or (value, -cost) > (best[0], -best[1]):
                    best = (value, cost)
            res = solve_min_cost_max_flow(net, s, t)
            assert (res.value, res.objective) == best


class TestResidualShortestPaths:
    def test_plain_shortest_paths_on_empty_flow(self):
        net = network(3, [(0, 1, 4, 0, 2), (1, 2, 1, 0, 2), (0, 2, 9, 0, 2)])
        res = FlowResult(flow=(0, 0, 0), objective=0)
        dist = residual_shortest_paths(net, res, 0)
        assert dist == [0, 4, 5]

    def test_saturated_cycle_distances_certify(self):
        net = network(3, [(0, 1, -5, 0, 2), (1, 2, 1, 0, 2), (2, 0, 1, 0, 2)])
        res = solve_min_cost_circulation(net)
        dist = residual_shortest_paths(net, res, 0)
        # only reverse arcs remain: 0<-1 costs -1 backwards etc.
        assert dist[0] == 0
        for a, f in zip(net.arcs, res.flow):
            if f < a.upper and dist[a.tail] is not None:
                assert dist[a.head] <= dist[a.tail] + a.cost
            if f > a.lower and dist[a.head] is not None:
                assert dist[a.tail] <= dist[a.head] - a.cost

    def test_unreachable_flagged(self):
        net = network(3, [(0, 1, 1, 0, 1)])
        res = FlowResult(flow=(0,), objective=0)
        dist = residual_shortest_paths(net, res, 0)
        assert dist[2] is None

    def test_nonoptimal_flow_detected(self):
        net = network(3, [(0, 1, -5, 0, 2), (1, 2, 1, 0, 2), (2, 0, 1, 0, 2)])
        bad = FlowResult(flow=(0, 0, 0), objective=0)
        with pytest.raises(NegativeResidualCycle):
            residual_shortest_paths(net, bad, 0)


class TestReducedCostCertificates:
    def test_random_networks_pass_reduced_cost_check(self, rng):
        for _ in range(60):
            n = rng.randint(2, 6)
            m = rng.randint(1, 10)
            arcs = []
            for _ in range(m):
                a, b = rng.sample(range(n), 2)
                arcs.append((a, b, rng.randint(-5, 8), 0, rng.randint(0, 3)))
            net = network(n, arcs)
            res = solve_min_cost_circulation(net)
            pot = certify_optimal(net, res)
            for a, f in zip(net.arcs, res.flow):
                if f < a.upper:
                    assert a.cost + pot[a.tail] - pot[a.head] >= 0
                if f > a.lower:
                    assert -a.cost + pot[a.head] - pot[a.tail] >= 0


def test_dump_network_format():
    net = network(3, [(0, 1, -5, 0, 2, "x y"), (1, 2, 1, 0, 2)])
    text = dump_network(net)
    assert text.splitlines() == ["0 1 -5 0 2 x_y", "1 2 1 0 2 -"]
