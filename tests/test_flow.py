import itertools
import random
from operator import mul

import pytest

from voltplan import _speedups_py
from voltplan.errors import NegativeResidualCycle, SolverError
from voltplan.flow import (
    FlowNetwork,
    ResidualNetwork,
    _certified,
    network,
    residual_shortest_paths,
    solve_min_cost_circulation,
    solve_min_cost_max_flow,
)

from conftest import arcs_of, certify_optimal, residual_bellman_ford


def enumerate_min_circulation(net):
    """Oracle: try every integer flow vector within bounds, keep the cheapest
    conserving one. Only usable on tiny networks."""
    best = None
    arcs = arcs_of(net)
    ranges = [range(u + 1) for _, _, _, u in arcs]
    for combo in itertools.product(*ranges):
        balance = [0] * net.n_nodes
        for (t, h, _, _), f in zip(arcs, combo):
            balance[t] -= f
            balance[h] += f
        if any(balance):
            continue
        cost = sum(c * f for (_, _, c, _), f in zip(arcs, combo))
        if best is None or cost < best:
            best = cost
    return best


def check_circulation_invariants(net, result):
    balance = [0] * net.n_nodes
    arcs = arcs_of(net)
    for (t, h, _, u), f in zip(arcs, result.flow):
        assert 0 <= f <= u
        balance[t] -= f
        balance[h] += f
    assert all(b == 0 for b in balance)
    assert result.objective == sum(c * f for (_, _, c, _), f in zip(arcs, result.flow))


class TestNetworkValidation:
    @pytest.mark.parametrize(
        "arc, message",
        [
            ((0, 3, 1, 2), "node id out of range"),
            ((-1, 1, 1, 2), "node id out of range"),
            ((1, 1, 1, 2), "self loop"),
            ((0, 1, 1, -1), "negative capacity"),
        ],
    )
    def test_direct_construction_validates(self, arc, message):
        tails, heads, costs, uppers = zip((0, 1, 0, 1), arc)
        with pytest.raises(ValueError, match=f"arc 1: {message}"):
            FlowNetwork(3, tails, heads, costs, uppers)

    @pytest.mark.parametrize("short", ["tails", "heads", "costs", "uppers"])
    def test_unequal_column_lengths(self, short):
        cols = {"tails": (0, 1), "heads": (1, 2), "costs": (0, 0), "uppers": (1, 1)}
        cols[short] = cols[short][:1]
        with pytest.raises(ValueError, match="arc columns differ in length"):
            FlowNetwork(3, **cols)

    @pytest.mark.parametrize(
        "rows",
        [
            [(0, 1, 0)],
            [(0, 1, 0, 1, "x")],
            [(0, 1, 0, 1), (1, 2, 0, 1, "x")],
            [(0, 1, 0, 1), (1, 2, 0)],
        ],
    )
    def test_rows_other_than_four_fields_rejected(self, rows):
        with pytest.raises(ValueError):
            network(3, rows)

    def test_empty_network_solves(self):
        net = network(3, [])
        assert net == FlowNetwork(3, (), (), (), ())
        circ = solve_min_cost_circulation(net)
        assert (circ.flow, circ.objective) == ((), 0)
        assert certify_optimal(net, circ) == (0, 0, 0)
        flow = solve_min_cost_max_flow(net, 0, 2)
        assert (flow.flow, flow.objective, flow.value) == ((), 0, 0)
        assert residual_shortest_paths(net, flow, 0) == [0, None, None]


class TestCirculation:
    def test_nonnegative_costs_zero_flow(self):
        net = network(3, [(0, 1, 2, 5), (1, 2, 1, 5), (2, 0, 3, 5)])
        res = solve_min_cost_circulation(net)
        assert res.objective == 0
        assert all(f == 0 for f in res.flow)

    def test_negative_cycle_saturates(self):
        net = network(3, [(0, 1, -5, 2), (1, 2, 1, 2), (2, 0, 1, 2)])
        res = solve_min_cost_circulation(net)
        assert res.flow == (2, 2, 2)
        assert res.objective == -6

    def test_mildly_negative_cycle_stays_empty(self):
        net = network(3, [(0, 1, -1, 2), (1, 2, 1, 2), (2, 0, 1, 2)])
        res = solve_min_cost_circulation(net)
        assert res.objective == 0

    def test_short_shipping_kernel_is_a_solver_error(self, monkeypatch):
        real = _speedups_py.mcmf

        def short(*args):
            value, flows, pot = real(*args)
            return value - 1, flows, pot

        monkeypatch.setattr(_speedups_py, "mcmf", short)
        net = network(3, [(0, 1, -5, 2), (1, 2, 1, 2), (2, 0, 1, 2)])
        with pytest.raises(SolverError, match="shipped 1 of 2"):
            solve_min_cost_circulation(net)

    def test_matches_enumeration_on_random_small(self, rng):
        for _ in range(120):
            n = rng.randint(2, 5)
            m = rng.randint(1, 7)
            arcs = []
            for _ in range(m):
                a, b = rng.sample(range(n), 2)
                arcs.append((a, b, rng.randint(-5, 6), rng.randint(0, 3)))
            net = network(n, arcs)
            res = solve_min_cost_circulation(net)
            check_circulation_invariants(net, res)
            assert res.objective == enumerate_min_circulation(net)
            certify_optimal(net, res)  # raises if a negative residual cycle exists

    def test_warm_start_optimal_for_other_costs(self, rng):
        for _ in range(150):
            n = rng.randint(2, 8)
            rows = []
            for _ in range(rng.randint(1, 16)):
                a, b = rng.sample(range(n), 2)
                rows.append((a, b, rng.randint(-5, 6), rng.randint(0, 3)))
            old = network(n, rows)
            prev = solve_min_cost_circulation(old)
            start = (prev.flow, certify_optimal(old, prev))
            new = network(n, [(a, b, rng.randint(-5, 6), u) for a, b, _, u in rows])
            res = solve_min_cost_circulation(new, start)
            check_circulation_invariants(new, res)
            assert res.objective == solve_min_cost_circulation(new).objective
            if len(rows) <= 7:
                assert res.objective == enumerate_min_circulation(new)
            certify_optimal(new, res)

    def test_any_start_within_bounds_reaches_the_optimum(self, rng):
        for _ in range(120):
            n = rng.randint(2, 5)
            rows = []
            for _ in range(rng.randint(1, 7)):
                a, b = rng.sample(range(n), 2)
                rows.append((a, b, rng.randint(-5, 6), rng.randint(0, 3)))
            net = network(n, rows)
            flow = [rng.randint(0, u) for u in net.uppers]  # need not conserve
            pot = [rng.randint(-9, 9) for _ in range(n)]
            res = solve_min_cost_circulation(net, (flow, pot))
            check_circulation_invariants(net, res)
            assert res.objective == enumerate_min_circulation(net)

    def test_optimal_start_ships_nothing(self, monkeypatch):
        net = network(3, [(0, 1, -5, 2), (1, 2, 1, 2), (2, 0, 1, 2)])
        opt = solve_min_cost_circulation(net)
        limits = []
        real = _speedups_py.mcmf

        def recording(*args):
            limits.append(args[7])
            return real(*args)

        monkeypatch.setattr(_speedups_py, "mcmf", recording)
        res = solve_min_cost_circulation(net, (opt.flow, certify_optimal(net, opt)))
        assert res == opt
        assert limits == [0]

    @pytest.mark.parametrize(
        "start, message",
        [
            (((0, 0), (0, 0, 0)), "do not match"),
            (((0, 0, 0), (0, 0)), "do not match"),
            (((0, 3, 0), (0, 0, 0)), "outside the arc bounds"),
            (((0, -1, 0), (0, 0, 0)), "outside the arc bounds"),
        ],
    )
    def test_malformed_start_rejected(self, start, message):
        net = network(3, [(0, 1, -5, 2), (1, 2, 1, 2), (2, 0, 1, 2)])
        with pytest.raises(ValueError, match=message):
            solve_min_cost_circulation(net, start)


class TestMaxFlow:
    def test_single_arc(self):
        net = network(2, [(0, 1, 2, 3)])
        res = solve_min_cost_max_flow(net, 0, 1)
        assert res.value == 3
        assert res.objective == 6

    def test_parallel_arcs_both_saturate(self):
        net = network(2, [(0, 1, 5, 1), (0, 1, 1, 1)])
        res = solve_min_cost_max_flow(net, 0, 1)
        assert res.value == 2
        assert res.objective == 6

    def test_bipartite_assignment(self):
        # 2 shifters x 2 rooms, costs [[1,4],[2,3]], unit caps everywhere
        arcs = [
            (0, 1, 0, 1), (0, 2, 0, 1),
            (1, 3, 1, 1), (1, 4, 4, 1),
            (2, 3, 2, 1), (2, 4, 3, 1),
            (3, 5, 0, 1), (4, 5, 0, 1),
        ]
        net = network(6, arcs)
        res = solve_min_cost_max_flow(net, 0, 5)
        assert res.value == 2
        assert res.objective == 4  # matching {s1->r1, s2->r2}

    def test_capacities_and_costs_past_2_pow_62(self):
        big = 2**70
        net = network(3, [(0, 1, big, big), (1, 2, big, big), (0, 2, 3 * big, 1)])
        res = solve_min_cost_max_flow(net, 0, 2)
        assert res.value == big + 1
        assert res.objective == 2 * big * big + 3 * big

    def test_negative_cost_rejected(self):
        net = network(2, [(0, 1, 2, 3), (0, 1, -1, 3)])
        with pytest.raises(ValueError, match="nonnegative arc costs"):
            solve_min_cost_max_flow(net, 0, 1)

    def test_min_cost_among_max_flows_random(self, rng):
        # oracle: enumerate all integer flows, keep max value then min cost
        for _ in range(80):
            n = rng.randint(2, 5)
            m = rng.randint(1, 7)
            arcs = []
            for _ in range(m):
                a, b = rng.sample(range(n), 2)
                arcs.append((a, b, rng.randint(0, 6), rng.randint(0, 3)))
            net = network(n, arcs)
            s, t = 0, n - 1
            rows = arcs_of(net)
            best = None
            for combo in itertools.product(*[range(u + 1) for _, _, _, u in rows]):
                balance = [0] * n
                for (ta, he, _, _), f in zip(rows, combo):
                    balance[ta] -= f
                    balance[he] += f
                ok = all(
                    b == 0 for v, b in enumerate(balance) if v not in (s, t)
                ) and balance[t] >= 0
                if not ok:
                    continue
                value = balance[t]
                cost = sum(c * f for (_, _, c, _), f in zip(rows, combo))
                if best is None or (value, -cost) > (best[0], -best[1]):
                    best = (value, cost)
            res = solve_min_cost_max_flow(net, s, t)
            assert (res.value, res.objective) == best


class TestResidualShortestPaths:
    def test_plain_shortest_paths_on_empty_flow(self):
        net = network(3, [(0, 1, 4, 2), (1, 2, 1, 2), (0, 2, 9, 2)])
        res = solve_min_cost_circulation(net)
        assert res.flow == (0, 0, 0)
        dist = residual_shortest_paths(net, res, 0)
        assert dist == [0, 4, 5]

    def test_saturated_cycle_distances_certify(self):
        net = network(3, [(0, 1, -5, 2), (1, 2, 1, 2), (2, 0, 1, 2)])
        res = solve_min_cost_circulation(net)
        dist = residual_shortest_paths(net, res, 0)
        # only reverse arcs remain: 0<-1 costs -1 backwards etc.
        assert dist[0] == 0
        for (t, h, c, u), f in zip(arcs_of(net), res.flow):
            if f < u and dist[t] is not None:
                assert dist[h] <= dist[t] + c
            if f > 0 and dist[h] is not None:
                assert dist[t] <= dist[h] - c

    def test_distances_past_2_pow_62(self):
        big = 2**70
        net = network(4, [(0, 1, big, 1), (1, 2, big, 1), (2, 3, -3 * big, 1)])
        res = solve_min_cost_circulation(net)
        assert res.flow == (0, 0, 0)
        assert residual_shortest_paths(net, res, 0) == [0, big, 2 * big, -big]

    def test_unreachable_flagged(self):
        net = network(3, [(0, 1, 1, 1)])
        res = solve_min_cost_circulation(net)
        assert res.flow == (0,)
        dist = residual_shortest_paths(net, res, 0)
        assert dist[2] is None

class TestReducedCostCertificates:
    def test_random_networks_pass_reduced_cost_check(self, rng):
        for _ in range(60):
            n = rng.randint(2, 6)
            m = rng.randint(1, 10)
            arcs = []
            for _ in range(m):
                a, b = rng.sample(range(n), 2)
                arcs.append((a, b, rng.randint(-5, 8), rng.randint(0, 3)))
            net = network(n, arcs)
            res = solve_min_cost_circulation(net)
            pot = certify_optimal(net, res)
            for (t, h, c, u), f in zip(arcs_of(net), res.flow):
                if f < u:
                    assert c + pot[t] - pot[h] >= 0
                if f > 0:
                    assert -c + pot[h] - pot[t] >= 0

    @staticmethod
    def _random_network(rng, low):
        n = rng.randint(2, 6)
        arcs = []
        for _ in range(rng.randint(1, 10)):
            a, b = rng.sample(range(n), 2)
            arcs.append((a, b, rng.randint(low, 8), rng.randint(0, 3)))
        return network(n, arcs)

    @staticmethod
    def _check_certifies(net, res):
        pot = res.potentials
        assert len(pot) == net.n_nodes
        for (t, h, c, u), f in zip(arcs_of(net), res.flow):
            if f < u:
                assert c + pot[t] - pot[h] >= 0
            if f > 0:
                assert c + pot[t] - pot[h] <= 0

    def test_cold_solves_return_potentials_that_certify_them(self, rng):
        # the cold solve never reaches node 2, whose potential must still
        # leave arc 2 -> 0 a nonnegative reduced cost
        net = network(3, [(0, 1, -3, 2), (2, 0, 0, 1)])
        self._check_certifies(net, solve_min_cost_circulation(net))
        for _ in range(60):
            net = self._random_network(rng, -5)
            self._check_certifies(net, solve_min_cost_circulation(net))
            net = self._random_network(rng, 0)
            self._check_certifies(net, solve_min_cost_max_flow(net, 0, net.n_nodes - 1))

    def test_residual_distances_match_bellman_ford(self, rng):
        for _ in range(60):
            circ = self._random_network(rng, -5)
            maxf = self._random_network(rng, 0)
            for net, res in (
                (circ, solve_min_cost_circulation(circ)),
                (maxf, solve_min_cost_max_flow(maxf, 0, 1)),
            ):
                for src in range(net.n_nodes):
                    want = residual_bellman_ford(net, res.flow, src)
                    assert residual_shortest_paths(net, res, src) == want

    def test_uncertified_kernel_potentials_rejected(self, monkeypatch):
        real = _speedups_py.mcmf

        def zero_potentials(n, *args):
            value, flows, _ = real(n, *args)
            return value, flows, [0] * n

        monkeypatch.setattr(_speedups_py, "mcmf", zero_potentials)
        net = network(3, [(0, 1, -5, 2), (1, 2, 1, 2), (2, 0, 1, 2)])
        with pytest.raises(NegativeResidualCycle):
            solve_min_cost_circulation(net)
        net = network(3, [(0, 1, 5, 2), (1, 2, 1, 2), (2, 0, 1, 2)])
        with pytest.raises(NegativeResidualCycle):
            solve_min_cost_max_flow(net, 0, 2)


    @pytest.mark.parametrize("flow", [3, -1], ids=["over", "below_zero"])
    def test_flow_outside_the_bounds_rejected(self, monkeypatch, flow):
        """The certificate covers feasibility: a kernel that leaves arc 0
        (capacity 2) at one unit over its capacity, or below zero, is a
        SolverError from both solvers and from the in-place re-solve."""
        real_mcmf, real_ship = _speedups_py.mcmf, _speedups_py.ship

        def off_mcmf(*args):
            value, flows, pot = real_mcmf(*args)
            return value, [flow, *flows[1:]], pot

        def off_ship(n, to, cap, *rest):
            out = real_ship(n, to, cap, *rest)
            cap[0], cap[1] = 2 - flow, flow
            return out

        circ = network(3, [(0, 1, -5, 2), (1, 2, 1, 2), (2, 0, 1, 2)])
        kept = ResidualNetwork(circ)
        monkeypatch.setattr(_speedups_py, "mcmf", off_mcmf)
        monkeypatch.setattr(_speedups_py, "ship", off_ship)
        with pytest.raises(SolverError, match="outside"):
            solve_min_cost_circulation(circ)
        with pytest.raises(SolverError, match="outside"):
            solve_min_cost_max_flow(network(3, [(0, 1, 5, 2), (1, 2, 1, 2)]), 0, 2)
        with pytest.raises(SolverError, match="outside"):
            kept.reoptimize(kept.caps(), [0, 0, 0], range(3), circ.costs)


class TestResidualNetwork:
    """A ResidualNetwork keeps a circulation network in the kernel's arrays
    and re-optimizes in place when some arcs' costs change, re-pricing
    those arcs alone. From a certified optimum under other costs on them,
    that is solve_min_cost_circulation from the same start, which
    re-prices every arc: the same flow and the same potentials."""

    @staticmethod
    def _cold(kept):
        """The zero start, every arc re-priced."""
        net = kept.net
        return kept.reoptimize(kept.caps(), [0] * net.n_nodes, range(len(net.tails)), net.costs)

    @pytest.mark.parametrize("unit", [1, 2**60], ids=["small", "near_2_pow_60"])
    def test_repricing_the_changed_arcs_equals_repricing_every_arc(self, rng, unit):
        shipped = 0
        for _ in range(100):
            n, rows = TestStoppedPasses._random_rows(rng, unit)
            net = network(n, rows)
            kept = ResidualNetwork(net)
            first = self._cold(kept)
            cold = solve_min_cost_circulation(net)
            assert first == cold and first.potentials == cold.potentials
            # the arcs whose costs move, rewritten on every solve
            changed = sorted(rng.sample(range(len(rows)), rng.randint(1, len(rows))))
            optima = [(first, kept.caps())]
            for _ in range(6):
                start, caps = rng.choice(optima)  # any earlier optimum
                costs = list(net.costs)
                for i in changed:
                    costs[i] = rng.randint(-5, 8) * unit + rng.randint(-3, 3)
                new = network(n, [(a, b, c, u) for (a, b, _, u), c in zip(rows, costs)])
                got = kept.reoptimize(caps, start.potentials, changed, [costs[i] for i in changed])
                want = solve_min_cost_circulation(new, (start.flow, start.potentials))
                assert got == want and got.potentials == want.potentials
                check_circulation_invariants(new, got)
                certify_optimal(new, got)
                shipped += got.flow != start.flow
                for src in range(n):
                    dist = residual_shortest_paths(new, got, src)
                    assert kept.distances(src) == dist
                    assert dist == residual_bellman_ford(new, got.flow, src)
                optima.append((got, kept.caps()))
        assert shipped > 100

    def test_same_costs_ship_nothing(self, rng, monkeypatch):
        limits = []
        real = _speedups_py.ship

        def recording(*args):
            limits.append(args[9])
            return real(*args)

        monkeypatch.setattr(_speedups_py, "ship", recording)
        for _ in range(50):
            n, rows = TestStoppedPasses._random_rows(rng, 1)
            net = network(n, rows)
            kept = ResidualNetwork(net)
            opt = self._cold(kept)
            limits.clear()  # the cold solve ships through the same loop
            got = kept.reoptimize(kept.caps(), opt.potentials, range(len(rows)), net.costs)
            assert got == opt and got.potentials == opt.potentials
            assert limits == [0]

    @pytest.mark.parametrize(
        "cap, pot",
        [
            ([2, 0, 2, 0], [0, 0, 0]),
            ([2, 0, 2, 0, 2, 0, 0, 0], [0, 0, 0]),
            ([2, 0, 2, 0, 2, 0], [0, 0]),
            ([2, 0, 2, 0, 2, 0], [0, 0, 0, 0]),
        ],
    )
    def test_mismatched_start_rejected(self, cap, pot):
        """A start taken from another network, whose capacities or
        potentials have another length, is a ValueError, and the kept
        arrays are left as they were."""
        kept = ResidualNetwork(network(3, [(0, 1, -5, 2), (1, 2, 1, 2), (2, 0, 1, 2)]))
        before = kept.caps()
        with pytest.raises(ValueError, match="do not match"):
            kept.reoptimize(cap, pot, range(3), kept.net.costs)
        assert kept.caps() == before and len(kept.cap) == len(kept.to)


class TestStoppedPasses:
    """The circulation's Dijkstra passes stop once they settle the
    super-sink; the min-cost max-flow's run in full. A stopped pass leaves
    other potentials, but the same optimum, certified, with the same
    residual distances as full passes."""

    @staticmethod
    def _full_passes(net, start=None):
        real = _speedups_py.mcmf
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_speedups_py, "mcmf", lambda *args: real(*args[:10]))
            return solve_min_cost_circulation(net, start)

    @staticmethod
    def _random_rows(rng, unit, low=-5):
        n = rng.randint(2, 8)
        rows = []
        for _ in range(rng.randint(1, 16)):
            a, b = rng.sample(range(n), 2)
            jitter = rng.randint(-3, 3) if low < 0 else rng.randint(0, 3)
            rows.append((a, b, rng.randint(low, 8) * unit + jitter, rng.randint(0, 3)))
        return n, rows

    def test_circulation_passes_stop_at_the_sink(self, monkeypatch):
        stops = []
        real = _speedups_py.mcmf

        def recording(*args):
            stops.append(args[10:])
            return real(*args)

        monkeypatch.setattr(_speedups_py, "mcmf", recording)
        net = network(3, [(0, 1, -5, 2), (1, 2, 1, 2), (2, 0, 1, 2)])
        solve_min_cost_circulation(net)
        solve_min_cost_max_flow(network(2, [(0, 1, 2, 3)]), 0, 1)
        assert stops == [(True,), ()]

    @pytest.mark.parametrize("unit", [1, 2**60], ids=["small", "near_2_pow_60"])
    def test_stopped_circulation_matches_full_passes(self, rng, unit):
        moved = 0
        for _ in range(150):
            n, rows = self._random_rows(rng, unit)
            net = network(n, rows)
            prev = solve_min_cost_circulation(
                network(n, [(a, b, rng.randint(-5, 8) * unit, u) for a, b, _, u in rows])
            )
            starts = [
                None,
                (prev.flow, prev.potentials),  # an optimum under other costs
                ([rng.randint(0, u) for _, _, _, u in rows], [rng.randint(-9, 9) * unit for _ in range(n)]),
            ]
            for start in starts:
                got = solve_min_cost_circulation(net, start)
                want = self._full_passes(net, start)
                assert got.objective == want.objective
                check_circulation_invariants(net, got)
                assert _certified(net, got.flow, got.potentials) == got
                certify_optimal(net, got)
                for src in range(n):
                    dist = residual_shortest_paths(net, got, src)
                    assert dist == residual_shortest_paths(net, want, src)
                    assert dist == residual_bellman_ford(net, got.flow, src)
                moved += got.potentials != want.potentials
        assert moved > 20

    def test_stopped_kernel_matches_full_passes(self, rng):
        moved = 0
        for unit in (1, 2**60):
            for _ in range(150):
                n, rows = self._random_rows(rng, unit, low=0)
                net = network(n, rows)
                s, t = 0, n - 1
                args = (n, net.tails, net.heads, net.uppers, net.costs, s, t, sum(net.uppers))
                full = _speedups_py.mcmf(*args)
                value, flows, pot = _speedups_py.mcmf(*args, None, None, True)
                assert value == full[0]
                assert sum(map(mul, net.costs, flows)) == sum(map(mul, net.costs, full[1]))
                for (ta, he, c, u), f in zip(rows, flows):
                    rc = c + pot[ta] - pot[he]
                    assert not (rc < 0 and f < u) and not (rc > 0 and f > 0)
                moved += pot != full[2]
        assert moved > 20
