import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import ceil
from operator import mul
from pathlib import Path

import pytest

from voltplan import _speedups_py, voltage
from voltplan.errors import (
    CyclicNetlist,
    NegativeResidualCycle,
    SolverError,
    TimingInfeasible,
    ValidationError,
    VoltplanError,
)
from voltplan.flow import (
    FlowResult,
    ResidualNetwork,
    residual_shortest_paths,
    solve_min_cost_circulation,
)
from voltplan.model import DPCurve, ModuleBlock, build_netlist
from voltplan.voltage import (
    TimingGraph,
    WarmStart,
    assign_voltages,
    build_expanded_network,
    build_timing_graph,
    compute_breakpoints,
    fastest_finish,
    longest_path_for,
)

from conftest import (
    DATA,
    arcs_of,
    brute_force_assign,
    certify_optimal,
    longest_path_delay,
    random_curve,
    random_timing_instance,
    residual_bellman_ford,
)


def curve(*pts):
    return DPCurve(points=tuple(pts))


def netlist_of(curves, name_nets, t_cycle):
    k = curves[0].k
    mods = [
        ModuleBlock(name=f"m{i}", width=2, height=2, curve=c)
        for i, c in enumerate(curves)
    ]
    nets = [(f"m{a}", f"m{b}") for a, b in name_nets]
    return build_netlist(mods, nets, t_cycle, k)


class TestTimingGraph:
    def test_single_module(self):
        nl = netlist_of([curve((1, 1, 10), (2, 3, 4))], [], 5)
        tg = build_timing_graph(nl, [])
        assert tg.n_nodes == 4
        assert tg.sources == (0,)
        assert tg.sinks == (0,)
        assert tg.wires == ()

    def test_chain(self):
        c = curve((1, 1, 10), (2, 3, 4))
        nl = netlist_of([c, c], [(0, 1)], 9)
        tg = build_timing_graph(nl, [2])
        assert tg.wires == ((0, 1, 2),)
        assert tg.sources == (0,)
        assert tg.sinks == (1,)

    def test_diamond_counts(self):
        c = curve((1, 1, 10), (2, 3, 4))
        nl = netlist_of([c] * 4, [(0, 1), (0, 2), (1, 3), (2, 3)], 20)
        tg = build_timing_graph(nl, [0, 0, 0, 0])
        assert tg.n_nodes == 10  # 2*4 + 2
        assert len(tg.wires) == 4
        assert tg.sources == (0,)
        assert tg.sinks == (3,)

    def test_cycle_rejected(self):
        with pytest.raises(CyclicNetlist):
            # hand-built cyclic wire set
            class FakeNetlist:
                m = 2
                nets = ((0, 1), (1, 0))
                t_cycle = 5

            build_timing_graph(FakeNetlist(), [0, 0])

    @pytest.mark.parametrize("delay", [2.7, "3", -1], ids=["fraction", "string", "negative"])
    def test_wire_delay_must_be_a_nonnegative_integer(self, delay):
        c = curve((1, 1, 10), (2, 3, 4))
        nl = netlist_of([c, c], [(0, 1)], 9)
        with pytest.raises(ValidationError, match="net 0: wire delay"):
            build_timing_graph(nl, [delay])

    def test_hand_built_cycle_rejected(self):
        with pytest.raises(CyclicNetlist):
            TimingGraph(m=2, wires=((0, 1, 0), (1, 0, 0)), t_cycle=5)

    def test_order_is_fifo_and_preds_follow_wire_order(self):
        tg = TimingGraph(m=4, wires=((2, 1, 7), (0, 1, 3), (2, 3, 0)), t_cycle=9)
        assert tg.order == (0, 2, 1, 3)
        assert tg.preds == ((), ((2, 7), (0, 3)), (), ((2, 0),))
        assert tg.fanin == ((), ((2, 0), (0, 1)), (), ((2, 2),))
        assert tg.sources == (0, 2)
        assert tg.sinks == (1, 3)

    def test_with_delays_equals_the_graph_built_anew(self, rng):
        for _ in range(100):
            tg, _ = random_timing_instance(rng, max_m=12)
            delays = [rng.randint(0, 9) for _ in tg.wires]
            got = tg.with_delays(delays)
            want = TimingGraph(
                m=tg.m, wires=tuple((a, b, d) for (a, b, _), d in zip(tg.wires, delays)),
                t_cycle=tg.t_cycle,
            )
            assert got == want
            for name in ("sources", "sinks", "order", "fanin", "preds"):
                assert getattr(got, name) == getattr(want, name)
        with pytest.raises(ValueError):
            tg.with_delays(delays + [0])


class TestBreakpoints:
    def test_frozen_values(self):
        bs = compute_breakpoints(curve((1, 2, 90), (2, 4, 50), (3, 8, 30)))
        assert bs == [Fraction(20), Fraction(5)]

    def test_two_level(self):
        assert compute_breakpoints(curve((1, 1, 10), (2, 3, 4))) == [Fraction(3)]

    def test_strictly_decreasing_property(self, rng):
        for _ in range(200):
            c = random_curve(rng, rng.choice([2, 3, 4, 5]))
            bs = compute_breakpoints(c)
            assert all(a > b for a, b in zip(bs, bs[1:]))
            assert all(b > 0 for b in bs)


class TestExpandedNetwork:
    def test_spec_example_k2(self):
        nl = netlist_of([curve((1, 1, 10), (2, 3, 4))], [], 5)
        tg = build_timing_graph(nl, [])
        net, scale, slowest_power = build_expanded_network(tg, [nl.modules[0].curve])
        assert (scale, slowest_power) == (1, 4)
        rows = arcs_of(net)
        u, v = tg.node_in(0), tg.node_out(0)
        big = 3 + 1  # sum of finite caps + 1
        slow, fast = [(c, up) for t, h, c, up in rows if (t, h) == (u, v)]
        assert slow == (-3, 3)
        assert fast == (-1, big - 3)
        cost_of = {(t, h): c for t, h, c, _ in rows if (t, h) != (u, v)}
        assert cost_of[(tg.T, tg.S)] == 5
        assert cost_of[(tg.S, u)] == 0
        assert cost_of[(v, tg.T)] == 0

    def test_k1_degenerate(self):
        nl = netlist_of([curve((1, 4, 7))], [], 9)
        tg = build_timing_graph(nl, [])
        net, _, _ = build_expanded_network(tg, [nl.modules[0].curve])
        ends = (tg.node_in(0), tg.node_out(0))
        lvl = [c for t, h, c, _ in arcs_of(net) if (t, h) == ends]
        assert len(lvl) == 1
        assert lvl[0] == -4

    def test_parallel_caps_telescope(self, rng):
        for _ in range(30):
            tg, curves = random_timing_instance(rng, max_m=4)
            net, _, _ = build_expanded_network(tg, curves)
            big = max(net.uppers)
            for i in range(tg.m):
                ends = (tg.node_in(i), tg.node_out(i))
                caps = sum(up for t, h, _, up in arcs_of(net) if (t, h) == ends)
                assert caps == big


class TestAssign:
    def test_single_module_slack_abundant(self):
        c = curve((1, 1, 10), (2, 3, 4))
        nl = netlist_of([c], [], 5)
        tg = build_timing_graph(nl, [])
        got = assign_voltages(tg, [c])
        assert got.level == (2,)
        assert got.total_power == 4

    def test_single_module_forced_fast(self):
        c = curve((1, 1, 10), (2, 3, 4))
        nl = netlist_of([c], [], 2)
        tg = build_timing_graph(nl, [])
        got = assign_voltages(tg, [c])
        assert got.level == (1,)
        assert got.total_power == 10

    def test_k1_baseline(self):
        a = curve((1, 2, 9))
        b = curve((1, 3, 7))
        nl = netlist_of([a, b], [(0, 1)], 6)
        tg = build_timing_graph(nl, [1])
        got = assign_voltages(tg, [a, b])
        assert got.level == (1, 1)
        assert got.total_power == 16

    def test_infeasible_raises_with_path(self):
        c = curve((1, 5, 10), (2, 6, 4))
        nl = netlist_of([c, c], [(0, 1)], 7)
        tg = build_timing_graph(nl, [0])
        with pytest.raises(TimingInfeasible) as err:
            assign_voltages(tg, [c, c])
        assert list(err.value.critical_path) == [0, 1]

    def test_six_module_matches_exhaustive(self, rng):
        for _ in range(40):
            tg, curves = random_timing_instance(rng, max_m=6, k_choices=(4,))
            got = assign_voltages(tg, curves)
            want = brute_force_assign(tg, curves)
            assert got.total_power == want.total_power

    def test_nine_to_twelve_modules_match_exhaustive(self, rng):
        for _ in range(40):
            tg, curves = random_timing_instance(rng, max_m=12, k_choices=(2,), min_m=9)
            got = assign_voltages(tg, curves)
            want = brute_force_assign(tg, curves, bound=12)
            assert got.total_power == want.total_power
            assert got.proved_optimal
            assert got.lower_bound <= want.total_power

    def test_delays_scaled_by_2_pow_70_keep_the_levels(self, rng):
        # the flow distances then lie far above 2**62, where a fixed
        # "unreachable" sentinel once sat
        scale = 2**70
        for _ in range(60):
            tg, curves = random_timing_instance(rng)
            big_tg = TimingGraph(
                m=tg.m,
                wires=tuple((a, b, w * scale) for a, b, w in tg.wires),
                t_cycle=tg.t_cycle * scale,
            )
            big_curves = [
                DPCurve(points=tuple((q, d * scale, p) for q, d, p in c.points))
                for c in curves
            ]
            assert assign_voltages(big_tg, big_curves) == assign_voltages(tg, curves)

    def test_lower_bound_is_the_relaxation_rounded_up(self, rng):
        # rational slopes make the capacity scale exceed 1; power drops
        # past 2**70 put the objective there too
        scaled = huge = 0
        for _ in range(40):
            tg, shapes = random_timing_instance(rng)
            curves = []
            for c in shapes:
                powers = [rng.randint(0, 2**72)]
                slope = Fraction(0)
                for q in range(c.k, 1, -1):
                    gap = c.delay(q) - c.delay(q - 1)
                    drop = int(slope * gap) + rng.randint(1, 2**72)
                    slope = Fraction(drop, gap)
                    powers.insert(0, powers[0] + drop)
                points = tuple((q, c.delay(q), p) for q, p in enumerate(powers, 1))
                curves.append(DPCurve(points))
            net, scale, slowest = build_expanded_network(tg, curves)
            objective = solve_min_cost_circulation(net).objective
            got = assign_voltages(tg, curves, exact_limit=0)
            assert got.lower_bound == ceil(Fraction(slowest) - Fraction(objective, scale))
            scaled += scale > 1
            huge += abs(objective) > 2**70
        assert scaled > 10 and huge > 10

    def test_always_meets_cycle_time(self, rng):
        for _ in range(150):
            tg, curves = random_timing_instance(rng)
            got = assign_voltages(tg, curves)
            assert longest_path_delay(tg, curves, got.level) <= tg.t_cycle

    def test_round_down_alone_can_miss_but_refinement_fixes(self, rng, monkeypatch):
        # find a case where pure round-down is suboptimal; the certified
        # search must close it
        found = False
        for _ in range(300):
            tg, curves = random_timing_instance(rng, max_m=5)
            rounded = assign_voltages(tg, curves, exact_limit=0)
            exact = assign_voltages(tg, curves)
            want = brute_force_assign(tg, curves)
            assert exact.total_power == want.total_power
            assert rounded.total_power >= want.total_power
            assert exact.lower_bound == rounded.lower_bound <= want.total_power
            assert exact.proved_optimal
            assert rounded.proved_optimal == (rounded.total_power == rounded.lower_bound)
            if rounded.total_power > want.total_power:
                found = True
                assert not rounded.proved_optimal
                # a search stopped by its node cap keeps the incumbent, unproved
                monkeypatch.setattr(voltage, "SEARCH_CAP", 0)
                capped = assign_voltages(tg, curves)
                assert capped.level == rounded.level
                assert not capped.proved_optimal
                break
        assert found, "expected at least one round-down miss in 300 instances"

    def test_monotone_in_k_nested(self, rng):
        for _ in range(40):
            tg, curves4 = random_timing_instance(rng, k_choices=(4,))
            powers = {}
            for k in (2, 3, 4):
                pref = [DPCurve(points=c.points[:k]) for c in curves4]
                powers[k] = assign_voltages(tg, pref).total_power
            assert powers[4] <= powers[3] <= powers[2]

    def test_monotone_in_t_cycle(self, rng):
        for _ in range(40):
            tg, curves = random_timing_instance(rng)
            relaxed = TimingGraph(m=tg.m, wires=tg.wires, t_cycle=tg.t_cycle + rng.randint(1, 5))
            assert (
                assign_voltages(relaxed, curves).total_power
                <= assign_voltages(tg, curves).total_power
            )


def _layered_wires(rng, m):
    """Each module drives up to two of the next five, as in a layered netlist."""
    pairs = []
    for i in range(m):
        ahead = list(range(i + 1, min(m, i + 6)))
        pairs += [(i, j) for j in rng.sample(ahead, min(len(ahead), rng.randint(0, 2)))]
    return pairs


def _sequence_instance(rng, m, delay, slack):
    """Random curves, layered wire ends and a cycle time at most slack above
    the all-fastest finish at wire delay `delay`, so that some delay
    vectors leave no feasible level."""
    curves = [random_curve(rng, rng.choice((2, 3, 4))) for _ in range(m)]
    pairs = _layered_wires(rng, m)
    base = TimingGraph(m=m, wires=tuple((a, b, delay) for a, b in pairs), t_cycle=0)
    t_cycle = longest_path_for(base, [c.delay(1) for c in curves])[0] + rng.randint(0, slack)
    return curves, pairs, t_cycle


def _scaled(curve, unit):
    """curve with every delay times unit; the slopes shrink by unit, so the
    curve stays convex."""
    return DPCurve(points=tuple((q, d * unit, p) for q, d, p in curve.points))


class TestWarmStart:
    """Warm solves carry one WarmStart through a sequence of wire-delay
    vectors; every step must equal a fresh cold solve."""

    def test_sequences_match_cold_solves(self, rng, monkeypatch):
        self._check_sequences(rng, monkeypatch, 1, 12, solved=200, advanced=30)

    def test_sequences_near_2_pow_60_match_cold_solves(self, rng, monkeypatch):
        self._check_sequences(rng, monkeypatch, 2**60, 4, solved=64, advanced=8)

    @staticmethod
    def _check_sequences(rng, monkeypatch, unit, instances, solved, advanced):
        """Every step equals a fresh cold solve. Its circulation is exactly
        solve_min_cost_circulation's from warm's anchor (start_for), or
        from nothing at the first step, flow and potentials alike, with the
        cold solve's objective, and its residual distances, taken on the
        kept arrays, are the cold solve's and Bellman-Ford's. Anchors
        advance to the latest solve, or go back to earlier ones as after
        the anneal's calibration. At unit 2**60 every delay is scaled by
        it, so the arc costs lie near 2**60 and beyond. At least `solved`
        steps are solved and more than `advanced` advance the anchor."""
        in_place = []  # the distances of each solve
        distances = ResidualNetwork.distances

        def recording(kept, src):
            in_place.append(distances(kept, src))
            return in_place[-1]

        monkeypatch.setattr(ResidualNetwork, "distances", recording)
        n_solved = infeasible = warm_used = n_advanced = reset = 0
        for _ in range(instances):
            m = rng.randint(4, 12)
            curves, pairs, t_cycle = _sequence_instance(rng, m, 2, 6)
            curves = [_scaled(c, unit) for c in curves]
            warm = WarmStart()
            earlier = []  # warm.last of every feasible step so far
            for _ in range(25):
                wires = tuple((a, b, rng.randint(0, 4) * unit) for a, b in pairs)
                tg = TimingGraph(m=m, wires=wires, t_cycle=t_cycle * unit)
                try:
                    cold = assign_voltages(tg, curves, exact_limit=0)
                except TimingInfeasible:
                    before = warm.last, warm.anchor
                    with pytest.raises(TimingInfeasible):
                        assign_voltages(tg, curves, exact_limit=0, warm=warm)
                    assert warm.last is before[0] and warm.anchor is before[1]
                    infeasible += 1
                    continue
                net, _, _ = build_expanded_network(tg, curves)
                anchor = warm.anchor
                start = warm.start_for(net)
                warm_used += start is not None
                del in_place[:]
                got = assign_voltages(tg, curves, exact_limit=0, warm=warm)
                assert got == cold
                # the first solve anchors; later ones leave the anchor alone
                assert warm.anchor is (warm.last if anchor is None else anchor)
                ref = solve_min_cost_circulation(net)
                want = solve_min_cost_circulation(net, start)
                assert warm.last.flow == want.flow
                assert warm.last.potentials == want.potentials
                assert want.objective == ref.objective
                dist = residual_shortest_paths(net, ref, tg.S)
                assert residual_shortest_paths(net, want, tg.S) == dist
                assert residual_bellman_ford(net, want.flow, tg.S) == dist
                assert in_place == [dist]
                certify_optimal(net, want)
                earlier.append(warm.last)
                step = rng.random()
                if step < 0.3:  # an accepted move
                    warm.advance()
                    assert warm.anchor is warm.last
                    n_advanced += 1
                elif step < 0.45:  # back to an earlier state
                    warm.anchor = rng.choice(earlier)
                    reset += 1
                n_solved += 1
        assert n_solved >= solved and infeasible > 0
        assert n_advanced > advanced and reset > instances
        assert warm_used >= n_solved - instances

    def test_resolve_at_the_anchors_delays_ships_nothing(self, rng, monkeypatch):
        """Re-solved at its own wire delays, the anchor meets the re-pricing
        rule on every arc: the in-place solve ships nothing and returns
        the anchor's flow and potentials."""
        limits = []
        ship = _speedups_py.ship

        def recording(*args):
            limits.append(args[9])
            return ship(*args)

        monkeypatch.setattr(_speedups_py, "ship", recording)
        checked = 0
        for _ in range(30):
            m = rng.randint(4, 12)
            curves, pairs, t_cycle = _sequence_instance(rng, m, 2, 6)
            warm = WarmStart()
            graphs = [
                TimingGraph(m=m, wires=tuple((a, b, rng.randint(0, 4)) for a, b in pairs),
                            t_cycle=t_cycle)
                for _ in range(2)
            ]
            try:
                for tg in graphs:
                    assign_voltages(tg, curves, exact_limit=0, warm=warm)
            except TimingInfeasible:
                continue
            anchor = warm.anchor
            limits.clear()
            got = assign_voltages(graphs[0], curves, exact_limit=0, warm=warm)
            assert got == assign_voltages(graphs[0], curves, exact_limit=0)
            assert limits[0] == 0
            assert warm.last.flow == anchor.flow and warm.last.potentials == anchor.potentials
            checked += 1
        assert checked > 10

    def test_any_earlier_optimum_restarts_to_the_cold_solve(self, rng):
        """An anneal re-optimizes each candidate from its current state's
        circulation, which may be any earlier solve of the sequence, not
        the latest: from each of them the solve reaches the cold solve's
        objective and residual distances, and the levels of the cold
        assignment."""
        restarts = 0
        for _ in range(8):
            m = rng.randint(4, 12)
            curves, pairs, t_cycle = _sequence_instance(rng, m, 2, 6)
            warm = WarmStart()
            earlier = []  # warm.last of every feasible step so far
            for _ in range(15):
                wires = tuple((a, b, rng.randint(0, 4)) for a, b in pairs)
                tg = TimingGraph(m=m, wires=wires, t_cycle=t_cycle)
                try:
                    cold = assign_voltages(tg, curves, exact_limit=0)
                except TimingInfeasible:
                    continue
                net, _, _ = build_expanded_network(tg, curves)
                ref = solve_min_cost_circulation(net)
                dist = residual_shortest_paths(net, ref, tg.S)
                for circ in earlier:
                    res = solve_min_cost_circulation(net, (circ.flow, circ.potentials))
                    assert res.objective == ref.objective
                    assert residual_shortest_paths(net, res, tg.S) == dist
                    certify_optimal(net, res)
                    restarts += 1
                if earlier:
                    warm.anchor = rng.choice(earlier)
                assert assign_voltages(tg, curves, exact_limit=0, warm=warm) == cold
                earlier.append(warm.last)
        assert restarts > 300

    def test_state_follows_new_curves_and_graphs(self, rng):
        warm = WarmStart()
        for _ in range(30):
            tg, curves = random_timing_instance(rng)
            got = assign_voltages(tg, curves, warm=warm)
            assert got == assign_voltages(tg, curves)


class TestLongestPath:
    def test_single(self):
        c = curve((1, 1, 10), (2, 3, 4))
        nl = netlist_of([c], [], 5)
        tg = build_timing_graph(nl, [])
        assert longest_path_delay(tg, [c], (2,)) == 3

    def test_chain_additive(self):
        c = curve((1, 1, 10), (2, 3, 4))
        nl = netlist_of([c, c], [(0, 1)], 20)
        tg = build_timing_graph(nl, [4])
        assert longest_path_delay(tg, [c, c], (2, 1)) == 3 + 4 + 1

    def test_diamond_max_of_branches(self):
        a = curve((1, 1, 10), (2, 3, 4))
        nl = netlist_of([a] * 4, [(0, 1), (0, 2), (1, 3), (2, 3)], 30)
        tg = build_timing_graph(nl, [0, 5, 0, 0])
        # path through module 2 with the wire delay dominates
        assert longest_path_delay(tg, [a] * 4, (1, 2, 1, 1)) == 1 + 5 + 1 + 1

    def test_fastest_finish_is_the_all_fastest_longest_path(self, rng):
        """The finish test shared by assign_voltages and the anneal reads
        delays per wire against a fan-in taken once: on any wire delays it
        equals the longest path of the graph built with those delays."""
        for _ in range(300):
            tg, curves = random_timing_instance(rng, max_m=12)
            fastest = [c.delay(1) for c in curves]
            delays = [rng.randint(0, 9) for _ in tg.wires]
            rebuilt = TimingGraph(
                m=tg.m, wires=tuple((a, b, d) for (a, b, _), d in zip(tg.wires, delays)),
                t_cycle=tg.t_cycle,
            )
            assert fastest_finish(tg.order, tg.fanin, fastest, delays) == (
                longest_path_for(rebuilt, fastest)[0]
            )


class TestPowerFloor:
    def test_zero_delay_bound_floors_every_in_loop_power(self, rng):
        """The LP bound at zero wire delays floors every in-loop power: more
        wire delay only tightens timing, so that bound is at most the bound
        at any delays, which is at most the in-loop (rounded-down) power
        there."""
        checked = gaps = 0
        for _ in range(40):
            m = rng.randint(3, 12)
            curves = [random_curve(rng, rng.choice((2, 3, 4))) for _ in range(m)]
            pairs = _layered_wires(rng, m)
            base = TimingGraph(m=m, wires=tuple((a, b, 0) for a, b in pairs), t_cycle=0)
            fastest = longest_path_for(base, [c.delay(1) for c in curves])[0]
            slowest = longest_path_for(base, [c.delay(c.k) for c in curves])[0]
            t_cycle = rng.randint(fastest, slowest + 8)
            zero = TimingGraph(m=m, wires=base.wires, t_cycle=t_cycle)
            floor = assign_voltages(zero, curves, exact_limit=0).lower_bound
            for _ in range(25):
                wires = tuple((a, b, rng.randint(0, 6)) for a, b in pairs)
                try:
                    got = assign_voltages(
                        TimingGraph(m=m, wires=wires, t_cycle=t_cycle), curves, exact_limit=0
                    )
                except TimingInfeasible:
                    continue
                assert floor <= got.lower_bound <= got.total_power
                checked += 1
                gaps += floor < got.lower_bound
        assert checked > 500 and gaps > 50

    def test_anchor_floor_bounds_every_in_loop_power(self, rng):
        """The anneal floors a candidate's power by the cost, at the
        candidate's wire delays d, of its current state's circulation,
        optimal at delays d_f: that floor is at most the LP bound at d,
        which is at most the in-loop power there, and at d = d_f it is the
        bound itself."""
        checked = tight = 0
        for _ in range(40):
            m = rng.randint(3, 12)
            curves, pairs, t_cycle = _sequence_instance(rng, m, 3, 12)
            for _ in range(15):
                d_f = [rng.randint(0, 6) for _ in pairs]
                d = [rng.randint(0, 6) for _ in pairs]
                warm = WarmStart()
                try:
                    at_f = assign_voltages(
                        TimingGraph(m=m, wires=tuple(
                            (a, b, w) for (a, b), w in zip(pairs, d_f)
                        ), t_cycle=t_cycle),
                        curves, exact_limit=0, warm=warm,
                    )
                    got = assign_voltages(
                        TimingGraph(m=m, wires=tuple(
                            (a, b, w) for (a, b), w in zip(pairs, d)
                        ), t_cycle=t_cycle),
                        curves, exact_limit=0,
                    )
                except TimingInfeasible:
                    continue
                assert warm.power_floor(d_f) == at_f.lower_bound
                floor = warm.power_floor(d)
                assert floor <= got.lower_bound <= got.total_power
                checked += 1
                tight += floor == got.lower_bound
        assert checked > 300 and 0 < tight < checked


def bnb_reference(tg, curves, inc_levels, inc_power, search_cap):
    """The exact search with a full longest-path recomputation at every node:
    the reference the incremental voltage._branch_and_bound must match.
    Returns (levels, power, finished, nodes)."""
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
        return longest_path_for(tg, delays)[0]

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
    return best_levels, best_power, nodes <= search_cap, nodes


class TestBranchAndBound:
    """The incremental search against the full-recompute reference, from the
    rounded incumbent and from a beatable all-fastest one."""

    @staticmethod
    def _incumbents(tg, curves):
        rounded = assign_voltages(tg, curves, exact_limit=0)
        fast_power = sum(c.power(1) for c in curves) + 1
        return [(list(rounded.level), rounded.total_power), ([1] * tg.m, fast_power)]

    def test_matches_reference(self, rng):
        # under a node cap the incremental search visits a subset of the
        # reference's nodes in the same order, so where the reference
        # finishes the results are identical, and elsewhere no worse
        cap = 2000
        identical = 0
        for _ in range(1200):
            tg, curves = random_timing_instance(rng, max_m=12, min_m=2)
            finished = 0
            for levels, power in self._incumbents(tg, curves):
                got = voltage._branch_and_bound(tg, curves, levels, power, cap)
                want = bnb_reference(tg, curves, levels, power, cap)
                assert 1 <= got[3] <= want[3]
                if want[2]:
                    assert got[:3] == want[:3]
                    finished += 1
                else:
                    assert got[1] <= want[1]
            identical += finished == 2
        assert identical >= 1000

    def test_zero_cap_keeps_incumbent_unfinished(self, rng):
        for _ in range(50):
            tg, curves = random_timing_instance(rng, max_m=12, min_m=2)
            for levels, power in self._incumbents(tg, curves):
                got = voltage._branch_and_bound(tg, curves, levels, power, 0)
                assert got == bnb_reference(tg, curves, levels, power, 0)
                assert got[:3] == (levels, power, False)

    def test_search_nodes_reported(self, rng):
        for _ in range(100):
            tg, curves = random_timing_instance(rng, max_m=8)
            rounded = assign_voltages(tg, curves, exact_limit=0)
            exact = assign_voltages(tg, curves)
            assert rounded.search_nodes == 0
            assert brute_force_assign(tg, curves).search_nodes == 0
            assert (exact.search_nodes > 0) == (not rounded.proved_optimal)


class TestBruteForce:
    def test_two_levels_picks_cheaper(self):
        c = curve((1, 1, 10), (2, 3, 4))
        nl = netlist_of([c], [], 5)
        tg = build_timing_graph(nl, [])
        assert brute_force_assign(tg, [c]).level == (2,)

    def test_mixed_assignment_found(self):
        # chain a->b->c where only a mixed vector is optimal
        ca = curve((1, 1, 10), (2, 3, 4))
        cb = curve((1, 1, 20), (2, 2, 12))
        cc = curve((1, 1, 10), (2, 3, 4))
        nl = netlist_of([ca, cb, cc], [(0, 1), (1, 2)], 5)
        tg = build_timing_graph(nl, [0, 0])
        got = brute_force_assign(tg, [ca, cb, cc])
        assert got.level == (1, 2, 1)
        assert got.total_power == 32

    def test_lexicographic_tie_break(self):
        ca = curve((1, 1, 6), (2, 2, 4))
        cb = curve((1, 1, 8), (2, 2, 6))
        nl = netlist_of([ca, cb], [(0, 1)], 3)
        tg = build_timing_graph(nl, [0])
        got = brute_force_assign(tg, [ca, cb])
        assert got.total_power == 12
        assert got.level == (1, 2)  # ties resolve to the smallest vector

    def test_too_large(self):
        c = curve((1, 1, 10), (2, 3, 4))
        nl = netlist_of([c] * 9, [], 5)
        tg = build_timing_graph(nl, [])
        with pytest.raises(ValueError, match="oracle bound"):
            brute_force_assign(tg, [c] * 9)

    def test_oracle_beats_sampled_feasible(self, rng):
        for _ in range(40):
            tg, curves = random_timing_instance(rng, max_m=5)
            want = brute_force_assign(tg, curves)
            for _ in range(20):
                levels = tuple(rng.randint(1, c.k) for c in curves)
                if longest_path_for(tg, [c.delay(q) for c, q in zip(curves, levels)])[0] <= tg.t_cycle:
                    power = sum(c.power(q) for c, q in zip(curves, levels))
                    assert want.total_power <= power


class TestInternalErrors:
    """Broken solver output raises a SolverError that is neither a user
    error nor a timing verdict, also under python -O."""

    def _chain(self):
        # two modules in a chain; t_cycle 2 forces both to their fastest level
        c = curve((1, 1, 10), (2, 3, 4))
        return build_timing_graph(netlist_of([c, c], [(0, 1)], 2), [0]), [c, c]

    def _check(self, info):
        assert isinstance(info.value, SolverError)
        assert not isinstance(info.value, (ValidationError, TimingInfeasible))

    def test_solver_failures_share_one_class(self):
        assert issubclass(NegativeResidualCycle, SolverError)
        assert not issubclass(NegativeResidualCycle, (ValidationError, TimingInfeasible))

    def test_unreachable_node(self, monkeypatch):
        tg, curves = self._chain()
        monkeypatch.setattr(ResidualNetwork, "distances", lambda kept, src: [None] * tg.n_nodes)
        with pytest.raises(VoltplanError) as info:
            assign_voltages(tg, curves)
        self._check(info)

    def test_recovered_levels_miss_cycle_time(self, monkeypatch):
        tg, curves = self._chain()
        # a huge potential drop across every module rounds it to its slowest
        # level: input nodes are even, output nodes odd
        drops = [0 if v % 2 == 0 else -10**6 for v in range(tg.n_nodes)]
        monkeypatch.setattr(ResidualNetwork, "distances", lambda kept, src: drops)
        with pytest.raises(VoltplanError) as info:
            assign_voltages(tg, curves)
        self._check(info)

    def test_uncertified_kernel_exits_4_under_python_o(self, tmp_path):
        # python -O strips assert statements; the certificate check must
        # still turn a kernel's wrong potentials into a solver error
        script = textwrap.dedent("""
            import sys
            from voltplan import _speedups_py, cli

            blocks, nets, spec, out = sys.argv[1:]
            files = ["--blocks", blocks, "--nets", nets]
            if cli.main(["gen-spec", *files, "--seed", "1", "-o", spec]) != 0:
                sys.exit("gen-spec failed")
            real_mcmf, real_ship = _speedups_py.mcmf, _speedups_py.ship

            def zero_potentials(n, *args):
                value, flows, _ = real_mcmf(n, *args)
                return value, flows, [0] * n

            def ship_zero_potentials(n, *args):
                return real_ship(n, *args)[0], [0] * n

            # the voltage solves ship in place, the shifter flow through mcmf
            _speedups_py.mcmf = zero_potentials
            _speedups_py.ship = ship_zero_potentials
            sys.exit(cli.main(["run", *files, "--spec", spec, "--seed", "1", "--out", out]))
        """)
        src = Path(voltage.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        ))
        argv = [DATA / "n10.blocks", DATA / "n10.nets", tmp_path / "n10.spec", tmp_path / "r"]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("internal solver error: ")
        assert "Traceback" not in proc.stderr
