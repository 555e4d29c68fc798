import random
from fractions import Fraction

import pytest

from voltplan import voltage
from voltplan.errors import (
    CyclicNetlist,
    TimingInfeasible,
    TooLarge,
    ValidationError,
    VoltplanError,
)
from voltplan.model import DPCurve, ModuleBlock, build_netlist
from voltplan.voltage import (
    TimingGraph,
    assign_voltages,
    brute_force_assign,
    build_expanded_network,
    build_timing_graph,
    compute_breakpoints,
    longest_path_delay,
    longest_path_for,
)

from conftest import random_curve, random_timing_instance


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

    def test_hand_built_cycle_rejected(self):
        with pytest.raises(CyclicNetlist):
            TimingGraph(m=2, wires=((0, 1, 0), (1, 0, 0)), sources=(), sinks=(), t_cycle=5)

    def test_order_is_fifo_and_preds_follow_wire_order(self):
        tg = TimingGraph(
            m=4, wires=((2, 1, 7), (0, 1, 3), (2, 3, 0)), sources=(0, 2), sinks=(1, 3),
            t_cycle=9,
        )
        assert tg.order == (0, 2, 1, 3)
        assert tg.preds == ((), ((2, 7), (0, 3)), (), ((2, 0),))


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
        net = build_expanded_network(tg, [nl.modules[0].curve])
        by_tag = {a.tag: a for a in net.arcs}
        big = 3 + 1  # sum of finite caps + 1
        slow = by_tag[("lvl", 0, 2)]
        fast = by_tag[("lvl", 0, 1)]
        assert (slow.cost, slow.lower, slow.upper) == (-3, 0, 3)
        assert (fast.cost, fast.lower, fast.upper) == (-1, 0, big - 3)
        assert by_tag[("cycle",)].cost == 5
        assert by_tag[("from_s", 0)].cost == 0
        assert by_tag[("to_t", 0)].cost == 0

    def test_k1_degenerate(self):
        nl = netlist_of([curve((1, 4, 7))], [], 9)
        tg = build_timing_graph(nl, [])
        net = build_expanded_network(tg, [nl.modules[0].curve])
        lvl = [a for a in net.arcs if a.tag and a.tag[0] == "lvl"]
        assert len(lvl) == 1
        assert lvl[0].cost == -4

    def test_parallel_caps_telescope(self, rng):
        for _ in range(30):
            tg, curves = random_timing_instance(rng, max_m=4)
            net = build_expanded_network(tg, curves)
            big = max(a.upper for a in net.arcs)
            for i in range(tg.m):
                caps = sum(a.upper for a in net.arcs if a.tag and a.tag[:2] == ("lvl", i))
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

    def test_always_meets_cycle_time(self, rng):
        for _ in range(150):
            tg, curves = random_timing_instance(rng)
            got = assign_voltages(tg, curves)
            assert longest_path_delay(tg, curves, got) <= tg.t_cycle

    def test_potential_consistency(self, rng):
        for _ in range(100):
            tg, curves = random_timing_instance(rng)
            got = assign_voltages(tg, curves)
            arr = got.arrival
            for i in range(tg.m):
                gap = arr[tg.node_out(i)] - arr[tg.node_in(i)]
                assert gap >= curves[i].delay(got.level[i])
            for src, dst, w in tg.wires:
                assert arr[tg.node_in(dst)] - arr[tg.node_out(src)] >= w

    def test_round_down_alone_can_miss_but_refinement_fixes(self, rng):
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
            if rounded.total_power > want.total_power:
                found = True
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
            relaxed = TimingGraph(
                m=tg.m, wires=tg.wires, sources=tg.sources, sinks=tg.sinks,
                t_cycle=tg.t_cycle + rng.randint(1, 5),
            )
            assert (
                assign_voltages(relaxed, curves).total_power
                <= assign_voltages(tg, curves).total_power
            )


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
        with pytest.raises(TooLarge):
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
    """Broken solver output raises a VoltplanError that is neither a user
    error nor a timing verdict, also under python -O."""

    def _chain(self):
        # two modules in a chain; t_cycle 2 forces both to their fastest level
        c = curve((1, 1, 10), (2, 3, 4))
        return build_timing_graph(netlist_of([c, c], [(0, 1)], 2), [0]), [c, c]

    def _check(self, info):
        assert not isinstance(info.value, (ValidationError, TimingInfeasible))

    def test_unreachable_node(self, monkeypatch):
        tg, curves = self._chain()
        monkeypatch.setattr(
            voltage, "residual_shortest_paths", lambda net, res, src: [None] * tg.n_nodes
        )
        with pytest.raises(VoltplanError) as info:
            assign_voltages(tg, curves)
        self._check(info)

    def test_recovered_levels_miss_cycle_time(self, monkeypatch):
        tg, curves = self._chain()
        # a huge potential drop across every module rounds it to its slowest
        # level: input nodes are even, output nodes odd
        drops = [0 if v % 2 == 0 else -10**6 for v in range(tg.n_nodes)]
        monkeypatch.setattr(voltage, "residual_shortest_paths", lambda net, res, src: drops)
        with pytest.raises(VoltplanError) as info:
            assign_voltages(tg, curves)
        self._check(info)
