"""Acceptance criteria, one test per criterion, one printed line each.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from voltplan.anneal import AnnealConfig, anneal, modified_curves
from voltplan.bench import gen_spec, parse_blocks, parse_nets
from voltplan.flow import network, solve_min_cost_circulation
from voltplan.floorplan import initial_expr, pack, perturb
from voltplan.model import DPCurve
from voltplan.pipeline import RunConfig, run_pipeline
from voltplan.report import COLUMNS, ReportRow, emit_report
from voltplan.shifters import (
    Shifter,
    build_assignment_network,
    num_ls,
    numls_from_areas,
)
from voltplan.flow import solve_min_cost_max_flow
from voltplan.voltage import assign_voltages, build_timing_graph

from conftest import (
    DATA,
    Room,
    arcs_of,
    assign_cost,
    brute_force_assign,
    certify_optimal,
    feasible,
    fixture_netlist,
    generated_netlist,
    layered_blocks_nets,
    longest_path_delay,
    one_room,
    random_timing_instance,
    rooms_of,
)
from test_floorplan import check_tiling, rects_disjoint


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_voltage_oracle_equivalence():
    rng = random.Random(1001)
    started = time.perf_counter()
    checked = 0
    for _ in range(220):
        tg, curves = random_timing_instance(rng, max_m=8, k_choices=(2, 3, 4))
        got = assign_voltages(tg, curves)
        want = brute_force_assign(tg, curves)
        assert got.total_power == want.total_power, (tg, [c.points for c in curves])
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"{checked} instances, flow power == exhaustive power, {elapsed:.2f}s")


def _random_shifter_instance(rng):
    m = rng.randint(2, 6)
    dims = [(rng.randint(2, 7), rng.randint(2, 7)) for _ in range(m)]
    expr = initial_expr(m)
    for _ in range(8):
        expr = perturb(expr, rng.randint(1, 3), rng)
    fp = pack(expr, dims)
    from voltplan.model import derive_shifter_spec

    spec = derive_shifter_spec(rng.choice([1, 2, 4]), Fraction(1), [(1, 0, 0)])
    n_sh = rng.randint(1, 6)
    shifters = []
    for i in range(n_sh):
        a, b = rng.sample(range(m), 2)
        shifters.append(Shifter(i, i, a, b, 2))
    window = rng.choice([2, 5, 1000])
    return fp, spec, shifters, window


def _enumerate_assignment(fp, spec, shifters, window):
    rooms = rooms_of(fp)
    caps = [num_ls(fp, r, spec) for r in range(len(rooms))]
    options = []
    for s in shifters:
        opts = [None]
        for r in range(len(rooms)):
            if feasible(s, rooms[r], fp, spec, window):
                opts.append(r)
        options.append(opts)
    best = None
    for combo in itertools.product(*options):
        used = [0] * len(rooms)
        cost = count = 0
        ok = True
        for s, r in zip(shifters, combo):
            if r is None:
                continue
            used[r] += 1
            if used[r] > caps[r]:
                ok = False
                break
            cost += assign_cost(s, rooms[r], fp)
            count += 1
        if ok:
            key = (-count, cost)
            if best is None or key < best:
                best = key
    return -best[0], best[1]


def test_criterion_2_shifter_oracle_equivalence():
    rng = random.Random(2002)
    checked = 0
    while checked < 110:
        fp, spec, shifters, window = _random_shifter_instance(rng)
        net, s_node, t_node, pairs = build_assignment_network(
            shifters, fp, spec, window
        )
        res = solve_min_cost_max_flow(net, s_node, t_node)
        flow_cost = sum(net.costs[i] * res.flow[i] for i in pairs.values())
        want_count, want_cost = _enumerate_assignment(fp, spec, shifters, window)
        assert res.value == want_count
        assert flow_cost == want_cost
        checked += 1
    report(2, f"{checked} instances, flow cardinality+cost == exhaustive optimum")


def test_criterion_3_power_monotone_in_voltage_count():
    rng = random.Random(3003)
    reductions = []
    checked = 0
    while checked < 110:
        tg, curves4 = random_timing_instance(rng, max_m=8, k_choices=(4,))
        powers = {}
        for k in (2, 3, 4):
            prefix = [DPCurve(points=c.points[:k]) for c in curves4]
            powers[k] = assign_voltages(tg, prefix).total_power
        assert powers[4] <= powers[3] <= powers[2]
        reductions.append(powers[2] - powers[4])
        checked += 1
    mean_reduction = sum(reductions) / len(reductions)
    assert mean_reduction > 0
    report(
        3,
        f"{checked} instances, power(k=4) <= power(k=3) <= power(k=2) on all; "
        f"mean k=2->k=4 saving {mean_reduction:.1f}",
    )


def test_criterion_4_capacity_algorithm_conformance():
    from voltplan.model import derive_shifter_spec

    # both merge directions on bare areas (remainders 0 vs 8, corner 12)
    assert numls_from_areas(20, 28, 12, 10) == 6
    assert numls_from_areas(20 + 12, 28, 0, 10) == 5
    # realizable fixture where the merge choice changes capacity (4 vs 3)
    fp = one_room(Room(0, 0, 5, 11, 3, 5))
    spec = derive_shifter_spec(10, Fraction(5, 2), [(1, 0, 0)])
    assert num_ls(fp, 0, spec) == 4
    assert numls_from_areas(22, 18, 0, 10) == 3
    # narrow-part zeroing: area suffices, geometry does not
    narrow = one_room(Room(0, 0, 10, 10, 9, 10))
    assert num_ls(narrow, 0, derive_shifter_spec(4, Fraction(1), [(1, 0, 0)])) == 0

    rng = random.Random(4004)
    for _ in range(10_000):
        mw, mh = rng.randint(1, 25), rng.randint(1, 25)
        sw, sh = rng.randint(0, 14), rng.randint(0, 14)
        fp = one_room(Room(0, 0, mw + sw, mh + sh, mw, mh))
        spec = derive_shifter_spec(
            rng.choice([1, 2, 4, 6, 9, 12]), Fraction(1), [(1, 0, 0)]
        )
        slack = (mw + sw) * (mh + sh) - mw * mh
        assert num_ls(fp, 0, spec) <= slack // spec.area
    report(4, "merge fixtures exact (6v5 areas, 4v3 geometric); 10k rooms within slack bound")


def test_criterion_5_timing_safety_fuzz():
    netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 3, 77)
    curves = modified_curves(netlist, spec)
    tg0 = build_timing_graph(netlist, [0] * len(netlist.nets))
    evaluations = [0]

    def observer(fp, assignment, phi):
        evaluations[0] += 1
        assert longest_path_delay(tg0, curves, assignment.level) <= netlist.t_cycle

    seed = 0
    while evaluations[0] < 10_000:
        cfg = AnnealConfig(observer=observer, max_levels=60)
        anneal(netlist, spec, cfg, seed=seed)
        seed += 1
    report(5, f"{evaluations[0]} SA candidate evaluations, zero timing violations")


def test_criterion_6_geometric_validity():
    rng = random.Random(6006)
    packs = 0
    for _ in range(1_100):
        m = rng.randint(1, 14)
        dims = [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(m)]
        expr = initial_expr(m)
        for _ in range(rng.randint(0, 40)):
            expr = perturb(expr, rng.randint(1, 3), rng)
        fp = pack(expr, dims)
        check_tiling(fp)
        packs += 1

    # random rooms: placements stay inside whitespace and never collide
    from voltplan.model import derive_shifter_spec
    from voltplan.shifters import place_in_room

    checked_placements = 0
    for _ in range(600):
        mw, mh = rng.randint(2, 15), rng.randint(2, 15)
        sw, sh = rng.randint(0, 9), rng.randint(0, 9)
        room = Room(0, 0, mw + sw, mh + sh, mw, mh)
        fp = one_room(room)
        spec = derive_shifter_spec(rng.choice([1, 2, 4, 6]), Fraction(1), [(1, 0, 0)])
        want = num_ls(fp, 0, spec)
        placed, _ = place_in_room(
            fp, 0, [Shifter(i, i, 0, 1, 2) for i in range(want)], spec
        )
        rects = [r for _, r in placed]
        assert rects_disjoint([Room(x, y, w, h, w, h) for x, y, w, h in rects])
        for x, y, w, h in rects:
            assert room.x <= x and x + w <= room.x + room.w
            assert room.y <= y and y + h <= room.y + room.h
            assert not (x < room.x + mw and y < room.y + mh)
            checked_placements += 1

    # whole-pipeline placements on the 10-block fixture
    netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 4, 88)
    for seed in range(6):
        res = anneal(netlist, spec, AnnealConfig(max_levels=40), seed=seed)
        rects = [rect for _, _, rect in res.shifters.assigned]
        assert rects_disjoint(
            [Room(x, y, w, h, w, h) for x, y, w, h in rects]
        )
        for shifter, room_idx, (x, y, w, h) in res.shifters.assigned:
            room = rooms_of(res.floorplan)[room_idx]
            assert room.x <= x and x + w <= room.x + room.w
            assert room.y <= y and y + h <= room.y + room.h
            inside_module = x < room.x + room.module_w and y < room.y + room.module_h
            assert not inside_module
            assert 0 <= x and x + w <= res.floorplan.chip_w
            assert 0 <= y and y + h <= res.floorplan.chip_h
            checked_placements += 1
    report(6, f"{packs} packs tile exactly; {checked_placements} placements inside whitespace, disjoint")


def test_criterion_7_flow_certificates_and_enumeration():
    rng = random.Random(7007)
    for _ in range(150):
        n = rng.randint(2, 6)
        m = rng.randint(1, 10)
        arcs = []
        for _ in range(m):
            a, b = rng.sample(range(n), 2)
            arcs.append((a, b, rng.randint(-5, 8), rng.randint(0, 3)))
        net = network(n, arcs)
        res = solve_min_cost_circulation(net)
        pot = certify_optimal(net, res)  # raises on any negative residual cycle
        rows = arcs_of(net)
        for (t, h, c, u), f in zip(rows, res.flow):
            if f < u:
                assert c + pot[t] - pot[h] >= 0
            if f > 0:
                assert -c + pot[h] - pot[t] >= 0
        best = None
        for combo in itertools.product(*[range(u + 1) for _, _, _, u in rows]):
            balance = [0] * n
            for (t, h, _, _), f in zip(rows, combo):
                balance[t] -= f
                balance[h] += f
            if any(balance):
                continue
            cost = sum(c * f for (_, _, c, _), f in zip(rows, combo))
            best = cost if best is None else min(best, cost)
        assert res.objective == best
    report(7, "150 networks: reduced-cost certificates hold, objectives == enumeration")


def _strip_runtime(report_text):
    rows = []
    for line in report_text.splitlines():
        rows.append(",".join(line.split(",")[:-1]))
    return "\n".join(rows)


def test_criterion_8_run_determinism(tmp_path):
    blocks = DATA / "n10.blocks"
    nets = DATA / "n10.nets"
    spec_text = gen_spec(
        42,
        parse_blocks(blocks.read_text()),
        parse_nets(nets.read_text(), [b[0] for b in parse_blocks(blocks.read_text())]),
        4,
    )
    spec_path = tmp_path / "n10.spec"
    spec_path.write_text(spec_text)
    outputs = []
    for run_dir in ("a", "b"):
        cfg = RunConfig(
            blocks_path=str(blocks),
            nets_path=str(nets),
            spec_path=str(spec_path),
            seed=42,
            out_dir=str(tmp_path / run_dir),
        )
        run_pipeline(cfg)
        outputs.append(tmp_path / run_dir)
    rep_a = _strip_runtime((outputs[0] / "report.csv").read_text())
    rep_b = _strip_runtime((outputs[1] / "report.csv").read_text())
    assert rep_a == rep_b
    assert (outputs[0] / "layout.svg").read_bytes() == (outputs[1] / "layout.svg").read_bytes()
    assert (outputs[0] / "floorplan.txt").read_text() == (outputs[1] / "floorplan.txt").read_text()
    assert (outputs[0] / "shifters.txt").read_text() == (outputs[1] / "shifters.txt").read_text()
    report(8, "two seed-42 runs byte-identical (report minus runtime, SVG, serializations)")


def test_criterion_9_desk_scale_performance(tmp_path):
    netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 4, 42)
    t0 = time.perf_counter()
    anneal(netlist, spec, AnnealConfig(), seed=42)
    n10_time = time.perf_counter() - t0
    assert n10_time < 60

    nl50, sspec = generated_netlist(*layered_blocks_nets(50, 50), 4, 50)
    t0 = time.perf_counter()
    anneal(nl50, sspec, AnnealConfig(), seed=7)
    n50_time = time.perf_counter() - t0
    assert n50_time < 600
    report(9, f"n10 pipeline {n10_time:.1f}s (<60s), n50 pipeline {n50_time:.1f}s (<600s)")


def test_criterion_10_report_schema_golden():
    assert COLUMNS == (
        "dataset",
        "k",
        "power_cost",
        "wirelength_with_ls",
        "ls_number",
        "ilo_percent",
        "white_space_percent",
        "runtime_seconds",
    )
    rows = [
        ReportRow("n10", 4, 120885, 181280, 167, Fraction(17, 50),
                  Fraction(2607, 100), 414.7),
        ReportRow("demo", 2, 100, 200, 3, Fraction(1, 3), Fraction(25), 1.0),
    ]
    assert emit_report(rows) == (DATA / "report_golden.csv").read_text()
    report(10, "report columns match the metric schema; golden file byte-equal")
