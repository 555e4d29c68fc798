import importlib
import itertools
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from voltplan import shifters as shifters_mod
from voltplan.cli import main
from voltplan.floorplan import Floorplan, Room, initial_expr, pack, make_expr, perturb
from voltplan.model import derive_shifter_spec
from voltplan.pipeline import RunConfig, run_pipeline
from voltplan.shifters import (
    Shifter,
    _room_slots,
    assign_shifters,
    build_assignment_network,
    compute_ilo,
    els_place,
    num_ls,
    numls_from_areas,
    place_in_room,
    required_shifters,
    unplaced_count,
    wirelength_with_shifters,
)

from conftest import DATA, arcs_of, assign_cost, feasible


def spec_square(area=4, k=1):
    return derive_shifter_spec(area, Fraction(1), [(q + 1, 0, 0) for q in range(k)])


def enumerate_best_assignment(shifters, floorplan, spec, window):
    """Oracle: all capacity-respecting assignments; max cardinality first,
    then min total detour cost."""
    m = len(floorplan.rooms)
    caps = [num_ls(r, spec) for r in floorplan.rooms]
    options = []
    for s in shifters:
        opts = [None]
        for r in range(m):
            if feasible(s, floorplan.rooms[r], floorplan, spec, window):
                opts.append(r)
        options.append(opts)
    best = None
    for combo in itertools.product(*options):
        used = [0] * m
        ok = True
        cost = 0
        count = 0
        for s, r in zip(shifters, combo):
            if r is None:
                continue
            used[r] += 1
            if used[r] > caps[r]:
                ok = False
                break
            cost += assign_cost(s, floorplan.rooms[r], floorplan)
            count += 1
        if not ok:
            continue
        key = (-count, cost)
        if best is None or key < best:
            best = key
    return (-best[0], best[1])


class TestRequiredShifters:
    NETS = [(0, 1), (1, 2), (2, 0)]

    def test_uniform_levels_none(self):
        assert required_shifters([(0, 1), (1, 2)], (1, 1, 1)) == []

    def test_low_drives_high(self):
        got = required_shifters([(0, 1)], (3, 1))
        assert len(got) == 1
        assert got[0].source == 0 and got[0].driver_level == 3

    def test_high_drives_low_no_shifter(self):
        assert required_shifters([(0, 1)], (1, 3)) == []


class TestNumLs:
    def test_zero_whitespace(self):
        room = Room(0, 0, 6, 6, 6, 6)
        assert num_ls(room, spec_square(4)) == 0

    def test_area_arithmetic_merge_contrast(self):
        # remainders 0 vs 8 with corner 12: merging into the top strip wins
        assert numls_from_areas(20, 28, 12, 10) == 6
        assert numls_from_areas(20 + 12, 28, 0, 10) == 5  # the other merge

    def test_geometric_merge_contrast_fixture(self):
        # module 3x5 in a 5x11 room, shifter 5x2 (area 10):
        # p1 = 2x5 (rem 0), p2 = 3x6 (rem 8), corner 2x6 (area 12)
        room = Room(0, 0, 5, 11, 3, 5)
        spec = derive_shifter_spec(10, Fraction(5, 2), [(1, 0, 0)])
        assert (spec.width, spec.height) == (5, 2)
        assert num_ls(room, spec) == 4
        # merging the corner into p1 instead would give only 3
        assert numls_from_areas(10 + 12, 18, 0, 10) == 3

    def test_narrow_strip_contributes_zero(self):
        # p1 is a 1-wide strip with area 10 >= 4 but the 2x2 shifter never fits
        room = Room(0, 0, 10, 10, 9, 10)
        assert num_ls(room, spec_square(4)) == 0

    def test_capacity_never_exceeds_slack(self, rng):
        for _ in range(10_000):
            mw, mh = rng.randint(1, 20), rng.randint(1, 20)
            sw, sh = rng.randint(0, 12), rng.randint(0, 12)
            room = Room(0, 0, mw + sw, mh + sh, mw, mh)
            spec = spec_square(rng.choice([1, 2, 4, 6, 9]))
            slack = (mw + sw) * (mh + sh) - mw * mh
            assert num_ls(room, spec) <= slack // spec.area


class TestFeasible:
    def floorplan(self):
        return pack(make_expr([0, 1, "V"]), [(4, 4), (4, 4)])

    def test_no_whitespace_infeasible(self):
        fp = self.floorplan()
        s = Shifter(0, 0, 0, 1, 2)
        assert not feasible(s, fp.rooms[1], fp, spec_square(), 0)

    def test_roomy_source_room_feasible(self):
        fp = pack(make_expr([0, 1, "V"]), [(4, 4), (4, 8)])
        s = Shifter(0, 0, 0, 1, 2)
        assert feasible(s, fp.rooms[0], fp, spec_square(), 0)

    def test_distant_room_outside_window(self):
        rooms = (
            Room(0, 0, 2, 2, 2, 2),
            Room(2, 0, 2, 2, 2, 2),
            Room(40, 0, 6, 2, 2, 2),  # far away, plenty of whitespace
        )
        fp = Floorplan(chip_w=46, chip_h=2, rooms=rooms)
        s = Shifter(0, 0, 0, 1, 2)
        assert not feasible(s, fp.rooms[2], fp, spec_square(1), 1)
        assert feasible(s, fp.rooms[2], fp, spec_square(1), 50)


class TestAssignCost:
    def test_on_path_zero(self):
        rooms = (
            Room(0, 0, 2, 2, 2, 2),
            Room(4, 0, 2, 2, 2, 2),
            Room(2, 0, 2, 2, 2, 2),
        )
        fp = Floorplan(chip_w=6, chip_h=2, rooms=rooms)
        s = Shifter(0, 0, 0, 1, 2)
        assert assign_cost(s, fp.rooms[2], fp) == 0

    def test_off_path_detour(self):
        # src center (1,1), sink center (11,1), room center (6,4): detour 2*3
        rooms = (
            Room(0, 0, 2, 2, 2, 2),
            Room(10, 0, 2, 2, 2, 2),
            Room(5, 3, 2, 2, 2, 2),
        )
        fp = Floorplan(chip_w=12, chip_h=5, rooms=rooms)
        s = Shifter(0, 0, 0, 1, 2)
        assert assign_cost(s, fp.rooms[2], fp) == 2 * (2 * 3)  # doubled coords

    def test_translation_invariant(self, rng):
        for _ in range(50):
            rs = []
            for _ in range(3):
                x, y = rng.randint(0, 15), rng.randint(0, 15)
                w, h = rng.randint(1, 6), rng.randint(1, 6)
                rs.append(Room(x, y, w, h, w, h))
            fp = Floorplan(40, 40, tuple(rs))
            s = Shifter(0, 0, 0, 1, 2)
            base = assign_cost(s, fp.rooms[2], fp)
            dx, dy = rng.randint(1, 8), rng.randint(1, 8)
            moved = tuple(
                Room(r.x + dx, r.y + dy, r.w, r.h, r.module_w, r.module_h) for r in rs
            )
            fp2 = Floorplan(60, 60, moved)
            assert assign_cost(s, fp2.rooms[2], fp2) == base


class TestPlaceInRoom:
    def test_exact_fit_single(self):
        room = Room(0, 0, 6, 4, 4, 4)  # p1 is exactly 2x4
        spec = derive_shifter_spec(8, Fraction(1, 2), [(1, 0, 0)])
        assert (spec.width, spec.height) == (2, 4)
        s = Shifter(0, 0, 0, 1, 2)
        placed, leftover = place_in_room(room, [s], spec)
        assert leftover == []
        assert placed[0][1] == (4, 0, 2, 4)

    def test_strips_fill_row_major(self):
        room = Room(0, 0, 10, 10, 8, 8)
        spec = spec_square(4)  # 2x2
        shifters = [Shifter(i, i, 0, 1, 2) for i in range(12)]
        placed, leftover = place_in_room(room, shifters[: num_ls(room, spec)], spec)
        assert len(placed) + len(leftover) == num_ls(room, spec)
        rects = [r for _, r in placed]
        for x, y, w, h in rects:
            assert 0 <= x and x + w <= 10 and 0 <= y and y + h <= 10
            # never on top of the module
            assert x >= 8 or y >= 8

    def test_few_shifters_in_large_whitespace(self):
        # far more spots than shifters: the first ones in row-major order
        # across the regions, as when every spot was listed
        sh = [Shifter(i, i, 0, 1, 2) for i in range(5)]
        room = Room(0, 0, 20, 16, 6, 4)
        spec = spec_square(4)
        assert num_ls(room, spec) == 74
        placed, leftover = place_in_room(room, sh, spec)
        assert [s for s, _ in placed] == sh and leftover == []
        assert [r for _, r in placed] == [
            (6, 0, 2, 2), (8, 0, 2, 2), (10, 0, 2, 2), (12, 0, 2, 2), (14, 0, 2, 2),
        ]
        # the right strip holds one 2x3 spot; the rest go to the top strip,
        # rotated to 3x2
        room = Room(0, 0, 9, 17, 7, 3)
        spec = derive_shifter_spec(6, Fraction(2, 3), [(1, 0, 0)])
        assert num_ls(room, spec) == 22
        placed, leftover = place_in_room(room, sh[:4], spec)
        assert [s for s, _ in placed] == sh[:4] and leftover == []
        assert [r for _, r in placed] == [
            (7, 0, 2, 3), (0, 3, 3, 2), (3, 3, 3, 2), (6, 3, 3, 2),
        ]

    def test_spots_equal_what_place_in_room_packs(self, rng):
        for _ in range(2000):
            mw, mh = rng.randint(1, 14), rng.randint(1, 14)
            sw, sh = rng.randint(0, 12), rng.randint(0, 12)
            room = Room(rng.randint(0, 9), rng.randint(0, 9), mw + sw, mh + sh, mw, mh)
            spec = derive_shifter_spec(
                rng.randint(1, 30), rng.choice([Fraction(1), Fraction(1, 3), Fraction(5, 2)]),
                [(1, 0, 0)],
            )
            many = [Shifter(i, i, 0, 1, 2) for i in range((sw + 1) * (sh + 1) * (mw + mh))]
            cap, spots, _grids = _room_slots(room, spec)
            assert cap == num_ls(room, spec)
            assert spots == len(place_in_room(room, many, spec)[0])

    def test_no_overlaps_random(self, rng):
        for _ in range(300):
            mw, mh = rng.randint(2, 12), rng.randint(2, 12)
            sw, sh = rng.randint(0, 8), rng.randint(0, 8)
            room = Room(0, 0, mw + sw, mh + sh, mw, mh)
            spec = spec_square(rng.choice([1, 4, 6]))
            n = num_ls(room, spec)
            shifters = [Shifter(i, i, 0, 1, 2) for i in range(n)]
            placed, _ = place_in_room(room, shifters, spec)
            rects = [r for _, r in placed]
            for i in range(len(rects)):
                xi, yi, wi, hi = rects[i]
                assert not (xi < mw and yi < mh)  # module overlap
                for j in range(i + 1, len(rects)):
                    xj, yj, wj, hj = rects[j]
                    overlap = (
                        xi < xj + wj and xj < xi + wi and yi < yj + hj and yj < yi + hi
                    )
                    assert not overlap


class TestElsPlace:
    def fp(self):
        rooms = (Room(0, 0, 4, 4, 4, 4), Room(10, 0, 4, 4, 4, 4))
        return Floorplan(chip_w=14, chip_h=4, rooms=rooms)

    def test_sink_due_east(self):
        s = Shifter(0, 0, 0, 1, 2)
        x, y, w, h = els_place(s, self.fp())
        assert x == 4  # east edge of the source module

    def test_sink_above_source_span(self):
        rooms = (Room(0, 0, 6, 2, 6, 2), Room(2, 8, 2, 2, 2, 2))
        fp = Floorplan(chip_w=8, chip_h=10, rooms=rooms)
        s = Shifter(0, 0, 0, 1, 2)
        x, y, w, h = els_place(s, fp)
        assert y == 2  # north edge

    def test_never_farther_than_boundary(self, rng):
        for _ in range(100):
            rooms = []
            for _ in range(2):
                x, y = rng.randint(0, 15), rng.randint(0, 15)
                w, h = rng.randint(1, 6), rng.randint(1, 6)
                rooms.append(Room(x, y, w, h, w, h))
            fp = Floorplan(40, 40, tuple(rooms))
            s = Shifter(0, 0, 0, 1, 2)
            px, py, _, _ = els_place(s, fp)
            sx, sy = 2 * rooms[1].x + rooms[1].w, 2 * rooms[1].y + rooms[1].h
            d_shifter = abs(2 * px - sx) + abs(2 * py - sy)
            # distance from the nearest boundary point of the source module
            bx = min(max(sx, 2 * rooms[0].x), 2 * (rooms[0].x + rooms[0].w))
            by = min(max(sy, 2 * rooms[0].y), 2 * (rooms[0].y + rooms[0].h))
            d_boundary = abs(bx - sx) + abs(by - sy)
            assert d_shifter <= d_boundary + 2  # rounding to integer coords


class TestAssignShifters:
    def test_empty(self):
        fp = pack(make_expr([0, 1, "V"]), [(2, 2), (2, 2)])
        got = assign_shifters([], fp, spec_square())
        assert got.n == 0
        assert got.placements() == {}

    def test_matches_enumeration_small(self, rng):
        for _ in range(60):
            m = rng.randint(2, 5)
            dims = [(rng.randint(2, 6), rng.randint(2, 6)) for _ in range(m)]
            expr = make_expr(
                [0] + [t for i in range(1, m) for t in (i, "HV"[i % 2])]
            )
            fp = pack(expr, dims)
            spec = spec_square(1)
            n_sh = rng.randint(1, 5)
            shifters = [
                Shifter(i, i, rng.randrange(m), rng.randrange(m), 2)
                for i in range(n_sh)
            ]
            shifters = [s for s in shifters if s.source != s.sink]
            window = rng.choice([0, 3, 100])
            got = assign_shifters(shifters, fp, spec, window=window)
            want_count, want_cost = enumerate_best_assignment(
                shifters, fp, spec, window
            )
            assert len(got.assigned) + len(got.els) == len(shifters)
            got_cost = sum(
                assign_cost(s, fp.rooms[r], fp) for s, r, _ in got.assigned
            )
            # geometric fall-through can only shrink the placed count
            assert len(got.assigned) <= want_count
            caps = {}
            for s, r, _ in got.assigned:
                caps[r] = caps.get(r, 0) + 1
            for r, used in caps.items():
                assert used <= num_ls(fp.rooms[r], spec)
            if len(got.assigned) == want_count:
                assert got_cost == want_cost

    def test_overflow_lands_in_els(self):
        fp = pack(make_expr([0, 1, "V"]), [(3, 3), (3, 4)])
        spec = spec_square(1)
        total_cap = sum(num_ls(r, spec) for r in fp.rooms)
        shifters = [Shifter(i, i, 0, 1, 2) for i in range(total_cap + 3)]
        got = assign_shifters(shifters, fp, spec, window=100)
        assert len(got.els) >= 3


class TestIlo:
    def test_no_shifters_zero(self):
        fp = pack(make_expr([0, 1, "V"]), [(2, 2), (2, 2)])
        assert compute_ilo([], {}, fp, [(0, 1)]) == 0

    def test_frozen_percent(self):
        # a single net of length 10 with a detour of 1 out of total 100
        rooms = tuple(
            Room(x, 0, 2, 2, 2, 2) for x in (0, 10, 0)
        ) + (Room(0, 90, 2, 2, 2, 2),)
        fp = Floorplan(100, 100, rooms)
        nets = [(0, 1), (2, 3)]  # lengths 10 and 90 -> denominator 100
        s = Shifter(0, 0, 0, 1, 2)
        # shifter center half a unit above the straight path: detour 1
        placements = {0: (5, 1, 1, 1)}
        got = compute_ilo([s], placements, fp, nets)
        assert got == 1

    def test_moving_onto_path_never_increases(self):
        rooms = (Room(0, 0, 2, 2, 2, 2), Room(10, 0, 2, 2, 2, 2))
        fp = Floorplan(20, 20, rooms)
        nets = [(0, 1)]
        s = Shifter(0, 0, 0, 1, 2)
        off_path = compute_ilo([s], {0: (5, 7, 1, 1)}, fp, nets)
        on_path = compute_ilo([s], {0: (5, 0, 1, 1)}, fp, nets)
        assert on_path <= off_path


def test_wirelength_with_shifters_adds_detours():
    rooms = (Room(0, 0, 2, 2, 2, 2), Room(10, 0, 2, 2, 2, 2))
    fp = Floorplan(20, 20, rooms)
    nets = [(0, 1)]
    s = Shifter(0, 0, 0, 1, 2)
    base = wirelength_with_shifters(fp, nets, [], {})
    with_detour = wirelength_with_shifters(fp, nets, [s], {0: (5, 7, 1, 1)})
    assert base == 10
    assert with_detour > base


def test_assignment_network_shape():
    fp = pack(make_expr([0, 1, "V"]), [(3, 3), (3, 5)])
    spec = spec_square(1)
    shifters = [Shifter(0, 0, 0, 1, 2)]
    net, s_node, t_node, pairs = build_assignment_network(shifters, fp, spec, 100)
    assert net.n_nodes == 2 + 1 + 2
    rows = arcs_of(net)
    srcs = [(c, u) for t, _, c, u in rows if t == s_node]
    assert all(u == 1 and c == 0 for c, u in srcs)
    room_base = 2 + len(shifters)
    sinks = [(t, u) for t, h, _, u in rows if h == t_node]
    for t, u in sinks:
        room_idx = t - room_base
        assert u == num_ls(fp.rooms[room_idx], spec)


@st.composite
def _count_instance(draw):
    """A packed floorplan, levels and nets, and a shifter footprint and
    window: (shifters, floorplan, spec, window). Non-square footprints of up
    to 12 units often leave a room fewer spots than its area capacity, and
    small windows leave shifters without a room."""
    m = draw(st.integers(2, 7))
    dims = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=m, max_size=m))
    expr = initial_expr(m)
    for move, seed in draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2**16)), max_size=10)):
        expr = perturb(expr, move, random.Random(seed))
    levels = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    pair = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda p: p[0] != p[1])
    nets = draw(st.lists(pair, min_size=6, max_size=24))
    ratio = draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(1, 3), Fraction(5, 2)]))
    spec = derive_shifter_spec(draw(st.integers(1, 12)), ratio, [(1, 0, 0)])
    window = draw(st.integers(0, 4) | st.just(1000))
    return required_shifters(nets, levels), pack(expr, dims), spec, window


# the top strip of room 0 holds 3 shifters of 2x3 by area but 2 by geometry,
# and all three shifters have room 0 in their window
_OVERFLOW = (
    required_shifters([(0, 1)] * 3, (2, 1)),
    pack(make_expr([0, 1, "V"]), [(4, 4), (4, 9)]),
    derive_shifter_spec(6, Fraction(2, 3), [(1, 0, 0)]),
    1000,
)


def test_unplaced_count_equals_the_flow_fallback_count(monkeypatch):
    """unplaced_count is exactly len(assign_shifters(...).els), on the
    matching path and on the fallback path, which runs at least once."""
    flow = shifters_mod.assign_shifters
    paths = {"count": 0, "fallback": 0}

    def counted(*args, **kwargs):
        paths["fallback"] += 1
        return flow(*args, **kwargs)

    monkeypatch.setattr(shifters_mod, "assign_shifters", counted)

    @settings(max_examples=400, deadline=None)
    @given(inst=_count_instance())
    @example(inst=_OVERFLOW)
    def check(inst):
        shifters, fp, spec, window = inst
        before = paths["fallback"]
        got = unplaced_count(shifters, fp, spec, window)
        if paths["fallback"] == before:
            paths["count"] += 1
        assert got == len(flow(shifters, fp, spec, window).els)

    check()
    assert paths["fallback"] >= 1 and paths["count"] >= 1


def test_anneal_runs_the_flow_only_on_the_start_and_final_floorplans(tmp_path, monkeypatch):
    """On the n10 fixture no refresh falls back, so the shifter flow runs
    twice per run, on the starting and the final floorplan; the artifacts
    equal those of a run whose refreshes take the count from the flow."""
    spec = tmp_path / "n10.spec"
    assert main([
        "gen-spec", "--blocks", str(DATA / "n10.blocks"), "--nets", str(DATA / "n10.nets"),
        "--seed", "42", "-o", str(spec),
    ]) == 0

    def run(out):
        run_pipeline(RunConfig(
            blocks_path=str(DATA / "n10.blocks"), nets_path=str(DATA / "n10.nets"),
            spec_path=str(spec), seed=42, out_dir=str(out), max_levels=25,
        ))
        texts = {
            name: (out / name).read_text()
            for name in ("floorplan.txt", "shifters.txt", "layout.svg", "report.csv")
        }
        # the report's last column is the run time
        texts["report.csv"] = [row.rsplit(",", 1)[0] for row in texts["report.csv"].splitlines()]
        return texts

    solve = shifters_mod.solve_min_cost_max_flow
    solves = []

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(shifters_mod, "solve_min_cost_max_flow", counted_solve)
    got = run(tmp_path / "count")
    assert len(solves) == 2

    monkeypatch.setattr(
        importlib.import_module("voltplan.anneal"), "unplaced_count",
        lambda sh, fp, sp, window: len(assign_shifters(sh, fp, sp, window).els),
    )
    want = run(tmp_path / "flow")
    assert len(solves) > 4
    assert got == want
