import dataclasses
import hashlib
import inspect
import itertools
import random
from fractions import Fraction
from itertools import accumulate
from math import ceil
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltplan.anneal as anneal_mod
import voltplan.floorplan as floorplan_mod
from voltplan.anneal import AnnealConfig, anneal
from voltplan.cli import main
from voltplan.errors import MalformedExpression, TimingInfeasible, ValidationError
from voltplan.floorplan import (
    Floorplan,
    Expr,
    PhiWeights,
    _pack,
    _tree_of,
    check_expr,
    cost_phi,
    hpwl,
    hpwl2_per_net,
    initial_expr,
    pack,
    perturb,
    voltage_islands,
    whitespace_percent,
)
from voltplan.model import DPCurve, ModuleBlock, build_netlist, derive_shifter_spec
from voltplan.pipeline import RunConfig, run_pipeline
from voltplan.shifters import compute_ilo, required_shifters, wirelength_with_shifters

from conftest import (
    DATA,
    RecordingRandom,
    Room,
    _can_swap,
    anneal_reference,
    fixture_netlist,
    floorplan_of_rooms,
    generated_netlist,
    layered_blocks_nets,
    longest_path_delay,
    perturb_rescan,
    phi_weights,
    recursive_pack,
    rooms_of,
    whitespace_parts,
)


def rects_disjoint(rooms):
    for i in range(len(rooms)):
        for j in range(i + 1, len(rooms)):
            a, b = rooms[i], rooms[j]
            if (
                a.x < b.x + b.w and b.x < a.x + a.w
                and a.y < b.y + b.h and b.y < a.y + a.h
            ):
                return False
    return True


def check_tiling(fp: Floorplan):
    rooms = rooms_of(fp)
    assert sum(r.w * r.h for r in rooms) == fp.area
    assert rects_disjoint(rooms)
    for r in rooms:
        assert r.w >= r.module_w and r.h >= r.module_h
        assert 0 <= r.x and 0 <= r.y
        assert r.x + r.w <= fp.chip_w and r.y + r.h <= fp.chip_h


class TestPack:
    def test_equal_children_no_whitespace(self):
        fp = pack((0, 1, "V"), [(2, 2), (2, 2)])
        assert (fp.chip_w, fp.chip_h) == (4, 2)
        assert whitespace_percent(fp) == 0

    def test_uneven_children_top_strip(self):
        fp = pack((0, 1, "V"), [(2, 2), (2, 4)])
        assert (fp.chip_w, fp.chip_h) == (4, 4)
        room0 = rooms_of(fp)[0]
        assert (room0.w, room0.h) == (2, 4)
        p1, p2, p3 = whitespace_parts(room0)
        assert p2 == (0, 2, 2, 2)
        assert p1[2] == 0 and p3[2] == 0

    def test_malformed_rejected(self):
        with pytest.raises(MalformedExpression):
            pack((0, "V", 1), [(1, 1), (1, 1)])
        with pytest.raises(MalformedExpression):
            check_expr((0, 1, "V", "V"))

    def test_random_exprs_tile(self, rng):
        for _ in range(100):
            m = rng.randint(1, 12)
            dims = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)]
            expr = initial_expr(m)
            for _ in range(30):
                expr = perturb(expr, rng.randint(1, 3), rng)
            fp = pack(expr, dims)
            check_tiling(fp)


def check_perfect_tiling(fp: Floorplan):
    """Linear-time tiling check for large floorplans: every room holds its
    module inside the chip, the room areas sum to the chip area, and every
    room corner but the chip's four is shared by an even number of rooms
    (area plus corner parity is exact for axis-aligned rectangles)."""
    corners = set()
    rooms = rooms_of(fp)
    for r in rooms:
        assert r.w >= r.module_w >= 1 and r.h >= r.module_h >= 1
        assert 0 <= r.x and r.x + r.w <= fp.chip_w and 0 <= r.y and r.y + r.h <= fp.chip_h
        corners ^= {(r.x, r.y), (r.x + r.w, r.y), (r.x, r.y + r.h), (r.x + r.w, r.y + r.h)}
    assert sum(r.w * r.h for r in rooms) == fp.area
    assert corners == {(0, 0), (fp.chip_w, 0), (0, fp.chip_h), (fp.chip_w, fp.chip_h)}


def right_deep_chain(m):
    """Every module first, then alternating cuts: the tree leans right."""
    return tuple(range(m)) + tuple("HV"[i % 2] for i in range(m - 1))


class TestSweepPack:
    """pack hands out exactly the rooms of the recursive reference packer,
    and packs trees far deeper than the interpreter's recursion limit."""

    def test_matches_the_recursive_packer(self, rng):
        exprs = []
        for _ in range(1000):
            m = rng.randint(1, 60)
            expr = initial_expr(m)
            for _ in range(rng.randint(0, 4 * m)):
                expr = perturb(expr, rng.randint(1, 3), rng)
            exprs.append(expr)
        for m in (1, 2, 3, 17, 60):
            exprs += [initial_expr(m), right_deep_chain(m)]
        for expr in exprs:
            m = (len(expr) + 1) // 2
            dims = [(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(m)]
            assert pack(expr, dims) == recursive_pack(expr, dims)

    @pytest.mark.parametrize("m", [1000, 5000])
    @pytest.mark.parametrize("chain", [initial_expr, right_deep_chain])
    def test_deep_chains_tile(self, m, chain):
        fp = pack(chain(m), [(1, 1)] * m)
        check_perfect_tiling(fp)
        if chain is initial_expr:
            assert (fp.chip_w, fp.chip_h) == (m // 2 + 1, m // 2)

    def test_perfect_tiling_check_rejects_overlap_and_gaps(self):
        fp = pack((0, 1, "V"), [(2, 2), (2, 4)])
        check_perfect_tiling(fp)
        rooms = rooms_of(fp)
        moved = rooms[0]._replace(x=1)
        with pytest.raises(AssertionError):
            check_perfect_tiling(floorplan_of_rooms(fp.chip_w, fp.chip_h, (moved, rooms[1])))

    def test_centers2_are_the_doubled_module_centers(self, rng):
        expr = initial_expr(12)
        for _ in range(40):
            expr = perturb(expr, rng.randint(1, 3), rng)
        fp = pack(expr, [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(12)])
        assert fp.centers2 == tuple(
            (2 * r.x + r.module_w, 2 * r.y + r.module_h) for r in rooms_of(fp)
        )
        # derived from the columns: not a constructor argument, not in eq or repr
        rebuilt = floorplan_of_rooms(fp.chip_w, fp.chip_h, rooms_of(fp))
        assert rebuilt == fp and rebuilt.centers2 == fp.centers2
        assert "centers2" not in repr(fp)


class TestColumns:
    """A floorplan is its flat columns: pack writes the rooms' origins and
    sizes per module and shares dims, and equality, hash and repr go by the
    chip size and the columns."""

    def test_columns_match_the_recursive_packer(self, rng):
        for _ in range(300):
            m = rng.randint(1, 60)
            expr = initial_expr(m)
            for _ in range(rng.randint(0, 4 * m)):
                expr = perturb(expr, rng.randint(1, 3), rng)
            dims = tuple((rng.randint(1, 20), rng.randint(1, 20)) for _ in range(m))
            fp = _pack(expr, dims)
            want = recursive_pack(expr, dims)
            assert (fp.chip_w, fp.chip_h) == (want.chip_w, want.chip_h)
            assert (fp.xs, fp.ys, fp.ws, fp.hs) == tuple(
                [getattr(r, f) for r in rooms_of(want)] for f in ("x", "y", "w", "h")
            )
            assert fp.dims is dims
            nets = [(rng.randrange(m), rng.randrange(m)) for _ in range(m)]
            levels = [rng.randint(1, 3) for _ in range(m)]
            assert hpwl2_per_net(fp, nets) == hpwl2_per_net(want, nets)
            assert voltage_islands(fp, levels) == voltage_islands(want, levels)
            assert rooms_of(fp) == rooms_of(want)
            assert fp == want and hash(fp) == hash(want) and repr(fp) == repr(want)

    def test_a_kept_tree_packs_as_a_fresh_one(self, rng):
        """Walks that pack every candidate, as the anneal does: a move 1 or
        2 child packs from the tree its parent kept, and every candidate
        packs as its plain tuple, whose tree is taken afresh, and as the
        recursive packer."""
        moves = shared = 0
        for _ in range(100):
            m = rng.randint(1, 60)
            dims = tuple((rng.randint(1, 20), rng.randint(1, 20)) for _ in range(m))
            expr = initial_expr(m)
            _pack(expr, dims)
            for _ in range(rng.randint(1, 4 * m)):
                cand = perturb(expr, rng.randint(1, 3), rng)
                moves += 1
                shared += cand._tree is not None
                fp = _pack(cand, dims)
                assert fp == _pack(tuple(cand), dims) == recursive_pack(cand, dims)
                assert cand._tree == _tree_of(tuple(cand))
                if rng.random() < 0.5:
                    expr = cand
        assert 2 * shared > moves > 4000

    def test_equality_goes_by_the_chip_size_and_every_column_entry(self):
        """Changing the chip size or any one entry of a column makes two
        floorplans unequal; equal ones hash equal, lists and tuples alike."""
        fp = pack((0, 1, "V"), [(2, 2), (2, 4)])
        assert rooms_of(fp) == (Room(0, 0, 2, 4, 2, 2), Room(2, 0, 2, 4, 2, 4))
        assert fp.centers2 == ((2, 2), (6, 4))
        fields = dict(
            chip_w=4, chip_h=4, xs=(0, 2), ys=(0, 0), ws=(2, 2), hs=(4, 4), dims=[[2, 2], [2, 4]]
        )
        same = Floorplan(**fields)
        assert same == fp and hash(same) == hash(fp)
        changed = [{**fields, "chip_w": 5}, {**fields, "chip_h": 5}]
        for name in ("xs", "ys", "ws", "hs"):
            for i in range(2):
                column = list(fields[name])
                column[i] += 1
                changed.append({**fields, name: column})
        for i, j in itertools.product(range(2), repeat=2):
            dims = [list(d) for d in fields["dims"]]
            dims[i][j] += 1
            changed.append({**fields, "dims": dims})
        assert len(changed) == 14
        for kw in changed:
            assert Floorplan(**kw) != fp and fp != Floorplan(**kw)


class TestHpwl:
    def test_coincident_centers(self):
        fp = floorplan_of_rooms(4, 4, (Room(0, 0, 4, 4, 4, 4), Room(0, 0, 4, 4, 4, 4)))
        assert hpwl(fp, [(0, 1)]) == 0

    def test_frozen_three_four(self):
        # centers (1,1) and (4,5): |3| + |4| = 7
        fp = floorplan_of_rooms(8, 8, (Room(0, 0, 2, 2, 2, 2), Room(3, 4, 2, 2, 2, 2)))
        assert hpwl(fp, [(0, 1)]) == 7

    def test_translation_invariance(self, rng):
        for _ in range(50):
            rooms = []
            for _ in range(4):
                x, y = rng.randint(0, 20), rng.randint(0, 20)
                w, h = rng.randint(1, 9), rng.randint(1, 9)
                rooms.append(Room(x, y, w, h, w, h))
            nets = [(0, 1), (1, 2), (2, 3), (0, 3)]
            base = hpwl(floorplan_of_rooms(40, 40, rooms), nets)
            dx, dy = rng.randint(1, 7), rng.randint(1, 7)
            moved = tuple(
                Room(r.x + dx, r.y + dy, r.w, r.h, r.module_w, r.module_h)
                for r in rooms
            )
            assert hpwl(floorplan_of_rooms(60, 60, moved), nets) == base


def islands_pairwise(floorplan, levels):
    """Reference island count: union-find over every same-level room pair
    that shares a boundary segment of positive length (an O(m^2) scan)."""
    rooms = rooms_of(floorplan)
    parent = list(range(len(rooms)))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    def adjacent(a, b):
        if a.x + a.w == b.x or b.x + b.w == a.x:
            return min(a.y + a.h, b.y + b.h) - max(a.y, b.y) > 0
        if a.y + a.h == b.y or b.y + b.h == a.y:
            return min(a.x + a.w, b.x + b.w) - max(a.x, b.x) > 0
        return False

    for i in range(len(rooms)):
        for j in range(i + 1, len(rooms)):
            if levels[i] == levels[j] and adjacent(rooms[i], rooms[j]):
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(rooms))})


@st.composite
def packed_slicing(draw):
    """A packed random slicing floorplan and one level per room. Small dims
    make many room edges fall on the same lines."""
    m = draw(st.integers(1, 14))
    dims = draw(st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=m, max_size=m
    ))
    levels = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    expr = initial_expr(m)
    for _ in range(draw(st.integers(0, 3 * m))):
        expr = perturb(expr, rng.randint(1, 3), rng)
    return pack(expr, dims), levels


# a non-slicing tiling of a 3x3 chip: four 2x1 arms around a 1x1 center;
# arms 0-1-2-3 touch in a ring and each touches the center 4
PINWHEEL = floorplan_of_rooms(3, 3, (
    Room(x, y, w, h, w, h)
    for x, y, w, h in ((0, 0, 2, 1), (2, 0, 1, 2), (1, 2, 2, 1), (0, 1, 1, 2), (1, 1, 1, 1))
))


class TestVoltageIslands:
    @settings(max_examples=300, deadline=None)
    @given(packed_slicing())
    def test_matches_pairwise_scan(self, case):
        fp, levels = case
        assert voltage_islands(fp, levels) == islands_pairwise(fp, levels)

    @settings(max_examples=300, deadline=None)
    @given(packed_slicing())
    def test_at_least_one_island_per_level(self, case):
        # the anneal's floor of phi counts a candidate's distinct levels
        fp, levels = case
        assert voltage_islands(fp, levels) >= len(set(levels))

    def test_matches_pairwise_scan_at_up_to_four_levels(self, rng):
        """voltage_islands equals the pairwise scan on random packed
        floorplans of 1 to 60 modules at 1 to 4 levels."""
        for _ in range(200):
            m = rng.randint(1, 60)
            dims = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(m)]
            expr = initial_expr(m)
            for _ in range(rng.randint(0, 4 * m)):
                expr = perturb(expr, rng.randint(1, 3), rng)
            fp = pack(expr, dims)
            k = rng.randint(1, 4)
            levels = [rng.randint(1, k) for _ in range(m)]
            assert voltage_islands(fp, levels) == islands_pairwise(fp, levels)

    def test_pinwheel(self):
        check_tiling(PINWHEEL)
        assert voltage_islands(PINWHEEL, (1, 1, 1, 1, 1)) == 1
        assert voltage_islands(PINWHEEL, (1, 1, 1, 1, 2)) == 2  # ring + center
        assert voltage_islands(PINWHEEL, (1, 2, 1, 2, 3)) == 5  # 0 and 2 never touch
        assert voltage_islands(PINWHEEL, (1, 2, 2, 1, 3)) == 3
        for levels in itertools.product((1, 2), repeat=5):
            assert voltage_islands(PINWHEEL, levels) == islands_pairwise(PINWHEEL, levels)

    def test_uniform_connected(self):
        fp = pack((0, 1, "V", 2, "H"), [(2, 2), (2, 2), (4, 2)])
        assert voltage_islands(fp, (1, 1, 1)) == 1

    def test_all_distinct(self):
        fp = pack((0, 1, "V", 2, "H"), [(2, 2), (2, 2), (4, 2)])
        assert voltage_islands(fp, (1, 2, 3)) == 3

    def test_checkerboard_two_levels(self):
        fp = pack(
            (0, 1, "V", 2, 3, "V", "H"),
            [(1, 1), (1, 1), (1, 1), (1, 1)],
        )
        # diagonal corners share only a point, not a boundary segment
        assert voltage_islands(fp, (1, 2, 2, 1)) == 4


class TestWireDelays:
    def test_integer_ceiling_matches_fractions(self, rng):
        for _ in range(2000):
            kappa = Fraction(rng.randint(1, 2**20), rng.randint(1, 2**20))
            per_net2 = [rng.randint(0, 2 ** rng.randint(1, 72)) for _ in range(5)]
            want = tuple(ceil(kappa * d2 / 2) for d2 in per_net2)
            assert anneal_mod._wire_delays(per_net2, kappa) == want

    def test_zero_kappa(self):
        assert anneal_mod._wire_delays([3, 2**72], Fraction(0)) == (0, 0)


class TestCostPhi:
    def test_area_only(self):
        w = phi_weights(area=1, wirelength=0, power=0)
        assert cost_phi(100, 50, 40, 2, 1, w) == 100

    def test_frozen_sum(self):
        w = phi_weights(1, 1, 1, 1, 1)
        assert cost_phi(100, 50, 40, 2, 1, w) == 193

    def test_monotone_in_each_metric(self, rng):
        w = phi_weights(
            Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 10), Fraction(5)
        )
        base = (100, 50, 40, 2, 1)
        phi0 = cost_phi(*base, w)
        for i in range(5):
            bumped = list(base)
            bumped[i] += 3
            assert cost_phi(*bumped, w) >= phi0

    def test_common_denominator(self):
        w = PhiWeights.over_common_denominator(1, Fraction(3, 4), 2, Fraction(1, 6), 0)
        assert w == PhiWeights(12, 9, 24, 2, 0, denominator=12)
        assert cost_phi(10, 4, 1, 3, 5, w) == 12 * 10 + 9 * 4 + 24 + 2 * 3

    def test_scaled_delta_is_the_float_of_the_exact_delta(self, rng):
        """The anneal's uphill test divides integer phis by the common
        denominator; int true division rounds correctly, so the result is
        the float of the exact rational."""
        for _ in range(5000):
            den = rng.randint(1, 2 ** rng.randint(1, 90))
            delta = rng.randint(-(2 ** 120), 2 ** 120) >> rng.randint(0, 119)
            assert delta / den == float(Fraction(delta, den))


class TestPerturb:
    def test_m2_involution(self):
        rng = random.Random(3)
        expr = initial_expr(6)
        once = perturb(expr, 2, random.Random(3))
        twice = perturb(once, 2, random.Random(3))
        assert twice == expr

    def test_m1_two_modules(self):
        expr = (0, 1, "V")
        got = perturb(expr, 1, random.Random(0))
        assert got == (1, 0, "V")

    def test_fuzz_moves_stay_packable(self, rng):
        dims = [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(9)]
        expr = initial_expr(9)
        for _ in range(10_000):
            expr = perturb(expr, rng.randint(1, 3), rng)
            check_expr(expr, 9)
        fp = pack(expr, dims)
        check_tiling(fp)

    def test_swap_test_agrees_with_check_expr(self, rng):
        """Move 3 decides each operand/operator swap in place; the answer is
        check_expr's on the swapped tuple, and a pair of two operands or two
        operators is never swapped."""
        swaps = 0
        for _ in range(1000):
            m = rng.randint(2, 30)
            expr = initial_expr(m)
            for _ in range(rng.randint(0, 60)):
                expr = perturb(expr, rng.randint(1, 3), rng)
            for i in range(len(expr) - 1):
                a, b = expr[i], expr[i + 1]
                if isinstance(a, str) == isinstance(b, str):
                    assert not _can_swap(expr, i)
                    continue
                swapped = expr[:i] + (b, a) + expr[i + 2:]
                try:
                    check_expr(swapped, m)
                    legal = True
                except MalformedExpression:
                    legal = False
                assert _can_swap(expr, i) == legal, (expr, i)
                swaps += 1
        assert swaps > 20_000

    def test_indexed_moves_follow_the_rescanning_oracle(self, rng):
        """Random walks of all three moves over 1 to 60 modules: perturb,
        reading the tree kept with each expression, gives the expression
        of conftest's perturb_rescan and leaves the generator in the same
        state after every move, whether the walk goes on from the candidate
        or stays where it is, and the tree it kept is a rescan's."""
        moves = fallbacks = stays = 0
        while moves < 12_000:
            m = rng.randint(1, 60)
            expr = initial_expr(m)
            seed = rng.getrandbits(32)
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            for _ in range(rng.randint(1, 120)):
                move = rng.randint(1, 3)
                if move == 3 and len(expr) >= 2:
                    # the oracle's 16 tries, drawn on a copy of its generator
                    tries = random.Random()
                    tries.setstate(want_rng.getstate())
                    fallbacks += not any(
                        _can_swap(expr, tries.randrange(len(expr) - 1)) for _ in range(16)
                    )
                want = perturb_rescan(expr, move, want_rng)
                got = perturb(expr, move, got_rng)
                assert got == want and got_rng.getstate() == want_rng.getstate()
                assert expr.__class__ is Expr and expr._tree == _tree_of(tuple(expr))
                moves += 1
                if rng.random() < 0.5:
                    expr = got
                else:
                    stays += 1
        assert fallbacks >= 50 and stays >= 4000

    def test_each_expression_is_scanned_once(self, rng, monkeypatch):
        """Walks that pack every candidate, as the anneal does, and perturb
        a state again and again: no expression's tokens are enumerated
        twice, whether to pack it or to move it."""
        scanned = []  # each Expr enumerated, kept alive so ids stay unique

        def recording(tokens, *args):
            if tokens.__class__ is Expr:
                scanned.append(tokens)
            return enumerate(tokens, *args)

        monkeypatch.setattr(floorplan_mod, "enumerate", recording, raising=False)
        moves = 0
        for _ in range(60):
            m = rng.randint(1, 40)
            dims = tuple((rng.randint(1, 20), rng.randint(1, 20)) for _ in range(m))
            expr = initial_expr(m)
            _pack(expr, dims)
            for _ in range(rng.randint(1, 4 * m)):
                cand = perturb(expr, rng.randint(1, 3), rng)
                _pack(cand, dims)
                moves += 1
                if rng.random() < 0.3:
                    expr = cand
        assert moves > 1000 and len(scanned) > 100
        assert len({id(scan) for scan in scanned}) == len(scanned)

    def test_move_sequence_is_pinned(self):
        """2,000 seeded moves from initial_expr(30) visit a fixed sequence of
        expressions: the moves, and the random draws each one makes, stay
        those the annealer's trajectories were recorded with."""
        rng = random.Random(7)
        expr = initial_expr(30)
        digest = hashlib.sha256()
        for _ in range(2000):
            expr = perturb(expr, rng.randint(1, 3), rng)
            digest.update(repr(expr).encode() + b"\n")
        assert digest.hexdigest() == (
            "8db0f0ca34019d8661465c0bd720a979d5528abf85c1e18f0a2a30a20698ff9c"
        )


def tiny_netlist(m=5, k=3, t_factor=2):
    rng = random.Random(11)
    mods = []
    for i in range(m):
        delays = [rng.randint(2, 6)]
        for _ in range(k - 1):
            delays.append(delays[-1] + rng.randint(1, 4))
        slopes = sorted(rng.sample(range(1, 40), k - 1), reverse=True)
        powers = [rng.randint(0, 9)]
        for q in range(k - 1, 0, -1):
            powers.insert(0, powers[0] + slopes[q - 1] * (delays[q] - delays[q - 1]))
        curve = DPCurve(points=tuple((q + 1, delays[q], powers[q]) for q in range(k)))
        mods.append(
            ModuleBlock(
                name=f"b{i}", width=rng.randint(3, 9), height=rng.randint(3, 9),
                curve=curve,
            )
        )
    nets = [(f"b{i}", f"b{i + 1}") for i in range(m - 1)]
    t_cycle = sum(c.curve.delay(k) for c in mods) * t_factor
    return build_netlist(mods, nets, t_cycle, k)


def tiny_shifter(k=3):
    return derive_shifter_spec(4, Fraction(1), [(1, 0, 2), (2, 1, 1), (3, 2, 0)][:k])


class TestAnneal:
    def test_single_module_trivial(self):
        nl = tiny_netlist(m=1)
        res = anneal(nl, tiny_shifter(), AnnealConfig(), seed=1)
        assert res.floorplan.chip_w == nl.modules[0].width
        assert res.metrics.ls_count == 0

    def test_single_module_phi_area_plus_power(self):
        from voltplan.anneal import modified_curves

        nl = tiny_netlist(m=1)
        res = anneal(nl, tiny_shifter(), AnnealConfig(), seed=1)
        curve = modified_curves(nl, tiny_shifter())[0]
        # no nets and one island: the island weight is area / (10 * m)
        area = res.floorplan.area
        assert res.metrics.phi == area + curve.power(curve.k) + Fraction(area, 10)

    def test_whitespace_percent_formula(self):
        fp = pack((0, 1, "V"), [(2, 2), (2, 4)])
        # chip 4x4 = 16, modules 4 + 8 = 12 used
        assert whitespace_percent(fp) == Fraction(16 - 12, 16) * 100

    def test_float_kappa_is_taken_exactly(self):
        """A float kappa runs as the Fraction of its exact value."""
        assert AnnealConfig(kappa=0.1).kappa == Fraction(0.1)
        config = RunConfig(
            blocks_path="b", nets_path="n", spec_path="s", seed=1, out_dir="o", kappa=0.5
        )
        assert config.kappa == Fraction(1, 2) and isinstance(config.kappa, Fraction)
        nl = tiny_netlist()
        got = anneal(nl, tiny_shifter(), AnnealConfig(kappa=0.03125, max_levels=5), seed=4)
        want = anneal(nl, tiny_shifter(), AnnealConfig(kappa=Fraction(1, 32), max_levels=5), seed=4)
        assert (got.metrics, got.expr) == (want.metrics, want.expr)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kappa", float("nan")), ("kappa", float("inf")), ("kappa", "fast"), ("kappa", None),
            ("beta", 2.5), ("max_levels", "400"), ("window", 1.5),
            ("alpha", "0.5"), ("accept_target", None),
            # a bool is an int, but no setting
            ("beta", True), ("max_levels", False), ("window", True), ("kappa", True),
            ("observer", 5), ("kappa", "1/32"),
            # RunConfig's own fields
            ("k", "2"), ("k", True), ("k", 2.0), ("t_cycle", 2.5), ("t_cycle", False),
            ("seed", 1.5), ("seed", "7"), ("seed", None), ("seed", True), ("dataset", 5),
            ("dataset", None), ("blocks_path", 5), ("spec_path", None), ("out_dir", 1.5),
        ],
    )
    def test_config_rejects_a_value_of_the_wrong_type(self, field, value):
        if field in {f.name for f in dataclasses.fields(AnnealConfig)}:
            with pytest.raises(ValidationError, match=field):
                AnnealConfig(**{field: value})
        required = dict(blocks_path="b", nets_path="n", spec_path="s", seed=1, out_dir="o")
        with pytest.raises(ValidationError, match=field):
            RunConfig(**{**required, field: value})

    def test_run_config_takes_its_optional_fields_unset_or_whole(self):
        required = dict(blocks_path="b", nets_path="n", spec_path="s", seed=1, out_dir="o")
        config = RunConfig(**required)
        assert (config.k, config.t_cycle, config.dataset) == (None, None, "")
        config = RunConfig(**required, k=2, t_cycle=70, dataset="n10")
        assert (config.k, config.t_cycle, config.dataset) == (2, 70, "n10")

    def test_deterministic_across_runs(self):
        nl = tiny_netlist()
        a = anneal(nl, tiny_shifter(), AnnealConfig(), seed=42)
        b = anneal(nl, tiny_shifter(), AnnealConfig(), seed=42)
        assert a.metrics == b.metrics
        assert a.floorplan == b.floorplan
        assert a.expr == b.expr

    def test_best_phi_nonincreasing_and_final_not_worse(self):
        nl = tiny_netlist()
        phis = []
        cfg = AnnealConfig(observer=lambda fp, asg, phi: phis.append(phi))
        res = anneal(nl, tiny_shifter(), cfg, seed=5)
        # a candidate rejected on its phi floor is shown without a phi
        phis = [phi for phi in phis if phi is not None]
        best = list(accumulate(phis, min))
        assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))
        assert res.metrics.phi <= phis[0] or res.metrics.phi <= best[-1] * Fraction(11, 10)

    @staticmethod
    def _count_calls(monkeypatch, module, name, calls=None, tag=1):
        """Wrap module.name so that each call appends tag to calls (a new
        list unless given); return the list."""
        calls = [] if calls is None else calls
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(tag)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_start_is_packed_once(self, monkeypatch):
        packs = self._count_calls(monkeypatch, anneal_mod, "pack")
        unchecked = self._count_calls(monkeypatch, anneal_mod, "_pack")
        netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 3, 77)
        anneal(netlist, spec, AnnealConfig(max_levels=0), seed=3)
        # the starting floorplan by pack, the final one by _pack
        assert (len(packs), len(unchecked)) == (1, 1)

    def test_net_lengths_taken_once_per_scored_floorplan(self, monkeypatch):
        from voltplan import floorplan, shifters

        lengths = []
        for module in (floorplan, anneal_mod, shifters):
            self._count_calls(monkeypatch, module, "hpwl2_per_net", lengths)
        # every candidate of this instance is feasible, so each is scored
        netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 4, 42)
        scored = []
        cfg = AnnealConfig(
            kappa=Fraction(1, 32), max_levels=5, observer=lambda *a: scored.append(a)
        )
        anneal(netlist, spec, cfg, seed=42)
        assert len(scored) > 100
        # the start is scored from the lengths taken for its weights; besides
        # the scores: the final floorplan's wire delays, hpwl, wirelength
        # through shifters and ILO
        assert len(lengths) == len(scored) + 4

    @pytest.mark.parametrize("kappa", [Fraction(0), Fraction(1, 32)], ids=["kappa0", "kappa1_32"])
    def test_observer_phi_is_the_exact_cost(self, monkeypatch, kappa):
        """The anneal ranks candidates by integer phis over the weights'
        common denominator; the observer sees each as the exact rational
        cost, cost_phi with the weights as Fractions, of the metrics of the
        candidate without its unplaced-shifter term."""
        netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 4, 42)
        weights, seen = [], []
        calibrate = anneal_mod._default_weights

        def calibrating(*args):
            weights.append(calibrate(*args))
            return weights[-1]

        monkeypatch.setattr(anneal_mod, "_default_weights", calibrating)
        cfg = AnnealConfig(
            kappa=kappa, max_levels=5, observer=lambda fp, asg, phi: seen.append((fp, asg, phi)),
        )
        anneal(netlist, spec, cfg, seed=42)
        (w,) = weights
        assert w.denominator > 1
        exact = PhiWeights(*(
            Fraction(v, w.denominator)
            for v in (w.area, w.wirelength, w.power, w.islands, w.unplaced)
        ))
        assert len(seen) > 100
        for fp, asg, phi in seen:
            if phi is None:  # rejected on its phi floor
                continue
            assert isinstance(phi, Fraction)
            assert phi == cost_phi(
                fp.area, hpwl(fp, netlist.nets), asg.total_power,
                voltage_islands(fp, asg.level), 0, exact,
            )

    def test_patching_the_anneal_module_reaches_the_anneal(self, monkeypatch):
        # anneal_mod comes from `import voltplan.anneal as anneal_mod`
        assert inspect.ismodule(anneal_mod)
        counts = self._count_calls(monkeypatch, anneal_mod, "unplaced_count")
        netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 3, 77)
        anneal(netlist, spec, AnnealConfig(max_levels=5), seed=3)
        assert len(counts) > 0

    ORACLE_CASES = {
        "n10-kappa0": ("n10", Fraction(0)),
        "n10-kappa1_32": ("n10", Fraction(1, 32)),
        "layered20-kappa1_32": ("layered20", Fraction(1, 32)),
    }

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_floor_rejects_change_no_decision(self, monkeypatch, case):
        """The anneal, which rejects moves on a floor of phi, against the
        full-scoring oracle: the same draws in the same order, the same
        floorplans shown to the observer, the same phi wherever the anneal
        gives one, and the same result."""
        instance, kappa = self.ORACLE_CASES[case]
        if instance == "n10":
            netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 4, 42)
            options = {"max_levels": 8}
        else:
            netlist, spec = generated_netlist(*layered_blocks_nets(20, 50), 4, 50, Fraction(3, 4))
            options = {"beta": 3, "max_levels": 5}

        def run(annealer, **rng):
            seen = []
            config = AnnealConfig(
                kappa=kappa, observer=lambda *shown: seen.append(shown), **options
            )
            return annealer(netlist, spec, config, seed=42, **rng), seen

        draws, want_draws = [], []
        monkeypatch.setattr(
            anneal_mod, "random", SimpleNamespace(Random=lambda seed: RecordingRandom(seed, draws))
        )
        got, seen = run(anneal)
        want, want_seen = run(anneal_reference, rng=RecordingRandom(42, want_draws))

        assert draws == want_draws and len(draws) > 1000
        assert [fp for fp, _, _ in seen] == [fp for fp, _, _ in want_seen]
        for (_, asg, phi), (_, want_asg, want_phi) in zip(seen, want_seen):
            assert asg is None or asg == want_asg
            assert phi is None or phi == want_phi
        assert got == want
        # the floor rejected moves, and at kappa > 0 some before their solve
        rejected = [asg for _, asg, phi in seen if phi is None]
        assert len(rejected) > 50
        assert (None in rejected) == (kappa > 0)

    def test_anchor_floor_rejects_moves_before_their_solve(self, monkeypatch):
        """The power floor of a move is the cost of the current state's
        circulation at the move's delays. With that floor taken away the
        anneal makes the same decisions, but solves some moves that the
        floor rejects before their solve."""
        from voltplan.voltage import WarmStart

        netlist, spec = generated_netlist(*layered_blocks_nets(20, 50), 4, 50, Fraction(3, 4))
        solve = anneal_mod.assign_voltages

        def run():
            seen, solves = [], []

            def counting_solve(tg, curves, *, exact_limit, **kw):
                solves.append(exact_limit)
                return solve(tg, curves, exact_limit=exact_limit, **kw)

            monkeypatch.setattr(anneal_mod, "assign_voltages", counting_solve)
            config = AnnealConfig(
                kappa=Fraction(1, 32), beta=3, max_levels=5,
                observer=lambda *shown: seen.append(shown),
            )
            return anneal(netlist, spec, config, seed=42), seen, solves

        got, seen, solves = run()
        monkeypatch.setattr(WarmStart, "power_floor", lambda self, delays: 0)
        want, want_seen, want_solves = run()

        assert got == want
        assert [fp for fp, _, _ in seen] == [fp for fp, _, _ in want_seen]
        skipped = 0
        for (_, asg, _), (_, want_asg, _) in zip(seen, want_seen):
            assert asg is None or want_asg is not None
            skipped += asg is None and want_asg is not None
        assert skipped > 0
        assert len(solves) < len(want_solves)

    @pytest.mark.parametrize("kappa", [Fraction(0), Fraction(1, 32)], ids=["kappa0", "kappa1_32"])
    def test_one_flow_network_per_anneal(self, monkeypatch, kappa):
        """One anneal builds one WarmStart, and so one flow network, for
        all of its solves, the final exact one included; at kappa 1/32 the
        start has no feasible assignment, so no probe is scored, and the
        first solve after the start's is a move's, made cold."""
        from voltplan import voltage

        networks, outcomes, moves = [], [], []
        perturbs = self._count_calls(monkeypatch, anneal_mod, "perturb")

        class CountingNetwork(voltage.ResidualNetwork):
            def __init__(self, net):
                networks.append(net)
                super().__init__(net)

        solve = anneal_mod.assign_voltages

        def recording_solve(tg, curves, *, exact_limit, **kw):
            moves.append(len(perturbs))
            try:
                asg = solve(tg, curves, exact_limit=exact_limit, **kw)
            except TimingInfeasible:
                outcomes.append(None)
                raise
            outcomes.append(asg)
            return asg

        monkeypatch.setattr(voltage, "ResidualNetwork", CountingNetwork)
        monkeypatch.setattr(anneal_mod, "assign_voltages", recording_solve)
        netlist, spec = generated_netlist(*layered_blocks_nets(20, 50), 4, 50, Fraction(3, 4))
        anneal(netlist, spec, AnnealConfig(kappa=kappa, beta=3, max_levels=5), seed=42)
        assert len(networks) == 1
        assert (outcomes[0] is None) == (kappa > 0)
        assert len([asg for asg in outcomes if asg is not None]) > (10 if kappa else 1)
        if kappa:
            # after the start's solve, none until the 3m probes are drawn
            assert moves[0] == 0 and moves[1] > 3 * netlist.m

    def test_shortest_net_lengths_bound_every_packed_floorplan(self, rng):
        netlist, _ = generated_netlist(*layered_blocks_nets(20, 50), 4, 50, Fraction(3, 4))
        dims = tuple((mod.width, mod.height) for mod in netlist.modules)
        floor = anneal_mod._shortest_per_net2(dims, netlist.nets)
        expr = initial_expr(netlist.m)
        for _ in range(300):
            expr = perturb(expr, rng.randint(1, 3), rng)
            lengths = hpwl2_per_net(_pack(expr, dims), netlist.nets)
            assert all(d2 >= least for d2, least in zip(lengths, floor))

    def test_floor_proof_raises_before_any_candidate(self, monkeypatch, tmp_path, capsys):
        """At kappa 1 the n10 fixture misses its cycle time at the fastest
        levels even with every net at its shortest packed length (at kappa 0
        it fits): the anneal raises with the critical path before it draws
        or shows a candidate, and voltplan run exits 3."""
        netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 4, 42)
        shown = []
        perturbs = self._count_calls(monkeypatch, anneal_mod, "perturb")
        config = AnnealConfig(kappa=Fraction(1), observer=lambda *a: shown.append(a))
        with pytest.raises(TimingInfeasible, match="shortest packed length") as raised:
            anneal(netlist, spec, config, seed=42)
        assert shown == [] and perturbs == []
        path = raised.value.critical_path
        assert len(path) > 1 and all(net in netlist.nets for net in zip(path, path[1:]))

        spec_path = tmp_path / "n10.spec"
        blocks_nets = ["--blocks", str(DATA / "n10.blocks"), "--nets", str(DATA / "n10.nets")]
        assert main(["gen-spec", *blocks_nets, "--k", "4", "--seed", "42", "-o", str(spec_path)]) == 0
        capsys.readouterr()
        assert main([
            "run", *blocks_nets, "--spec", str(spec_path), "--seed", "42",
            "--out", str(tmp_path / "r"), "--kappa", "1",
        ]) == 3
        err = capsys.readouterr().err
        assert "shortest packed length" in err and "(critical path: " in err

    def test_anneal_without_a_floor_proof_searches_before_raising(self):
        """n50 at kappa 1/32: the floor finish, 120, fits the cycle time,
        140, so no proof fires; the anneal's candidates, each one move from
        its infeasible start, find no feasible assignment either."""
        netlist, spec = generated_netlist(*layered_blocks_nets(50, 50), 4, 50)
        with pytest.raises(TimingInfeasible, match="no candidate admitted"):
            anneal(netlist, spec, AnnealConfig(kappa=Fraction(1, 32)), seed=7)

    @pytest.mark.parametrize("annealer", [anneal, anneal_reference], ids=["anneal", "reference"])
    def test_zero_levels_raise_the_infeasible_starts_own_error(self, annealer):
        """The layered-wiredelay instance at kappa 1/32 has no feasible
        assignment at its start: with no level no candidate is drawn, so
        the start's TimingInfeasible, with its critical path, is raised;
        one level finds a feasible floorplan."""
        netlist, spec = generated_netlist(*layered_blocks_nets(20, 50), 4, 50, Fraction(3, 4))
        config = AnnealConfig(kappa=Fraction(1, 32), beta=3, max_levels=0)
        with pytest.raises(TimingInfeasible) as raised:
            annealer(netlist, spec, config, seed=5)
        assert "no candidate admitted" not in str(raised.value)
        path = raised.value.critical_path
        assert len(path) > 1 and all(net in netlist.nets for net in zip(path, path[1:]))
        res = annealer(netlist, spec, dataclasses.replace(config, max_levels=1), seed=5)
        assert res.metrics.power > 0

    # the layered-wiredelay instance's result at anneal seed 42, recorded
    # while the anneal still scored the probes of a start with no feasible
    # assignment: skipping them changes no draw, so no result
    INFEASIBLE_START_RESULT = {
        "power": 70769, "area": 27588, "wirelength_with_ls": 1169, "islands": 8,
        "expr": (
            2, 0, "H", 1, "H", 3, 5, "V", 4, "H", 6, "V", 7, "H", "V", 10, "V", 9, 12, 8,
            "V", "H", "V", 11, "V", 14, 16, "H", 13, "H", "V", 18, "H", 15, "V", 19, "H",
            17, "H",
        ),
    }

    def test_infeasible_start_result_is_pinned(self):
        netlist, spec = generated_netlist(*layered_blocks_nets(20, 50), 4, 50, Fraction(3, 4))
        config = AnnealConfig(kappa=Fraction(1, 32), beta=3, max_levels=5)
        res = anneal(netlist, spec, config, seed=42)
        want = self.INFEASIBLE_START_RESULT
        assert res.expr == want["expr"]
        assert {name: getattr(res.metrics, name) for name in want if name != "expr"} == {
            name: value for name, value in want.items() if name != "expr"
        }

    @pytest.mark.parametrize("start", ["infeasible", "feasible"])
    def test_probes_scored_only_at_a_feasible_start(self, monkeypatch, start):
        """Each of the max(8, 3m) calibration probes draws its move; it is
        packed, solved and scored only when the start has a phi to take its
        delta from."""
        if start == "infeasible":
            netlist, spec = generated_netlist(*layered_blocks_nets(20, 50), 4, 50, Fraction(3, 4))
            config = AnnealConfig(kappa=Fraction(1, 32), beta=3, max_levels=5)
        else:
            netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 4, 42)
            config = AnnealConfig(max_levels=5)
        events = []
        for module, name in (
            (anneal_mod, "perturb"), (anneal_mod, "_pack"), (anneal_mod, "assign_voltages"),
            (anneal_mod._Evaluator, "score"),
        ):
            self._count_calls(monkeypatch, module, name, events, name)
        anneal(netlist, spec, config, seed=42)
        probes = max(8, 3 * netlist.m)
        first_move = [i for i, name in enumerate(events) if name == "perturb"][probes]
        calibration = events[:first_move]
        # the start's solve, which raises when the start is infeasible
        assert calibration[0] == "assign_voltages"
        if start == "infeasible":
            assert calibration[1:] == ["perturb"] * probes
        else:
            assert calibration.count("score") == probes
            assert calibration.count("_pack") == probes

    def test_timing_graph_built_only_on_cache_miss(self, monkeypatch):
        # the graph's structure is derived once per anneal; each solve's graph
        # takes it, with its own wire delays, only on a cache miss: at kappa 0
        # one miss, and one more graph for the exact solve of the final
        # floorplan
        from voltplan.voltage import TimingGraph

        build, solve = anneal_mod.build_timing_graph, anneal_mod.assign_voltages
        with_delays = TimingGraph.with_delays
        built, graphs, exact = [], [], []

        def counting_build(netlist, delays):
            built.append(delays)
            return build(netlist, delays)

        def counting_with_delays(tg, delays):
            graphs.append(delays)
            return with_delays(tg, delays)

        def counting_solve(tg, curves, *, exact_limit, **kw):
            if exact_limit > 0:
                exact.append(tg)
            return solve(tg, curves, exact_limit=exact_limit, **kw)

        monkeypatch.setattr(anneal_mod, "build_timing_graph", counting_build)
        monkeypatch.setattr(TimingGraph, "with_delays", counting_with_delays)
        monkeypatch.setattr(anneal_mod, "assign_voltages", counting_solve)
        netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 3, 77)
        evaluated = []
        cfg = AnnealConfig(max_levels=5, observer=lambda *a: evaluated.append(a))
        anneal(netlist, spec, cfg, seed=3)
        assert len(evaluated) > 100
        assert len(built) == 1
        assert len(exact) == 1
        assert len(graphs) == 1 + len(exact)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_best_takes_each_state_its_own_count(self, monkeypatch, seed):
        """With every count after the start's read as 1, no accepted state
        costs less than the start, whose count, 0, comes from its full
        assignment: phi is nonnegative, and one unplaced shifter weighs ten
        starting phis. Unpatched, the anneal leaves the start."""
        netlist = tiny_netlist(m=8)
        free = anneal(netlist, tiny_shifter(), AnnealConfig(), seed=seed)
        assert free.expr != initial_expr(8)
        counts = []
        monkeypatch.setattr(anneal_mod, "unplaced_count", lambda *args: counts.append(args) or 1)
        res = anneal(netlist, tiny_shifter(), AnnealConfig(), seed=seed)
        assert res.expr == initial_expr(8)
        assert res.metrics.els_count == 0 and len(counts) > 0

    @pytest.mark.parametrize("kappa", [Fraction(0), Fraction(1, 32)], ids=["kappa0", "kappa1_32"])
    def test_unplaced_count_changes_no_decision(self, monkeypatch, kappa):
        """The count enters best tracking alone: read as 2 wherever it is
        taken, the observer sees the same floorplans, assignments and phis."""
        netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 4, 42)

        def run():
            seen = []
            config = AnnealConfig(
                kappa=kappa, max_levels=5, observer=lambda *shown: seen.append(shown)
            )
            anneal(netlist, spec, config, seed=42)
            return seen

        want = run()
        counts = []
        monkeypatch.setattr(anneal_mod, "unplaced_count", lambda *args: counts.append(args) or 2)
        assert run() == want
        assert len(want) > 100 and len(counts) > 0

    def test_best_is_the_least_cost_accepted_state(self, monkeypatch):
        """The anneal counts a state's unplaced shifters only when its phi is
        below the best cost; the oracle counts every accepted state's. With
        shifters at half the smallest block the oracle reads nonzero counts,
        and both end at the same result."""
        import conftest

        blocks, nets = layered_blocks_nets(30, 50)
        area = min(w * h for _, w, h in blocks) // 2
        netlist, spec = generated_netlist(blocks, nets, 4, 50, shifter_area=area)
        lazy = self._count_calls(monkeypatch, anneal_mod, "unplaced_count")
        counts, count = [], conftest.unplaced_count

        def counting(*args):
            counts.append(count(*args))
            return counts[-1]

        monkeypatch.setattr(conftest, "unplaced_count", counting)
        config = AnnealConfig(max_levels=8)
        got = anneal(netlist, spec, config, seed=7)
        assert got == anneal_reference(netlist, spec, config, seed=7)
        assert sum(n > 0 for n in counts) > 100
        assert 0 < len(lazy) < len(counts) // 10

    def test_fixture_n10_counts_pinned(self, monkeypatch):
        """The fixture-n10 workload's anneal at seed 42 counts unplaced
        shifters 9 times; one count per five accepted moves took 327."""
        counts = self._count_calls(monkeypatch, anneal_mod, "unplaced_count")
        netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 4, 42)
        anneal(netlist, spec, AnnealConfig(max_levels=20), seed=42)
        assert len(counts) == 9

    def test_final_search_does_not_recompute_longest_paths(self, monkeypatch):
        # the exact search bounds finish times incrementally; a full longest
        # path runs only for the all-fastest check and the final check
        from voltplan import voltage
        from voltplan.anneal import modified_curves

        netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 4, 42)
        res = anneal(netlist, spec, AnnealConfig(max_levels=5), seed=3)
        # at kappa 0 every floorplan, the final one included, has zero wire delays
        tg = voltage.build_timing_graph(netlist, [0] * len(netlist.nets))
        longest, calls = voltage.longest_path_for, []

        def counting(*args):
            calls.append(args)
            return longest(*args)

        monkeypatch.setattr(voltage, "longest_path_for", counting)
        got = voltage.assign_voltages(
            tg, modified_curves(netlist, spec), exact_limit=voltage.EXACT_LIMIT
        )
        assert got == res.voltage
        assert got.search_nodes > 1000
        assert len(calls) <= 2

    # the n10 fixture's artifacts at max_levels 0 (gen-spec seed 42, k 4,
    # run seed 42), recorded while the anneal still ran its calibration
    # probes, which draw from the RNG but change no artifact
    NO_LEVELS_GOLDEN = {
        Fraction(0): {
            "floorplan.txt": "46698fde303f9d91b46691eb8474c91374c4adc27c964649e086b607171c97d9",
            "shifters.txt": "873f0db88b7953560e09968059b40e3b30e8e219eb92cfe8d16dac59a159bd05",
            "layout.svg": "92310f13a3c3eacae4d558e50f3467a918cfbd7764a9128a6a464f03640d6602",
            "report.csv": "d6bc0e82e99de5030a86ca2281742dc672e68928478e4770458762fef6ccdb60",
        },
        Fraction(1, 32): {
            "floorplan.txt": "6f1e78c4d16b6c6d5b70983b07888d9561f96a22471ac3130b83ad53a12bcee4",
            "shifters.txt": "8fd753a654b7a7d6c37bb2b0f3ab8c2237e94bf4b6c76de17faf1bc58a8d7147",
            "layout.svg": "7b6b21757441c4db444b1190597562f84e99fd20ea7cc275ff6eb25240c60ad9",
            "report.csv": "572c0883f456cf0007ffe1d294b4c5e7f55164245d1e93a2feedf11da796b794",
        },
    }

    @pytest.mark.parametrize("kappa", sorted(NO_LEVELS_GOLDEN), ids=["kappa0", "kappa1_32"])
    def test_no_levels_evaluates_only_the_start(self, tmp_path, kappa):
        """With max_levels 0 nothing reads the temperature, so no calibration
        probe runs: the observer sees the starting candidate alone, and the
        artifacts are those of the starting floorplan."""
        spec = tmp_path / "n10.spec"
        assert main([
            "gen-spec", "--blocks", str(DATA / "n10.blocks"), "--nets", str(DATA / "n10.nets"),
            "--k", "4", "--seed", "42", "-o", str(spec),
        ]) == 0
        out = tmp_path / "out"
        evaluated = []
        run_pipeline(RunConfig(
            blocks_path=str(DATA / "n10.blocks"), nets_path=str(DATA / "n10.nets"),
            spec_path=str(spec), seed=42, out_dir=str(out), kappa=kappa, max_levels=0,
            observer=lambda *a: evaluated.append(a),
        ))
        assert len(evaluated) == 1
        got = {name: (out / name).read_bytes() for name in self.NO_LEVELS_GOLDEN[kappa]}
        # the report's last column is the run time
        got["report.csv"] = "".join(
            row.rsplit(",", 1)[0] + "\n" for row in got["report.csv"].decode().splitlines()
        ).encode()
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in got.items()}
        assert digests == self.NO_LEVELS_GOLDEN[kappa]

    def test_metrics_match_final_shifter_placements(self):
        netlist, spec = fixture_netlist(DATA / "n10.blocks", DATA / "n10.nets", 3, 77)
        res = anneal(netlist, spec, AnnealConfig(max_levels=5), seed=3)
        shifters = required_shifters(netlist.nets, res.voltage.level)
        placements = res.shifters.placements()
        assert shifters and set(placements) == {s.id for s in shifters}
        fp, nets = res.floorplan, netlist.nets
        assert res.metrics.ilo_percent == compute_ilo(shifters, placements, fp, nets)
        assert res.metrics.wirelength_with_ls == wirelength_with_shifters(
            fp, nets, shifters, placements
        )

    def test_result_tiles_and_meets_timing(self):
        nl = tiny_netlist()
        res = anneal(nl, tiny_shifter(), AnnealConfig(), seed=9)
        check_tiling(res.floorplan)
        from voltplan.anneal import modified_curves
        from voltplan.voltage import build_timing_graph

        tg = build_timing_graph(nl, [0] * len(nl.nets))
        curves = modified_curves(nl, tiny_shifter())
        assert longest_path_delay(tg, curves, res.voltage.level) <= nl.t_cycle
