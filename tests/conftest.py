import math
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from voltplan.anneal import (
    T_STOP_RATIO,
    AnnealResult,
    _default_weights,
    _Evaluator,
    _full_metrics,
    _wire_delays,
    modified_curves,
)
from voltplan.bench import gen_spec, parse_blocks, parse_nets, parse_spec
from voltplan.errors import NegativeResidualCycle, TimingInfeasible
from voltplan.floorplan import (
    Floorplan,
    PhiWeights,
    _pack,
    hpwl2_per_net,
    initial_expr,
    pack,
    perturb,
    voltage_islands,
)
from voltplan.model import DPCurve, ModuleBlock, build_netlist, decompose_multipin, validate_dp_curve
from voltplan.flow import network
from voltplan.shifters import (
    _center2_of_rect,
    _detour2,
    _window_box2,
    _windows,
    assign_shifters,
    default_window,
    required_shifters,
    unplaced_count,
)
from voltplan.voltage import TimingGraph, VoltageAssignment, longest_path_for

DATA = Path(__file__).parent / "data"


def arcs_of(net):
    """The network's arcs as (tail, head, cost, upper) rows, in arc order."""
    return list(zip(net.tails, net.heads, net.costs, net.uppers))


def residual_bellman_ford(net, flow, src=None):
    """Oracle: shortest distances in the residual network of `flow`, by
    Bellman-Ford from src, or from a virtual source wired to every node at
    cost 0 when src is None. None marks a node src does not reach. Raises
    NegativeResidualCycle when a negative cycle is reachable.
    """
    edges = []
    for t, h, c, u, f in zip(net.tails, net.heads, net.costs, net.uppers, flow):
        if f < u:
            edges.append((t, h, c))
        if f > 0:
            edges.append((h, t, -c))
    n = net.n_nodes
    if src is None:
        dist = [0] * n
    else:
        dist = [None] * n
        dist[src] = 0
    # a shortest path has fewer than n edges, so without a negative cycle
    # round n changes nothing
    for _ in range(n + 1):
        changed = False
        for t, h, c in edges:
            if dist[t] is not None and (dist[h] is None or dist[t] + c < dist[h]):
                dist[h] = dist[t] + c
                changed = True
        if not changed:
            return dist
    raise NegativeResidualCycle("negative residual cycle")


def certify_optimal(net, result) -> tuple[int, ...]:
    """Potentials valid over the whole residual graph of `result`, from the
    Bellman-Ford oracle; that they exist proves there is no negative
    residual cycle, i.e. the flow is optimal. Raises NegativeResidualCycle
    otherwise.
    """
    return tuple(residual_bellman_ford(net, result.flow))


def longest_path_delay(tg, curves, levels) -> int:
    """Exact longest s-to-t path when module i runs at levels[i]."""
    return longest_path_for(tg, [c.delay(q) for c, q in zip(curves, levels)])[0]


def phi_weights(area=1, wirelength=1, power=1, islands=0, unplaced=0) -> PhiWeights:
    return PhiWeights.over_common_denominator(area, wirelength, power, islands, unplaced)


def random_curve(rng, k):
    """Random valid curve: strictly decreasing integer slopes."""
    delays = [rng.randint(1, 12)]
    for _ in range(k - 1):
        delays.append(delays[-1] + rng.randint(1, 6))
    slopes = sorted(rng.sample(range(1, 60), k - 1), reverse=True)
    powers = [0] * k
    powers[k - 1] = rng.randint(0, 20)
    for q in range(k - 1, 0, -1):
        gap = delays[q] - delays[q - 1]
        powers[q - 1] = powers[q] + slopes[q - 1] * gap
    curve = DPCurve(points=tuple((i + 1, delays[i], powers[i]) for i in range(k)))
    return validate_dp_curve(curve, k)


def random_timing_instance(rng, max_m=8, k_choices=(2, 3, 4), edge_prob=0.35, min_m=1):
    """Random DAG + curves + a cycle budget between tight and loose."""
    m = rng.randint(min_m, max_m)
    k = rng.choice(list(k_choices))
    curves = [random_curve(rng, k) for _ in range(m)]
    wires = []
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < edge_prob:
                wires.append((i, j, rng.randint(0, 4)))
    base = TimingGraph(m=m, wires=tuple(wires), t_cycle=0)
    cp_fast, _ = longest_path_for(base, [c.delay(1) for c in curves])
    cp_slow, _ = longest_path_for(base, [c.delay(c.k) for c in curves])
    t_cycle = rng.randint(cp_fast, cp_slow + 3)
    return TimingGraph(m=m, wires=base.wires, t_cycle=t_cycle), curves


def brute_force_assign(tg: TimingGraph, curves, *, bound: int = 8) -> VoltageAssignment:
    """Exhaustive oracle: enumerate every level vector, keep the cheapest
    feasible one, ties broken by the lexicographically smallest vector.

    Vectorized over numpy so 4^8 instances stay fast; raises ValueError above
    `bound` modules and TimingInfeasible when nothing fits the cycle time.
    """
    m = tg.m
    if m > bound:
        raise ValueError(f"{m} modules exceeds the oracle bound {bound}")
    curves = list(curves)
    ks = [c.k for c in curves]
    total = 1
    for k in ks:
        total *= k
    # combo index c enumerates level vectors lexicographically with module 0
    # as the most significant digit
    level_of = []
    radix = total
    for i in range(m):
        radix //= ks[i]
        idx = (np.arange(total) // radix) % ks[i]
        level_of.append(idx)
    delays = []
    powers = np.zeros(total, dtype=np.int64)
    for i, c in enumerate(curves):
        dl = np.asarray([p[1] for p in c.points], dtype=np.int64)
        pw = np.asarray([p[2] for p in c.points], dtype=np.int64)
        delays.append(dl[level_of[i]])
        powers += pw[level_of[i]]

    arr_in = [None] * m
    for i in tg.order:
        ai = np.zeros(total, dtype=np.int64)
        for src, w in tg.fanin[i]:
            np.maximum(ai, arr_in[src] + delays[src] + tg.wires[w][2], out=ai)
        arr_in[i] = ai
    finish = np.zeros(total, dtype=np.int64)
    for i in tg.sinks:
        np.maximum(finish, arr_in[i] + delays[i], out=finish)
    feasible = finish <= tg.t_cycle
    if not feasible.any():
        raise TimingInfeasible("no level vector meets the cycle time")
    masked = np.where(feasible, powers, np.iinfo(np.int64).max)
    best = int(np.argmin(masked))  # first minimum == lexicographically smallest
    levels = tuple(int(level_of[i][best]) + 1 for i in range(m))
    power = int(powers[best])
    return VoltageAssignment(
        level=levels, total_power=power, lower_bound=power, proved_optimal=True
    )


class Room(NamedTuple):
    """Oracle view of one room of a floorplan: its origin and size, and the
    size of its module, which sits at the origin."""

    x: int
    y: int
    w: int
    h: int
    module_w: int
    module_h: int


def floorplan_of_rooms(chip_w, chip_h, rooms) -> Floorplan:
    """The floorplan whose columns hold the rooms, in order."""
    rooms = tuple(rooms)
    return Floorplan(
        chip_w, chip_h,
        [r.x for r in rooms], [r.y for r in rooms], [r.w for r in rooms], [r.h for r in rooms],
        tuple((r.module_w, r.module_h) for r in rooms),
    )


def one_room(room: Room) -> Floorplan:
    """The floorplan of a lone room, its chip reaching the room's far corner."""
    return floorplan_of_rooms(room.x + room.w, room.y + room.h, [room])


def rooms_of(fp) -> tuple[Room, ...]:
    """One Room per module, read from the floorplan's columns."""
    return tuple(
        Room(x, y, w, h, mw, mh)
        for x, y, w, h, (mw, mh) in zip(fp.xs, fp.ys, fp.ws, fp.hs, fp.dims)
    )


def recursive_pack(expr, dims) -> Floorplan:
    """Reference packer: the slicing tree as nested tuples, rooms assigned
    by recursion (as deep as the tree, so only for small expressions)."""
    # bottom-up sizes; tree nodes as (op, left, right, w, h) tuples
    stack = []
    for t in expr:
        if isinstance(t, str):
            right = stack.pop()
            left = stack.pop()
            if t == "H":
                w = max(left[3], right[3])
                h = left[4] + right[4]
            else:
                w = left[3] + right[3]
                h = max(left[4], right[4])
            stack.append((t, left, right, w, h))
        else:
            stack.append((None, None, None, dims[t][0], dims[t][1], t))
    root = stack.pop()

    rooms: list[Room | None] = [None] * len(dims)

    def assign(node, x, y, w, h):
        if node[0] is None:
            idx = node[5]
            rooms[idx] = Room(x, y, w, h, node[3], node[4])
            return
        op, left, right = node[0], node[1], node[2]
        if op == "H":
            assign(left, x, y, w, left[4])
            assign(right, x, y + left[4], w, h - left[4])
        else:
            assign(left, x, y, left[3], h)
            assign(right, x + left[3], y, w - left[3], h)

    assign(root, 0, 0, root[3], root[4])
    return floorplan_of_rooms(root[3], root[4], rooms)


def whitespace_parts(room: Room):
    """Oracle: the three whitespace rectangles (x, y, w, h) of a room, the
    right strip, the top strip and the corner; zero-sized parts allowed."""
    sw = room.w - room.module_w
    sh = room.h - room.module_h
    p1 = (room.x + room.module_w, room.y, sw, room.module_h)
    p2 = (room.x, room.y + room.module_h, room.module_w, sh)
    p3 = (room.x + room.module_w, room.y + room.module_h, sw, sh)
    return p1, p2, p3


def _fits(w, h, sw, sh) -> bool:
    return (w >= sw and h >= sh) or (w >= sh and h >= sw)


def room_slots(room: Room, spec):
    """Oracle whitespace model on a Room: (capacity, spots, spot grids).

    Capacity: zero too-narrow strips, merge the corner into the strip with
    the larger area remainder mod the shifter area (ties: top strip), and
    floor-sum the two areas. The spot grids are what place_in_room fills,
    one per post-merge region: (x, y, cols, rows, w, h), a cols x rows grid
    of w x h spots from (x, y), in the orientation that holds more (ties:
    unrotated); spots is their total.
    """
    p1, p2, p3 = whitespace_parts(room)
    a1 = p1[2] * p1[3]
    a2 = p2[2] * p2[3]
    a3 = p3[2] * p3[3]
    if not _fits(p1[2], p1[3], spec.width, spec.height):
        a1 = 0
    if not _fits(p2[2], p2[3], spec.width, spec.height):
        a2 = 0
    a = spec.area
    if a1 % a > a2 % a:
        regions = ((p1[0], p1[1], p1[2], room.h), p2)  # full right strip
        a1 += a3
    else:
        regions = (p1, (p2[0], p2[1], room.w, p2[3]))  # full top strip
        a2 += a3
    grids = []
    spots = 0
    for rx, ry, rw, rh in regions:
        if rw <= 0 or rh <= 0:
            continue
        straight = (rw // spec.width) * (rh // spec.height)
        rotated = (rw // spec.height) * (rh // spec.width)
        if rotated > straight:
            cw, ch = spec.height, spec.width
        else:
            cw, ch = spec.width, spec.height
        grids.append((rx, ry, rw // cw, rh // ch, cw, ch))
        spots += max(straight, rotated)
    return a1 // a + a2 // a, spots, grids


def room_spot_rects(room: Room, spec) -> list:
    """Oracle: every spot rectangle of the room, in the row-major order
    place_in_room fills them."""
    return [
        (rx + col * cw, ry + row * ch, cw, ch)
        for rx, ry, cols, rows, cw, ch in room_slots(room, spec)[2]
        for row in range(rows)
        for col in range(cols)
    ]


def all_rooms_network(shifters, floorplan, spec, window):
    """Oracle for build_assignment_network: the same network with every
    room's capacity and center taken from its Room, and an arc to t for
    every room with capacity, in a window or not."""
    n_ls = len(shifters)
    rooms = rooms_of(floorplan)
    room_base = 2 + n_ls
    arcs = [(0, 2 + j, 0, 1) for j in range(n_ls)]
    pair_arcs = {}
    caps = [room_slots(room, spec)[0] for room in rooms]
    for j, (a, b, reach) in enumerate(_windows(shifters, floorplan, window)):
        for r in reach:
            if caps[r] >= 1:
                pair_arcs[(j, r)] = len(arcs)
                center = _center2_of_rect(rooms[r][:4])
                arcs.append((2 + j, room_base + r, _detour2(a, b, center), 1))
    for r, cap in enumerate(caps):
        if cap > 0:
            arcs.append((room_base + r, 1, 0, cap))
    return network(room_base + len(rooms), arcs), 0, 1, pair_arcs


def _ends2(floorplan, shifter):
    """Doubled centers of the shifter's source and sink modules, from their
    rooms (independent of Floorplan.centers2)."""
    rooms = rooms_of(floorplan)
    return tuple(
        (2 * r.x + r.module_w, 2 * r.y + r.module_h)
        for r in (rooms[shifter.source], rooms[shifter.sink])
    )


def in_window(bbox2, room: Room) -> bool:
    """Room overlaps (or touches) a doubled-coordinate box from _window_box2."""
    x0, y0, x1, y1 = bbox2
    rx0, ry0 = 2 * room.x, 2 * room.y
    rx1, ry1 = 2 * (room.x + room.w), 2 * (room.y + room.h)
    return rx0 <= x1 and x0 <= rx1 and ry0 <= y1 and y0 <= ry1


def feasible(shifter, room, floorplan, spec, window) -> bool:
    """Room can host the shifter: capacity >= 1 and the room lies within the
    source-sink bounding box expanded by `window` on all sides."""
    return room_slots(room, spec)[0] >= 1 and in_window(
        _window_box2(*_ends2(floorplan, shifter), 2 * window), room
    )


def assign_cost(shifter, room, floorplan) -> int:
    """Manhattan detour of routing the net through the room center
    (doubled coordinates, always nonnegative)."""
    return _detour2(*_ends2(floorplan, shifter), _center2_of_rect(room[:4]))


def fixture_netlist(path_blocks, path_nets, k, seed, slack=Fraction(1, 2)):
    """A blocks/nets pair with a spec generated for k levels from seed."""
    blocks = parse_blocks(Path(path_blocks).read_text())
    nets = parse_nets(Path(path_nets).read_text(), [b[0] for b in blocks])
    return generated_netlist(blocks, nets, k, seed, slack)


def layered_blocks_nets(m, seed):
    """Random block sizes, each block driving up to two of the next seven."""
    rng = random.Random(seed)
    blocks = [(f"b{i}", rng.randint(8, 40), rng.randint(8, 40)) for i in range(m)]
    nets = []
    for i in range(m):
        fanout = rng.randint(0, 2)
        sinks = [j for j in range(i + 1, min(m, i + 8))]
        rng.shuffle(sinks)
        take = sinks[:fanout]
        if take:
            nets.append((f"b{i}", [f"b{j}" for j in take]))
    return blocks, nets


def generated_netlist(blocks, nets, k, seed, slack=Fraction(1, 2), shifter_area=None):
    """The netlist of parsed blocks and nets, with a spec generated for k
    levels from seed, and its shifter spec."""
    text = gen_spec(seed, blocks, nets, k, timing_slack=slack, shifter_area=shifter_area)
    curves, spec, t_cycle, _ = parse_spec(text)
    modules = [
        ModuleBlock(name=n, width=w, height=h, curve=curves[n]) for n, w, h in blocks
    ]
    netlist = build_netlist(modules, decompose_multipin(nets), t_cycle, k)
    return netlist, spec


class RecordingRandom(random.Random):
    """random.Random that appends each draw to log: random() as its float,
    getrandbits(k), under randint and the rest, as (k, bits)."""

    def __init__(self, seed, log):
        self.log = log
        super().__init__(seed)

    def random(self):
        draw = super().random()
        self.log.append(draw)
        return draw

    def getrandbits(self, k):
        bits = super().getrandbits(k)
        self.log.append((k, bits))
        return bits


def anneal_reference(netlist, spec, config, seed, rng=None):
    """Oracle: the annealer that scores every candidate in full (voltage
    solve, island count, phi) before its accept test, as the anneal did
    before it rejected moves on a floor of phi, and that takes the
    unplaced-shifter count of every accepted state for best tracking. rng,
    when given, replaces random.Random(seed)."""
    rng = random.Random(seed) if rng is None else rng
    curves = modified_curves(netlist, spec)
    ev = _Evaluator(netlist, curves, config)
    m = netlist.m
    expr = initial_expr(m)

    fp0 = pack(expr, ev.dims)
    window = default_window(fp0) if config.window is None else config.window
    per_net2 = hpwl2_per_net(fp0, netlist.nets)
    wl0 = sum(per_net2) // 2
    try:
        asg0 = ev.voltage_for(_wire_delays(per_net2, config.kappa))
    except TimingInfeasible:
        if config.kappa == 0:
            raise
        weights = _default_weights(fp0.area, wl0, 0, 1, m)
        phi = None
    else:
        shifters0 = required_shifters(netlist.nets, asg0.level)
        unplaced0 = len(assign_shifters(shifters0, fp0, spec, window=window).els)
        islands0 = voltage_islands(fp0, asg0.level)
        weights = _default_weights(fp0.area, wl0, asg0.total_power, islands0, m)
        phi = ev.phi(fp0, wl0, asg0, islands0, weights)
    scale = weights.denominator

    probes = []
    probe_expr = expr
    for _ in range(max(8, 3 * m) if config.max_levels else 0):
        move = rng.randint(1, 3)
        probe_expr = perturb(probe_expr, move, rng)
        if phi is None:
            continue  # no phi to take a delta from: the probe only draws
        cphi, _ = ev.score(_pack(probe_expr, ev.dims), weights)
        if cphi is not None and cphi > phi:
            probes.append((cphi - phi) / scale)
    if probes:
        t0 = (sum(probes) / len(probes)) / math.log(1.0 / config.accept_target)
    else:
        t0 = 1.0
    temp = t0

    best_expr = expr
    best_cost = None if phi is None else phi + weights.unplaced * unplaced0
    cur_phi = phi
    idle_levels = 0
    for _level in range(config.max_levels):
        accepted_here = 0
        for _step in range(config.beta * m):
            move = rng.randint(1, 3)
            cand = perturb(expr, move, rng)
            cand_fp = _pack(cand, ev.dims)
            cand_phi, cand_asg = ev.score(cand_fp, weights)
            if cand_phi is None:
                continue
            if cur_phi is None:
                accept = True
            else:
                delta = cand_phi - cur_phi
                accept = delta <= 0 or rng.random() < math.exp(
                    -(delta / scale) / max(temp, 1e-12)
                )
            if accept:
                expr = cand
                cur_phi = cand_phi
                accepted_here += 1
                shifters = required_shifters(netlist.nets, cand_asg.level)
                unplaced = unplaced_count(shifters, cand_fp, spec, window)
                cost = cand_phi + weights.unplaced * unplaced
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_expr = expr
        temp *= config.alpha
        idle_levels = idle_levels + 1 if accepted_here == 0 else 0
        if idle_levels >= 2 or temp < t0 * T_STOP_RATIO:
            break

    if best_cost is None:
        raise TimingInfeasible("no candidate admitted a feasible assignment")

    final_fp = _pack(best_expr, ev.dims)
    final_delays = _wire_delays(hpwl2_per_net(final_fp, netlist.nets), config.kappa)
    final_asg = ev.voltage_for(final_delays, exact=True)
    sa, metrics = _full_metrics(netlist, spec, final_fp, final_asg, weights, window)
    return AnnealResult(
        floorplan=final_fp, voltage=final_asg, shifters=sa, metrics=metrics, expr=best_expr
    )


@pytest.fixture
def rng():
    return random.Random(20260808)
