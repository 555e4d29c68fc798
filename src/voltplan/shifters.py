"""Level-shifter demand, whitespace capacity, assignment and placement.

A shifter is needed wherever a lower-voltage module drives a higher-voltage
one (level 1 is the highest voltage, so source level index > sink level
index). Room capacity follows the whitespace model: the corner part merges
into whichever strip wastes more area modulo the shifter footprint, strips
too narrow to hold the shifter in either orientation count as zero, and the
capacity is the floor-sum of the two resulting areas. Assignment of shifters
to rooms is a min-cost max-flow over a bipartite network with detour costs;
whatever cannot be assigned (or packed geometrically) lands in the fallback
set and is placed on the source module's boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .flow import network, solve_min_cost_max_flow
from .floorplan import Floorplan, Room, module_center2, whitespace_parts
from .model import ShifterSpec


@dataclass(frozen=True)
class Shifter:
    id: int
    net_index: int
    source: int
    sink: int
    driver_level: int


def required_shifters(nets, assignment) -> list[Shifter]:
    """One shifter per net whose source sits at a lower voltage than its sink."""
    levels = assignment.level if hasattr(assignment, "level") else tuple(assignment)
    out = []
    for idx, (src, dst) in enumerate(nets):
        if levels[src] > levels[dst]:
            out.append(
                Shifter(
                    id=len(out),
                    net_index=idx,
                    source=src,
                    sink=dst,
                    driver_level=levels[src],
                )
            )
    return out


def _fits(w, h, sw, sh) -> bool:
    return (w >= sw and h >= sh) or (w >= sh and h >= sw)


def _capacity_and_merge(room: Room, spec: ShifterSpec):
    """Algorithm: zero too-narrow strips, merge the corner into the strip
    with the larger area remainder mod the shifter area (ties: top strip),
    return (capacity, merge_into_p1)."""
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
        a1 += a3
        merge_into_p1 = True
    else:
        a2 += a3
        merge_into_p1 = False
    return a1 // a + a2 // a, merge_into_p1


def num_ls(room: Room, spec: ShifterSpec) -> int:
    """How many shifters the room's whitespace can hold (area model)."""
    cap, _ = _capacity_and_merge(room, spec)
    return cap


def numls_from_areas(a1: int, a2: int, a3: int, a_ls: int) -> int:
    """Capacity arithmetic on bare areas (narrowness already applied)."""
    if a1 % a_ls > a2 % a_ls:
        a1 += a3
    else:
        a2 += a3
    return a1 // a_ls + a2 // a_ls


def _bbox_with_window(floorplan, shifter: Shifter, window2: int):
    ax, ay = module_center2(floorplan.rooms[shifter.source])
    bx, by = module_center2(floorplan.rooms[shifter.sink])
    return (
        min(ax, bx) - window2,
        min(ay, by) - window2,
        max(ax, bx) + window2,
        max(ay, by) + window2,
    )


def feasible(shifter: Shifter, room: Room, floorplan, spec, window: int) -> bool:
    """Room can host the shifter: capacity >= 1 and the room lies within the
    source-sink bounding box expanded by `window` on all sides."""
    if num_ls(room, spec) < 1:
        return False
    x0, y0, x1, y1 = _bbox_with_window(floorplan, shifter, 2 * window)
    rx0, ry0 = 2 * room.x, 2 * room.y
    rx1, ry1 = 2 * (room.x + room.w), 2 * (room.y + room.h)
    return rx0 <= x1 and x0 <= rx1 and ry0 <= y1 and y0 <= ry1


def _center2_of_rect(rect) -> tuple[int, int]:
    x, y, w, h = rect
    return (2 * x + w, 2 * y + h)


def _route2(floorplan, src, dst, via=None) -> tuple[int, int]:
    """Doubled-coordinate Manhattan lengths between the centers of modules
    src and dst: (direct length, detour of routing through the doubled point
    `via`, 0 without one)."""
    ax, ay = module_center2(floorplan.rooms[src])
    bx, by = module_center2(floorplan.rooms[dst])
    direct = abs(ax - bx) + abs(ay - by)
    if via is None:
        return direct, 0
    cx, cy = via
    return direct, abs(ax - cx) + abs(ay - cy) + abs(cx - bx) + abs(cy - by) - direct


def assign_cost(shifter: Shifter, room: Room, floorplan) -> int:
    """Manhattan detour of routing the net through the room center
    (doubled coordinates, always nonnegative)."""
    center2 = (2 * room.x + room.w, 2 * room.y + room.h)
    return _route2(floorplan, shifter.source, shifter.sink, center2)[1]


def default_window(floorplan: Floorplan) -> int:
    """Half the mean room dimension."""
    m = len(floorplan.rooms)
    if m == 0:
        return 0
    return sum(r.w + r.h for r in floorplan.rooms) // (4 * m)


@dataclass(frozen=True)
class ShifterAssignment:
    """Outcome of the flow assignment plus geometric realization.

    assigned: (shifter, room index, rectangle) per shifter that got a room
    and a spot inside its whitespace; els: (shifter, rectangle) fallbacks.
    Rectangles are (x, y, w, h) in chip units.
    """

    assigned: tuple
    els: tuple
    ilo_percent: Fraction

    @property
    def n(self) -> int:
        return len(self.assigned) + len(self.els)

    def placements(self):
        """shifter -> rectangle for every shifter, room-placed or fallback."""
        out = {}
        for shifter, _room, rect in self.assigned:
            out[shifter.id] = rect
        for shifter, rect in self.els:
            out[shifter.id] = rect
        return out


def build_assignment_network(shifters, floorplan, spec, window):
    """Bipartite network: s -> shifters (cap 1) -> feasible rooms (cap 1,
    detour cost) -> t (cap = room capacity). Returns (net, s, t, arc map)."""
    n_ls = len(shifters)
    m = len(floorplan.rooms)
    s_node = 0
    t_node = 1
    ls_base = 2
    room_base = 2 + n_ls
    arcs = []
    pair_arcs = {}
    for j, shifter in enumerate(shifters):
        arcs.append((s_node, ls_base + j, 0, 0, 1, ("src", shifter.id)))
    for j, shifter in enumerate(shifters):
        for r in range(m):
            room = floorplan.rooms[r]
            if feasible(shifter, room, floorplan, spec, window):
                pair_arcs[(j, r)] = len(arcs)
                cost = assign_cost(shifter, room, floorplan)
                arcs.append(
                    (ls_base + j, room_base + r, cost, 0, 1, ("ls", shifter.id, r))
                )
    for r in range(m):
        cap = num_ls(floorplan.rooms[r], spec)
        if cap > 0:
            arcs.append((room_base + r, t_node, 0, 0, cap, ("room", r)))
    net = network(2 + n_ls + m, arcs)
    return net, s_node, t_node, pair_arcs


def place_in_room(room: Room, shifters, spec: ShifterSpec):
    """Greedy row-major packing of shifter rectangles into the room's
    whitespace (post-merge geometry, best orientation per part).

    Returns (placed rectangles, leftover shifters)."""
    _cap, merge_into_p1 = _capacity_and_merge(room, spec)
    p1, p2, p3 = whitespace_parts(room)
    if merge_into_p1:
        regions = [
            (p1[0], p1[1], p1[2], room.h),  # full right strip
            p2,
        ]
    else:
        regions = [
            p1,
            (p2[0], p2[1], room.w, p2[3]),  # full top strip
        ]
    spots = []
    for rx, ry, rw, rh in regions:
        if rw <= 0 or rh <= 0:
            continue
        straight = (rw // spec.width) * (rh // spec.height)
        rotated = (rw // spec.height) * (rh // spec.width)
        if rotated > straight:
            cw, ch = spec.height, spec.width
        else:
            cw, ch = spec.width, spec.height
        for row in range(rh // ch):
            for col in range(rw // cw):
                spots.append((rx + col * cw, ry + row * ch, cw, ch))
    placed = []
    leftover = []
    for i, shifter in enumerate(shifters):
        if i < len(spots):
            placed.append((shifter, spots[i]))
        else:
            leftover.append(shifter)
    return placed, leftover


def els_place(shifter: Shifter, floorplan) -> tuple[int, int, int, int]:
    """Fallback spot: on the source module's boundary, at the point nearest
    the sink center. Pure bookkeeping; overlap is allowed."""
    room = floorplan.rooms[shifter.source]
    sx, sy = module_center2(floorplan.rooms[shifter.sink])
    # nearest boundary point of the module rectangle, doubled coordinates
    x0, y0 = 2 * room.x, 2 * room.y
    x1, y1 = x0 + 2 * room.module_w, y0 + 2 * room.module_h
    px = min(max(sx, x0), x1)
    py = min(max(sy, y0), y1)
    if x0 < px < x1 and y0 < py < y1:
        # sink center inside the module: snap to the closest edge
        gaps = [(px - x0, (x0, py)), (x1 - px, (x1, py)), (py - y0, (px, y0)), (y1 - py, (px, y1))]
        px, py = min(gaps)[1]
    elif x0 < px < x1:
        py = y0 if abs(sy - y0) <= abs(sy - y1) else y1
    elif y0 < py < y1:
        px = x0 if abs(sx - x0) <= abs(sx - x1) else x1
    return (px // 2, py // 2, 0, 0)


def compute_ilo(shifters, placements, floorplan, nets) -> Fraction:
    """Interconnect length overhead: detour through each shifter position as
    a percentage of the total direct length over all nets."""
    denom2 = sum(_route2(floorplan, src, dst)[0] for src, dst in nets)
    if denom2 == 0:
        return Fraction(0)
    num2 = sum(
        _route2(floorplan, s.source, s.sink, _center2_of_rect(placements[s.id]))[1]
        for s in shifters
    )
    return Fraction(num2, denom2) * 100


def wirelength_with_shifters(floorplan, nets, shifters, placements) -> int:
    """Total wirelength when shifted nets route through their shifter."""
    via = {s.net_index: _center2_of_rect(placements[s.id]) for s in shifters}
    total2 = 0
    for idx, (src, dst) in enumerate(nets):
        direct, detour = _route2(floorplan, src, dst, via.get(idx))
        total2 += direct + detour
    return total2 // 2


def assign_shifters(shifters, floorplan, spec, window=None, nets=None) -> ShifterAssignment:
    """Assign each shifter a room by min-cost max-flow, realize placements
    inside whitespace, and fall back for whatever does not fit.

    nets (the full two-pin list) sets the overhead denominator; without it
    only the shifted nets' direct lengths are counted."""
    shifters = list(shifters)
    if window is None:
        window = default_window(floorplan)
    if nets is None:
        nets = [(s.source, s.sink) for s in shifters]
    if not shifters:
        return ShifterAssignment(assigned=(), els=(), ilo_percent=Fraction(0))
    net, s_node, t_node, pair_arcs = build_assignment_network(
        shifters, floorplan, spec, window
    )
    result = solve_min_cost_max_flow(net, s_node, t_node)
    room_of = {}
    for (j, r), arc_idx in pair_arcs.items():
        if result.flow[arc_idx] > 0:
            room_of[j] = r
    by_room = {}
    unassigned = []
    for j, shifter in enumerate(shifters):
        if j in room_of:
            by_room.setdefault(room_of[j], []).append(shifter)
        else:
            unassigned.append(shifter)
    assigned = []
    for room_idx in sorted(by_room):
        placed, leftover = place_in_room(
            floorplan.rooms[room_idx], by_room[room_idx], spec
        )
        for shifter, rect in placed:
            assigned.append((shifter, room_idx, rect))
        unassigned.extend(leftover)
    els = []
    for shifter in sorted(unassigned, key=lambda s: s.id):
        els.append((shifter, els_place(shifter, floorplan)))
    sa = ShifterAssignment(assigned=tuple(assigned), els=tuple(els), ilo_percent=Fraction(0))
    return replace(sa, ilo_percent=compute_ilo(shifters, sa.placements(), floorplan, nets))
