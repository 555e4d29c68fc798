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

The annealer's cost reads only how many shifters land in that fallback set.
unplaced_count gives that number without the min-cost flow whenever no room
can receive more shifters than it has spots, from a capacity-only matching;
the full assign_shifters runs on the anneal's starting and final floorplans
and where a room could overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flow import network, solve_min_cost_max_flow
from .floorplan import Floorplan, Room, hpwl2_per_net, module_center2, whitespace_parts
from .model import ShifterSpec


@dataclass(frozen=True)
class Shifter:
    id: int
    net_index: int
    source: int
    sink: int
    driver_level: int


def required_shifters(nets, levels) -> list[Shifter]:
    """One shifter per net whose source sits at a lower voltage than its sink;
    levels holds one voltage level per module."""
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


def _room_slots(room: Room, spec: ShifterSpec):
    """A room's whitespace model: (capacity, spots, spot grids).

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
    else:
        regions = (p1, (p2[0], p2[1], room.w, p2[3]))  # full top strip
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
    return numls_from_areas(a1, a2, a3, a), spots, grids


def num_ls(room: Room, spec: ShifterSpec) -> int:
    """How many shifters the room's whitespace can hold (area model)."""
    return _room_slots(room, spec)[0]


def numls_from_areas(a1: int, a2: int, a3: int, a_ls: int) -> int:
    """Capacity arithmetic on bare areas (narrowness already applied)."""
    if a1 % a_ls > a2 % a_ls:
        a1 += a3
    else:
        a2 += a3
    return a1 // a_ls + a2 // a_ls


def _ends2(floorplan, shifter: Shifter):
    """Doubled-coordinate centers of the shifter's source and sink modules."""
    rooms = floorplan.rooms
    return module_center2(rooms[shifter.source]), module_center2(rooms[shifter.sink])


def _window_box2(a, b, window2: int):
    """Box around the doubled points a and b, grown by window2 on all sides."""
    (ax, ay), (bx, by) = a, b
    return (
        min(ax, bx) - window2,
        min(ay, by) - window2,
        max(ax, bx) + window2,
        max(ay, by) + window2,
    )


def _detour2(a, b, via) -> int:
    """Extra Manhattan length of routing a -> b through via (doubled points,
    always nonnegative)."""
    (ax, ay), (bx, by), (cx, cy) = a, b, via
    return (
        abs(ax - cx) + abs(ay - cy) + abs(cx - bx) + abs(cy - by)
        - abs(ax - bx) - abs(ay - by)
    )


def _center2_of_rect(rect) -> tuple[int, int]:
    """Doubled center of an (x, y, w, h) rectangle or of a room's box."""
    x, y, w, h = rect[:4]
    return (2 * x + w, 2 * y + h)


def _in_window(bbox2, room: Room) -> bool:
    """Room overlaps a doubled-coordinate box from _window_box2."""
    x0, y0, x1, y1 = bbox2
    rx0, ry0 = 2 * room.x, 2 * room.y
    rx1, ry1 = 2 * (room.x + room.w), 2 * (room.y + room.h)
    return rx0 <= x1 and x0 <= rx1 and ry0 <= y1 and y0 <= ry1


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
    detour cost) -> t (cap = room capacity). Returns (net, s, t, arc map).

    Each shifter's module centers and window box, and each room's center
    and capacity, are taken once."""
    n_ls = len(shifters)
    rooms = floorplan.rooms
    m = len(rooms)
    s_node = 0
    t_node = 1
    ls_base = 2
    room_base = 2 + n_ls
    arcs = [(s_node, ls_base + j, 0, 1) for j in range(n_ls)]
    pair_arcs = {}
    caps = [num_ls(room, spec) for room in rooms]
    centers = [_center2_of_rect(room) for room in rooms]
    for j, shifter in enumerate(shifters):
        a, b = _ends2(floorplan, shifter)
        box2 = _window_box2(a, b, 2 * window)
        for r, room in enumerate(rooms):
            if caps[r] >= 1 and _in_window(box2, room):
                pair_arcs[(j, r)] = len(arcs)
                arcs.append((ls_base + j, room_base + r, _detour2(a, b, centers[r]), 1))
    for r, cap in enumerate(caps):
        if cap > 0:
            arcs.append((room_base + r, t_node, 0, cap))
    net = network(2 + n_ls + m, arcs)
    return net, s_node, t_node, pair_arcs


def place_in_room(room: Room, shifters, spec: ShifterSpec):
    """Greedy row-major packing of shifter rectangles into the room's
    whitespace (post-merge geometry, best orientation per part).

    Returns (placed rectangles, leftover shifters)."""
    def spots():
        for rx, ry, cols, rows, cw, ch in _room_slots(room, spec)[2]:
            for row in range(rows):
                for col in range(cols):
                    yield (rx + col * cw, ry + row * ch, cw, ch)

    # zip stops at the last shifter, so no spot past it is generated
    shifters = list(shifters)
    placed = list(zip(shifters, spots()))
    return placed, shifters[len(placed):]


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


def _detour_total2(floorplan, shifters, placements) -> int:
    """Doubled detour summed over the shifters, each net routed through the
    center of its shifter's rectangle."""
    return sum(
        _detour2(*_ends2(floorplan, s), _center2_of_rect(placements[s.id])) for s in shifters
    )


def compute_ilo(shifters, placements, floorplan, nets) -> Fraction:
    """Interconnect length overhead: detour through each shifter position as
    a percentage of the total direct length over all nets."""
    denom2 = sum(hpwl2_per_net(floorplan, nets))
    if denom2 == 0:
        return Fraction(0)
    return Fraction(_detour_total2(floorplan, shifters, placements), denom2) * 100


def wirelength_with_shifters(floorplan, nets, shifters, placements) -> int:
    """Total wirelength when shifted nets route through their shifter (at
    most one shifter per net, as required_shifters builds them)."""
    return (
        sum(hpwl2_per_net(floorplan, nets)) + _detour_total2(floorplan, shifters, placements)
    ) // 2


def assign_shifters(shifters, floorplan, spec, window=None) -> ShifterAssignment:
    """Assign each shifter a room by min-cost max-flow, realize placements
    inside whitespace, and fall back for whatever does not fit."""
    shifters = list(shifters)
    if window is None:
        window = default_window(floorplan)
    if not shifters:
        return ShifterAssignment(assigned=(), els=())
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
    return ShifterAssignment(assigned=tuple(assigned), els=tuple(els))


def _max_matching(options, caps) -> int:
    """Size of a maximum matching of items to bins: item j may go to any bin
    in options[j], and bin r holds at most caps[r] items. Greedy first, then
    one breadth-first augmenting-path search per item left unmatched; an
    item without an augmenting path never gains one later."""
    free = list(caps)
    bin_of = [None] * len(options)
    held = [[] for _ in caps]
    unmatched = []
    for j, opts in enumerate(options):
        for r in opts:
            if free[r]:
                free[r] -= 1
                bin_of[j] = r
                held[r].append(j)
                break
        else:
            unmatched.append(j)
    size = len(options) - len(unmatched)
    for j in unmatched:
        reached = {}  # bin -> the item whose move reached it
        queue = [j]
        for item in queue:
            for r in options[item]:
                if r in reached:
                    continue
                reached[r] = item
                if free[r]:
                    break
                queue.extend(held[r])
            else:
                continue
            # bin r has room: every item on the path moves one bin along
            free[r] -= 1
            size += 1
            while True:
                item = reached[r]
                old = bin_of[item]
                bin_of[item] = r
                held[r].append(item)
                if old is None:
                    break
                held[old].remove(item)
                r = old
            break
    return size


def unplaced_count(shifters, floorplan, spec, window: int) -> int:
    """len(assign_shifters(shifters, floorplan, spec, window).els), without
    the min-cost flow where no room can overflow.

    The flow sends room r at most min(cap_r, demand_r) shifters, where cap_r
    is num_ls and demand_r counts the shifters with r in their window, and
    place_in_room leaves over whatever exceeds the room's spots. When
    that bound is within the spots in every room, nothing is left over, so
    the fallback set is exactly the shifters the flow leaves without a room:
    N minus the maximum matching of shifters to window rooms under the room
    capacities, a number the detour costs do not change. Otherwise the full
    assignment counts.
    """
    shifters = list(shifters)
    rooms = floorplan.rooms
    options = []
    demand = [0] * len(rooms)
    for shifter in shifters:
        box2 = _window_box2(*_ends2(floorplan, shifter), 2 * window)
        opts = [r for r, room in enumerate(rooms) if _in_window(box2, room)]
        for r in opts:
            demand[r] += 1
        options.append(opts)
    caps = [0] * len(rooms)  # only rooms in some window need theirs
    for r, d in enumerate(demand):
        if d:
            cap, spots, _grids = _room_slots(rooms[r], spec)
            if min(cap, d) > spots:
                return len(assign_shifters(shifters, floorplan, spec, window).els)
            caps[r] = cap
    return len(shifters) - _max_matching(options, caps)
