"""Level-shifter demand, whitespace capacity, assignment and placement.

A shifter is needed wherever a lower-voltage module drives a higher-voltage
one (level 1 is the highest voltage, so source level index > sink level
index). Room capacity follows the whitespace model: the corner part merges
into whichever strip wastes more area modulo the shifter footprint, strips
too narrow to hold the shifter in either orientation count as zero, and the
capacity is the floor-sum of the two resulting areas; _whitespace applies
it to a room's four sizes. Rooms are named by their module's index, and
every function here, the flow network, the unplaced count and the
placement alike, reads them from the floorplan's columns. Assignment of
shifters to rooms is a min-cost max-flow over a bipartite network with
detour costs; whatever cannot be assigned (or packed geometrically) lands
in the fallback set and is placed on the source module's boundary.

The annealer's best tracking reads only how many shifters land in that
fallback set. unplaced_count gives that number without the min-cost flow
whenever no room can receive more shifters than it has spots and a greedy
fit gives every shifter a window room; the full assign_shifters, the one
algorithm that matches shifters to rooms, runs on the anneal's starting
and final floorplans and wherever either condition fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flow import network, solve_min_cost_max_flow
from .floorplan import Floorplan, hpwl2_per_net
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


def _whitespace(w: int, h: int, mw: int, mh: int, spec: ShifterSpec):
    """The whitespace model above for a w x h room around its mw x mh
    module: (capacity, spots, regions). regions are the two post-merge
    rectangles (dx, dy, w, h) from the room origin, the right one first;
    spots is how many shifters they hold, each in the orientation that
    holds more (ties: unrotated).
    """
    sw, sh = spec.width, spec.height
    rw, th = w - mw, h - mh
    a1 = rw * mh if (rw >= sw and mh >= sh) or (rw >= sh and mh >= sw) else 0
    a2 = mw * th if (mw >= sw and th >= sh) or (mw >= sh and th >= sw) else 0
    if a1 % spec.area > a2 % spec.area:
        regions = ((mw, 0, rw, h), (0, mh, mw, th))  # full right strip
    else:
        regions = ((mw, 0, rw, mh), (0, mh, w, th))  # full top strip
    (_, _, w1, h1), (_, _, w2, h2) = regions
    spots = (
        max((w1 // sw) * (h1 // sh), (w1 // sh) * (h1 // sw))
        + max((w2 // sw) * (h2 // sh), (w2 // sh) * (h2 // sw))
    )
    return numls_from_areas(a1, a2, rw * th, spec.area), spots, regions


def num_ls(floorplan: Floorplan, r: int, spec: ShifterSpec) -> int:
    """How many shifters room r's whitespace can hold (area model)."""
    return _whitespace(floorplan.ws[r], floorplan.hs[r], *floorplan.dims[r], spec)[0]


def numls_from_areas(a1: int, a2: int, a3: int, a_ls: int) -> int:
    """Capacity arithmetic on bare areas (narrowness already applied)."""
    if a1 % a_ls > a2 % a_ls:
        a1 += a3
    else:
        a2 += a3
    return a1 // a_ls + a2 // a_ls


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
    """Doubled center of an (x, y, w, h) rectangle."""
    x, y, w, h = rect
    return (2 * x + w, 2 * y + h)


def default_window(floorplan: Floorplan) -> int:
    """Half the mean room dimension."""
    m = len(floorplan.ws)
    if m == 0:
        return 0
    return (sum(floorplan.ws) + sum(floorplan.hs)) // (4 * m)


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


def _windows(shifters, floorplan, window):
    """Per shifter: the doubled centers of its source and sink modules and
    the indices of the rooms its window box overlaps or touches, in room
    order, tested on the rooms' doubled edges."""
    xs, ys = floorplan.xs, floorplan.ys
    edges2 = list(zip(
        range(len(xs)),
        [2 * x for x in xs],
        [2 * y for y in ys],
        [2 * (x + w) for x, w in zip(xs, floorplan.ws)],
        [2 * (y + h) for y, h in zip(ys, floorplan.hs)],
    ))
    out = []
    for shifter in shifters:
        a, b = floorplan.center2(shifter.source), floorplan.center2(shifter.sink)
        x0, y0, x1, y1 = _window_box2(a, b, 2 * window)
        out.append((a, b, [
            r for r, rx0, ry0, rx1, ry1 in edges2
            if rx0 <= x1 and x0 <= rx1 and ry0 <= y1 and y0 <= ry1
        ]))
    return out


def _window_slots(shifters, floorplan, spec, window):
    """_windows' per-shifter (a, b, window rooms), and for each room in
    some window, keyed by index in first-seen order, its (capacity, spots)
    from the floorplan's columns."""
    windows = _windows(shifters, floorplan, window)
    ws, hs, dims = floorplan.ws, floorplan.hs, floorplan.dims
    slots = {}
    for _a, _b, rooms in windows:
        for r in rooms:
            if r not in slots:
                slots[r] = _whitespace(ws[r], hs[r], *dims[r], spec)[:2]
    return windows, slots


def build_assignment_network(shifters, floorplan, spec, window):
    """Bipartite network: s -> shifters (cap 1) -> feasible rooms (cap 1,
    detour cost) -> t (cap = room capacity). Returns (net, s, t, arc map).

    Room r is node 2 + len(shifters) + r; only rooms in some window get a
    capacity, a center and an arc to t, since no other room can take flow."""
    n_ls = len(shifters)
    s_node = 0
    t_node = 1
    ls_base = 2
    room_base = 2 + n_ls
    arcs = [(s_node, ls_base + j, 0, 1) for j in range(n_ls)]
    pair_arcs = {}
    windows, slots = _window_slots(shifters, floorplan, spec, window)
    xs, ys, ws, hs = floorplan.xs, floorplan.ys, floorplan.ws, floorplan.hs
    centers = {r: _center2_of_rect((xs[r], ys[r], ws[r], hs[r])) for r in slots}
    for j, (a, b, reach) in enumerate(windows):
        for r in reach:
            if slots[r][0] >= 1:
                pair_arcs[(j, r)] = len(arcs)
                arcs.append((ls_base + j, room_base + r, _detour2(a, b, centers[r]), 1))
    for r in sorted(slots):
        if slots[r][0]:
            arcs.append((room_base + r, t_node, 0, slots[r][0]))
    net = network(room_base + len(floorplan.xs), arcs)
    return net, s_node, t_node, pair_arcs


def place_in_room(floorplan: Floorplan, r: int, shifters, spec: ShifterSpec):
    """Greedy row-major packing of shifter rectangles into room r's
    whitespace (post-merge regions, best orientation per region).

    Returns (placed rectangles, leftover shifters)."""
    x, y = floorplan.xs[r], floorplan.ys[r]
    regions = _whitespace(floorplan.ws[r], floorplan.hs[r], *floorplan.dims[r], spec)[2]

    def spots():
        for dx, dy, rw, rh in regions:
            cw, ch = spec.width, spec.height
            if (rw // ch) * (rh // cw) > (rw // cw) * (rh // ch):
                cw, ch = ch, cw
            cols = rw // cw
            # row-major; a region narrower than one spot yields none, however tall
            for i in range(cols * (rh // ch)):
                row, col = divmod(i, cols)
                yield (x + dx + col * cw, y + dy + row * ch, cw, ch)

    # zip stops at the last shifter, so no spot past it is generated
    shifters = list(shifters)
    placed = list(zip(shifters, spots()))
    return placed, shifters[len(placed):]


def els_place(shifter: Shifter, floorplan) -> tuple[int, int, int, int]:
    """Fallback spot: on the source module's boundary, at the point nearest
    the sink center. Pure bookkeeping; overlap is allowed."""
    src = shifter.source
    mw, mh = floorplan.dims[src]
    sx, sy = floorplan.center2(shifter.sink)
    # nearest boundary point of the module rectangle, doubled coordinates
    x0, y0 = 2 * floorplan.xs[src], 2 * floorplan.ys[src]
    x1, y1 = x0 + 2 * mw, y0 + 2 * mh
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
    c = floorplan.centers2
    return sum(
        _detour2(c[s.source], c[s.sink], _center2_of_rect(placements[s.id])) for s in shifters
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


def assign_shifters(shifters, floorplan, spec, window: int) -> ShifterAssignment:
    """Assign each shifter a room by min-cost max-flow, realize placements
    inside whitespace, and fall back for whatever does not fit."""
    shifters = list(shifters)
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
        placed, leftover = place_in_room(floorplan, room_idx, by_room[room_idx], spec)
        for shifter, rect in placed:
            assigned.append((shifter, room_idx, rect))
        unassigned.extend(leftover)
    els = []
    for shifter in sorted(unassigned, key=lambda s: s.id):
        els.append((shifter, els_place(shifter, floorplan)))
    return ShifterAssignment(assigned=tuple(assigned), els=tuple(els))


def unplaced_count(shifters, floorplan, spec, window: int) -> int:
    """len(assign_shifters(shifters, floorplan, spec, window).els), without
    the min-cost flow where a greedy fit places every shifter.

    The flow sends room r at most min(cap_r, demand_r) shifters, where cap_r
    is its capacity and demand_r counts the shifters with r in their window, and
    place_in_room leaves over whatever exceeds the room's spots. When that
    bound is within the spots in every room, each shifter in turn takes the
    first room in its window with capacity left. If every one gets a room,
    that is a maximum matching, so the flow also gives every shifter a room,
    nothing is left over, and the count is 0. Otherwise, or where a room
    could overflow, the full assignment counts.
    """
    shifters = list(shifters)
    windows, slots = _window_slots(shifters, floorplan, spec, window)
    demand = dict.fromkeys(slots, 0)
    for _a, _b, opts in windows:
        for r in opts:
            demand[r] += 1
    left = {}  # capacity left in each room in some window
    for r, (cap, spots) in slots.items():
        if min(cap, demand[r]) > spots:
            return len(assign_shifters(shifters, floorplan, spec, window).els)
        left[r] = cap
    for _a, _b, opts in windows:
        for r in opts:
            if left[r]:
                left[r] -= 1
                break
        else:
            return len(assign_shifters(shifters, floorplan, spec, window).els)
    return 0
