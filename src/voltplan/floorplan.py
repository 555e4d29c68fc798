"""Slicing floorplans: normalized postfix expressions, packing, metrics.

A floorplan is a slicing tree over the modules, encoded as a normalized
postfix (Polish) expression with two cut operators: 'H' stacks its children
vertically (widths max, heights add), 'V' puts them side by side. Packing
combines dimensions bottom-up, then distributes slack top-down so the rooms
tile the chip exactly; the extra space always goes to the right/top child.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import MalformedExpression

OPS = ("H", "V")


@dataclass(frozen=True)
class SlicingExpr:
    tokens: tuple


def make_expr(tokens) -> SlicingExpr:
    expr = SlicingExpr(tokens=tuple(tokens))
    check_expr(expr)
    return expr


def initial_expr(m: int) -> SlicingExpr:
    """Deterministic starting expression: fold modules with alternating cuts."""
    if m < 1:
        raise MalformedExpression("need at least one module")
    tokens = [0]
    for i in range(1, m):
        tokens.append(i)
        tokens.append(OPS[i % 2])
    return make_expr(tokens)


def check_expr(expr: SlicingExpr, m: int | None = None):
    """Validate postfix shape, operand set and normality (no equal adjacent ops)."""
    tokens = expr.tokens
    operands = [t for t in tokens if not isinstance(t, str)]
    if m is not None and len(operands) != m:
        raise MalformedExpression(f"expected {m} operands, got {len(operands)}")
    if sorted(operands) != list(range(len(operands))):
        raise MalformedExpression("operands must be exactly 0..m-1")
    depth = 0
    for i, t in enumerate(tokens):
        if isinstance(t, str):
            if t not in OPS:
                raise MalformedExpression(f"unknown operator {t!r}")
            depth -= 1
            if depth < 1:
                raise MalformedExpression(f"operator at position {i} underflows")
            if isinstance(tokens[i - 1], str) and tokens[i - 1] == t:
                raise MalformedExpression(f"equal adjacent operators at {i}")
        else:
            depth += 1
    if depth != 1:
        raise MalformedExpression("expression does not reduce to a single block")


class Room(NamedTuple):
    """One tile of the floorplan: the module sits at the room origin.

    Whitespace splits into the right strip beside the module, the top strip
    above it, and the corner rectangle between them. A named tuple because
    pack builds one per module per candidate: it is immutable like a frozen
    dataclass and several times cheaper to build.
    """

    x: int
    y: int
    w: int
    h: int
    module_w: int
    module_h: int


def whitespace_parts(room: Room):
    """The three whitespace rectangles (x, y, w, h); zero-sized parts allowed."""
    sw = room.w - room.module_w
    sh = room.h - room.module_h
    p1 = (room.x + room.module_w, room.y, sw, room.module_h)
    p2 = (room.x, room.y + room.module_h, room.module_w, sh)
    p3 = (room.x + room.module_w, room.y + room.module_h, sw, sh)
    return p1, p2, p3


@dataclass(frozen=True)
class Floorplan:
    chip_w: int
    chip_h: int
    rooms: tuple[Room, ...]  # indexed by module

    @property
    def area(self) -> int:
        return self.chip_w * self.chip_h


def pack(expr: SlicingExpr, dims) -> Floorplan:
    """Pack modules into rooms according to the slicing expression.

    dims: one (w, h) pair per module.
    """
    check_expr(expr, len(dims))
    return _pack(expr, dims)


def _pack(expr: SlicingExpr, dims) -> Floorplan:
    """pack without validating the expression, for expressions that
    make_expr, initial_expr or perturb built over len(dims) modules."""
    # bottom-up sizes; tree nodes as (op, left, right, w, h) tuples
    stack = []
    for t in expr.tokens:
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
    return Floorplan(chip_w=root[3], chip_h=root[4], rooms=tuple(rooms))


def module_center2(room: Room) -> tuple[int, int]:
    """Module center in doubled coordinates (stays integral)."""
    return (2 * room.x + room.module_w, 2 * room.y + room.module_h)


def hpwl(floorplan: Floorplan, nets) -> int:
    """Total Manhattan length between module centers over two-pin nets.

    Centers are tracked at double resolution; the total is floor-halved once.
    """
    return sum(hpwl2_per_net(floorplan, nets)) // 2


def hpwl2_per_net(floorplan: Floorplan, nets) -> list[int]:
    """Per-net Manhattan center distance in doubled coordinates."""
    out = []
    for src, dst in nets:
        ax, ay = module_center2(floorplan.rooms[src])
        bx, by = module_center2(floorplan.rooms[dst])
        out.append(abs(ax - bx) + abs(ay - by))
    return out


def voltage_islands(floorplan: Floorplan, levels) -> int:
    """Connected components of same-level room adjacency (power regions);
    levels holds one voltage level per room.

    Two rooms are adjacent when they share a boundary segment of positive
    length. Rooms are indexed by their left and bottom edge lines, so each
    room only tests the rooms whose left (bottom) edge lies on its own right
    (top) edge line. Holds for any set of rooms of positive size, slicing or
    not.
    """
    rooms = floorplan.rooms
    # edge line -> (level, span start, span end, room) per room on it
    by_left = {}
    by_bottom = {}
    for i, (x, y, w, h, _mw, _mh) in enumerate(rooms):
        by_left.setdefault(x, []).append((levels[i], y, y + h, i))
        by_bottom.setdefault(y, []).append((levels[i], x, x + w, i))
    pairs = []
    for i, (x, y, w, h, _mw, _mh) in enumerate(rooms):
        level = levels[i]
        right = x + w
        top = y + h
        for lv, lo, hi, j in by_left.get(right, ()):
            if lv == level and lo < top and y < hi:
                pairs.append((i, j))
        for lv, lo, hi, j in by_bottom.get(top, ()):
            if lv == level and lo < right and x < hi:
                pairs.append((i, j))

    parent = list(range(len(rooms)))
    islands = len(rooms)
    for i, j in pairs:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            islands -= 1
    return islands


@dataclass(frozen=True)
class PhiWeights:
    """Weights of the floorplan cost: area, wirelength, power, power-network
    resource (island count) and unplaced-shifter count."""

    area: Fraction
    wirelength: Fraction
    power: Fraction
    islands: Fraction
    unplaced: Fraction

    def validate(self):
        vals = (self.area, self.wirelength, self.power, self.islands, self.unplaced)
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("at least one weight must be positive")
        return self


def phi_weights(area=1, wirelength=1, power=1, islands=0, unplaced=0) -> PhiWeights:
    return PhiWeights(
        area=Fraction(area),
        wirelength=Fraction(wirelength),
        power=Fraction(power),
        islands=Fraction(islands),
        unplaced=Fraction(unplaced),
    ).validate()


def cost_phi(area, wirelength, power, islands, unplaced, weights: PhiWeights) -> Fraction:
    """Weighted floorplan cost, exact rational arithmetic."""
    return (
        weights.area * area
        + weights.wirelength * wirelength
        + weights.power * power
        + weights.islands * islands
        + weights.unplaced * unplaced
    )


def whitespace_percent(floorplan: Floorplan) -> Fraction:
    used = sum(r.module_w * r.module_h for r in floorplan.rooms)
    if floorplan.area == 0:
        return Fraction(0)
    return Fraction(floorplan.area - used, floorplan.area) * 100


def _operand_positions(tokens):
    return [i for i, t in enumerate(tokens) if not isinstance(t, str)]


def _chains(tokens):
    """Maximal runs of consecutive operators as (start, end) index pairs."""
    runs = []
    i = 0
    n = len(tokens)
    while i < n:
        if isinstance(tokens[i], str):
            j = i
            while j + 1 < n and isinstance(tokens[j + 1], str):
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1
    return runs


def _complement(op):
    return "V" if op == "H" else "H"


def perturb(expr: SlicingExpr, move: int, rng) -> SlicingExpr:
    """One annealing move; the result is always a valid normalized expression.

    move 1 swaps two adjacent operands, move 2 complements one operator
    chain, move 3 swaps an adjacent operand/operator pair where legal
    (falls back to move 1 after a few failed tries).
    """
    tokens = list(expr.tokens)
    ops_pos = _operand_positions(tokens)
    if move == 1:
        if len(ops_pos) < 2:
            return expr
        i = rng.randrange(len(ops_pos) - 1)
        a, b = ops_pos[i], ops_pos[i + 1]
        tokens[a], tokens[b] = tokens[b], tokens[a]
        return SlicingExpr(tokens=tuple(tokens))
    if move == 2:
        runs = _chains(tokens)
        if not runs:
            return expr
        lo, hi = runs[rng.randrange(len(runs))]
        for i in range(lo, hi + 1):
            tokens[i] = _complement(tokens[i])
        return SlicingExpr(tokens=tuple(tokens))
    if move == 3:
        if len(tokens) < 2:
            return expr
        for _ in range(16):
            i = rng.randrange(len(tokens) - 1)
            a, b = tokens[i], tokens[i + 1]
            if isinstance(a, str) == isinstance(b, str):
                continue
            cand = list(tokens)
            cand[i], cand[i + 1] = cand[i + 1], cand[i]
            try:
                check_expr(SlicingExpr(tokens=tuple(cand)))
            except MalformedExpression:
                continue
            return SlicingExpr(tokens=tuple(cand))
        return perturb(expr, 1, rng)
    raise ValueError(f"unknown move {move}")
