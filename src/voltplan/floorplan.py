"""Slicing floorplans: normalized postfix expressions, packing, metrics.

A floorplan is a slicing tree over the modules, encoded as a normalized
postfix (Polish) expression: a tuple of tokens, each a module index or one
of two cut operators. 'H' stacks its children vertically (widths max,
heights add), 'V' puts them side by side. Packing combines dimensions
bottom-up, then distributes slack top-down so the rooms tile the chip
exactly; the extra space always goes to the right/top child. A packed
Floorplan is flat per-module columns, the one form every metric, artifact
and shifter placement reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import MalformedExpression

OPS = ("H", "V")


def initial_expr(m: int) -> tuple:
    """Deterministic starting expression: fold modules with alternating cuts."""
    if m < 1:
        raise MalformedExpression("need at least one module")
    tokens = [0]
    for i in range(1, m):
        tokens.append(i)
        tokens.append(OPS[i % 2])
    return tuple(tokens)


def check_expr(tokens, m: int | None = None):
    """Validate postfix shape, operand set and normality (no equal adjacent ops)."""
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


class Floorplan:
    """A packed floorplan as flat integer columns, indexed by module: each
    room's origin (xs, ys) and size (ws, hs), and each module's (w, h) in
    dims. The module sits at its room's origin. pack writes the columns and
    shares its dims, and every reader scores, draws or writes the floorplan
    from them. Equality, hash and repr go by the chip size and the five
    columns. Not to be mutated.
    """

    __slots__ = ("chip_w", "chip_h", "xs", "ys", "ws", "hs", "dims")

    def __init__(self, chip_w: int, chip_h: int, xs, ys, ws, hs, dims):
        self.chip_w, self.chip_h = chip_w, chip_h
        self.xs, self.ys, self.ws, self.hs, self.dims = xs, ys, ws, hs, dims

    def center2(self, i: int) -> tuple[int, int]:
        """Module i's center in doubled coordinates (stays integral)."""
        mw, mh = self.dims[i]
        return (2 * self.xs[i] + mw, 2 * self.ys[i] + mh)

    @property
    def centers2(self) -> tuple[tuple[int, int], ...]:
        """center2 of every module."""
        return tuple(map(self.center2, range(len(self.xs))))

    @property
    def area(self) -> int:
        return self.chip_w * self.chip_h

    def _key(self):
        """The chip size and the columns as tuples: _pack writes lists."""
        return (
            self.chip_w, self.chip_h, tuple(self.xs), tuple(self.ys), tuple(self.ws),
            tuple(self.hs), tuple(map(tuple, self.dims)),
        )

    def __eq__(self, other):
        if other.__class__ is not Floorplan:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"Floorplan(chip_w={self.chip_w!r}, chip_h={self.chip_h!r}, xs={self.xs!r}, "
            f"ys={self.ys!r}, ws={self.ws!r}, hs={self.hs!r}, dims={self.dims!r})"
        )


def pack(expr, dims) -> Floorplan:
    """Pack modules into rooms according to the slicing expression.

    dims: one (w, h) pair per module.
    """
    check_expr(expr, len(dims))
    return _pack(expr, tuple(dims))


def _pack(expr, dims) -> Floorplan:
    """pack without validating the expression, for expressions that
    initial_expr or perturb built over len(dims) modules; the floorplan
    shares dims, which must not change afterwards.

    A forward sweep sizes each subtree (an operator's right child is the
    token before it, its left child the stack entry below that), and a
    backward sweep hands out the boxes, since in postfix order a node comes
    after its children. Each leaf's box goes straight into the module's
    columns.
    """
    n = len(expr)
    ws, hs, lefts = [0] * n, [0] * n, [0] * n
    stack = []  # the subtrees not yet combined
    for i, t in enumerate(expr):
        if t == "H":
            stack.pop()  # the right child, i - 1
            left = lefts[i] = stack[-1]
            a, b = ws[left], ws[i - 1]
            ws[i] = a if a > b else b
            hs[i] = hs[left] + hs[i - 1]
            stack[-1] = i
        elif t == "V":
            stack.pop()
            left = lefts[i] = stack[-1]
            ws[i] = ws[left] + ws[i - 1]
            a, b = hs[left], hs[i - 1]
            hs[i] = a if a > b else b
            stack[-1] = i
        else:
            ws[i], hs[i] = dims[t]
            stack.append(i)
    m = len(dims)
    xs, ys, room_w, room_h = [0] * m, [0] * m, [0] * m, [0] * m
    boxes = [None] * n
    boxes[-1] = (0, 0, ws[-1], hs[-1])
    for i in range(n - 1, -1, -1):
        x, y, w, h = boxes[i]
        t = expr[i]
        if t == "H":
            dh = hs[lefts[i]]
            boxes[lefts[i]], boxes[i - 1] = (x, y, w, dh), (x, y + dh, w, h - dh)
        elif t == "V":
            dw = ws[lefts[i]]
            boxes[lefts[i]], boxes[i - 1] = (x, y, dw, h), (x + dw, y, w - dw, h)
        else:
            xs[t], ys[t], room_w[t], room_h[t] = x, y, w, h
    return Floorplan(ws[-1], hs[-1], xs, ys, room_w, room_h, dims)


def hpwl(floorplan: Floorplan, nets) -> int:
    """Total Manhattan length between module centers over two-pin nets.

    Centers are tracked at double resolution; the total is floor-halved once.
    """
    return sum(hpwl2_per_net(floorplan, nets)) // 2


def hpwl2_per_net(floorplan: Floorplan, nets) -> list[int]:
    """Per-net Manhattan center distance in doubled coordinates."""
    xs, ys, dims = floorplan.xs, floorplan.ys, floorplan.dims
    out = []
    for src, dst in nets:
        (aw, ah), (bw, bh) = dims[src], dims[dst]
        out.append(abs(2 * (xs[src] - xs[dst]) + aw - bw) + abs(2 * (ys[src] - ys[dst]) + ah - bh))
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
    xs, ys, ws, hs = floorplan.xs, floorplan.ys, floorplan.ws, floorplan.hs
    m = len(xs)
    # edge line -> (level, span start, span end, room) per room on it
    by_left = {}
    by_bottom = {}
    for i, x, y, w, h, level in zip(range(m), xs, ys, ws, hs, levels):
        by_left.setdefault(x, []).append((level, y, y + h, i))
        by_bottom.setdefault(y, []).append((level, x, x + w, i))
    pairs = []
    for i, x, y, w, h, level in zip(range(m), xs, ys, ws, hs, levels):
        right = x + w
        top = y + h
        for lv, lo, hi, j in by_left.get(right, ()):
            if lv == level and lo < top and y < hi:
                pairs.append((i, j))
        for lv, lo, hi, j in by_bottom.get(top, ()):
            if lv == level and lo < right and x < hi:
                pairs.append((i, j))

    parent = list(range(m))
    islands = m
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
    resource (island count) and unplaced-shifter count, each the integer
    numerator of a rational weight over the common denominator."""

    area: int
    wirelength: int
    power: int
    islands: int
    unplaced: int
    denominator: int = 1

    @classmethod
    def over_common_denominator(cls, area, wirelength, power, islands, unplaced) -> PhiWeights:
        """The rational weights given, scaled by the least common multiple
        of their denominators."""
        weights = [Fraction(w) for w in (area, wirelength, power, islands, unplaced)]
        den = lcm(*(w.denominator for w in weights))
        return cls(*(w.numerator * (den // w.denominator) for w in weights), denominator=den)


def cost_phi(area, wirelength, power, islands, unplaced, weights: PhiWeights) -> int:
    """Weighted floorplan cost times weights.denominator: an exact integer,
    so candidates compare and subtract without rational arithmetic."""
    return (
        weights.area * area
        + weights.wirelength * wirelength
        + weights.power * power
        + weights.islands * islands
        + weights.unplaced * unplaced
    )


def whitespace_percent(floorplan: Floorplan) -> Fraction:
    used = sum(w * h for w, h in floorplan.dims)
    if floorplan.area == 0:
        return Fraction(0)
    return Fraction(floorplan.area - used, floorplan.area) * 100


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


def _can_swap(tokens, i) -> bool:
    """Whether swapping tokens i and i + 1 of a valid normalized expression,
    an operand and an operator in either order, leaves it valid and
    normalized."""
    a, b = tokens[i], tokens[i + 1]
    if isinstance(a, str):
        # the operator moves right, next to the token after the operand
        # (there is one: a valid expression ends with an operator)
        return not isinstance(b, str) and tokens[i + 2] != a
    if not isinstance(b, str):
        return False
    # the operator moves left: it needs two more operands than operators
    # before it, and a different token before it
    ops_before = sum(isinstance(t, str) for t in tokens[:i])
    return i - 2 * ops_before >= 2 and tokens[i - 1] != b


def perturb(expr: tuple, move: int, rng) -> tuple:
    """One annealing move; the result is always a valid normalized expression.

    move 1 swaps two adjacent operands, move 2 complements one operator
    chain, move 3 swaps an adjacent operand/operator pair where legal
    (falls back to move 1 after a few failed tries).
    """
    tokens = list(expr)
    if move == 3:
        if len(tokens) < 2:
            return expr
        for _ in range(16):
            i = rng.randrange(len(tokens) - 1)
            if _can_swap(expr, i):
                tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
                return tuple(tokens)
        move = 1
    if move == 1:
        operands = [i for i, t in enumerate(tokens) if not isinstance(t, str)]
        if len(operands) < 2:
            return expr
        i = rng.randrange(len(operands) - 1)
        a, b = operands[i], operands[i + 1]
        tokens[a], tokens[b] = tokens[b], tokens[a]
        return tuple(tokens)
    if move == 2:
        runs = _chains(tokens)
        if not runs:
            return expr
        lo, hi = runs[rng.randrange(len(runs))]
        for i in range(lo, hi + 1):
            tokens[i] = _complement(tokens[i])
        return tuple(tokens)
    raise ValueError(f"unknown move {move}")
