"""Slicing floorplans: normalized postfix expressions, packing, metrics.

A floorplan is a slicing tree over the modules, encoded as a normalized
postfix (Polish) expression: a tuple of tokens, each a module index or one
of two cut operators. 'H' stacks its children vertically (widths max,
heights add), 'V' puts them side by side. initial_expr and perturb build
Expr, a tuple that keeps the one tree its packing and its moves read (the
operand and operator positions, each operator's left child), taken once,
which a move 1 or 2 child shares. Packing combines dimensions bottom-up,
then distributes slack top-down, in int columns, so the rooms tile the
chip exactly; the extra space always goes to the right/top child. A
packed Floorplan is flat per-module columns, the one form every metric,
artifact and shifter placement reads; voltage_islands indexes its rooms
by edge line.
"""

from __future__ import annotations

from bisect import bisect_left
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
    return Expr(tokens)


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

    It reads the expression's tree (_tree_of). A forward sweep sizes each
    leaf, then each operator from its two children, and a backward sweep
    over the operators hands out the boxes through four int columns, since
    in postfix order a node comes after its children: bx and by take each
    node's box origin, and ws and hs, once the parent has read them, its
    box size. Each leaf's box then goes into its module's columns.
    """
    operands, ops, lefts = _tree_of(expr)
    n = len(expr)
    ws, hs = [0] * n, [0] * n
    for i in operands:
        ws[i], hs[i] = dims[expr[i]]
    for i in ops:
        left = lefts[i]
        if expr[i] == "H":
            a, b = ws[left], ws[i - 1]
            ws[i] = a if a > b else b
            hs[i] = hs[left] + hs[i - 1]
        else:
            ws[i] = ws[left] + ws[i - 1]
            a, b = hs[left], hs[i - 1]
            hs[i] = a if a > b else b
    chip_w, chip_h = ws[-1], hs[-1]
    bx, by = [0] * n, [0] * n
    for i in reversed(ops):
        left = lefts[i]
        if expr[i] == "H":
            y, dh = by[i], hs[left]
            bx[left] = bx[i - 1] = bx[i]
            by[left], by[i - 1] = y, y + dh
            ws[left] = ws[i - 1] = ws[i]
            hs[i - 1] = hs[i] - dh
        else:
            x, dw = bx[i], ws[left]
            bx[left], bx[i - 1] = x, x + dw
            by[left] = by[i - 1] = by[i]
            hs[left] = hs[i - 1] = hs[i]
            ws[i - 1] = ws[i] - dw
    m = len(dims)
    xs, ys, room_w, room_h = [0] * m, [0] * m, [0] * m, [0] * m
    for i in operands:
        t = expr[i]
        xs[t], ys[t], room_w[t], room_h[t] = bx[i], by[i], ws[i], hs[i]
    return Floorplan(chip_w, chip_h, xs, ys, room_w, room_h, dims)


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
    (top) edge line, their level before their overlap, and joins each
    adjacent one of its level at once. Holds for any set of rooms of
    positive size, slicing or not.
    """
    xs, ys, ws, hs = floorplan.xs, floorplan.ys, floorplan.ws, floorplan.hs
    m = len(xs)
    by_left = {}  # edge line -> the rooms on it
    by_bottom = {}
    for i, x, y in zip(range(m), xs, ys):
        by_left.setdefault(x, []).append(i)
        by_bottom.setdefault(y, []).append(i)
    parent = list(range(m))
    islands = m
    for i, x, y, w, h, level in zip(range(m), xs, ys, ws, hs, levels):
        right, top = x + w, y + h
        for j in by_left.get(right, ()):
            if levels[j] == level and ys[j] < top and y < ys[j] + hs[j]:
                a = i
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if a != j:
                    parent[a] = j
                    islands -= 1
        for j in by_bottom.get(top, ()):
            if levels[j] == level and xs[j] < right and x < xs[j] + ws[j]:
                a = i
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if a != j:
                    parent[a] = j
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


class Expr(tuple):
    """A normalized postfix expression built by initial_expr or perturb: a
    tuple of its tokens that keeps its tree (_tree_of), the one structure
    its pack and its moves read. The tree is taken by the first pack or
    move that reads it; a move 1 or 2 child, whose operators sit where its
    parent's do, shares its parent's. Equality, hash and repr are the
    tuple's.
    """

    _tree = None  # the tree, once taken


class _Tree(tuple):
    """(operands, ops, lefts), the tree _tree_of takes. Once a move 2 has
    read them, it keeps the first position of each maximal operator chain
    in order (heads), which the Exprs that share the tree share too.
    Equality is the tuple's: heads take no part in it."""

    heads = None


def _tree_of(expr):
    """The tree _pack and perturb read, of a valid normalized expression:
    the operand positions, the operator positions and, at each operator's
    position, the root of its left child (its right child is the token
    before it). An Expr keeps its tree once taken."""
    tree = expr._tree if expr.__class__ is Expr else None
    if tree is None:
        lefts = [0] * len(expr)
        operands, ops = [], []
        stack = []  # the subtrees not yet combined
        for i, t in enumerate(expr):
            if t.__class__ is str:
                stack.pop()  # the right child, i - 1
                lefts[i] = stack[-1]
                stack[-1] = i
                ops.append(i)
            else:
                operands.append(i)
                stack.append(i)
        tree = _Tree((operands, ops, lefts))
        if expr.__class__ is Expr:
            expr._tree = tree
    return tree


def _child(tokens, tree):
    """The Expr of tokens, a move 1 or 2 child sharing its parent's tree."""
    child = Expr(tokens)
    child._tree = tree
    return child


_COMPLEMENT = {"H": "V", "V": "H"}


def perturb(expr: tuple, move: int, rng) -> tuple:
    """One annealing move; the result is always a valid normalized expression.

    move 1 swaps two adjacent operands, move 2 complements one operator
    chain, move 3 swaps an adjacent operand/operator pair where legal
    (falls back to move 1 after a few failed tries). Each reads expr's
    tree (Expr), and returns an Expr unless nothing can move.
    """
    expr = expr if expr.__class__ is Expr else Expr(expr)
    tree = _tree_of(expr)
    operands, ops, _ = tree
    if move == 3:
        n = len(expr)
        if n < 2:
            return expr
        for _ in range(16):
            i = rng.randrange(n - 1)
            a, b = expr[i], expr[i + 1]
            if isinstance(a, str):
                # the operator moves right, next to the token after the
                # operand (there is one: a valid expression ends with an
                # operator)
                if isinstance(b, str) or expr[i + 2] == a:
                    continue
            # the operator moves left: it needs two more operands than
            # operators before it, and a different token before it
            elif not isinstance(b, str) or i - 2 * bisect_left(ops, i) < 2 or expr[i - 1] == b:
                continue
            tokens = list(expr)
            tokens[i], tokens[i + 1] = b, a
            return Expr(tokens)
        move = 1
    if move == 1:
        if len(operands) < 2:
            return expr
        i = rng.randrange(len(operands) - 1)
        a, b = operands[i], operands[i + 1]
        tokens = list(expr)
        tokens[a], tokens[b] = tokens[b], tokens[a]
        return _child(tokens, tree)
    if move == 2:
        heads = tree.heads
        if heads is None:
            # a chain starts at each operator after an operand
            heads = tree.heads = [i for i in ops if not isinstance(expr[i - 1], str)]
        if not heads:
            return expr
        lo = hi = heads[rng.randrange(len(heads))]
        while hi < len(expr) and isinstance(expr[hi], str):
            hi += 1
        tokens = list(expr)
        tokens[lo:hi] = map(_COMPLEMENT.__getitem__, tokens[lo:hi])
        return _child(tokens, tree)
    raise ValueError(f"unknown move {move}")
