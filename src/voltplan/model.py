"""Domain model: delay-power curves, shifter specs, blocks, netlists.

All delays, powers and areas are nonnegative integers; callers quantize real
data before entry so the flow arithmetic downstream stays exact. Every type
here is immutable after validation and safe to share between tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CyclicNetlist,
    DuplicateName,
    EmptyNet,
    NotConvex,
    NotMonotone,
    ResultNotConvex,
    UnknownBlock,
    ValidationError,
    WrongArity,
)


@dataclass(frozen=True)
class DPCurve:
    """Per-module voltage tradeoff: one (level, delay, power) point per level.

    Level 1 is the highest voltage: smallest delay, largest power. Delays rise
    strictly and powers fall strictly with the level index, and the slope
    magnitude between consecutive points strictly decreases (convexity).
    """

    points: tuple[tuple[int, int, int], ...]

    @property
    def k(self) -> int:
        return len(self.points)

    def delay(self, level: int) -> int:
        return self.points[level - 1][1]

    def power(self, level: int) -> int:
        return self.points[level - 1][2]


def _check_curve_points(points, k):
    if len(points) != k:
        raise WrongArity(f"expected {k} curve points, got {len(points)}")
    for idx, (level, d, p) in enumerate(points, start=1):
        if level != idx:
            raise NotMonotone(f"levels must run 1..{k} in order, got {level} at {idx}")
        if not (isinstance(d, int) and isinstance(p, int)):
            raise NotMonotone(f"level {level}: delay/power must be integers")
        if d < 0 or p < 0:
            raise NotMonotone(f"level {level}: delay/power must be nonnegative")
    for q in range(1, k):
        if points[q][1] <= points[q - 1][1]:
            raise NotMonotone(f"delay must increase from level {q} to {q + 1}")
        if points[q][2] >= points[q - 1][2]:
            raise NotMonotone(f"power must decrease from level {q} to {q + 1}")
    # Slope magnitude between consecutive points must strictly decrease.
    # Compare (dp_q / dd_q) > (dp_{q+1} / dd_{q+1}) by cross-multiplication.
    for q in range(1, k - 1):
        dp_a = points[q - 1][2] - points[q][2]
        dd_a = points[q][1] - points[q - 1][1]
        dp_b = points[q][2] - points[q + 1][2]
        dd_b = points[q + 1][1] - points[q][1]
        if dp_a * dd_b <= dp_b * dd_a:
            raise NotConvex(
                f"slope does not strictly decrease between levels "
                f"{q}..{q + 2}: {dp_a}/{dd_a} then {dp_b}/{dd_b}"
            )


def validate_dp_curve(curve: DPCurve, k: int) -> DPCurve:
    """Return the curve iff all invariants hold for the given level count.

    Raises WrongArity, NotMonotone or NotConvex otherwise.
    """
    if curve.k < 1:
        raise WrongArity("curve needs at least one point")
    _check_curve_points(curve.points, k)
    return curve


@dataclass(frozen=True)
class ShifterSpec:
    """Level shifter geometry plus its per-level delay/power overhead.

    The overhead is indexed by the driving module's level. width and height
    are derived once from area and aspect ratio; area is then redefined as
    width*height so the whitespace capacity model and the geometry agree.
    """

    area: int
    width: int
    height: int
    overhead: tuple[tuple[int, int, int], ...]

    @property
    def k(self) -> int:
        return len(self.overhead)

    def delay(self, level: int) -> int:
        return self.overhead[level - 1][1]

    def power(self, level: int) -> int:
        return self.overhead[level - 1][2]


def _round_half_up(num: int, den: int) -> int:
    # round(num/den) with ties away from zero; num, den > 0
    return (2 * num + den) // (2 * den)


def derive_shifter_spec(area: int, ratio: Fraction, overhead) -> ShifterSpec:
    """Build a ShifterSpec, deriving an integer rectangle from area and ratio.

    width = round(sqrt(area * ratio)), height = round(area / width); the area
    is then snapped to width*height.
    """
    if area <= 0:
        raise WrongArity("shifter area must be positive")
    ratio = Fraction(ratio)
    if ratio <= 0:
        raise WrongArity("shifter ratio must be positive")
    # width = round(sqrt(area * num / den)) computed exactly:
    # sqrt(area*num/den) = sqrt(area*num*den) / den
    s = area * ratio.numerator * ratio.denominator
    root = math.isqrt(s)
    den = ratio.denominator
    width = root // den
    # round half up: width+1 is closer iff (2*width+1)*den <= 2*sqrt(s)
    if (2 * width + 1) ** 2 * den * den <= 4 * s:
        width += 1
    width = max(width, 1)
    height = max(_round_half_up(area, width), 1)
    pts = tuple((int(l), int(d), int(p)) for (l, d, p) in overhead)
    for idx, (level, d, p) in enumerate(pts, start=1):
        if level != idx:
            raise WrongArity(f"overhead levels must run 1..{len(pts)}")
        if d < 0 or p < 0:
            raise NotMonotone(f"overhead level {level}: values must be nonnegative")
    return ShifterSpec(area=width * height, width=width, height=height, overhead=pts)


def modify_dp_curve(curve: DPCurve, spec: ShifterSpec) -> DPCurve:
    """Add the shifter's per-level overhead to a module curve, pointwise, at
    every level. The sum must itself satisfy all curve invariants; if not,
    ResultNotConvex is raised, which signals an overhead table incompatible
    with convex addition.
    """
    if curve.k != spec.k:
        raise WrongArity(f"curve has {curve.k} levels, overhead has {spec.k}")
    pts = [(level, d + spec.delay(level), p + spec.power(level)) for level, d, p in curve.points]
    merged = DPCurve(points=tuple(pts))
    try:
        _check_curve_points(merged.points, curve.k)
    except (NotConvex, NotMonotone, WrongArity) as exc:
        raise ResultNotConvex(f"overhead breaks curve invariants: {exc}") from exc
    return merged


@dataclass(frozen=True)
class ModuleBlock:
    name: str
    width: int
    height: int
    curve: DPCurve

    @property
    def area(self) -> int:
        return self.width * self.height


def decompose_multipin(raw_nets) -> list[tuple[str, str]]:
    """Expand (source, sinks...) nets into one (source, sink) pair per sink.

    Order is preserved; a net without sinks raises EmptyNet.
    """
    out = []
    for i, (source, sinks) in enumerate(raw_nets):
        sinks = list(sinks)
        if not sinks:
            raise EmptyNet(f"net {i} ({source}) has no sinks")
        for sink in sinks:
            out.append((source, sink))
    return out


@dataclass(frozen=True)
class Netlist:
    """Validated module set plus two-pin nets, cycle time and level count.

    nets hold module indices (source, sink); the induced directed graph is
    guaranteed acyclic.
    """

    modules: tuple[ModuleBlock, ...]
    nets: tuple[tuple[int, int], ...]
    t_cycle: int
    k: int

    @property
    def m(self) -> int:
        return len(self.modules)


def topological_order(m, edges) -> list[int]:
    """FIFO Kahn order of modules 0..m-1 under edges (src, dst, ...): sources
    in index order, then each module's successors in edge order.

    Raises CyclicNetlist when the edges close a cycle.
    """
    indeg = [0] * m
    adj = [[] for _ in range(m)]
    for edge in edges:
        adj[edge[0]].append(edge[1])
        indeg[edge[1]] += 1
    order = [i for i in range(m) if indeg[i] == 0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != m:
        raise CyclicNetlist("module graph contains a cycle")
    return order


def fanin_of(m, wires) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per module, (src module, wire index) of each incoming wire, in wire
    order; wires are (src, dst, ...) rows, a netlist's nets among them."""
    fanin = [[] for _ in range(m)]
    for w, (src, dst, *_) in enumerate(wires):
        fanin[dst].append((src, w))
    return tuple(map(tuple, fanin))


def fastest_finish(order, fanin, fastest, wire_delays) -> int:
    """The longest s-to-t path with module i at delay fastest[i]; at each
    module's fastest level, no level vector finishes sooner. order is a
    topological order of the modules, fanin is fanin_of the wires and
    wire_delays[w] is wire w's delay. With nonnegative delays the latest
    module output is a sink's, so the longest path is the latest output."""
    out = [0] * len(fastest)
    finish = 0
    for i in order:
        arrive = 0
        for src, w in fanin[i]:
            at = out[src] + wire_delays[w]
            if at > arrive:
                arrive = at
        out[i] = done = arrive + fastest[i]
        if done > finish:
            finish = done
    return finish


def build_netlist(modules, net_name_pairs, t_cycle: int, k: int) -> Netlist:
    """Resolve name pairs to indices and validate the whole instance."""
    modules = tuple(modules)
    if t_cycle < 0:
        raise ValidationError("t_cycle must be nonnegative")
    index = {}
    for i, mod in enumerate(modules):
        if mod.name in index:
            raise DuplicateName(f"duplicate module name {mod.name!r}")
        if mod.width <= 0 or mod.height <= 0:
            raise ValidationError(f"module {mod.name!r} must have positive dimensions")
        validate_dp_curve(mod.curve, k)
        index[mod.name] = i
    nets = []
    for src, dst in net_name_pairs:
        if src not in index:
            raise UnknownBlock(f"net references unknown module {src!r}")
        if dst not in index:
            raise UnknownBlock(f"net references unknown module {dst!r}")
        nets.append((index[src], index[dst]))
    topological_order(len(modules), nets)
    return Netlist(modules=modules, nets=tuple(nets), t_cycle=t_cycle, k=k)
