"""Benchmark file formats and seeded specification generation.

Plain-text inputs, one record per line, '#' comments:

  blocks:  <name> <width> <height>
  nets:    net <source> <sink> [<sink>...]
  spec:    k <int>
           tcycle <int>
           curve <name> <level> <delay> <power>  (k triples, flattened)
           shifter <area> <ratio_num>:<ratio_den> <level> <delay> <power> ...

A thin converter accepts the GSRC .blocks/.nets subset (n10..n300) and
rewrites it into these formats.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from .errors import DuplicateName, ParseError, UnknownBlock, ValidationError
from .model import (
    DPCurve,
    derive_shifter_spec,
    fanin_of,
    fastest_finish,
    modify_dp_curve,
    topological_order,
    validate_dp_curve,
)


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_blocks(text) -> list[tuple[str, int, int]]:
    """Parse `<name> <width> <height>` lines into (name, w, h) tuples."""
    out = []
    seen = set()
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected '<name> <width> <height>', got {line!r}", lineno)
        name = parts[0]
        try:
            w, h = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"bad dimensions in {line!r}", lineno) from None
        if w <= 0 or h <= 0:
            raise ParseError(f"dimensions must be positive in {line!r}", lineno)
        if name in seen:
            raise DuplicateName(f"duplicate block {name!r}", lineno)
        seen.add(name)
        out.append((name, w, h))
    return out


def parse_nets(text, known_names) -> list[tuple[str, list[str]]]:
    """Parse `net <source> <sink>...` lines into multi-pin (source, sinks)."""
    known = set(known_names)
    out = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] != "net" or len(parts) < 3:
            raise ParseError(f"expected 'net <source> <sink>...', got {line!r}", lineno)
        for name in parts[1:]:
            if name not in known:
                raise UnknownBlock(f"unknown block {name!r}", lineno)
        if parts[1] in parts[2:]:
            raise ParseError(f"net source {parts[1]!r} is also one of its sinks", lineno)
        out.append((parts[1], parts[2:]))
    return out


def _int(parts, i, lineno, least=None) -> int:
    """parts[i] as an int; a missing or non-integer token, or one below
    `least`, is a ParseError."""
    if i >= len(parts):
        raise ParseError(f"{parts[0]}: value missing", lineno)
    try:
        value = int(parts[i])
    except ValueError:
        raise ParseError(f"{parts[0]}: expected an integer, got {parts[i]!r}", lineno) from None
    if least is not None and value < least:
        raise ParseError(f"{parts[0]}: must be at least {least}, got {value}", lineno)
    return value


def _ratio(parts, i, lineno) -> Fraction:
    """parts[i] as a '<num>:<den>' ratio with a nonzero denominator."""
    token = parts[i] if i < len(parts) else ""
    num, _, den = token.partition(":")
    try:
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"{parts[0]}: expected a ratio '<num>:<den>', got {token!r}", lineno
        ) from None


def _triples(parts, start, lineno):
    """parts[start:] as (level, delay, power) integer triples."""
    vals = [_int(parts, i, lineno) for i in range(start, len(parts))]
    if len(vals) % 3 != 0 or not vals:
        raise ParseError(f"{parts[0]}: (level, delay, power) triples expected", lineno)
    return tuple(zip(vals[0::3], vals[1::3], vals[2::3]))


def parse_spec(text):
    """Parse a spec file; returns (curves by name, ShifterSpec, t_cycle, k).

    The records may come in any order, so curves and the shifter are checked
    against k after the last line; an invalid one is reported at its line.
    Each of k, tcycle and shifter comes once, and each curve once per name.
    Every curve must stay valid with the shifter overhead added at every
    level, as the annealer adds it; the curve invariants hold between
    consecutive levels, so a run on a prefix of the levels stays valid too.
    """
    k = None
    t_cycle = None
    curves = {}
    curve_lines = {}
    shifter = None
    once = {}  # the line of each k, tcycle and shifter record
    for lineno, line in _content_lines(text):
        parts = line.split()
        kind = parts[0]
        if kind in ("k", "tcycle", "shifter"):
            if kind in once:
                raise DuplicateName(f"duplicate {kind} record, first at line {once[kind]}", lineno)
            once[kind] = lineno
        if kind == "k":
            k = _int(parts, 1, lineno, least=1)
        elif kind == "tcycle":
            t_cycle = _int(parts, 1, lineno, least=0)
        elif kind == "curve":
            pts = _triples(parts, 2, lineno)
            name = parts[1]
            if name in curves:
                raise DuplicateName(f"duplicate curve for {name!r}", lineno)
            curves[name] = DPCurve(points=pts)
            curve_lines[name] = lineno
        elif kind == "shifter":
            area = _int(parts, 1, lineno)
            ratio = _ratio(parts, 2, lineno)
            overhead = _triples(parts, 3, lineno)
            try:
                shifter = derive_shifter_spec(area, ratio, overhead)
            except ValidationError as exc:
                raise ParseError(f"shifter: {exc}", lineno) from None
        else:
            raise ParseError(f"unknown record {kind!r}", lineno)
    if k is None or t_cycle is None or shifter is None:
        raise ParseError("spec needs k, tcycle and shifter records")
    for name, curve in curves.items():
        try:
            validate_dp_curve(curve, k)
        except ValidationError as exc:
            raise ParseError(f"curve {name}: {exc}", curve_lines[name]) from None
    if shifter.k != k:
        raise ParseError(f"shifter overhead has {shifter.k} levels, k={k}", once["shifter"])
    for name, curve in curves.items():
        try:
            modify_dp_curve(curve, shifter)
        except ValidationError as exc:
            raise ParseError(
                f"curve {name} with the shifter overhead of line {once['shifter']}: {exc}",
                curve_lines[name],
            ) from None
    return curves, shifter, t_cycle, k


# Slope bands per level transition: generated curves draw the slope of the
# level (q-1)->q segment from a band that is strictly above the next level's
# band. Module curves and the shifter overhead draw from the same bands, so
# the pointwise sum keeps strictly decreasing slopes for any k up to K_CAP.
K_CAP = 8
# generated module curves: the level-1 delay and each later level's delay
# gap are drawn from these inclusive ranges
BASE_DELAY_RANGE = (5, 20)
GAP_RANGE = (1, 6)
# width:height of the generated shifter
SHIFTER_RATIO = Fraction(2, 1)


def _band(q):
    width = 2 ** (K_CAP - q + 1)
    return (width // 2 + 1, width) if q < K_CAP else (1, 2)


def _gen_curve_points(rng, k, base_delay_range, gap_range, base_power_range):
    d = rng.randint(*base_delay_range)
    p1 = rng.randint(*base_power_range)
    delays = [d]
    powers = [p1]
    for q in range(2, k + 1):
        gap = rng.randint(*gap_range)
        lo, hi = _band(q)
        slope = rng.randint(lo, hi)
        delays.append(delays[-1] + gap)
        powers.append(powers[-1] - slope * gap)
    return tuple((q + 1, delays[q], powers[q]) for q in range(k))


def gen_spec(
    seed: int,
    blocks,
    nets,
    k: int,
    *,
    timing_slack=Fraction(1, 2),
    shifter_area=None,
) -> str:
    """Deterministically generate curves, a shifter and a cycle budget.

    Per-module streams are seeded by (seed, index) so a k=2 run draws a
    prefix of the k=4 run: smaller level sets nest inside larger ones.
    The cycle budget interpolates between the all-fastest and all-slowest
    critical paths by `timing_slack`.
    """
    if k < 1 or k > K_CAP:
        raise ValidationError(f"k must be in 1..{K_CAP}, got {k}")
    if not 0 <= timing_slack <= 1:
        raise ValidationError(f"timing_slack must lie in [0, 1], got {timing_slack}")
    if not blocks:
        raise ValidationError("need at least one block")
    names = [b[0] for b in blocks]
    lines = [f"k {k}"]
    curves = {}
    for i, name in enumerate(names):
        # child seeds are derived arithmetically: string/tuple seeding goes
        # through hash(), which is randomized per process
        rng = random.Random(seed * 1_000_003 + i)
        pts = _gen_curve_points(rng, k, BASE_DELAY_RANGE, GAP_RANGE, (3000, 4000))
        curves[name] = DPCurve(points=pts)
        validate_dp_curve(curves[name], k)
        flat = " ".join(f"{l} {d} {p}" for l, d, p in pts)
        lines.append(f"curve {name} {flat}")

    rng = random.Random(seed * 1_000_003 - 1)
    if shifter_area is None:
        min_area = min(b[1] * b[2] for b in blocks)
        shifter_area = max(1, min_area // 64)
    # overhead slopes come from the same bands as the module curves, which
    # keeps every modified curve convex; the base power only shifts the tax
    overhead = _gen_curve_points(rng, k, (0, 2), (1, 2), (600, 800))
    spec = derive_shifter_spec(shifter_area, SHIFTER_RATIO, overhead)
    flat = " ".join(f"{l} {d} {p}" for l, d, p in spec.overhead)
    lines.append(
        f"shifter {shifter_area} {SHIFTER_RATIO.numerator}:{SHIFTER_RATIO.denominator} {flat}"
    )

    # cycle budget from the critical path of the decomposed two-pin nets
    index = {n: i for i, n in enumerate(names)}
    pairs = []
    for source, sinks in nets:
        for sink in sinks:
            pairs.append((index[source], index[sink]))
    order = topological_order(len(names), pairs)
    fanin = fanin_of(len(names), pairs)
    no_wire_delay = [0] * len(pairs)
    curve_list = [curves[n] for n in names]
    cp_fast = fastest_finish(order, fanin, [c.delay(1) for c in curve_list], no_wire_delay)
    cp_slow = fastest_finish(order, fanin, [c.delay(c.k) for c in curve_list], no_wire_delay)
    t_cycle = cp_fast + int(Fraction(timing_slack) * (cp_slow - cp_fast))
    lines.append(f"tcycle {t_cycle}")
    return "\n".join(lines) + "\n"


_GSRC_VERTEX = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def convert_gsrc_blocks(text) -> str:
    """Rewrite the GSRC .blocks subset into the plain blocks format.

    Hard rectilinear blocks use their bounding box; soft blocks become the
    square of their area. Terminals are dropped.
    """
    out = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) >= 2 and parts[1] == "hardrectilinear":
            verts = _GSRC_VERTEX.findall(line)
            if not verts:
                raise ParseError(f"no vertices in {line!r}", lineno)
            xs = [int(x) for x, _ in verts]
            ys = [int(y) for _, y in verts]
            out.append(f"{parts[0]} {max(xs) - min(xs)} {max(ys) - min(ys)}")
        elif len(parts) >= 3 and parts[1] == "softrectangular":
            try:
                area = int(float(parts[2]))
            except (ValueError, OverflowError):
                raise ParseError(f"bad area in {line!r}", lineno) from None
            if area < 0:
                raise ParseError(f"negative area in {line!r}", lineno)
            side = max(1, round(area**0.5))
            out.append(f"{parts[0]} {side} {max(1, area // side)}")
        # headers, UCSC/UCLA banners, terminal lines: skipped
    return "\n".join(out) + "\n"


def convert_gsrc_nets(text, known_names) -> str:
    """Rewrite the GSRC .nets subset; first pin drives the rest.

    Pins that are not known blocks (terminals) are dropped, as are nets that
    would close a cycle over the first-pin-drives ordering.
    """
    known = set(known_names)
    groups = []
    pending = None
    expect = 0
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "NetDegree":
            if pending:
                groups.append(pending)
            expect = _int(parts, len(parts) - 1, lineno)
            pending = []
        elif pending is not None and expect > 0:
            if parts[0] in known:
                pending.append(parts[0])
            expect -= 1
    if pending:
        groups.append(pending)

    index = {n: i for i, n in enumerate(known_names)}
    adj = {i: set() for i in index.values()}

    def reaches(a, b):
        seen = {a}
        stack = [a]
        while stack:
            u = stack.pop()
            if u == b:
                return True
            for nxt in adj[u] - seen:
                seen.add(nxt)
                stack.append(nxt)
        return False

    lines = []
    for pins in groups:
        pins = list(dict.fromkeys(pins))  # dedupe, keep order
        if len(pins) < 2:
            continue
        src, sinks = pins[0], pins[1:]
        kept = [s for s in sinks if not reaches(index[s], index[src])]
        if not kept:
            continue
        for s in kept:
            adj[index[src]].add(index[s])
        lines.append("net " + " ".join([src] + kept))
    return "\n".join(lines) + "\n"
