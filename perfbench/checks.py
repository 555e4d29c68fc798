"""Output checks that re-derive every property from the artifacts.

Nothing here calls into voltplan: the spec, floorplan and shifter files are
parsed afresh, and tiling, shifter placement, shifter demand, timing,
power, wirelength and island count are recomputed from them. The modified
module curves are the pointwise sum of the module curve and the shifter
overhead, as the paper's timing model defines them.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Quality:
    power: int
    area: int
    wirelength_ls: int
    islands: int
    ls_count: int
    els: int

    @property
    def ls_in_room_pct(self) -> float:
        if self.ls_count == 0:
            return 100.0
        return 100.0 * (self.ls_count - self.els) / self.ls_count


def parse_spec(text):
    """(curves by name as [(delay, power)] per level, overhead list, t_cycle)."""
    curves, overhead, t_cycle = {}, None, None
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "tcycle":
            t_cycle = int(parts[1])
        elif parts[0] == "curve":
            curves[parts[1]] = _triples(parts[2:])
        elif parts[0] == "shifter":
            overhead = _triples(parts[3:])
    if overhead is None or t_cycle is None:
        raise CheckFailed("spec lacks a shifter or tcycle record")
    return curves, overhead, t_cycle


def _triples(vals):
    nums = [int(v) for v in vals]
    return [(nums[i + 1], nums[i + 2]) for i in range(0, len(nums), 3)]


def _overlap(a, b) -> bool:
    """Positive-area intersection of two (x, y, w, h) rectangles."""
    return (
        min(a[0] + a[2], b[0] + b[2]) > max(a[0], b[0])
        and min(a[1] + a[3], b[1] + b[3]) > max(a[1], b[1])
    )


def _contains(outer, inner) -> bool:
    return (
        outer[0] <= inner[0]
        and outer[1] <= inner[1]
        and inner[0] + inner[2] <= outer[0] + outer[2]
        and inner[1] + inner[3] <= outer[1] + outer[3]
    )


def _touch(a, b) -> bool:
    """Rooms share a boundary segment of positive length."""
    if a[0] + a[2] == b[0] or b[0] + b[2] == a[0]:
        return min(a[1] + a[3], b[1] + b[3]) > max(a[1], b[1])
    if a[1] + a[3] == b[1] or b[1] + b[3] == a[1]:
        return min(a[0] + a[2], b[0] + b[2]) > max(a[0], b[0])
    return False


def _read_floorplan(text, blocks):
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if [r[0] for r in rows] != [b[0] for b in blocks]:
        raise CheckFailed("floorplan.txt does not list the blocks in input order")
    modules, rooms, levels = [], [], []
    for r, (name, w, h) in zip(rows, blocks):
        x, y, mw, mh, rx, ry, rw, rh, level = (int(v) for v in r[1:])
        if (mw, mh) != (w, h):
            raise CheckFailed(f"{name}: module is {mw}x{mh}, block is {w}x{h}")
        if (x, y) != (rx, ry) or mw > rw or mh > rh:
            raise CheckFailed(f"{name}: module does not sit at its room origin")
        modules.append((x, y, mw, mh))
        rooms.append((rx, ry, rw, rh))
        levels.append(level)
    return modules, rooms, levels


def _check_tiling(rooms):
    chip_w = max(r[0] + r[2] for r in rooms)
    chip_h = max(r[1] + r[3] for r in rooms)
    chip = (0, 0, chip_w, chip_h)
    for i, a in enumerate(rooms):
        if not _contains(chip, a):
            raise CheckFailed(f"room {i} leaves the chip")
        for j in range(i + 1, len(rooms)):
            if _overlap(a, rooms[j]):
                raise CheckFailed(f"rooms {i} and {j} overlap")
    if sum(r[2] * r[3] for r in rooms) != chip_w * chip_h:
        raise CheckFailed("rooms do not cover the chip")
    return chip_w * chip_h


def _center2(rect):
    return (2 * rect[0] + rect[2], 2 * rect[1] + rect[3])


def _dist2(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _longest_path(m, edges, delays) -> int:
    """Longest path over module delays plus wire delays; edges (src, dst, wire)."""
    indeg = [0] * m
    succ = [[] for _ in range(m)]
    for src, dst, wire in edges:
        succ[src].append((dst, wire))
        indeg[dst] += 1
    ready = [i for i in range(m) if indeg[i] == 0]
    start = [0] * m
    finish = 0
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        end = start[v] + delays[v]
        finish = max(finish, end)
        for w, wire in succ[v]:
            start[w] = max(start[w], end + wire)
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if seen != m:
        raise CheckFailed("netlist has a cycle")
    return finish


def _islands(rooms, levels) -> int:
    parent = list(range(len(rooms)))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i in range(len(rooms)):
        for j in range(i + 1, len(rooms)):
            if levels[i] == levels[j] and _touch(rooms[i], rooms[j]):
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(rooms))})


def check_run(out_dir, blocks, pairs, spec_text, kappa: Fraction, reported: dict) -> Quality:
    """Check one run's artifacts; return its quality or raise CheckFailed.

    reported holds the program's own figures (power, area, wirelength_ls,
    islands, ls_count, els); each must equal the recomputed value.
    """
    out = Path(out_dir)
    curves, overhead, t_cycle = parse_spec(spec_text)
    modules, rooms, levels = _read_floorplan((out / "floorplan.txt").read_text(), blocks)
    index = {b[0]: i for i, b in enumerate(blocks)}
    nets = [(index[s], index[d]) for s, d in pairs]
    area = _check_tiling(rooms)

    # timing and power under the modified curves at the final levels
    k = len(overhead)
    if not all(1 <= q <= k for q in levels):
        raise CheckFailed(f"a level lies outside 1..{k}")
    modified = []
    for name, _w, _h in blocks:
        pts = curves.get(name, [])
        if len(pts) != k:
            raise CheckFailed(f"{name}: spec curve does not have {k} levels")
        modified.append([(d + od, p + op) for (d, p), (od, op) in zip(pts, overhead)])
    delays = [modified[i][q - 1][0] for i, q in enumerate(levels)]
    power = sum(modified[i][q - 1][1] for i, q in enumerate(levels))
    centers = [_center2(mod) for mod in modules]
    edges = []
    for src, dst in nets:
        d2 = _dist2(centers[src], centers[dst])
        edges.append((src, dst, -((-d2 * kappa) // 2)))  # ceil(kappa * d2 / 2)
    finish = _longest_path(len(blocks), edges, delays)
    if finish > t_cycle:
        raise CheckFailed(f"critical path {finish} exceeds t_cycle {t_cycle}")

    # shifters: one per net driven from a higher level index, in net order
    demand = [(s, d) for s, d in nets if levels[s] > levels[d]]
    rows = [line.split() for line in (out / "shifters.txt").read_text().splitlines() if line.strip()]
    if len(rows) != len(demand):
        raise CheckFailed(f"{len(rows)} shifters for {len(demand)} level-up nets")
    placed, els, via = [], 0, {}
    for j, row in enumerate(rows):
        sid, src, dst = int(row[0]), row[1], row[2]
        rect = tuple(int(v) for v in row[3:7])
        if sid != j or (index.get(src), index.get(dst)) != demand[j]:
            raise CheckFailed(f"shifter {row[0]} does not match level-up net {j}")
        if row[7] == "els":
            els += 1
            if rect[2:] != (0, 0) or not _contains(modules[demand[j][0]], rect):
                raise CheckFailed(f"fallback shifter {sid} is off its source module")
        elif row[7] == "room":
            homes = [r for r, room in enumerate(rooms) if _contains(room, rect)]
            if rect[2] <= 0 or rect[3] <= 0 or not homes:
                raise CheckFailed(f"shifter {sid} is not inside a room")
            if _overlap(rect, modules[homes[0]]):
                raise CheckFailed(f"shifter {sid} overlaps module {homes[0]}")
            for other_id, other in placed:
                if _overlap(rect, other):
                    raise CheckFailed(f"shifters {other_id} and {sid} overlap")
            placed.append((sid, rect))
        else:
            raise CheckFailed(f"shifter {sid}: unknown status {row[7]!r}")
        via[demand[j]] = via.get(demand[j], []) + [_center2(rect)]

    total2 = 0
    for src, dst in nets:
        a, b = centers[src], centers[dst]
        hops = via.get((src, dst))
        if hops:
            c = hops.pop(0)
            total2 += _dist2(a, c) + _dist2(c, b)
        else:
            total2 += _dist2(a, b)

    quality = Quality(
        power=power,
        area=area,
        wirelength_ls=total2 // 2,
        islands=_islands(rooms, levels),
        ls_count=len(rows),
        els=els,
    )
    for key, value in reported.items():
        if getattr(quality, key) != value:
            raise CheckFailed(f"reported {key}={value}, artifacts give {getattr(quality, key)}")
    return quality


def artifact_digest(out_dir) -> str:
    """sha256 over the four artifacts, report.csv without runtime_seconds."""
    out = Path(out_dir)
    h = hashlib.sha256()
    for name in ("floorplan.txt", "shifters.txt", "layout.svg"):
        h.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    rows = list(csv.reader(io.StringIO((out / "report.csv").read_text())))
    drop = rows[0].index("runtime_seconds")
    kept = "\n".join(",".join(r[:drop] + r[drop + 1 :]) for r in rows)
    h.update(b"report.csv\0" + kept.encode())
    return h.hexdigest()[:16]
