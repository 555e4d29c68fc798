"""End-to-end run orchestration and artifact serialization.

A run parses blocks/nets/spec files, anneals, re-runs both assignment
phases on the final floorplan and writes four artifacts into the output
directory: report.csv, floorplan.txt, shifters.txt and layout.svg.

Serialization formats (one record per line), each written by a
serialize_* function and read back by its parse_* counterpart:
  floorplan: <module> <x> <y> <w> <h> <room_x> <room_y> <room_w> <room_h> <level>
  shifters:  <shifter_id> <net_src> <net_sink> <x> <y> <w> <h> <room|els>
The report is written and read by report.emit_report / report.parse_report.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .anneal import AnnealConfig, AnnealResult, anneal
from .bench import parse_blocks, parse_nets, parse_spec
from .errors import ParseError, TimingInfeasible, ValidationError
from .floorplan import Floorplan
from .model import DPCurve, ModuleBlock, build_netlist, decompose_multipin
from .render import render_svg
from .report import ReportRow, emit_report


@dataclass(kw_only=True)
class RunConfig(AnnealConfig):
    """Input files, seed and output directory, plus every annealer setting."""

    blocks_path: str
    nets_path: str
    spec_path: str
    seed: int
    out_dir: str
    dataset: str = ""
    k: int | None = None  # None: use the spec file's k; smaller k truncates
    t_cycle: int | None = None  # override the spec file's budget

    def __post_init__(self):
        super().__post_init__()
        for name in ("blocks_path", "nets_path", "spec_path", "out_dir"):
            value = getattr(self, name)
            if not isinstance(value, (str, os.PathLike)):
                raise ValidationError(f"{name} must be a path, got {value!r}")
        for name in ("seed", "k", "t_cycle"):
            value = getattr(self, name)
            if value is None and name != "seed":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.dataset, str):
            raise ValidationError(f"dataset must be a string, got {self.dataset!r}")


def read_input(path) -> str:
    """Text of an input file; a file that is not UTF-8 raises ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from None


def load_instance(config: RunConfig):
    blocks = parse_blocks(read_input(config.blocks_path))
    raw_nets = parse_nets(read_input(config.nets_path), [b[0] for b in blocks])
    curves, spec, t_cycle, k_file = parse_spec(read_input(config.spec_path))
    k = config.k if config.k is not None else k_file
    if k < 1 or k > k_file:
        raise ParseError(f"k={k} not in 1..{k_file} (spec file levels)")
    if config.t_cycle is not None:
        t_cycle = config.t_cycle
    unknown = sorted(curves.keys() - {b[0] for b in blocks})
    if unknown:
        raise ParseError(f"spec file has a curve for unknown block {unknown[0]!r}")
    modules = []
    for name, w, h in blocks:
        if name not in curves:
            raise ParseError(f"spec file has no curve for block {name!r}")
        curve = curves[name]
        if k < k_file:
            curve = DPCurve(points=curve.points[:k])
        modules.append(ModuleBlock(name=name, width=w, height=h, curve=curve))
    if k < k_file:
        spec = replace(spec, overhead=spec.overhead[:k])
    pairs = decompose_multipin(raw_nets)
    netlist = build_netlist(modules, pairs, t_cycle, k)
    return netlist, spec, k


def serialize_floorplan(netlist, result: AnnealResult) -> str:
    fp = result.floorplan
    lines = [
        f"{module.name} {x} {y} {mw} {mh} {x} {y} {w} {h} {level}"
        for module, x, y, w, h, (mw, mh), level in zip(
            netlist.modules, fp.xs, fp.ys, fp.ws, fp.hs, fp.dims, result.voltage.level
        )
    ]
    return "\n".join(lines) + "\n"


def serialize_shifters(netlist, result: AnnealResult) -> str:
    lines = []
    rows = []
    for shifter, _room, rect in result.shifters.assigned:
        rows.append((shifter, rect, "room"))
    for shifter, rect in result.shifters.els:
        rows.append((shifter, rect, "els"))
    rows.sort(key=lambda r: r[0].id)
    for shifter, (x, y, w, h), status in rows:
        src = netlist.modules[shifter.source].name
        dst = netlist.modules[shifter.sink].name
        lines.append(f"{shifter.id} {src} {dst} {x} {y} {w} {h} {status}")
    return "\n".join(lines) + "\n" if lines else ""


def _records(text, n_fields):
    """(line number, tokens) per non-blank line of an artifact."""
    for lineno, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != n_fields:
            raise ParseError(f"expected {n_fields} fields, got {line!r}", lineno)
        yield lineno, tokens


def _naturals(tokens, lineno) -> list[int]:
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"expected integers, got {' '.join(tokens)!r}", lineno) from None
    if min(values) < 0:
        raise ParseError(f"negative value in {' '.join(tokens)!r}", lineno)
    return values


def parse_floorplan(text) -> tuple[Floorplan, tuple[int, ...]]:
    """Read serialize_floorplan's output back: (floorplan, level per room)."""
    xs, ys, ws, hs, dims, levels = [], [], [], [], [], []
    for lineno, tokens in _records(text, 10):
        x, y, w, h, rx, ry, rw, rh, level = _naturals(tokens[1:], lineno)
        if (x, y) != (rx, ry):
            raise ParseError(
                f"module at ({x}, {y}) is not at its room origin ({rx}, {ry})", lineno
            )
        if not (0 < w <= rw and 0 < h <= rh):
            raise ParseError(
                f"module {w}x{h} is empty or larger than its {rw}x{rh} room", lineno
            )
        if level < 1:
            raise ParseError(f"voltage level must be at least 1, got {level}", lineno)
        xs.append(rx)
        ys.append(ry)
        ws.append(rw)
        hs.append(rh)
        dims.append((w, h))
        levels.append(level)
    if not xs:
        raise ParseError("floorplan has no modules", 1)
    chip_w = max(x + w for x, w in zip(xs, ws))
    chip_h = max(y + h for y, h in zip(ys, hs))
    return Floorplan(chip_w, chip_h, xs, ys, ws, hs, tuple(dims)), tuple(levels)


def parse_shifters(text) -> dict[int, tuple[int, int, int, int]]:
    """Read serialize_shifters's output back: shifter id -> (x, y, w, h),
    as ShifterAssignment.placements() gives it."""
    rects = {}
    for lineno, tokens in _records(text, 8):
        if tokens[7] not in ("room", "els"):
            raise ParseError(f"status must be 'room' or 'els', got {tokens[7]!r}", lineno)
        sid, x, y, w, h = _naturals([tokens[0], *tokens[3:7]], lineno)
        if sid in rects:
            raise ParseError(f"duplicate shifter id {sid}", lineno)
        rects[sid] = (x, y, w, h)
    return rects


def run_pipeline(config: RunConfig):
    """Execute a full run; returns (ReportRow, AnnealResult) and writes artifacts."""
    started = time.perf_counter()
    dataset = config.dataset or Path(config.blocks_path).stem
    # report.csv separates fields with commas and is read back line by line
    if "," in dataset or "".join(dataset.splitlines()) != dataset:
        raise ValidationError(f"dataset name {dataset!r} holds a comma or a line break")
    netlist, spec, k = load_instance(config)
    try:
        result = anneal(netlist, spec, config, config.seed)
    except TimingInfeasible as exc:
        names = [
            netlist.modules[i].name
            for i in exc.critical_path
            if isinstance(i, int) and 0 <= i < netlist.m
        ]
        raise TimingInfeasible(str(exc), critical_path=names or exc.critical_path) from exc
    runtime = time.perf_counter() - started

    row = ReportRow(
        dataset=dataset,
        k=k,
        power_cost=result.metrics.power,
        wirelength_with_ls=result.metrics.wirelength_with_ls,
        ls_number=result.metrics.ls_count,
        ilo_percent=result.metrics.ilo_percent,
        white_space_percent=result.metrics.whitespace_percent,
        runtime_seconds=runtime,
    )

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(emit_report([row]))
    (out / "floorplan.txt").write_text(serialize_floorplan(netlist, result))
    (out / "shifters.txt").write_text(serialize_shifters(netlist, result))
    (out / "layout.svg").write_text(
        render_svg(result.floorplan, result.voltage.level, result.shifters.placements())
    )
    return row, result
