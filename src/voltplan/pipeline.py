"""End-to-end run orchestration and artifact serialization.

A run parses blocks/nets/spec files, anneals, re-runs both assignment
phases on the final floorplan and writes four artifacts into the output
directory: report.csv, floorplan.txt, shifters.txt and layout.svg.

Serialization formats (one record per line):
  floorplan: <module> <x> <y> <w> <h> <room_x> <room_y> <room_w> <room_h> <level>
  shifters:  <shifter_id> <net_src> <net_sink> <x> <y> <w> <h> <room|els>
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from .anneal import AnnealConfig, AnnealResult, anneal
from .bench import parse_blocks, parse_nets, parse_spec
from .errors import ParseError, TimingInfeasible
from .model import DPCurve, ModuleBlock, ShifterSpec, build_netlist, decompose_multipin
from .render import emit_svg
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


def load_instance(config: RunConfig):
    blocks = parse_blocks(Path(config.blocks_path).read_text())
    raw_nets = parse_nets(Path(config.nets_path).read_text(), [b[0] for b in blocks])
    curves, spec, t_cycle, k_file = parse_spec(Path(config.spec_path).read_text())
    k = config.k if config.k is not None else k_file
    if k < 1 or k > k_file:
        raise ParseError(f"k={k} not in 1..{k_file} (spec file levels)")
    if config.t_cycle is not None:
        t_cycle = config.t_cycle
    modules = []
    for name, w, h in blocks:
        if name not in curves:
            raise ParseError(f"spec file has no curve for block {name!r}")
        curve = curves[name]
        if k < k_file:
            curve = DPCurve(points=curve.points[:k])
        modules.append(ModuleBlock(name=name, width=w, height=h, curve=curve))
    if k < k_file:
        spec = ShifterSpec(
            area=spec.area,
            ratio=spec.ratio,
            width=spec.width,
            height=spec.height,
            overhead=spec.overhead[:k],
        )
    pairs = decompose_multipin(raw_nets)
    netlist = build_netlist(modules, pairs, t_cycle, k)
    return netlist, spec, k


def serialize_floorplan(netlist, result: AnnealResult) -> str:
    lines = []
    for i, room in enumerate(result.floorplan.rooms):
        name = netlist.modules[i].name
        level = result.voltage.level[i]
        lines.append(
            f"{name} {room.x} {room.y} {room.module_w} {room.module_h} "
            f"{room.x} {room.y} {room.w} {room.h} {level}"
        )
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


def run_pipeline(config: RunConfig):
    """Execute a full run; returns (ReportRow, AnnealResult) and writes artifacts."""
    started = time.perf_counter()
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

    dataset = config.dataset or Path(config.blocks_path).stem
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
        emit_svg(result.floorplan, result.voltage, result.shifters)
    )
    return row, result
