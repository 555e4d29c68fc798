"""Command line interface.

Verbs: gen-spec (seeded curve/shifter/budget generation), run (full
pipeline), report (merge run rows into one CSV with an averages line),
render (re-draw the SVG from serialized artifacts).

Exit codes: 0 success, 2 parse or validation error (a file that is not
UTF-8 text included), 3 timing infeasible, 4 solver-internal error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .bench import convert_gsrc_blocks, convert_gsrc_nets, gen_spec, parse_blocks, parse_nets
from .errors import SolverError, TimingInfeasible, VoltplanError
from .pipeline import RunConfig, parse_floorplan, parse_shifters, read_input, run_pipeline
from .render import render_svg
from .report import emit_report, pretty_report, parse_report


def _frac(text: str) -> Fraction:
    if "/" not in text:
        return Fraction(text)
    num, den = text.split("/", 1)
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _add_gen_spec(sub):
    # unset options are left out, so gen_spec's defaults apply
    p = sub.add_parser("gen-spec", help="generate curves, shifter and cycle budget",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--blocks", required=True)
    p.add_argument("--nets", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--timing-slack", type=_frac,
                   help="where the budget sits between the fastest and slowest critical paths")
    p.add_argument("--shifter-area", type=int)
    p.add_argument("-o", "--out", required=True)


def _add_run(sub):
    # each dest is a RunConfig field; unset options are left out, so the
    # config's own defaults apply
    p = sub.add_parser("run", help="full pipeline: anneal, assign, report, render",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--blocks", dest="blocks_path", required=True)
    p.add_argument("--nets", dest="nets_path", required=True)
    p.add_argument("--spec", dest="spec_path", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    p.add_argument("--dataset")
    p.add_argument("--k", type=int)
    p.add_argument("--tcycle", dest="t_cycle", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=int)
    p.add_argument("--accept-target", type=float)
    p.add_argument("--kappa", type=_frac)
    p.add_argument("--window", type=int)
    p.add_argument("--max-levels", type=int)


def _add_report(sub):
    p = sub.add_parser("report", help="merge run report rows into one table")
    p.add_argument("csvs", nargs="+")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--pretty", action="store_true")


def _add_render(sub):
    p = sub.add_parser("render", help="redraw the SVG from serialized artifacts")
    p.add_argument("--floorplan", required=True)
    p.add_argument("--shifters", default=None)
    p.add_argument("-o", "--out", required=True)


def _add_convert(sub):
    p = sub.add_parser("convert-gsrc", help="rewrite GSRC .blocks/.nets files")
    p.add_argument("--blocks", required=True)
    p.add_argument("--nets", required=True)
    p.add_argument("--out-blocks", required=True)
    p.add_argument("--out-nets", required=True)


def _options(args, *names) -> dict:
    """The parsed flags as keyword arguments, minus the verb and `names`."""
    options = vars(args).copy()
    for name in ("command", *names):
        del options[name]
    return options


def _cmd_gen_spec(args) -> int:
    blocks = parse_blocks(read_input(args.blocks))
    nets = parse_nets(read_input(args.nets), [b[0] for b in blocks])
    text = gen_spec(blocks=blocks, nets=nets, **_options(args, "blocks", "nets", "out"))
    Path(args.out).write_text(text)
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = RunConfig(**_options(args))
    row, _result = run_pipeline(config)
    print(pretty_report([row]), end="")
    print(f"artifacts in {config.out_dir}")
    return 0


def _cmd_report(args) -> int:
    rows = [row for path in args.csvs for row in parse_report(read_input(path))]
    text = emit_report(rows)
    if args.out:
        Path(args.out).write_text(text)
    if args.pretty or not args.out:
        print(pretty_report(rows), end="")
    return 0


def _cmd_render(args) -> int:
    floorplan, levels = parse_floorplan(read_input(args.floorplan))
    shifters = parse_shifters(read_input(args.shifters)) if args.shifters else {}
    Path(args.out).write_text(render_svg(floorplan, levels, shifters))
    print(f"wrote {args.out}")
    return 0


def _cmd_convert(args) -> int:
    blocks_text = convert_gsrc_blocks(read_input(args.blocks))
    names = [b[0] for b in parse_blocks(blocks_text)]
    nets_text = convert_gsrc_nets(read_input(args.nets), names)
    Path(args.out_blocks).write_text(blocks_text)
    Path(args.out_nets).write_text(nets_text)
    print(f"wrote {args.out_blocks} and {args.out_nets}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="voltplan",
        description="multi-voltage floorplanning with level-shifter placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen_spec(sub)
    _add_run(sub)
    _add_report(sub)
    _add_render(sub)
    _add_convert(sub)
    args = parser.parse_args(argv)
    handlers = {
        "gen-spec": _cmd_gen_spec,
        "run": _cmd_run,
        "report": _cmd_report,
        "render": _cmd_render,
        "convert-gsrc": _cmd_convert,
    }
    try:
        return handlers[args.command](args)
    except TimingInfeasible as exc:
        path = " -> ".join(str(v) for v in exc.critical_path)
        print(f"timing infeasible: {exc}" + (f" (critical path: {path})" if path else ""),
              file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"internal solver error: {exc}", file=sys.stderr)
        return 4
    except (VoltplanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
