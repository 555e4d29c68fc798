import inspect
import xml.etree.ElementTree as ET
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from voltplan.bench import (
    convert_gsrc_blocks,
    convert_gsrc_nets,
    gen_spec,
    parse_blocks,
    parse_nets,
    parse_spec,
)
from voltplan import cli
from voltplan.cli import main
from voltplan.errors import DuplicateName, ParseError, UnknownBlock
from voltplan.model import modify_dp_curve, validate_dp_curve
from voltplan.floorplan import Floorplan, Room
from voltplan.pipeline import RunConfig
from voltplan.render import render_svg
from voltplan.report import ReportRow, emit_report, format_fixed, parse_report

from conftest import DATA


class TestParseBlocks:
    def test_single_line(self):
        assert parse_blocks("sb0 20 16\n") == [("sb0", 20, 16)]

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateName):
            parse_blocks("sb0 20 16\nsb0 5 5\n")

    def test_comments_and_order(self):
        got = parse_blocks(Path(DATA / "n10.blocks").read_text())
        assert len(got) == 10
        assert [g[0] for g in got] == [f"sb{i}" for i in range(10)]

    def test_bad_dimensions(self):
        with pytest.raises(ParseError):
            parse_blocks("sb0 x 16\n")
        with pytest.raises(ParseError):
            parse_blocks("sb0 0 16\n")


class TestParseNets:
    def test_source_and_sinks(self):
        got = parse_nets("net sb0 sb1 sb2\n", ["sb0", "sb1", "sb2"])
        assert got == [("sb0", ["sb1", "sb2"])]

    def test_unknown_block(self):
        with pytest.raises(UnknownBlock):
            parse_nets("net sb0 zz\n", ["sb0"])

    def test_source_listed_as_sink(self):
        with pytest.raises(ParseError, match="^line 2: net source 'a' is also one of its sinks$"):
            parse_nets("net a b\nnet a b a\n", ["a", "b"])

    def test_fixture_decomposes_to_expected_pairs(self):
        from voltplan.model import decompose_multipin

        text = "net a b c\nnet b d\nnet c d e\n"
        nets = parse_nets(text, list("abcde"))
        assert len(decompose_multipin(nets)) == 5


class TestGenSpec:
    BLOCKS = [("a", 8, 8), ("b", 6, 10), ("c", 12, 5)]
    NETS = [("a", ["b", "c"]), ("b", ["c"])]

    def test_deterministic(self):
        one = gen_spec(7, self.BLOCKS, self.NETS, 4)
        two = gen_spec(7, self.BLOCKS, self.NETS, 4)
        assert one == two

    def test_roundtrip_and_validity(self):
        text = gen_spec(7, self.BLOCKS, self.NETS, 4)
        curves, shifter, t_cycle, k = parse_spec(text)
        assert k == 4 and t_cycle > 0
        assert set(curves) == {"a", "b", "c"}
        for c in curves.values():
            validate_dp_curve(c, 4)
            modify_dp_curve(c, shifter)  # must stay convex

    def test_many_seeds_stay_valid(self):
        for seed in range(1000):
            text = gen_spec(seed, self.BLOCKS, self.NETS, 3)
            curves, shifter, _, k = parse_spec(text)
            for c in curves.values():
                validate_dp_curve(c, k)
                modify_dp_curve(c, shifter)

    def test_nested_prefix_across_k(self):
        for seed in (1, 9, 33):
            small, _, _, _ = parse_spec(gen_spec(seed, self.BLOCKS, self.NETS, 2))
            large, _, _, _ = parse_spec(gen_spec(seed, self.BLOCKS, self.NETS, 4))
            for name in small:
                assert small[name].points == large[name].points[:2]

    def test_shifter_prefix_across_k(self):
        _, sh2, _, _ = parse_spec(gen_spec(5, self.BLOCKS, self.NETS, 2))
        _, sh4, _, _ = parse_spec(gen_spec(5, self.BLOCKS, self.NETS, 4))
        assert sh2.overhead == sh4.overhead[:2]


class TestReport:
    def test_golden(self):
        rows = [
            ReportRow("n10", 4, 120885, 181280, 167, Fraction(17, 50),
                      Fraction(2607, 100), 414.7),
            ReportRow("demo", 2, 100, 200, 3, Fraction(1, 3), Fraction(25), 1.0),
        ]
        assert emit_report(rows) == (DATA / "report_golden.csv").read_text()

    def test_golden_round_trip(self):
        golden = (DATA / "report_golden.csv").read_text()
        rows = parse_report(golden)
        assert [r.dataset for r in rows] == ["n10", "demo"]
        assert emit_report(rows) == golden

    def test_only_trailing_avg_row_skipped(self):
        row = ReportRow("Avgfoo", 2, 10, 20, 1, Fraction(1), Fraction(2), 3.0)
        assert parse_report(emit_report([row])) == [row]

    def test_single_row_avg_equals_row(self):
        row = ReportRow("x", 2, 10, 20, 1, Fraction(1), Fraction(2), 3.0)
        lines = emit_report([row]).splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[2:6] == lines[2].split(",")[2:6]

    def test_avg_of_two(self):
        rows = [
            ReportRow("a", 2, 100, 0, 0, Fraction(0), Fraction(0), 0.0),
            ReportRow("b", 2, 200, 0, 0, Fraction(0), Fraction(0), 0.0),
        ]
        avg = emit_report(rows).splitlines()[-1].split(",")
        assert avg[2] == "150"

    def test_format_fixed_rounds_half_up(self):
        assert format_fixed(Fraction(1, 3)) == "0.3333"
        assert format_fixed(Fraction(2, 3)) == "0.6667"
        assert format_fixed(Fraction(25, 1000)) == "0.0250"
        assert format_fixed(Fraction(-1, 3)) == "-0.3333"


class TestSvg:
    def _result(self, tmp_path):
        from test_floorplan import tiny_netlist, tiny_shifter
        from voltplan.anneal import AnnealConfig, anneal

        nl = tiny_netlist()
        return nl, anneal(nl, tiny_shifter(), AnnealConfig(), seed=3)

    def test_single_module_two_rects(self):
        from test_floorplan import tiny_netlist, tiny_shifter
        from voltplan.anneal import AnnealConfig, anneal

        nl = tiny_netlist(m=1)
        res = anneal(nl, tiny_shifter(), AnnealConfig(), seed=1)
        svg = render_svg(res.floorplan, res.voltage.level, res.shifters.placements())
        root = ET.fromstring(svg)
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        assert len(rects) == 2

    def test_element_count_and_viewbox(self, tmp_path):
        nl, res = self._result(tmp_path)
        svg = render_svg(res.floorplan, res.voltage.level, res.shifters.placements())
        root = ET.fromstring(svg)
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        m = nl.m
        assert len(rects) == 2 * m + res.shifters.n
        assert root.get("viewBox") == f"0 0 {res.floorplan.chip_w} {res.floorplan.chip_h}"

    def test_same_level_same_fill(self):
        rooms = (Room(0, 0, 2, 2, 2, 2), Room(2, 0, 2, 2, 2, 2))
        svg = render_svg(Floorplan(chip_w=4, chip_h=2, rooms=rooms), (3, 3), {})
        root = ET.fromstring(svg)
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        fills = [r.get("fill") for r in rects[2:]]
        assert fills[0] == fills[1] != "none"


GSRC_BLOCKS = """\
UCSC blocks 1.0
p2 sb0 sb1
NumSoftRectangularBlocks : 0
NumHardRectilinearBlocks : 2
NumTerminals : 1
sb0 hardrectilinear 4 (0, 0) (0, 16) (21, 16) (21, 0)
sb1 hardrectilinear 4 (0, 0) (0, 32) (11, 32) (11, 0)
p1 terminal
"""

GSRC_NETS = """\
UCLA nets 1.0
NumNets : 2
NumPins : 5
NetDegree : 2
sb0 B
sb1 B
NetDegree : 3
sb1 B
p1 B
sb0 B
"""


class TestGsrcConvert:
    def test_blocks(self):
        text = convert_gsrc_blocks(GSRC_BLOCKS)
        assert parse_blocks(text) == [("sb0", 21, 16), ("sb1", 11, 32)]

    def test_nets_drop_terminals_and_cycles(self):
        blocks = parse_blocks(convert_gsrc_blocks(GSRC_BLOCKS))
        text = convert_gsrc_nets(GSRC_NETS, [b[0] for b in blocks])
        # second net would close sb1 -> sb0 -> sb1; its only sink is dropped
        assert text.splitlines() == ["net sb0 sb1"]


# a spec line in place of the generated line of its kind -> the error it gives
SPEC_ERRORS = {
    "k x": "k: expected an integer",
    "k": "k: value missing",
    "k 0": "k: must be at least 1, got 0",
    "tcycle -5": "tcycle: must be at least 0, got -5",
    "tcycle 1.5": "tcycle: expected an integer",
    "curve sb0 1 2 x": "curve: expected an integer",
    "curve": "curve: (level, delay, power) triples expected",
    "shifter 4 2 1 1 1 2 2 0": "shifter: expected a ratio",
    "shifter 4 2:0 1 1 1 2 2 0": "shifter: expected a ratio",
    "shifter 4 a:1 1 1 1 2 2 0": "shifter: expected a ratio",
    "shifter x 2:1 1 1 1 2 2 0": "shifter: expected an integer",
    "shifter 4": "shifter: expected a ratio",
    # well-formed tokens, invalid record (the generated spec has k=3)
    "curve sb0 1 5 30 2 3 20 3 8 10": "curve sb0: delay must increase from level 1 to 2",
    "curve sb0 1 2 30 2 3 20": "curve sb0: expected 3 curve points, got 2",
    "shifter 0 2:1 1 1 30 2 2 20 3 3 10": "shifter: shifter area must be positive",
    "shifter 4 2:1 1 1 30 2 2 20": "shifter overhead has 2 levels, k=3",
}


class TestCli:
    def _gen(self, tmp_path, k=3, seed=11):
        spec = tmp_path / "fix.spec"
        rc = main([
            "gen-spec", "--blocks", str(DATA / "n10.blocks"),
            "--nets", str(DATA / "n10.nets"), "--k", str(k),
            "--seed", str(seed), "-o", str(spec),
        ])
        assert rc == 0
        return spec

    def test_gen_run_report_render(self, tmp_path, capsys):
        spec = self._gen(tmp_path)
        out = tmp_path / "run"
        rc = main([
            "run", "--blocks", str(DATA / "n10.blocks"),
            "--nets", str(DATA / "n10.nets"), "--spec", str(spec),
            "--seed", "5", "--out", str(out), "--max-levels", "25",
        ])
        assert rc == 0
        for artifact in ("report.csv", "floorplan.txt", "shifters.txt", "layout.svg"):
            assert (out / artifact).exists()
        merged = tmp_path / "merged.csv"
        rc = main(["report", str(out / "report.csv"), "-o", str(merged)])
        assert rc == 0
        assert merged.read_text().startswith("dataset,k,power_cost")
        rendered = tmp_path / "re.svg"
        rc = main([
            "render", "--floorplan", str(out / "floorplan.txt"),
            "--shifters", str(out / "shifters.txt"), "-o", str(rendered),
        ])
        assert rc == 0
        ET.fromstring(rendered.read_text())

    @pytest.mark.parametrize(
        "blocks_name, dataset",
        [("n10.blocks", "a,b"), ("x,y.blocks", None), ("n10.blocks", "a\rb")],
        ids=["comma-flag", "comma-stem", "carriage-return-flag"],
    )
    def test_dataset_name_report_cannot_hold_exit_2(self, tmp_path, capsys, blocks_name, dataset):
        # report.csv is split on commas and by str.splitlines when read back
        spec = self._gen(tmp_path)
        blocks = tmp_path / blocks_name
        blocks.write_text((DATA / "n10.blocks").read_text())
        out = tmp_path / "run"
        argv = [
            "run", "--blocks", str(blocks), "--nets", str(DATA / "n10.nets"),
            "--spec", str(spec), "--seed", "5", "--out", str(out), "--max-levels", "2",
        ]
        if dataset is not None:
            argv += ["--dataset", dataset]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset name ") and err.count("\n") == 1
        assert not (out / "report.csv").exists()

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.blocks"
        bad.write_text("sb0 x y\n")
        rc = main([
            "gen-spec", "--blocks", str(bad), "--nets", str(DATA / "n10.nets"),
            "--seed", "1", "-o", str(tmp_path / "s.spec"),
        ])
        assert rc == 2

    def test_gen_spec_no_blocks_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.blocks"
        empty.write_text("# no blocks\n")
        capsys.readouterr()
        rc = main([
            "gen-spec", "--blocks", str(empty), "--nets", str(empty),
            "--seed", "1", "-o", str(tmp_path / "s.spec"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: need at least one block\n"
        assert not (tmp_path / "s.spec").exists()

    def test_gsrc_long_chain_drops_back_edge(self, tmp_path, capsys):
        n = 1000
        blocks = "".join(f"sb{i} softrectangular 16 1 1\n" for i in range(n))
        # sb0 -> sb1 -> ... -> sb999, then sb999 -> sb0 closes the cycle
        nets = "".join(f"NetDegree : 2\nsb{i} B\nsb{(i + 1) % n} B\n" for i in range(n))
        (tmp_path / "g.blocks").write_text(blocks)
        (tmp_path / "g.nets").write_text(nets)
        rc = main([
            "convert-gsrc", "--blocks", str(tmp_path / "g.blocks"),
            "--nets", str(tmp_path / "g.nets"),
            "--out-blocks", str(tmp_path / "o.blocks"), "--out-nets", str(tmp_path / "o.nets"),
        ])
        assert rc == 0
        got = (tmp_path / "o.nets").read_text().splitlines()
        assert got == [f"net sb{i} sb{i + 1}" for i in range(n - 1)]

    @pytest.mark.parametrize("line", list(SPEC_ERRORS))
    def test_bad_spec_token_exit_2(self, tmp_path, capsys, line):
        spec = self._gen(tmp_path)
        lines = spec.read_text().splitlines()
        kind = line.split()[0]
        at = next(i for i, text in enumerate(lines) if text.split()[0] == kind)
        lines[at] = line
        spec.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main([
            "run", "--blocks", str(DATA / "n10.blocks"),
            "--nets", str(DATA / "n10.nets"), "--spec", str(spec),
            "--seed", "5", "--out", str(tmp_path / "r"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: line {at + 1}: {SPEC_ERRORS[line]}")

    @pytest.mark.parametrize("k", ["9", "0"])
    def test_gen_spec_k_out_of_range_exit_2(self, tmp_path, capsys, k):
        capsys.readouterr()
        rc = main([
            "gen-spec", "--blocks", str(DATA / "n10.blocks"),
            "--nets", str(DATA / "n10.nets"), "--k", k,
            "--seed", "1", "-o", str(tmp_path / "s.spec"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: k must be in 1..8, got {k}\n"
        assert not (tmp_path / "s.spec").exists()

    @pytest.mark.parametrize(
        "blocks, nets",
        [
            ("sb0 softrectangular x 1 1\n", ""),
            ("sb0 softrectangular -4 1 1\n", ""),
            ("sb0 softrectangular 4 1 1\n", "NetDegree : x\nsb0 B\n"),
        ],
    )
    def test_bad_gsrc_token_exit_2(self, tmp_path, capsys, blocks, nets):
        (tmp_path / "g.blocks").write_text(blocks)
        (tmp_path / "g.nets").write_text(nets)
        rc = main([
            "convert-gsrc", "--blocks", str(tmp_path / "g.blocks"),
            "--nets", str(tmp_path / "g.nets"),
            "--out-blocks", str(tmp_path / "o.blocks"), "--out-nets", str(tmp_path / "o.nets"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: line 1: ")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--kappa", "1/0"),
            ("--timing-slack", "1/0"),
            ("--kappa", "-1"),
            ("--ls-every", "0"),
            ("--accept-target", "1"),
            ("--timing-slack", "-1"),
            ("--timing-slack", "3/2"),
            ("--window", "-50"),
            ("--beta", "0"),
            ("--alpha", "0"),
            ("--alpha", "1"),
            ("--max-levels", "-1"),
        ],
    )
    def test_bad_numeric_flag_exit_2(self, tmp_path, capsys, flag, value):
        if flag == "--timing-slack":
            argv = ["gen-spec", "--blocks", str(DATA / "n10.blocks"),
                    "--nets", str(DATA / "n10.nets"), "--seed", "1",
                    "-o", str(tmp_path / "s.spec")]
        else:
            argv = ["run", "--blocks", str(DATA / "n10.blocks"),
                    "--nets", str(DATA / "n10.nets"), "--spec", str(self._gen(tmp_path)),
                    "--seed", "5", "--out", str(tmp_path / "r"), "--max-levels", "25"]
        capsys.readouterr()
        try:
            rc = main(argv + [flag, value])
        except SystemExit as exc:  # argparse rejects the value
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: " in err.splitlines()[-1]

    def test_unknown_block_curve_exit_2(self, tmp_path, capsys):
        spec = self._gen(tmp_path)
        curve = next(line for line in spec.read_text().splitlines() if line.startswith("curve "))
        with spec.open("a") as f:
            f.write(curve.replace("curve sb0 ", "curve zz ", 1) + "\n")
        capsys.readouterr()
        rc = main([
            "run", "--blocks", str(DATA / "n10.blocks"),
            "--nets", str(DATA / "n10.nets"), "--spec", str(spec),
            "--seed", "5", "--out", str(tmp_path / "r"), "--max-levels", "25",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'zz'" in err

    def test_overhead_breaking_a_curve_exit_2_at_its_line(self, tmp_path, capsys):
        (tmp_path / "a.blocks").write_text("a 4 4\n")
        (tmp_path / "a.nets").write_text("")
        (tmp_path / "a.spec").write_text(
            "k 2\ntcycle 100\ncurve a 1 1 10 2 2 4\nshifter 1 1:1 1 2 0 2 0 0\n"
        )
        capsys.readouterr()
        rc = main([
            "run", "--blocks", str(tmp_path / "a.blocks"), "--nets", str(tmp_path / "a.nets"),
            "--spec", str(tmp_path / "a.spec"), "--seed", "1", "--out", str(tmp_path / "r"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: line 3: curve a with the shifter overhead of line 4: overhead breaks"
            " curve invariants: delay must increase from level 1 to 2\n"
        )
        assert not (tmp_path / "r").exists()

    def test_self_loop_net_exit_2_at_its_line(self, tmp_path, capsys):
        (tmp_path / "a.blocks").write_text("a 4 4\nb 4 4\n")
        (tmp_path / "a.nets").write_text("net a b\nnet a a b\n")
        (tmp_path / "a.spec").write_text(
            "k 1\ntcycle 100\ncurve a 1 1 10\ncurve b 1 1 10\nshifter 1 1:1 1 0 0\n"
        )
        capsys.readouterr()
        rc = main([
            "run", "--blocks", str(tmp_path / "a.blocks"), "--nets", str(tmp_path / "a.nets"),
            "--spec", str(tmp_path / "a.spec"), "--seed", "1", "--out", str(tmp_path / "r"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: line 2: net source 'a' is also one of its sinks\n"
        )
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["gen-spec", "run", "report", "render", "convert-gsrc"])
    def test_non_utf8_input_exit_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe" + "sb0 2 2\n".encode("utf-16-le"))
        blocks, nets, out = DATA / "n10.blocks", DATA / "n10.nets", tmp_path / "out"
        argv = {
            "gen-spec": ["--blocks", bad, "--nets", nets, "--seed", 1, "-o", out],
            "run": ["--blocks", blocks, "--nets", nets, "--spec", bad, "--seed", 1, "--out", out],
            "report": [bad],
            "render": ["--floorplan", bad, "-o", out],
            "convert-gsrc": [
                "--blocks", bad, "--nets", nets, "--out-blocks", out, "--out-nets", out,
            ],
        }[command]
        rc = main([command] + [str(a) for a in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {bad}: not UTF-8 text (byte 0xff at offset 0)")

    def test_solver_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        from voltplan.errors import NegativeResidualCycle
        from voltplan.flow import ResidualNetwork

        def broken(kept, cap, pot, arcs, costs):
            raise NegativeResidualCycle("no circulation meets the lower bounds")

        spec = self._gen(tmp_path)
        monkeypatch.setattr(ResidualNetwork, "reoptimize", broken)
        capsys.readouterr()
        rc = main([
            "run", "--blocks", str(DATA / "n10.blocks"),
            "--nets", str(DATA / "n10.nets"), "--spec", str(spec),
            "--seed", "5", "--out", str(tmp_path / "r"),
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert err == "internal solver error: no circulation meets the lower bounds\n"

    def test_delays_past_2_pow_62_exit_0(self, tmp_path, capsys):
        (tmp_path / "b.blocks").write_text("a 4 4\nb 4 4\n")
        (tmp_path / "b.nets").write_text("net a b\n")
        curve = "1 10000000000000000000 10 2 20000000000000000000 4"
        (tmp_path / "b.spec").write_text(
            "k 2\ntcycle 40000000000000000000\n"
            f"curve a {curve}\ncurve b {curve}\nshifter 1 1:1 1 0 1 2 0 0\n"
        )
        out = tmp_path / "r"
        rc = main([
            "run", "--blocks", str(tmp_path / "b.blocks"), "--nets", str(tmp_path / "b.nets"),
            "--spec", str(tmp_path / "b.spec"), "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        assert capsys.readouterr().err == ""
        rows = [line.split() for line in (out / "floorplan.txt").read_text().splitlines()]
        assert [row[-1] for row in rows] == ["2", "2"]
        assert (out / "report.csv").read_text().splitlines()[1].split(",")[2] == "8"

    def test_timing_infeasible_exit_3(self, tmp_path, capsys):
        spec = self._gen(tmp_path)
        rc = main([
            "run", "--blocks", str(DATA / "n10.blocks"),
            "--nets", str(DATA / "n10.nets"), "--spec", str(spec),
            "--seed", "5", "--out", str(tmp_path / "r"), "--tcycle", "1",
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "critical path" in err
        assert "sb" in err  # names modules, not indices

    def _run_n10(self, tmp_path, spec, out, *flags):
        return main([
            "run", "--blocks", str(DATA / "n10.blocks"), "--nets", str(DATA / "n10.nets"),
            "--spec", str(spec), "--seed", "42", "--out", str(tmp_path / out), *flags,
        ])

    def test_k_below_the_spec_levels_truncates_every_curve(self, tmp_path):
        """--k 2 on a k 4 spec runs as the k 2 spec of the same seed, whose
        cycle time is 91 (gen-spec nests its curves and overheads across k)."""
        specs = {}
        for k in (4, 2):
            (tmp_path / f"k{k}").mkdir()
            specs[k] = self._gen(tmp_path / f"k{k}", k=k, seed=42)
        k4, k2 = specs[4], specs[2]
        assert "tcycle 91\n" in k2.read_text()
        assert self._run_n10(tmp_path, k4, "cut", "--k", "2", "--tcycle", "91",
                             "--max-levels", "25") == 0
        assert self._run_n10(tmp_path, k2, "k2run", "--max-levels", "25") == 0
        cut, whole = tmp_path / "cut", tmp_path / "k2run"
        for name in ("floorplan.txt", "shifters.txt", "layout.svg"):
            assert (cut / name).read_bytes() == (whole / name).read_bytes()
        # the report's last column is the run time
        reports = [
            [row.rsplit(",", 1)[0] for row in (out / "report.csv").read_text().splitlines()]
            for out in (cut, whole)
        ]
        assert reports[0] == reports[1]
        assert reports[0][1].startswith("n10,2,")

    @pytest.mark.parametrize("k", [5, 0])
    def test_run_k_out_of_range_exit_2(self, tmp_path, capsys, k):
        spec = self._gen(tmp_path, k=4, seed=42)
        capsys.readouterr()
        assert self._run_n10(tmp_path, spec, "r", "--k", str(k)) == 2
        assert f"k={k} not in 1..4" in capsys.readouterr().err

    def test_no_feasible_candidate_exit_3(self, tmp_path, capsys):
        """Two 4 x 4 blocks on one net fit a cycle time of 10 only without
        wire delay: at kappa 1 every candidate's net is too long."""
        (tmp_path / "t.blocks").write_text("a 4 4\nb 4 4\n")
        (tmp_path / "t.nets").write_text("net a b\n")
        (tmp_path / "t.spec").write_text(
            "k 2\ntcycle 10\ncurve a 1 5 100 2 6 90\ncurve b 1 5 100 2 6 90\n"
            "shifter 1 1:1 1 0 10 2 0 5\n"
        )

        def run(out, *flags):
            return main([
                "run", "--blocks", str(tmp_path / "t.blocks"), "--nets", str(tmp_path / "t.nets"),
                "--spec", str(tmp_path / "t.spec"), "--seed", "1", "--out", str(tmp_path / out),
                *flags,
            ])

        capsys.readouterr()
        assert run("wired", "--kappa", "1") == 3
        assert "no candidate admitted a feasible assignment" in capsys.readouterr().err
        assert run("free") == 0

    def test_negative_tcycle_exit_2(self, tmp_path, capsys):
        spec = self._gen(tmp_path)
        capsys.readouterr()
        assert self._run_n10(tmp_path, spec, "r", "--tcycle", "-1") == 2
        assert capsys.readouterr().err == "error: t_cycle must be nonnegative\n"

    def test_emitted_floorplan_reparses_valid(self, tmp_path):
        from test_floorplan import check_tiling
        from voltplan.pipeline import parse_floorplan

        spec = self._gen(tmp_path)
        out = tmp_path / "runfp"
        rc = main([
            "run", "--blocks", str(DATA / "n10.blocks"),
            "--nets", str(DATA / "n10.nets"), "--spec", str(spec),
            "--seed", "6", "--out", str(out), "--max-levels", "25",
        ])
        assert rc == 0
        floorplan, _levels = parse_floorplan((out / "floorplan.txt").read_text())
        check_tiling(floorplan)


class _Captured(Exception):
    pass


def _capture(monkeypatch, name):
    """Make voltplan.cli's `name` raise _Captured with the arguments it got."""

    def fake(*args, **kwargs):
        raise _Captured(args, kwargs)

    monkeypatch.setattr(cli, name, fake)


class TestCliOptions:
    """Each flag lands in its config field or keyword; an unset flag leaves
    the library's own default in place."""

    RUN = ["run", "--blocks", "b.blocks", "--nets", "b.nets", "--spec", "b.spec",
           "--seed", "3", "--out", "outdir"]
    REQUIRED = dict(
        blocks_path="b.blocks", nets_path="b.nets", spec_path="b.spec", seed=3, out_dir="outdir"
    )
    # flag: (value, field, parsed value)
    OPTIONAL = {
        "--dataset": ("d1", "dataset", "d1"),
        "--k": ("2", "k", 2),
        "--tcycle": ("77", "t_cycle", 77),
        "--alpha": ("0.5", "alpha", 0.5),
        "--beta": ("3", "beta", 3),
        "--accept-target": ("0.75", "accept_target", 0.75),
        "--ls-every": ("2", "ls_every", 2),
        "--kappa": ("1/32", "kappa", Fraction(1, 32)),
        "--window": ("7", "window", 7),
        "--max-levels": ("9", "max_levels", 9),
    }

    def _config(self, monkeypatch, argv):
        _capture(monkeypatch, "run_pipeline")
        with pytest.raises(_Captured) as info:
            main(argv)
        (config,), kwargs = info.value.args
        assert kwargs == {}
        return config

    def test_required_flags_only(self, monkeypatch):
        assert self._config(monkeypatch, self.RUN) == RunConfig(**self.REQUIRED)

    def test_every_optional_flag_lands_in_its_field(self, monkeypatch):
        argv = list(self.RUN)
        for flag, (value, _, _) in self.OPTIONAL.items():
            argv += [flag, value]
        config = self._config(monkeypatch, argv)
        default = RunConfig(**self.REQUIRED)
        for flag, (_, field, parsed) in self.OPTIONAL.items():
            assert getattr(config, field) == parsed, flag
            assert getattr(default, field) != parsed, flag
        assert {f.name for f in fields(RunConfig)} == (
            self.REQUIRED.keys() | {f for _, f, _ in self.OPTIONAL.values()}
            | {"observer"}
        )

    GEN = ["gen-spec", "--blocks", str(DATA / "n10.blocks"), "--nets", str(DATA / "n10.nets"),
           "--seed", "4", "-o", "s.spec"]

    def _gen_spec_call(self, monkeypatch, argv):
        _capture(monkeypatch, "gen_spec")
        with pytest.raises(_Captured) as info:
            main(argv)
        got = inspect.signature(gen_spec).bind(*info.value.args[0], **info.value.args[1])
        options = dict(got.arguments)
        assert [b[0] for b in options.pop("blocks")] == [f"sb{i}" for i in range(10)]
        assert options.pop("nets")
        return options

    def test_gen_spec_required_flags_only(self, monkeypatch):
        assert self._gen_spec_call(monkeypatch, self.GEN) == {"seed": 4, "k": 4}

    def test_gen_spec_every_optional_flag(self, monkeypatch):
        argv = self.GEN + ["--k", "3", "--timing-slack", "1/4", "--shifter-area", "6"]
        assert self._gen_spec_call(monkeypatch, argv) == {
            "seed": 4, "k": 3, "timing_slack": Fraction(1, 4), "shifter_area": 6,
        }
