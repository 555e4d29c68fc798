import xml.etree.ElementTree as ET
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
from voltplan.cli import main
from voltplan.errors import DuplicateName, ParseError, UnknownBlock
from voltplan.model import modify_dp_curve, validate_dp_curve
from voltplan.render import emit_svg, render_svg
from voltplan.report import ReportRow, emit_report, format_fixed

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
        svg = emit_svg(res.floorplan, res.voltage, res.shifters)
        root = ET.fromstring(svg)
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        assert len(rects) == 2

    def test_element_count_and_viewbox(self, tmp_path):
        nl, res = self._result(tmp_path)
        svg = emit_svg(res.floorplan, res.voltage, res.shifters)
        root = ET.fromstring(svg)
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        m = nl.m
        assert len(rects) == 2 * m + res.shifters.n
        assert root.get("viewBox") == f"0 0 {res.floorplan.chip_w} {res.floorplan.chip_h}"

    def test_same_level_same_fill(self):
        rooms = [(0, 0, 2, 2), (2, 0, 2, 2)]
        modules = [(0, 0, 2, 2, 3), (2, 0, 2, 2, 3)]
        svg = render_svg(4, 2, rooms, modules, [])
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

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.blocks"
        bad.write_text("sb0 x y\n")
        rc = main([
            "gen-spec", "--blocks", str(bad), "--nets", str(DATA / "n10.nets"),
            "--seed", "1", "-o", str(tmp_path / "s.spec"),
        ])
        assert rc == 2

    @pytest.mark.parametrize(
        "line",
        [
            "k x",
            "k",
            "tcycle 1.5",
            "curve sb0 1 2 x",
            "curve",
            "shifter 4 2 1 1 1 2 2 0",
            "shifter 4 2:0 1 1 1 2 2 0",
            "shifter 4 a:1 1 1 1 2 2 0",
            "shifter x 2:1 1 1 1 2 2 0",
            "shifter 4",
        ],
    )
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
        assert err.startswith(f"error: line {at + 1}: ")

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

    def test_emitted_floorplan_reparses_valid(self, tmp_path):
        from test_floorplan import check_tiling
        from voltplan.floorplan import Floorplan, Room

        spec = self._gen(tmp_path)
        out = tmp_path / "runfp"
        rc = main([
            "run", "--blocks", str(DATA / "n10.blocks"),
            "--nets", str(DATA / "n10.nets"), "--spec", str(spec),
            "--seed", "6", "--out", str(out), "--max-levels", "25",
        ])
        assert rc == 0
        rooms = []
        for line in (out / "floorplan.txt").read_text().splitlines():
            f = line.split()
            rooms.append(
                Room(x=int(f[5]), y=int(f[6]), w=int(f[7]), h=int(f[8]),
                     module_w=int(f[3]), module_h=int(f[4]))
            )
        chip_w = max(r.x + r.w for r in rooms)
        chip_h = max(r.y + r.h for r in rooms)
        check_tiling(Floorplan(chip_w=chip_w, chip_h=chip_h, rooms=tuple(rooms)))
