"""Run artifacts read back through their one reader each.

floorplan.txt and shifters.txt are read by pipeline.parse_floorplan and
pipeline.parse_shifters, report.csv by report.parse_report; `voltplan
render` and `voltplan report` go through the same readers.
"""

import contextlib
import io
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltplan.cli import main
from voltplan.pipeline import RunConfig, parse_floorplan, parse_shifters, run_pipeline

from conftest import DATA

ARTIFACTS = ("floorplan.txt", "shifters.txt", "report.csv")
REPORT_HEADER = (
    "dataset,k,power_cost,wirelength_with_ls,ls_number,"
    "ilo_percent,white_space_percent,runtime_seconds\n"
)


@pytest.fixture(scope="module")
def run42(tmp_path_factory):
    """One seed-42 n10 run, shared by every test in this module."""
    base = tmp_path_factory.mktemp("run42")
    spec = base / "n10.spec"
    assert main([
        "gen-spec", "--blocks", str(DATA / "n10.blocks"), "--nets", str(DATA / "n10.nets"),
        "--seed", "42", "-o", str(spec),
    ]) == 0
    out = base / "out"
    _row, result = run_pipeline(RunConfig(
        blocks_path=str(DATA / "n10.blocks"), nets_path=str(DATA / "n10.nets"),
        spec_path=str(spec), seed=42, out_dir=str(out),
    ))
    return SimpleNamespace(out=out, result=result, scratch=base)


def _cli(argv):
    """(exit code, stderr) of one CLI call; stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def _reread(run, artifact, path):
    """Feed `path` in place of the run's `artifact` to render or report."""
    if artifact == "report.csv":
        return _cli(["report", str(path), "-o", str(run.scratch / "re.csv")])
    files = {"floorplan.txt": run.out / "floorplan.txt", "shifters.txt": run.out / "shifters.txt"}
    files[artifact] = path
    return _cli([
        "render", "--floorplan", str(files["floorplan.txt"]),
        "--shifters", str(files["shifters.txt"]), "-o", str(run.scratch / "re.svg"),
    ])


def test_floorplan_round_trip(run42):
    floorplan, levels = parse_floorplan((run42.out / "floorplan.txt").read_text())
    assert floorplan == run42.result.floorplan
    assert levels == run42.result.voltage.level


def test_shifters_round_trip(run42):
    placements = run42.result.shifters.placements()
    assert placements
    assert parse_shifters((run42.out / "shifters.txt").read_text()) == placements


def test_rerender_and_rereport_byte_identical(run42):
    rc, _ = _reread(run42, "floorplan.txt", run42.out / "floorplan.txt")
    assert rc == 0
    assert (run42.scratch / "re.svg").read_bytes() == (run42.out / "layout.svg").read_bytes()
    rc, _ = _reread(run42, "report.csv", run42.out / "report.csv")
    assert rc == 0
    assert (run42.scratch / "re.csv").read_bytes() == (run42.out / "report.csv").read_bytes()


@pytest.mark.parametrize(
    "artifact, text, lineno",
    [
        ("floorplan.txt", "a b c\n", 1),
        ("floorplan.txt", "sb0 0 0 4 4 0 0 4 4 1\nsb1 4 0 4 4\n", 2),
        ("floorplan.txt", "sb0 0 0 4 4 0 0 4 x 1\n", 1),
        ("floorplan.txt", "sb0 0 0 4 4 1 0 4 4 1\n", 1),
        ("floorplan.txt", "\n", 1),
        ("floorplan.txt", "a 0 0 5 5 0 0 4 4 0\n", 1),
        ("floorplan.txt", "sb0 0 0 4 4 0 0 4 4 1\na 4 0 5 4 4 0 4 4 1\n", 2),
        ("floorplan.txt", "a 0 0 0 4 0 0 4 4 1\n", 1),
        ("floorplan.txt", "a 0 0 4 0 0 0 4 4 1\n", 1),
        ("floorplan.txt", "a 0 0 4 4 0 0 4 4 0\n", 1),
        ("shifters.txt", "0 sb0 sb1 1 2 1 1 room\n1 sb0 sb1 1 2 1 1 nowhere\n", 2),
        ("shifters.txt", "0 sb0 sb1 1 2 1 one els\n", 1),
        ("shifters.txt", "0 sb0 sb1 1 2 1 1 room\n0 sb0 sb1 1 2 1 1 room\n", 2),
        ("report.csv", REPORT_HEADER + "x,y\n", 2),
        ("report.csv", REPORT_HEADER + "x,0,5,6,7,0.1000,2.0000,1.00\n", 2),
        ("report.csv", REPORT_HEADER + "x,4,-5,6,7,0.1000,2.0000,1.00\n", 2),
        ("report.csv", REPORT_HEADER + "x,4,+5,6,7,0.1000,2.0000,1.00\n", 2),
        ("report.csv", REPORT_HEADER + "x,4,1_0,6,7,0.1000,2.0000,1.00\n", 2),
        ("report.csv", REPORT_HEADER + "x,4,5,6,7,-0.1000,2.0000,1.00\n", 2),
        ("report.csv", REPORT_HEADER + "x,4,5,6,7,0.1000,2e1,1.00\n", 2),
        ("report.csv", REPORT_HEADER + "x,4,5,6,7,0.1000,2.0000,nan\n", 2),
        ("report.csv", REPORT_HEADER + "x,4,5,6,7,0.1000,2.0000,inf\n", 2),
        ("report.csv", REPORT_HEADER + "x,4,5,6,7,0.1000,2.0000,1e400\n", 2),
        # a runtime with more digits than a float holds reads as inf
        ("report.csv", REPORT_HEADER + "x,4,5,6,7,0.1000,2.0000,1" + "0" * 400 + "\n", 2),
        ("report.csv", "dataset,k\n", 1),
    ],
)
def test_malformed_artifact_exit_2(run42, artifact, text, lineno):
    bad = run42.scratch / f"bad-{artifact}"
    bad.write_text(text)
    rc, err = _reread(run42, artifact, bad)
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith(f"error: line {lineno}: ")


def test_missing_shifters_file_exit_2(run42):
    rc, err = _reread(run42, "shifters.txt", run42.scratch / "no-such-shifters.txt")
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error: ")


@st.composite
def _mutated(draw, texts):
    """One artifact of the run with one token- or line-level edit."""
    artifact = draw(st.sampled_from(ARTIFACTS))
    sep = "," if artifact == "report.csv" else " "
    lines = [line.split(sep) for line in texts[artifact].splitlines()]
    op = draw(st.sampled_from(("drop", "swap", "nonint", "huge", "empty", "dup")))
    if op == "empty" or not lines:
        return artifact, ""
    i = draw(st.integers(0, len(lines) - 1))
    row = lines[i]
    j = draw(st.integers(0, len(row) - 1))
    if op == "drop":
        del row[j]
    elif op == "swap":
        k = draw(st.integers(0, len(row) - 1))
        row[j], row[k] = row[k], row[j]
    elif op == "nonint":
        row[j] = draw(st.sampled_from(("x", "1.5", "-", "", "nan", "0x10", "1e3", "Avg")))
    elif op == "huge":
        row[j] = str(draw(st.integers(2**63, 10**400) | st.integers(-(10**400), -1)))
    else:
        lines.insert(draw(st.integers(0, len(lines))), list(row))
    return artifact, "\n".join(sep.join(row) for row in lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_artifacts_exit_0_or_2(run42, data):
    texts = {name: (run42.out / name).read_text() for name in ARTIFACTS}
    artifact, text = data.draw(_mutated(texts))
    bad = run42.scratch / f"mutated-{artifact}"
    bad.write_text(text)
    rc, err = _reread(run42, artifact, bad)
    assert rc in (0, 2)
    if rc == 2:
        assert err.count("\n") == 1 and err.startswith("error: ")
