"""Tests for the benchmark's own parts: inputs, checker, digest, tracer."""

import importlib
import shutil
from pathlib import Path

import pytest

from checks import CheckFailed, artifact_digest, check_run
from tracer import Tracer, layer_metrics
from voltplan import RunConfig, run_pipeline
from workloads import WORKLOADS, build_instance, layered_blocks_nets

ROOT = Path(__file__).resolve().parent.parent
N10 = WORKLOADS["fixture-n10"]


def _run(inst, out, tracer=None):
    # two temperature levels keep the call short; the final exact solve still runs
    config = RunConfig(
        blocks_path=inst.paths["blocks"],
        nets_path=inst.paths["nets"],
        spec_path=inst.paths["spec"],
        seed=inst.anneal_seeds[0],
        out_dir=str(out),
        beta=1,
        max_levels=2,
    )
    if tracer is None:
        return run_pipeline(config)[1]
    with tracer.tracing(0):
        return run_pipeline(config)[1]


def _reported(result):
    m = result.metrics
    return {"power": m.power, "area": m.area, "wirelength_ls": m.wirelength_with_ls,
            "islands": m.islands, "ls_count": m.ls_count, "els": m.els_count}


@pytest.fixture(scope="module")
def n10_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("n10")
    inst = build_instance(N10, 3, ROOT, work / "in")
    result = _run(inst, work / "out")
    return inst, work / "out", _reported(result)


def _check(inst, out, reported, spec_text=None):
    return check_run(out, inst.blocks, inst.pairs, spec_text or inst.spec_text,
                     N10.kappa, reported)


def _corrupt(src, tmp_path, name, edit):
    out = tmp_path / "corrupt"
    shutil.copytree(src, out)
    path = out / name
    rows = [line.split() for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(" ".join(r) + "\n" for r in rows))
    return out


def test_generator_deterministic_per_seed(tmp_path):
    assert layered_blocks_nets(30, 50) == layered_blocks_nets(30, 50)
    assert layered_blocks_nets(30, 50) != layered_blocks_nets(30, 51)
    for workload in WORKLOADS.values():
        a = build_instance(workload, 7, ROOT, tmp_path / "a")
        b = build_instance(workload, 7, ROOT, tmp_path / "b")
        c = build_instance(workload, 8, ROOT, tmp_path / "c")
        assert (a.blocks, a.pairs, a.spec_text, a.anneal_seeds) == (
            b.blocks, b.pairs, b.spec_text, b.anneal_seeds)
        for name in ("blocks", "nets", "spec"):
            assert Path(a.paths[name]).read_text() == Path(b.paths[name]).read_text()
        assert c.anneal_seeds != a.anneal_seeds
        assert len(set(a.anneal_seeds)) == workload.calls


def test_checker_accepts_real_run(n10_run):
    inst, out, reported = n10_run
    quality = _check(inst, out, reported)
    assert quality.ls_count == reported["ls_count"] > 0
    assert 0 < quality.ls_in_room_pct <= 100


def test_checker_rejects_overlapping_rooms(n10_run, tmp_path):
    inst, out, reported = n10_run

    def shift_left(rows):
        row = next(r for r in rows if int(r[5]) > 0)
        for col in (1, 5):
            row[col] = str(int(row[col]) - 1)

    bad = _corrupt(out, tmp_path, "floorplan.txt", shift_left)
    with pytest.raises(CheckFailed, match="overlap"):
        _check(inst, bad, reported)


def test_checker_rejects_shifter_outside_whitespace(n10_run, tmp_path):
    inst, out, reported = n10_run
    modules = {r[0]: r for r in (line.split() for line in (out / "floorplan.txt").read_text().splitlines())}

    def onto_module(rows):
        row = next(r for r in rows if r[7] == "room")
        row[3], row[4] = modules[row[1]][1], modules[row[1]][2]

    bad = _corrupt(out, tmp_path, "shifters.txt", onto_module)
    with pytest.raises(CheckFailed, match="overlaps module|not inside a room"):
        _check(inst, bad, reported)


def test_checker_rejects_missed_cycle_time(n10_run):
    inst, out, reported = n10_run
    lines = inst.spec_text.splitlines()
    tight = "\n".join("tcycle 1" if line.startswith("tcycle") else line for line in lines)
    with pytest.raises(CheckFailed, match="exceeds t_cycle"):
        _check(inst, out, reported, spec_text=tight)


def test_checker_rejects_missing_shifter_and_wrong_report(n10_run, tmp_path):
    inst, out, reported = n10_run
    bad = _corrupt(out, tmp_path, "shifters.txt", lambda rows: rows.pop())
    with pytest.raises(CheckFailed, match="level-up nets"):
        _check(inst, bad, reported)
    with pytest.raises(CheckFailed, match="reported area"):
        _check(inst, out, dict(reported, area=reported["area"] + 1))


def test_digest_ignores_runtime_only(n10_run, tmp_path):
    _inst, out, _ = n10_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    report = copy / "report.csv"
    lines = report.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1] + ["999.99"])
    report.write_text("\n".join(lines) + "\n")
    assert artifact_digest(copy) == artifact_digest(out)
    (copy / "layout.svg").write_text("<svg/>")
    assert artifact_digest(copy) != artifact_digest(out)


def test_tracing_restores_functions_and_keeps_results(n10_run, tmp_path):
    inst, out, _ = n10_run
    anneal = importlib.import_module("voltplan.anneal")
    before = anneal.pack
    tracer = Tracer()
    result = _run(inst, tmp_path / "traced", tracer)
    assert anneal.pack is before
    assert artifact_digest(tmp_path / "traced") == artifact_digest(out)
    metrics = layer_metrics(tracer, 1, len(inst.blocks))
    assert metrics["floorplan.pack_calls"][0] > 0
    assert metrics["voltage.solve_final_s"][0] > 0
    assert metrics["shifters.assign_calls"][0] >= 2
    assert result.metrics.ls_count > 0
