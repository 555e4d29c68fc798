"""Golden artifacts: the n10 fixture's seeded runs, byte for byte.

Two runs of the same code agreeing (criterion 8) says nothing about a change
that moves the annealer's trajectory; these digests do. They pin the
artifacts of a gen-spec seed 42, k 4 spec run with seed 42 and max_levels 25,
without wire delay and at kappa 1/32. A change that means to move the
trajectory records new digests and says why.
"""

import hashlib
from fractions import Fraction

import pytest

from voltplan.cli import main
from voltplan.pipeline import RunConfig, run_pipeline

from conftest import DATA

GOLDEN = {
    Fraction(0): {
        "floorplan.txt": "7e80b8289699b943c977dc3a1816f86197c6fe1b47dfe68eee9ced95628a3f20",
        "shifters.txt": "9b1cc2c02e161ed3d604d5262699a30d0b16aa51ee4157682ceef3ddaccfa10f",
        "layout.svg": "0681e8d5ec723dfef179c875e1f0b8ee218fdb4ee439b863fb9146afef71e270",
        "report.csv": "2c85728cb1635643e7e99dcccfdd0549728e151ffd9a9cc5c60170e09206c78b",
    },
    Fraction(1, 32): {
        "floorplan.txt": "7ccca0715d13481509153065c408c6950c0547e0b27d9a60ece4548b8f4ca35d",
        "shifters.txt": "72d7cbc1723d988505e75e89402a0f841e4589bcd48be4a4f24c07e5084ce452",
        "layout.svg": "4aed3a936e81c1b1bf5c63010f6f94fb93baec7aee432759e048e244d5beb80d",
        "report.csv": "5734bc4bc614f588b7c226c2c239046dde3cc205a6d4c126dc488e02dd40e43f",
    },
}


@pytest.mark.parametrize("kappa", sorted(GOLDEN), ids=["kappa0", "kappa1_32"])
def test_n10_artifacts_match_golden_digests(tmp_path, kappa):
    spec = tmp_path / "n10.spec"
    assert main([
        "gen-spec", "--blocks", str(DATA / "n10.blocks"), "--nets", str(DATA / "n10.nets"),
        "--k", "4", "--seed", "42", "-o", str(spec),
    ]) == 0
    out = tmp_path / "out"
    run_pipeline(RunConfig(
        blocks_path=str(DATA / "n10.blocks"), nets_path=str(DATA / "n10.nets"),
        spec_path=str(spec), seed=42, out_dir=str(out), kappa=kappa, max_levels=25,
    ))
    got = {name: (out / name).read_bytes() for name in GOLDEN[kappa]}
    # the report's last column is the run time
    got["report.csv"] = "".join(
        row.rsplit(",", 1)[0] + "\n" for row in got["report.csv"].decode().splitlines()
    ).encode()
    assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == GOLDEN[kappa]
