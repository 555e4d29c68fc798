"""Workload definitions and their seeded inputs.

Each workload fixes one instance (blocks, nets, spec) and a run
configuration; the workload seed draws the anneal seeds of the calls a run
makes. Keeping the instance fixed is deliberate: at m=30 two layered
instances can differ 2x in cost per call, which would swamp the run-to-run
spread the benchmark has to resolve.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from voltplan.bench import gen_spec, parse_blocks, parse_nets


def layered_blocks_nets(m: int, seed: int):
    """The layered generator of the acceptance suite's desk-scale criterion:
    random block sizes, each block driving up to two of the next seven."""
    rng = random.Random(seed)
    blocks = [(f"b{i}", rng.randint(8, 40), rng.randint(8, 40)) for i in range(m)]
    nets = []
    for i in range(m):
        fanout = rng.randint(0, 2)
        sinks = [j for j in range(i + 1, min(m, i + 8))]
        rng.shuffle(sinks)
        take = sinks[:fanout]
        if take:
            nets.append((f"b{i}", [f"b{j}" for j in take]))
    return blocks, nets


def _fixture_blocks_nets(root: Path):
    data = root / "tests" / "data"
    blocks = parse_blocks((data / "n10.blocks").read_text())
    nets = parse_nets((data / "n10.nets").read_text(), [b[0] for b in blocks])
    return blocks, nets


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    spec_seed: int
    calls: int  # distinct anneal seeds per run; every run makes at least this many
    layered_m: int | None = None  # None: the n10 fixture
    timing_slack: Fraction = Fraction(1, 2)
    run_options: dict = field(default_factory=dict)  # extra RunConfig fields

    @property
    def kappa(self) -> Fraction:
        return self.run_options.get("kappa", Fraction(0))

    def blocks_nets(self, root: Path):
        if self.layered_m is None:
            return _fixture_blocks_nets(root)
        return layered_blocks_nets(self.layered_m, self.spec_seed)


# Every anneal is capped at `max_levels` temperature levels so one call does
# a fixed amount of search and lasts about two seconds; uncapped, the layered
# calls take 16-23 s and a run would hold only one or two of them.
WORKLOADS = {
    w.name: w
    for w in (
        # 10 modules, within exact_limit: the final branch-and-bound runs and
        # dominates. The only workload that exercises the exact search.
        Workload(
            name="fixture-n10",
            k=4,
            spec_seed=42,
            calls=20,
            run_options={"max_levels": 20},
        ),
        # No wire delay: voltage is solved once and cached, and m > exact_limit
        # skips the exact search, so shifters, pack and islands take the time.
        Workload(
            name="layered-k0",
            k=4,
            spec_seed=50,
            calls=20,
            layered_m=30,
            run_options={"alpha": 0.5, "max_levels": 8},
        ),
        # Wire delays follow the floorplan, so the voltage cache mostly misses
        # and the flow kernel dominates; shifters stay small.
        Workload(
            name="layered-wiredelay",
            k=4,
            spec_seed=50,
            calls=16,
            layered_m=20,
            timing_slack=Fraction(3, 4),
            run_options={"kappa": Fraction(1, 32), "beta": 3, "max_levels": 5},
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    """A workload's inputs on disk plus what the checker needs to know."""

    blocks: list  # (name, w, h)
    pairs: list  # two-pin nets as (source name, sink name), file order
    spec_text: str
    paths: dict  # blocks/nets/spec file paths
    anneal_seeds: tuple
    gen_spec_s: float


def anneal_seeds(workload: Workload, seed: int) -> tuple:
    rng = random.Random(seed)
    return tuple(rng.randrange(1 << 30) for _ in range(workload.calls))


def build_instance(workload: Workload, seed: int, root: Path, work: Path) -> Instance:
    """Generate the workload's inputs for `seed` and write them under `work`."""
    blocks, nets = workload.blocks_nets(root)
    started = time.perf_counter()
    spec_text = gen_spec(
        workload.spec_seed, blocks, nets, workload.k, timing_slack=workload.timing_slack
    )
    gen_spec_s = time.perf_counter() - started
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    paths = {
        "blocks": work / "in.blocks",
        "nets": work / "in.nets",
        "spec": work / "in.spec",
    }
    paths["blocks"].write_text("".join(f"{n} {w} {h}\n" for n, w, h in blocks))
    paths["nets"].write_text(
        "".join("net " + " ".join([src, *sinks]) + "\n" for src, sinks in nets)
    )
    paths["spec"].write_text(spec_text)
    pairs = [(src, sink) for src, sinks in nets for sink in sinks]
    return Instance(
        blocks=list(blocks),
        pairs=pairs,
        spec_text=spec_text,
        paths={k: str(v) for k, v in paths.items()},
        anneal_seeds=anneal_seeds(workload, seed),
        gen_spec_s=gen_spec_s,
    )
