import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from voltplan.bench import gen_spec, parse_blocks, parse_nets, parse_spec
from voltplan.errors import TimingInfeasible
from voltplan.model import DPCurve, ModuleBlock, build_netlist, decompose_multipin, validate_dp_curve
from voltplan.shifters import _center2_of_rect, _detour2, _ends2, _in_window, _window_box2, num_ls
from voltplan.voltage import TimingGraph, VoltageAssignment, longest_path_for

DATA = Path(__file__).parent / "data"


def arcs_of(net):
    """The network's arcs as (tail, head, cost, upper) rows, in arc order."""
    return list(zip(net.tails, net.heads, net.costs, net.uppers))


def random_curve(rng, k):
    """Random valid curve: strictly decreasing integer slopes."""
    delays = [rng.randint(1, 12)]
    for _ in range(k - 1):
        delays.append(delays[-1] + rng.randint(1, 6))
    slopes = sorted(rng.sample(range(1, 60), k - 1), reverse=True)
    powers = [0] * k
    powers[k - 1] = rng.randint(0, 20)
    for q in range(k - 1, 0, -1):
        gap = delays[q] - delays[q - 1]
        powers[q - 1] = powers[q] + slopes[q - 1] * gap
    curve = DPCurve(points=tuple((i + 1, delays[i], powers[i]) for i in range(k)))
    return validate_dp_curve(curve, k)


def random_timing_instance(rng, max_m=8, k_choices=(2, 3, 4), edge_prob=0.35, min_m=1):
    """Random DAG + curves + a cycle budget between tight and loose."""
    m = rng.randint(min_m, max_m)
    k = rng.choice(list(k_choices))
    curves = [random_curve(rng, k) for _ in range(m)]
    wires = []
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < edge_prob:
                wires.append((i, j, rng.randint(0, 4)))
    base = TimingGraph(m=m, wires=tuple(wires), t_cycle=0)
    cp_fast, _ = longest_path_for(base, [c.delay(1) for c in curves])
    cp_slow, _ = longest_path_for(base, [c.delay(c.k) for c in curves])
    t_cycle = rng.randint(cp_fast, cp_slow + 3)
    return TimingGraph(m=m, wires=base.wires, t_cycle=t_cycle), curves


def brute_force_assign(tg: TimingGraph, curves, *, bound: int = 8) -> VoltageAssignment:
    """Exhaustive oracle: enumerate every level vector, keep the cheapest
    feasible one, ties broken by the lexicographically smallest vector.

    Vectorized over numpy so 4^8 instances stay fast; raises ValueError above
    `bound` modules and TimingInfeasible when nothing fits the cycle time.
    """
    m = tg.m
    if m > bound:
        raise ValueError(f"{m} modules exceeds the oracle bound {bound}")
    curves = list(curves)
    ks = [c.k for c in curves]
    total = 1
    for k in ks:
        total *= k
    # combo index c enumerates level vectors lexicographically with module 0
    # as the most significant digit
    level_of = []
    radix = total
    for i in range(m):
        radix //= ks[i]
        idx = (np.arange(total) // radix) % ks[i]
        level_of.append(idx)
    delays = []
    powers = np.zeros(total, dtype=np.int64)
    for i, c in enumerate(curves):
        dl = np.asarray(c.delays, dtype=np.int64)
        pw = np.asarray(c.powers, dtype=np.int64)
        delays.append(dl[level_of[i]])
        powers += pw[level_of[i]]

    arr_in = [None] * m
    for i in tg.order:
        ai = np.zeros(total, dtype=np.int64)
        for src, w in tg.preds[i]:
            np.maximum(ai, arr_in[src] + delays[src] + w, out=ai)
        arr_in[i] = ai
    finish = np.zeros(total, dtype=np.int64)
    for i in tg.sinks:
        np.maximum(finish, arr_in[i] + delays[i], out=finish)
    feasible = finish <= tg.t_cycle
    if not feasible.any():
        raise TimingInfeasible("no level vector meets the cycle time")
    masked = np.where(feasible, powers, np.iinfo(np.int64).max)
    best = int(np.argmin(masked))  # first minimum == lexicographically smallest
    levels = tuple(int(level_of[i][best]) + 1 for i in range(m))
    power = int(powers[best])
    return VoltageAssignment(
        level=levels, total_power=power, lower_bound=power, proved_optimal=True
    )


def feasible(shifter, room, floorplan, spec, window) -> bool:
    """Room can host the shifter: capacity >= 1 and the room lies within the
    source-sink bounding box expanded by `window` on all sides."""
    return num_ls(room, spec) >= 1 and _in_window(
        _window_box2(*_ends2(floorplan, shifter), 2 * window), room
    )


def assign_cost(shifter, room, floorplan) -> int:
    """Manhattan detour of routing the net through the room center
    (doubled coordinates, always nonnegative)."""
    return _detour2(*_ends2(floorplan, shifter), _center2_of_rect(room))


def fixture_netlist(path_blocks, path_nets, k, seed, slack=Fraction(1, 2)):
    """A blocks/nets pair with a spec generated for k levels from seed."""
    blocks = parse_blocks(Path(path_blocks).read_text())
    nets = parse_nets(Path(path_nets).read_text(), [b[0] for b in blocks])
    text = gen_spec(seed, blocks, nets, k, timing_slack=slack)
    curves, spec, t_cycle, _ = parse_spec(text)
    modules = [
        ModuleBlock(name=n, width=w, height=h, curve=curves[n]) for n, w, h in blocks
    ]
    netlist = build_netlist(modules, decompose_multipin(nets), t_cycle, k)
    return netlist, spec


@pytest.fixture
def rng():
    return random.Random(20260808)
