"""Simulated-annealing outer loop tying the two flow phases together.

Every candidate floorplan is packed and costed with the weighted sum of
area, wirelength, power, voltage-island count and unplaced-shifter count.
Voltage assignment runs on every candidate (cached per wire-delay vector,
so with the default zero wire-delay factor it solves once); the shifter
flow refreshes every `ls_every` accepted moves and on the final result,
with the stale unplaced count carried in between. Fully deterministic for
a given seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import TimingInfeasible
from .floorplan import (
    Floorplan,
    PhiWeights,
    SlicingExpr,
    cost_phi,
    hpwl,
    hpwl2_per_net,
    initial_expr,
    pack,
    perturb,
    voltage_islands,
    whitespace_percent,
)
from .model import Netlist, ShifterSpec, modify_dp_curve
from .shifters import (
    assign_shifters,
    default_window,
    required_shifters,
    wirelength_with_shifters,
)
from .voltage import VoltageAssignment, assign_voltages, build_timing_graph

# the anneal stops once the temperature falls below this fraction of t0
T_STOP_RATIO = 1e-7


@dataclass
class AnnealConfig:
    alpha: float = 0.9  # geometric cooling factor
    beta: int = 10  # moves per temperature = beta * m
    accept_target: float = 0.9  # initial acceptance ratio for calibration
    ls_every: int = 5  # shifter refresh cadence, in accepted moves
    kappa: Fraction = Fraction(0)  # wire delay per unit wirelength
    window: int | None = None  # shifter search window; None = auto
    weights: PhiWeights | None = None  # None = calibrated defaults
    overhead_at_top_level: bool = True
    exact_limit: int = 16
    max_levels: int = 400
    observer: object = None  # callable(floorplan, assignment, phi) per candidate


@dataclass(frozen=True)
class RunMetrics:
    area: int
    wirelength: int
    wirelength_with_ls: int
    power: int
    islands: int
    ls_count: int
    els_count: int
    ilo_percent: Fraction
    whitespace_percent: Fraction
    phi: Fraction


@dataclass(frozen=True)
class AnnealResult:
    floorplan: Floorplan
    voltage: VoltageAssignment
    shifters: object
    metrics: RunMetrics
    expr: SlicingExpr


def modified_curves(netlist: Netlist, spec: ShifterSpec, overhead_at_top_level=True):
    return [
        modify_dp_curve(mod.curve, spec, overhead_at_top_level)
        for mod in netlist.modules
    ]


def _wire_delays(netlist, floorplan, kappa: Fraction):
    if kappa == 0:
        return (0,) * len(netlist.nets)
    per_net2 = hpwl2_per_net(floorplan, netlist.nets)
    return tuple(-((-d2 * kappa) // 2) for d2 in per_net2)  # ceil(kappa * d2/2)


class _Evaluator:
    """Packs, assigns voltages (cached) and scores one expression.

    In-loop solves skip the exact refinement (round-down is always feasible
    and cheap; candidate ranking does not need the last watt); the final
    assignment is re-solved with the configured exact_limit.
    """

    def __init__(self, netlist, curves, config):
        self.netlist = netlist
        self.curves = curves
        self.config = config
        self.cache = {}
        self.evaluations = 0
        self.feasible_seen = False

    def voltage_for(self, floorplan, exact=False):
        delays = _wire_delays(self.netlist, floorplan, self.config.kappa)
        tg = build_timing_graph(self.netlist, delays)
        if exact:
            return assign_voltages(tg, self.curves, exact_limit=self.config.exact_limit)
        hit = self.cache.get(delays)
        if hit is not None:
            return hit
        assignment = assign_voltages(tg, self.curves, exact_limit=0)
        if len(self.cache) > 4096:
            self.cache.clear()
        self.cache[delays] = assignment
        return assignment

    def evaluate(self, expr, weights, stale_unplaced):
        """Return (phi, floorplan, assignment) or (None, floorplan, None)
        when the candidate has no feasible voltage assignment."""
        floorplan = pack(expr, self.netlist.modules)
        self.evaluations += 1
        try:
            assignment = self.voltage_for(floorplan)
        except TimingInfeasible:
            return None, floorplan, None
        self.feasible_seen = True
        phi = cost_phi(
            floorplan.area,
            hpwl(floorplan, self.netlist.nets),
            assignment.total_power,
            voltage_islands(floorplan, assignment),
            stale_unplaced,
            weights,
        )
        if self.config.observer is not None:
            self.config.observer(floorplan, assignment, phi)
        return phi, floorplan, assignment


def _default_weights(area, wl, power, islands, m) -> PhiWeights:
    lam_w = Fraction(area, wl) if wl > 0 else Fraction(1)
    lam_r = Fraction(area, 10 * m)
    phi0 = area + lam_w * wl + power + lam_r * islands
    return PhiWeights(
        area=Fraction(1),
        wirelength=lam_w,
        power=Fraction(1),
        islands=lam_r,
        unplaced=10 * phi0,
    )


def _full_metrics(netlist, spec, floorplan, assignment, weights, window):
    shifters = required_shifters(netlist.nets, assignment)
    sa = assign_shifters(shifters, floorplan, spec, window=window, nets=netlist.nets)
    placements = sa.placements()
    wl = hpwl(floorplan, netlist.nets)
    wl_ls = wirelength_with_shifters(floorplan, netlist.nets, shifters, placements)
    islands = voltage_islands(floorplan, assignment)
    phi = cost_phi(
        floorplan.area, wl_ls, assignment.total_power, islands, len(sa.els), weights
    )
    metrics = RunMetrics(
        area=floorplan.area,
        wirelength=wl,
        wirelength_with_ls=wl_ls,
        power=assignment.total_power,
        islands=islands,
        ls_count=sa.n,
        els_count=len(sa.els),
        ilo_percent=sa.ilo_percent,
        whitespace_percent=whitespace_percent(floorplan),
        phi=phi,
    )
    return sa, metrics


def anneal(netlist: Netlist, spec: ShifterSpec, config: AnnealConfig, seed: int) -> AnnealResult:
    """Run the annealer and return the best floorplan with its assignments."""
    rng = random.Random(seed)
    curves = modified_curves(netlist, spec, config.overhead_at_top_level)
    ev = _Evaluator(netlist, curves, config)
    m = netlist.m
    expr = initial_expr(m)

    fp0 = pack(expr, netlist.modules)
    try:
        asg0 = ev.voltage_for(fp0)
    except TimingInfeasible:
        if config.kappa == 0:
            raise
        asg0 = None

    window = config.window
    if window is None:
        window = default_window(fp0)

    weights = config.weights
    stale_unplaced = 0
    if asg0 is not None:
        shifters0 = required_shifters(netlist.nets, asg0)
        sa0 = assign_shifters(shifters0, fp0, spec, window=window, nets=netlist.nets)
        stale_unplaced = len(sa0.els)
        if weights is None:
            weights = _default_weights(
                fp0.area,
                hpwl(fp0, netlist.nets),
                asg0.total_power,
                voltage_islands(fp0, asg0),
                m,
            )
    elif weights is None:
        weights = _default_weights(fp0.area, hpwl(fp0, netlist.nets), 0, 1, m)

    if m == 1:
        if asg0 is None:
            raise TimingInfeasible("single-module instance infeasible")
        final = ev.voltage_for(fp0, exact=True)
        sa, metrics = _full_metrics(netlist, spec, fp0, final, weights, window)
        return AnnealResult(
            floorplan=fp0, voltage=final, shifters=sa, metrics=metrics, expr=expr
        )

    phi, _, _ = ev.evaluate(expr, weights, stale_unplaced)

    # temperature calibration: probe uphill deltas from the start state
    probes = []
    probe_expr = expr
    for _ in range(max(8, 3 * m)):
        move = rng.randint(1, 3)
        cand = perturb(probe_expr, move, rng)
        cphi, _, _ = ev.evaluate(cand, weights, stale_unplaced)
        if cphi is not None and phi is not None and cphi > phi:
            probes.append(float(cphi - phi))
        probe_expr = cand
    if probes:
        t0 = (sum(probes) / len(probes)) / math.log(1.0 / config.accept_target)
    else:
        t0 = 1.0
    temp = t0

    best_expr = expr
    best_phi = phi
    cur_phi = phi
    accepted_total = 0
    idle_levels = 0
    for _level in range(config.max_levels):
        accepted_here = 0
        for _step in range(config.beta * m):
            move = rng.randint(1, 3)
            cand = perturb(expr, move, rng)
            cand_phi, cand_fp, cand_asg = ev.evaluate(cand, weights, stale_unplaced)
            if cand_phi is None:
                continue
            if cur_phi is None:
                accept = True
            else:
                delta = cand_phi - cur_phi
                accept = delta <= 0 or rng.random() < math.exp(
                    -float(delta) / max(temp, 1e-12)
                )
            if accept:
                expr = cand
                cur_phi = cand_phi
                accepted_here += 1
                accepted_total += 1
                if accepted_total % config.ls_every == 0:
                    shifters = required_shifters(netlist.nets, cand_asg)
                    sa = assign_shifters(
                        shifters, cand_fp, spec, window=window, nets=netlist.nets
                    )
                    stale_unplaced = len(sa.els)
                if best_phi is None or cur_phi < best_phi:
                    best_phi = cur_phi
                    best_expr = expr
        temp *= config.alpha
        idle_levels = idle_levels + 1 if accepted_here == 0 else 0
        if idle_levels >= 2 or temp < t0 * T_STOP_RATIO:
            break

    if not ev.feasible_seen:
        raise TimingInfeasible("no candidate admitted a feasible assignment")

    final_fp = pack(best_expr, netlist.modules)
    final_asg = ev.voltage_for(final_fp, exact=True)
    sa, metrics = _full_metrics(netlist, spec, final_fp, final_asg, weights, window)
    return AnnealResult(
        floorplan=final_fp,
        voltage=final_asg,
        shifters=sa,
        metrics=metrics,
        expr=best_expr,
    )
