"""Simulated-annealing outer loop tying the two flow phases together.

Every candidate floorplan is packed and costed with the weighted sum of
area, wirelength, power, voltage-island count and unplaced-shifter count.
Voltage assignment runs on every candidate, cached per wire-delay vector:
the timing graph is built and solved only on a cache miss, so with the
default zero wire-delay factor both happen once per anneal (plus once for
the exact solve of the final floorplan). Each anneal keeps one
voltage.WarmStart across its solves: the curve part of the flow network is
built once, and each solve re-optimizes the last solve's circulation, of
which only the wire costs changed, instead of solving cold. The unplaced
shifter count is refreshed every `ls_every` accepted moves and carried
stale in between. Phi reads only that count, so a refresh takes it from
shifters.unplaced_count, which runs the shifter min-cost flow only where a
room could overflow; the full assignment and placement run on the starting
floorplan and the final one, and the overhead metrics are computed for the
final floorplan alone. Candidates come from initial_expr and perturb, which
only build valid expressions, so they are packed without re-validation.
Fully deterministic for a given seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import TimingInfeasible, ValidationError
from .floorplan import (
    Floorplan,
    PhiWeights,
    SlicingExpr,
    _pack,
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
    compute_ilo,
    default_window,
    required_shifters,
    unplaced_count,
    wirelength_with_shifters,
)
from .voltage import (
    EXACT_LIMIT,
    VoltageAssignment,
    WarmStart,
    assign_voltages,
    build_timing_graph,
)

# the anneal stops once the temperature falls below this fraction of t0
T_STOP_RATIO = 1e-7
# the shifter overhead applies at every level, the highest voltage included
OVERHEAD_AT_TOP_LEVEL = True


@dataclass
class AnnealConfig:
    alpha: float = 0.9  # geometric cooling factor
    beta: int = 10  # moves per temperature = beta * m
    accept_target: float = 0.9  # initial acceptance ratio for calibration
    ls_every: int = 5  # shifter refresh cadence, in accepted moves
    kappa: Fraction = Fraction(0)  # wire delay per unit wirelength
    window: int | None = None  # shifter search window; None = auto
    weights: PhiWeights | None = None  # None = calibrated defaults
    max_levels: int = 400
    observer: object = None  # callable(floorplan, assignment, phi) per candidate

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.beta < 1:
            raise ValidationError(f"beta must be at least 1, got {self.beta}")
        if self.window is not None and self.window < 0:
            raise ValidationError(f"window must be nonnegative, got {self.window}")
        if self.ls_every < 1:
            raise ValidationError(f"ls_every must be at least 1, got {self.ls_every}")
        if not 0 < self.accept_target < 1:
            raise ValidationError(f"accept_target must lie in (0, 1), got {self.accept_target}")
        if self.kappa < 0:
            raise ValidationError(f"kappa must be nonnegative, got {self.kappa}")
        if self.max_levels < 0:
            raise ValidationError(f"max_levels must be nonnegative, got {self.max_levels}")


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


def modified_curves(netlist: Netlist, spec: ShifterSpec):
    return [modify_dp_curve(mod.curve, spec, OVERHEAD_AT_TOP_LEVEL) for mod in netlist.modules]


def _wire_delays(netlist, floorplan, kappa: Fraction):
    if kappa == 0:
        return (0,) * len(netlist.nets)
    per_net2 = hpwl2_per_net(floorplan, netlist.nets)
    return tuple(-((-d2 * kappa) // 2) for d2 in per_net2)  # ceil(kappa * d2/2)


class _Evaluator:
    """Packs, assigns voltages (cached) and scores one expression.

    In-loop solves skip the exact refinement (round-down is always feasible
    and cheap; candidate ranking does not need the last watt); the final
    assignment is re-solved with exact_limit=EXACT_LIMIT.
    """

    def __init__(self, netlist, curves, config):
        self.netlist = netlist
        self.dims = [(mod.width, mod.height) for mod in netlist.modules]
        self.curves = curves
        self.config = config
        self.cache = {}
        self.warm = WarmStart()
        self.feasible_seen = False

    def voltage_for(self, floorplan, exact=False):
        delays = _wire_delays(self.netlist, floorplan, self.config.kappa)
        if exact:
            tg = build_timing_graph(self.netlist, delays)
            return assign_voltages(tg, self.curves, exact_limit=EXACT_LIMIT, warm=self.warm)
        hit = self.cache.get(delays)
        if hit is not None:
            return hit
        tg = build_timing_graph(self.netlist, delays)
        assignment = assign_voltages(tg, self.curves, exact_limit=0, warm=self.warm)
        if len(self.cache) > 4096:
            self.cache.clear()
        self.cache[delays] = assignment
        return assignment

    def evaluate(self, expr, weights, stale_unplaced):
        """Return (phi, floorplan, assignment) or (None, floorplan, None)
        when the candidate has no feasible voltage assignment."""
        floorplan = _pack(expr, self.dims)
        try:
            assignment = self.voltage_for(floorplan)
        except TimingInfeasible:
            return None, floorplan, None
        self.feasible_seen = True
        phi = cost_phi(
            floorplan.area,
            hpwl(floorplan, self.netlist.nets),
            assignment.total_power,
            voltage_islands(floorplan, assignment.level),
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


def _place_shifters(netlist, spec, floorplan, assignment, window):
    """The shifters the levels require, and their assignment and placement."""
    shifters = required_shifters(netlist.nets, assignment.level)
    return shifters, assign_shifters(shifters, floorplan, spec, window=window)


def _unplaced(netlist, spec, floorplan, assignment, window):
    """How many of the shifters the levels require land in the fallback set."""
    shifters = required_shifters(netlist.nets, assignment.level)
    return unplaced_count(shifters, floorplan, spec, window)


def _full_metrics(netlist, spec, floorplan, assignment, weights, window):
    shifters, sa = _place_shifters(netlist, spec, floorplan, assignment, window)
    placements = sa.placements()
    wl = hpwl(floorplan, netlist.nets)
    wl_ls = wirelength_with_shifters(floorplan, netlist.nets, shifters, placements)
    islands = voltage_islands(floorplan, assignment.level)
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
        ilo_percent=compute_ilo(shifters, placements, floorplan, netlist.nets),
        whitespace_percent=whitespace_percent(floorplan),
        phi=phi,
    )
    return sa, metrics


def anneal(netlist: Netlist, spec: ShifterSpec, config: AnnealConfig, seed: int) -> AnnealResult:
    """Run the annealer and return the best floorplan with its assignments."""
    rng = random.Random(seed)
    curves = modified_curves(netlist, spec)
    ev = _Evaluator(netlist, curves, config)
    m = netlist.m
    expr = initial_expr(m)

    fp0 = pack(expr, ev.dims)
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
        # the starting floorplan, like the final one, gets the full
        # assignment: one flow solve per anneal, and perfbench's tracer,
        # which spans anneal.assign_shifters, sees both ends of the anneal
        _, sa0 = _place_shifters(netlist, spec, fp0, asg0, window)
        stale_unplaced = len(sa0.els)
        if weights is None:
            weights = _default_weights(
                fp0.area,
                hpwl(fp0, netlist.nets),
                asg0.total_power,
                voltage_islands(fp0, asg0.level),
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
                    stale_unplaced = _unplaced(netlist, spec, cand_fp, cand_asg, window)
                if best_phi is None or cur_phi < best_phi:
                    best_phi = cur_phi
                    best_expr = expr
        temp *= config.alpha
        idle_levels = idle_levels + 1 if accepted_here == 0 else 0
        if idle_levels >= 2 or temp < t0 * T_STOP_RATIO:
            break

    if not ev.feasible_seen:
        raise TimingInfeasible("no candidate admitted a feasible assignment")

    final_fp = _pack(best_expr, ev.dims)
    final_asg = ev.voltage_for(final_fp, exact=True)
    sa, metrics = _full_metrics(netlist, spec, final_fp, final_asg, weights, window)
    return AnnealResult(
        floorplan=final_fp,
        voltage=final_asg,
        shifters=sa,
        metrics=metrics,
        expr=best_expr,
    )
