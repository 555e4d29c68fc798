"""Simulated-annealing outer loop tying the two flow phases together.

Every floorplan the anneal visits (the start, the temperature probes and
the moves) is scored with the weighted sum of area, wirelength, power,
voltage-island count and unplaced-shifter count. The weights are
calibrated once, on the starting floorplan (_default_weights), and fix a
common denominator: phi is an integer over it, so candidates compare and
subtract as integers, and only the observer gets the exact Fraction.
_Evaluator.score takes each floorplan's per-net lengths once, for the wire
delays and for the wirelength; the start's phi comes from the numbers
taken to calibrate the weights. The start is packed and validated by pack;
the other candidates come from initial_expr and perturb, which only build
valid expressions, so they are packed without re-validation, into the flat
columns that the scoring reads. A single module takes the same path, every
move returning its expression unchanged.
Voltage assignment runs on every candidate, cached per wire-delay vector:
the timing graph is built and solved only on a cache miss, so with the
default zero wire-delay factor both happen once per anneal (plus once for
the exact solve of the final floorplan). Each anneal keeps one
voltage.WarmStart across its solves: the curve part of the flow network is
built once, and each solve re-optimizes the last solve's circulation, of
which only the wire costs changed, instead of solving cold. The unplaced
shifter count is refreshed every `ls_every` accepted moves and carried
stale in between. Phi reads only that count, so a refresh takes it from
shifters.unplaced_count, a greedy fit of shifters to window rooms that runs
the shifter min-cost flow only where the fit leaves a shifter without a
room or a room could overflow; the full assignment and placement run on the
starting floorplan and the final one, and the overhead metrics are computed
for the final floorplan alone. The starting temperature is calibrated from
uphill probe moves, skipped when max_levels is 0 and no level reads it.
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


@dataclass
class AnnealConfig:
    alpha: float = 0.9  # geometric cooling factor
    beta: int = 10  # moves per temperature = beta * m
    accept_target: float = 0.9  # initial acceptance ratio for calibration
    ls_every: int = 5  # shifter refresh cadence, in accepted moves
    kappa: Fraction = Fraction(0)  # wire delay per unit wirelength
    window: int | None = None  # shifter search window; None = auto
    max_levels: int = 400
    observer: object = None  # callable(floorplan, assignment, phi) per candidate

    def __post_init__(self):
        for name in ("beta", "ls_every", "max_levels", "window"):
            value = getattr(self, name)
            if not isinstance(value, int) and not (name == "window" and value is None):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        try:
            self.kappa = Fraction(self.kappa)  # exact, a float included
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"kappa must be a finite number, got {self.kappa!r}") from None
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
    expr: tuple


def modified_curves(netlist: Netlist, spec: ShifterSpec):
    return [modify_dp_curve(mod.curve, spec) for mod in netlist.modules]


def _wire_delays(per_net2, kappa: Fraction):
    """Each net's wire delay, ceil(kappa * d2 / 2), from its doubled length d2."""
    if kappa == 0:
        return (0,) * len(per_net2)
    num, den = kappa.numerator, 2 * kappa.denominator
    return tuple(-((-d2 * num) // den) for d2 in per_net2)


class _Evaluator:
    """Assigns voltages (cached) to floorplans and scores them.

    In-loop solves skip the exact refinement (round-down is always feasible
    and cheap; candidate ranking does not need the last watt); the final
    assignment is re-solved with exact_limit=EXACT_LIMIT.
    """

    def __init__(self, netlist, curves, config):
        self.netlist = netlist
        self.dims = tuple((mod.width, mod.height) for mod in netlist.modules)
        self.curves = curves
        self.config = config
        self.cache = {}
        self.warm = WarmStart()

    def voltage_for(self, delays, exact=False):
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

    def score(self, floorplan, weights, stale_unplaced):
        """Return (phi, assignment), or (None, None) when the floorplan has
        no feasible voltage assignment. The per-net lengths are taken once,
        for the wire delays and for the wirelength."""
        per_net2 = hpwl2_per_net(floorplan, self.netlist.nets)
        try:
            assignment = self.voltage_for(_wire_delays(per_net2, self.config.kappa))
        except TimingInfeasible:
            return None, None
        islands = voltage_islands(floorplan, assignment.level)
        phi = self.phi(floorplan, sum(per_net2) // 2, assignment, islands, stale_unplaced, weights)
        return phi, assignment

    def phi(self, floorplan, wirelength, assignment, islands, unplaced, weights) -> int:
        """The cost phi of a feasible floorplan, as cost_phi's integer over
        weights.denominator; the observer gets it as the exact Fraction."""
        phi = cost_phi(
            floorplan.area, wirelength, assignment.total_power, islands, unplaced, weights
        )
        if self.config.observer is not None:
            self.config.observer(floorplan, assignment, Fraction(phi, weights.denominator))
        return phi


def _default_weights(area, wl, power, islands, m) -> PhiWeights:
    """The cost's weights, calibrated on the starting floorplan: there the
    wirelength term equals the area, one island per module costs a tenth of
    it, and one unplaced shifter costs ten times the rest of phi. Every
    weight is positive."""
    lam_w = Fraction(area, wl) if wl > 0 else Fraction(1)
    lam_r = Fraction(area, 10 * m)
    phi0 = area + lam_w * wl + power + lam_r * islands
    return PhiWeights.over_common_denominator(
        area=1, wirelength=lam_w, power=1, islands=lam_r, unplaced=10 * phi0
    )


def _full_metrics(netlist, spec, floorplan, assignment, weights, window):
    shifters = required_shifters(netlist.nets, assignment.level)
    sa = assign_shifters(shifters, floorplan, spec, window=window)
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
        phi=Fraction(phi, weights.denominator),
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
    window = default_window(fp0) if config.window is None else config.window
    per_net2 = hpwl2_per_net(fp0, netlist.nets)
    wl0 = sum(per_net2) // 2
    stale_unplaced = 0
    try:
        asg0 = ev.voltage_for(_wire_delays(per_net2, config.kappa))
    except TimingInfeasible:
        if config.kappa == 0:
            raise  # every candidate has these zero wire delays
        weights = _default_weights(fp0.area, wl0, 0, 1, m)
        phi = None
    else:
        # the starting floorplan, like the final one, gets the full
        # assignment: one flow solve per anneal, and perfbench's tracer,
        # which spans anneal.assign_shifters, sees both ends of the anneal;
        # its phi comes from the numbers taken for the weights
        shifters0 = required_shifters(netlist.nets, asg0.level)
        stale_unplaced = len(assign_shifters(shifters0, fp0, spec, window=window).els)
        islands0 = voltage_islands(fp0, asg0.level)
        weights = _default_weights(fp0.area, wl0, asg0.total_power, islands0, m)
        phi = ev.phi(fp0, wl0, asg0, islands0, stale_unplaced, weights)
    # phi is an integer over this; int true division rounds correctly, so
    # delta / scale is the float of the exact rational delta
    scale = weights.denominator

    # temperature calibration: probe uphill deltas from the start state;
    # without levels nothing reads the temperature, so nothing is probed
    probes = []
    probe_expr = expr
    for _ in range(max(8, 3 * m) if config.max_levels else 0):
        move = rng.randint(1, 3)
        probe_expr = perturb(probe_expr, move, rng)
        cphi, _ = ev.score(_pack(probe_expr, ev.dims), weights, stale_unplaced)
        if cphi is not None and phi is not None and cphi > phi:
            probes.append((cphi - phi) / scale)
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
            cand_fp = _pack(cand, ev.dims)
            cand_phi, cand_asg = ev.score(cand_fp, weights, stale_unplaced)
            if cand_phi is None:
                continue
            if cur_phi is None:
                accept = True
            else:
                delta = cand_phi - cur_phi
                accept = delta <= 0 or rng.random() < math.exp(
                    -(delta / scale) / max(temp, 1e-12)
                )
            if accept:
                expr = cand
                cur_phi = cand_phi
                accepted_here += 1
                accepted_total += 1
                if accepted_total % config.ls_every == 0:
                    shifters = required_shifters(netlist.nets, cand_asg.level)
                    stale_unplaced = unplaced_count(shifters, cand_fp, spec, window)
                if best_phi is None or cur_phi < best_phi:
                    best_phi = cur_phi
                    best_expr = expr
        temp *= config.alpha
        idle_levels = idle_levels + 1 if accepted_here == 0 else 0
        if idle_levels >= 2 or temp < t0 * T_STOP_RATIO:
            break

    if best_phi is None:
        raise TimingInfeasible("no candidate admitted a feasible assignment")

    final_fp = _pack(best_expr, ev.dims)
    final_delays = _wire_delays(hpwl2_per_net(final_fp, netlist.nets), config.kappa)
    final_asg = ev.voltage_for(final_delays, exact=True)
    sa, metrics = _full_metrics(netlist, spec, final_fp, final_asg, weights, window)
    return AnnealResult(
        floorplan=final_fp,
        voltage=final_asg,
        shifters=sa,
        metrics=metrics,
        expr=best_expr,
    )
