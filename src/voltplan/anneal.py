"""Simulated-annealing outer loop tying the two flow phases together.

Every floorplan the anneal scores (the start, the temperature probes of a
start that has a phi, and the moves) is priced by phi, the weighted sum of
area, wirelength, power and voltage-island count. The best floorplan is
the accepted one of least cost: phi plus the weighted unplaced-shifter
count. The weights are calibrated once, on the starting floorplan
(_default_weights), and fix a common denominator: phi is an integer over
it, so candidates compare and subtract as integers, and only the observer
gets the exact Fraction. Each floorplan's per-net lengths are taken once,
for the wire delays and for the wirelength; the start's phi comes from the
numbers taken to calibrate the weights. The start is packed and validated
by pack; the other candidates come from initial_expr and perturb, which
only build valid expressions, so they are packed without re-validation,
into the flat columns that the scoring reads. A single module takes the
same path, every move returning its expression unchanged.

The start, the probes and each move until one is feasible are scored in
full (_Evaluator.score). Any other move is decided with the least exact
work (_Evaluator.decide): after the pack and the net lengths, an integer
floor of phi takes the power from the voltage cache, or else from one
floor on the LP bound: the cost at the move's wire delays of the current
state's circulation (WarmStart.power_floor). It takes the islands as the
assignment's distinct levels, or else 1. An uphill floor takes the move's
one draw, and a draw the floor rejects skips the voltage solve, the island
count or both; otherwise the solve tightens the floor and the same draw is
tested again before the islands are counted. Every draw and every decision
is that of full scoring. A cache miss, scored or decided, is first tested
for timing at the fastest levels (model.fastest_finish), the test
assign_voltages raises TimingInfeasible on, so an infeasible candidate is
never solved and an infeasible move draws nothing.

Voltage assignment is cached per wire-delay vector: the timing graph is
built and solved only on a cache miss, so with the default zero wire-delay
factor both happen once per anneal (plus once for the exact solve of the
final floorplan). Each graph takes its order and fan-in from one graph
derived per anneal, at zero wire delays. Each anneal builds one
voltage.WarmStart for that graph and its curves and keeps it across its
solves: the flow network is built once, with it, and kept in the flow
kernel's residual arrays, and each solve after the first re-optimizes in
place on them, instead of solving cold, from its anchor, the circulation
of the current state, of which only the wire costs changed. The anchor is
the last accepted move that was solved (during calibration, the last probe
solved), else the start; a start with no feasible assignment leaves it
unset until the first solve, which is cold. A candidate is one move from
it. The unplaced shifter count is read by best tracking alone: the start's
comes from the full assignment and placement, which run on the starting
floorplan and the final one, and an accepted state's from
shifters.unplaced_count, taken only when the state's phi is below the best
cost, as the count can make no other state the best. unplaced_count is a
greedy fit of shifters to window rooms that runs the shifter min-cost flow
only where the fit leaves a shifter without a room or a room could
overflow. The overhead metrics are computed for the final floorplan alone.
The starting temperature is calibrated from uphill probe moves, skipped
when max_levels is 0 and no level reads it. A start with no feasible
assignment has no phi to take a probe's delta from: its probes draw their
moves, so every later draw is that of scored probes, but none is packed or
scored, and the temperature starts at 1. At kappa > 0 such a start is
first checked against a floor: when the all-fastest finish with every net
at the wire delay of its shortest packed length misses the cycle time, no
floorplan meets it, and the anneal raises TimingInfeasible before its
first candidate. Fully deterministic for a given seed.
"""

from __future__ import annotations

import math
import numbers
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
from .model import Netlist, ShifterSpec, fastest_finish, modify_dp_curve
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
    longest_path_for,
)

# the anneal stops once the temperature falls below this fraction of t0
T_STOP_RATIO = 1e-7


@dataclass
class AnnealConfig:
    alpha: float = 0.9  # geometric cooling factor
    beta: int = 10  # moves per temperature = beta * m
    accept_target: float = 0.9  # initial acceptance ratio for calibration
    kappa: Fraction = Fraction(0)  # wire delay per unit wirelength
    window: int | None = None  # shifter search window; None = auto
    max_levels: int = 400
    # callable(floorplan, assignment, phi), once per feasible candidate, the
    # calibration probes only when the start is feasible; phi, without the
    # unplaced-shifter term, is None for a move rejected on its floor of phi,
    # and assignment is None when that rejection came before the voltage solve
    observer: object = None

    def __post_init__(self):
        for name in ("alpha", "beta", "accept_target", "kappa", "window", "max_levels"):
            value = getattr(self, name)
            if isinstance(value, bool):  # an int, but never a setting
                raise ValidationError(f"{name} must be a number, got {value!r}")
        if self.observer is not None and not callable(self.observer):
            raise ValidationError(f"observer must be callable, got {self.observer!r}")
        for name in ("beta", "max_levels", "window"):
            value = getattr(self, name)
            if not isinstance(value, int) and not (name == "window" and value is None):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for name in ("alpha", "accept_target"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValidationError(f"{name} must be a number, got {value!r}")
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


def _shortest_per_net2(dims, nets):
    """Each net's doubled center distance on any packed floorplan is at
    least this: two packed modules never overlap, so they lie apart across
    by their summed widths or up by their summed heights."""
    return [min(dims[a][0] + dims[b][0], dims[a][1] + dims[b][1]) for a, b in nets]


class _Evaluator:
    """Assigns voltages (cached) to floorplans and scores them.

    In-loop solves skip the exact refinement (round-down is always feasible
    and cheap; candidate ranking does not need the last watt); the final
    assignment is re-solved with exact_limit=EXACT_LIMIT.

    score prices a floorplan in full; decide settles a move with the least
    exact work. Its floor of phi takes the power from the cached
    assignment, or else the warm start's floor at the move's delays
    (WarmStart.power_floor), and the islands as the assignment's distinct
    levels, or else 1. Every weight is nonnegative, so the floor's
    delta is at most the real delta, and a positive floor delta means a
    positive real delta, for which full scoring takes the same one draw.
    Int true division rounds correctly, and dividing by the positive
    temperature and exp are monotone, so the floor's acceptance
    probability is at least the real one: a draw at or above it is at or
    above the real one too, and full scoring rejects the move as well. A
    floor that does not reject is tightened by the solve, then replaced by
    phi, and the same draw decides, so every draw and every decision is
    that of full scoring.
    """

    def __init__(self, netlist, curves, config):
        self.netlist = netlist
        self.dims = tuple((mod.width, mod.height) for mod in netlist.modules)
        self.curves = curves
        self.config = config
        self.cache = {}
        # the timing graph at zero wire delays: each solve's graph takes its
        # order and fan-in, the all-fastest finish test reads them, and the
        # warm start is built for it
        self.graph = build_timing_graph(netlist, (0,) * len(netlist.nets))
        self.warm = WarmStart(self.graph, curves)
        self.solved = None  # the assignment of warm's latest solve
        self.fastest = [c.delay(1) for c in curves]

    def voltage_for(self, delays, exact=False):
        if exact:
            tg = self.graph.with_delays(delays)
            return assign_voltages(tg, self.curves, exact_limit=EXACT_LIMIT, warm=self.warm)
        hit = self.cache.get(delays)
        if hit is not None:
            return hit
        tg = self.graph.with_delays(delays)
        assignment = assign_voltages(tg, self.curves, exact_limit=0, warm=self.warm)
        self.solved = assignment
        if len(self.cache) > 4096:
            self.cache.clear()
        self.cache[delays] = assignment
        return assignment

    def settle(self, assignment):
        """Anchor the warm start at the accepted candidate with this
        assignment when its circulation is the latest solve's."""
        if assignment is self.solved:
            self.warm.advance()

    def score(self, floorplan, weights):
        """Return (phi, assignment), or (None, None) when the floorplan has
        no feasible voltage assignment. The per-net lengths are taken once,
        for the wire delays and for the wirelength."""
        per_net2 = hpwl2_per_net(floorplan, self.netlist.nets)
        delays = _wire_delays(per_net2, self.config.kappa)
        if delays not in self.cache and self._too_slow(delays):
            return None, None
        assignment = self.voltage_for(delays)
        islands = voltage_islands(floorplan, assignment.level)
        phi = self.phi(floorplan, sum(per_net2) // 2, assignment, islands, weights)
        return phi, assignment

    def decide(self, floorplan, weights, cur_phi, temp, rng):
        """Return (phi, assignment) if the move from cur_phi to floorplan is
        accepted at temperature temp, else (None, None): the floorplan has
        no feasible assignment, or its phi is higher and the move's one draw
        rng.random() rejects it."""
        per_net2 = hpwl2_per_net(floorplan, self.netlist.nets)
        wirelength = sum(per_net2) // 2
        delays = _wire_delays(per_net2, self.config.kappa)
        assignment = self.cache.get(delays)
        if assignment is None and self._too_slow(delays):
            return None, None
        # the uphill test is draw < exp(-(delta / den) / temp), on the draw
        # taken when the delta, or its floor, is first positive; phi is an
        # integer over den and int true division rounds correctly, so the
        # quotient is the float of the exact rational delta
        den, temp = weights.denominator, max(temp, 1e-12)
        # phi's delta but for its power and island terms
        delta = cost_phi(floorplan.area, wirelength, 0, 0, 0, weights) - cur_phi
        draw = None
        if assignment is None:
            floor = delta + weights.power * self.warm.power_floor(delays) + weights.islands
            if floor > 0:
                draw = rng.random()
                if not draw < math.exp(-(floor / den) / temp):
                    self._show(floorplan, None, None, den)
                    return None, None
            assignment = self.voltage_for(delays)
        delta += weights.power * assignment.total_power
        floor = delta + weights.islands * len(set(assignment.level))
        if floor > 0:
            if draw is None:
                draw = rng.random()
            if not draw < math.exp(-(floor / den) / temp):
                self._show(floorplan, assignment, None, den)
                return None, None
        delta += weights.islands * voltage_islands(floorplan, assignment.level)
        self._show(floorplan, assignment, cur_phi + delta, den)
        if delta > 0:
            if draw is None:
                draw = rng.random()
            if not draw < math.exp(-(delta / den) / temp):
                return None, None
        return cur_phi + delta, assignment

    def raise_if_no_floorplan_fits(self):
        """Raise TimingInfeasible, with the critical path, when no floorplan
        can meet the cycle time: the all-fastest finish with every net at
        the wire delay of its shortest packed length is a floor on every
        floorplan's."""
        floor = _wire_delays(_shortest_per_net2(self.dims, self.netlist.nets), self.config.kappa)
        if self._too_slow(floor):
            worst, path = longest_path_for(self.graph.with_delays(floor), self.fastest)
            raise TimingInfeasible(
                f"critical path {worst} exceeds cycle time {self.netlist.t_cycle} "
                f"at the fastest levels with every net at its shortest packed length",
                critical_path=path,
            )

    def _too_slow(self, delays):
        """Whether the all-fastest levels miss the cycle time at wire delays
        delays, the test assign_voltages raises TimingInfeasible on."""
        return fastest_finish(
            self.graph.order, self.graph.fanin, self.fastest, delays
        ) > self.netlist.t_cycle

    def phi(self, floorplan, wirelength, assignment, islands, weights) -> int:
        """The cost phi of a feasible floorplan, cost_phi without its
        unplaced-shifter term, as an integer over weights.denominator."""
        phi = cost_phi(floorplan.area, wirelength, assignment.total_power, islands, 0, weights)
        self._show(floorplan, assignment, phi, weights.denominator)
        return phi

    def _show(self, floorplan, assignment, phi, den):
        """Call the observer on a feasible candidate, with phi, an integer
        over den, as the exact Fraction, or None for a move rejected on its
        floor of phi."""
        if self.config.observer is not None:
            exact = None if phi is None else Fraction(phi, den)
            self.config.observer(floorplan, assignment, exact)


def _default_weights(area, wl, power, islands, m) -> PhiWeights:
    """The cost's weights, calibrated on the starting floorplan: there the
    wirelength term equals the area, one island per module costs a tenth of
    it, and one unplaced shifter costs ten times its phi. Every weight is
    positive."""
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
    try:
        asg0 = ev.voltage_for(_wire_delays(per_net2, config.kappa))
    except TimingInfeasible:
        if config.kappa == 0:
            raise  # every candidate has these zero wire delays
        ev.raise_if_no_floorplan_fits()
        weights = _default_weights(fp0.area, wl0, 0, 1, m)
        phi = None
    else:
        # the starting floorplan, like the final one, gets the full
        # assignment: one flow solve per anneal, and perfbench's tracer,
        # which spans anneal.assign_shifters, sees both ends of the anneal;
        # its phi comes from the numbers taken for the weights
        shifters0 = required_shifters(netlist.nets, asg0.level)
        unplaced0 = len(assign_shifters(shifters0, fp0, spec, window=window).els)
        islands0 = voltage_islands(fp0, asg0.level)
        weights = _default_weights(fp0.area, wl0, asg0.total_power, islands0, m)
        phi = ev.phi(fp0, wl0, asg0, islands0, weights)

    # temperature calibration: probe uphill deltas from the start state;
    # without levels nothing reads the temperature, so nothing is probed.
    # The probes walk away from the start, each one move from the one
    # before, so each solved probe anchors the next solve; the anneal then
    # starts from the start state again, and so does the anchor. A start
    # with no feasible assignment has no phi to take a delta from: its
    # probes only draw their moves, which keeps every later draw that of
    # a scored calibration, and the anchor stays unset until the first
    # solved move, which solves cold to the same levels.
    probes = []
    probe_expr = expr
    start_anchor = ev.warm.anchor
    for _ in range(max(8, 3 * m) if config.max_levels else 0):
        move = rng.randint(1, 3)
        probe_expr = perturb(probe_expr, move, rng)
        if phi is None:
            continue
        cphi, casg = ev.score(_pack(probe_expr, ev.dims), weights)
        if casg is not None:
            ev.settle(casg)
        if cphi is not None and cphi > phi:
            probes.append((cphi - phi) / weights.denominator)
    ev.warm.anchor = start_anchor
    if probes:
        t0 = (sum(probes) / len(probes)) / math.log(1.0 / config.accept_target)
    else:
        t0 = 1.0
    temp = t0

    # the least cost, phi plus the unplaced term, of any accepted state
    best_expr = expr
    best_cost = None if phi is None else phi + weights.unplaced * unplaced0
    cur_phi = phi
    idle_levels = 0
    for _level in range(config.max_levels):
        accepted_here = 0
        for _step in range(config.beta * m):
            move = rng.randint(1, 3)
            cand = perturb(expr, move, rng)
            cand_fp = _pack(cand, ev.dims)
            if cur_phi is None:
                # nothing feasible accepted yet: any feasible candidate is
                cand_phi, cand_asg = ev.score(cand_fp, weights)
            else:
                cand_phi, cand_asg = ev.decide(cand_fp, weights, cur_phi, temp, rng)
            if cand_phi is None:
                continue
            ev.settle(cand_asg)
            expr = cand
            cur_phi = cand_phi
            accepted_here += 1
            # the count is nonnegative, so only a phi below the best cost
            # can make this state the best
            if best_cost is None or cur_phi < best_cost:
                shifters = required_shifters(netlist.nets, cand_asg.level)
                cost = cur_phi + weights.unplaced * unplaced_count(shifters, cand_fp, spec, window)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_expr = expr
        temp *= config.alpha
        idle_levels = idle_levels + 1 if accepted_here == 0 else 0
        if idle_levels >= 2 or temp < t0 * T_STOP_RATIO:
            break

    if best_cost is None:
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
