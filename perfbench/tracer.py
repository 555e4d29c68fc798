"""Spans and counters around voltplan's layer boundaries, from outside.

The tracer patches public functions where their callers look them up and
restores them afterwards; nothing under src/ changes. Modules that bind a
function at import (anneal.py binds pack, assign_voltages, assign_shifters
and the rest) are patched in that module's namespace. `voltplan.anneal` as a
package attribute is the re-exported function, so modules are fetched with
importlib. Spans stay in flat arrays until the run ends. The two hottest
leaves, `longest_path_for` and `num_ls`, are counted, not spanned.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager


def _modules():
    names = ("anneal", "pipeline", "voltage", "shifters", "flow", "errors")
    return {n: importlib.import_module(f"voltplan.{n}") for n in names}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts = Counter()
        self._stack: list[int] = []
        self._current_op = -1

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patches(self):
        mods = _modules()
        anneal, voltage, shifters, flow = (
            mods["anneal"], mods["voltage"], mods["shifters"], mods["flow"]
        )
        infeasible = mods["errors"].TimingInfeasible
        solve = anneal.assign_voltages

        def assign_voltages(tg, curves, **kwargs):
            # in-loop solves run with exact_limit=0; the final one does not
            final = kwargs.get("exact_limit", 16) > 0
            idx = self._open("voltage.solve_final" if final else "voltage.solve_loop")
            try:
                return solve(tg, curves, **kwargs)
            except infeasible:
                self.counts["voltage.infeasible"] += 1
                raise
            finally:
                self._close(idx)

        patches = [
            (mods["pipeline"], "load_instance", "pipeline.load"),
            (mods["pipeline"], "anneal", "anneal"),
            (anneal, "pack", "floorplan.pack"),
            (anneal, "perturb", "floorplan.perturb"),
            (anneal, "hpwl", "floorplan.hpwl"),
            (anneal, "hpwl2_per_net", "floorplan.hpwl"),
            (anneal, "voltage_islands", "floorplan.islands"),
            (anneal, "build_timing_graph", "voltage.graph"),
            (anneal, "assign_shifters", "shifters.assign"),
            (voltage, "solve_min_cost_circulation", "flow.circulation"),
            (voltage, "residual_shortest_paths", "flow.residual"),
            (shifters, "build_assignment_network", "shifters.network"),
            (shifters, "solve_min_cost_max_flow", "shifters.maxflow"),
            (shifters, "place_in_room", "shifters.place"),
        ]
        out = [(m, attr, self._spanned(name, getattr(m, attr))) for m, attr, name in patches]
        out.append((anneal, "assign_voltages", assign_voltages))
        out.append((voltage, "longest_path_for", self._counted("voltage.longest_path", voltage.longest_path_for)))
        out.append((shifters, "num_ls", self._counted("shifters.num_ls", shifters.num_ls)))
        for kern in (flow._speedups_py, flow._speedups):
            if kern is None:
                continue
            mcmf = self._spanned("flow.mcmf", kern.mcmf)

            def counted_mcmf(n, tails, *rest, _mcmf=mcmf):
                self.counts["flow.mcmf_arcs"] += len(tails)
                return _mcmf(n, tails, *rest)

            out.append((kern, "mcmf", counted_mcmf))
            out.append((kern, "shortest_paths", self._spanned("flow.paths", kern.shortest_paths)))
        return out

    @contextmanager
    def tracing(self, op: int):
        """Patch every layer boundary for the duration of one traced call."""
        patches = self._patches()
        saved = [(m, attr, getattr(m, attr)) for m, attr, _ in patches]
        self._current_op = op
        for m, attr, fn in patches:
            setattr(m, attr, fn)
        try:
            with self.span("pipeline.run"):
                yield
        finally:
            for m, attr, fn in saved:
                setattr(m, attr, fn)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.name)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        calls = Counter()
        total = Counter()
        own = Counter()
        for idx, nid in enumerate(self.name):
            name = self.names[nid]
            dur = self.end[idx] - self.start[idx]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[idx]
        return calls, total, own

    def write(self, path):
        """One JSON line per span, written once when the run ends."""
        with open(path, "w") as fh:
            for idx, nid in enumerate(self.name):
                fh.write(
                    json.dumps(
                        {
                            "op": self.op[idx],
                            "id": idx,
                            "parent": self.parent[idx],
                            "name": self.names[nid],
                            "start": self.start[idx],
                            "end": self.end[idx],
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, traced_ops: int, m: int) -> dict:
    """Per-layer figures per traced run_pipeline call: (value, unit) by name."""
    calls, total, own = tracer.totals()
    counts = tracer.counts
    per = 1.0 / traced_ops
    lookups = calls["voltage.graph"] - calls["voltage.solve_final"]
    loop = calls["voltage.solve_loop"]
    assigns = calls["shifters.assign"]
    return {
        "floorplan.pack_s": (total["floorplan.pack"] * per, "s"),
        "floorplan.pack_calls": (calls["floorplan.pack"] * per, "count"),
        "floorplan.islands_s": (total["floorplan.islands"] * per, "s"),
        "floorplan.hpwl_s": (total["floorplan.hpwl"] * per, "s"),
        "floorplan.perturb_s": (total["floorplan.perturb"] * per, "s"),
        "voltage.graph_s": (total["voltage.graph"] * per, "s"),
        "voltage.solve_loop_s": (total["voltage.solve_loop"] * per, "s"),
        "voltage.solve_loop_calls": (loop * per, "count"),
        "voltage.cache_lookups": (lookups * per, "count"),
        "voltage.cache_hit_ratio": (1 - loop / lookups if lookups else 0.0, "ratio"),
        "voltage.infeasible_ratio": (counts["voltage.infeasible"] / loop if loop else 0.0, "ratio"),
        "voltage.solve_final_s": (total["voltage.solve_final"] * per, "s"),
        "voltage.longest_path_calls": (counts["voltage.longest_path"] * per, "count"),
        "flow.mcmf_s": (total["flow.mcmf"] * per, "s"),
        "flow.mcmf_calls": (calls["flow.mcmf"] * per, "count"),
        "flow.mcmf_arcs": (counts["flow.mcmf_arcs"] * per, "count"),
        "flow.paths_s": (total["flow.paths"] * per, "s"),
        "flow.prep_s": (
            (own["flow.circulation"] + own["flow.residual"] + own["shifters.maxflow"]) * per,
            "s",
        ),
        "shifters.assign_s": (total["shifters.assign"] * per, "s"),
        "shifters.assign_calls": (assigns * per, "count"),
        "shifters.network_s": (total["shifters.network"] * per, "s"),
        "shifters.maxflow_s": (total["shifters.maxflow"] * per, "s"),
        "shifters.place_s": (total["shifters.place"] * per, "s"),
        "shifters.num_ls_calls": (counts["shifters.num_ls"] * per, "count"),
        "shifters.num_ls_per_room": (
            counts["shifters.num_ls"] / (assigns * m) if assigns else 0.0,
            "ratio",
        ),
        "anneal.self_s": (own["anneal"] * per, "s"),
        # every anneal also solves shifters once for its weights and once at the end
        "anneal.refreshes": ((assigns - 2 * calls["anneal"]) * per, "count"),
        "pipeline.load_s": (total["pipeline.load"] * per, "s"),
        "pipeline.write_s": (own["pipeline.run"] * per, "s"),
    }
