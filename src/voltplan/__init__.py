"""Multi-voltage floorplanning toolkit.

Two flow phases inside an annealing floorplanner: per-module voltage levels
via a min-cost circulation over an expanded timing network, and level-shifter
to room assignment via min-cost max-flow over a whitespace capacity model.

The exports resolve on first access (PEP 562), so `import voltplan` loads no
submodule, and `import voltplan.bench` loads only what the input parsers
need, not the annealer.
"""

import importlib

__version__ = "0.1.0"

# export -> the submodule that defines it
_EXPORTS = {
    "AnnealConfig": "anneal",
    "AnnealResult": "anneal",
    "DPCurve": "model",
    "Floorplan": "floorplan",
    "ModuleBlock": "model",
    "Netlist": "model",
    "PhiWeights": "floorplan",
    "RunConfig": "pipeline",
    "ShifterSpec": "model",
    "TimingGraph": "voltage",
    "VoltageAssignment": "voltage",
    "assign_voltages": "voltage",
    "build_netlist": "model",
    "build_timing_graph": "voltage",
    "decompose_multipin": "model",
    "derive_shifter_spec": "model",
    "modify_dp_curve": "model",
    "pack": "floorplan",
    "run_pipeline": "pipeline",
    "validate_dp_curve": "model",
}

__all__ = [
    "AnnealConfig",
    "AnnealResult",
    "DPCurve",
    "Floorplan",
    "ModuleBlock",
    "Netlist",
    "PhiWeights",
    "RunConfig",
    "ShifterSpec",
    "TimingGraph",
    "VoltageAssignment",
    "assign_voltages",
    "build_netlist",
    "build_timing_graph",
    "decompose_multipin",
    "derive_shifter_spec",
    "modify_dp_curve",
    "pack",
    "run_pipeline",
    "validate_dp_curve",
    "__version__",
]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | _EXPORTS.keys())
