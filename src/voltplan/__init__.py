"""Multi-voltage floorplanning toolkit.

Two flow phases inside an annealing floorplanner: per-module voltage levels
via a min-cost circulation over an expanded timing network, and level-shifter
to room assignment via min-cost max-flow over a whitespace capacity model.
"""

__version__ = "0.1.0"

from .anneal import AnnealConfig, AnnealResult
from .floorplan import Floorplan, PhiWeights, Room, pack
from .model import (
    DPCurve,
    ModuleBlock,
    Netlist,
    ShifterSpec,
    build_netlist,
    decompose_multipin,
    derive_shifter_spec,
    modify_dp_curve,
    validate_dp_curve,
)
from .pipeline import RunConfig, run_pipeline
from .voltage import (
    TimingGraph,
    VoltageAssignment,
    assign_voltages,
    build_timing_graph,
)

__all__ = [
    "AnnealConfig",
    "AnnealResult",
    "DPCurve",
    "Floorplan",
    "ModuleBlock",
    "Netlist",
    "PhiWeights",
    "Room",
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
