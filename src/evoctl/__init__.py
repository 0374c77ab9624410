"""Staggered-grid evolutionary equations with boundary control.

Discrete gradient/divergence pairs with summation-by-parts structure,
boundary data spaces and their unitary transport, well-posedness checks
and conservative time stepping for evolutionary equations, boundary
control system assembly with energy ledgers, and ready-made wave,
port-Hamiltonian, and Maxwell-type models.
"""

from .bdspace import (
    BoundaryDataSpace,
    boundary_triple_defect,
    build_u_space,
    compute_bd_space,
    dot_map,
    dual_projection,
)
from .control import (
    BlockPartition,
    ControlSystem,
    EnergyLedger,
    IOSamples,
    assemble_control,
    boundary_equation_defect,
    check_compatibility,
    energy_ledger,
    extract_io,
    step_ledger,
)
from .errors import (
    EvoctlError,
    HypothesisViolationError,
    InvalidGridError,
    NumericalRankError,
    PositivityError,
    ShapeMismatchError,
    StepSingularityError,
)
from .evolution import (
    EvolutionarySystem,
    TimeGrid,
    Trajectory,
    WellPosednessReport,
    causality_defect,
    check_wellposed,
    solve,
)
from .models import (
    MaxwellLiftResult,
    PortHamiltonianSpec,
    WaveSpec,
    all_hyperbolic_indicators,
    build_mixed_type_wave,
    build_port_hamiltonian,
    build_weiss_tucsnak_wave,
    deflation_basis,
    elliptic_residual,
    endpoint_coupling_defect,
    maxwell_lift_solve,
    three_region_indicators,
)
from .operators import Grid1D, GradDivPair, build_sbp_pair_1d, ibp_defect

__version__ = "0.1.0"
