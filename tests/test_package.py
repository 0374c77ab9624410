"""The public names of the evoctl package: what `import evoctl` offers
and what `from evoctl import *` binds."""

from types import ModuleType

import evoctl

PUBLIC_NAMES = {
    # errors
    "EvoctlError", "HypothesisViolationError", "InvalidGridError", "NumericalRankError",
    "PositivityError", "ShapeMismatchError", "StepSingularityError",
    # operators
    "Grid1D", "GradDivPair", "build_sbp_pair_1d", "ibp_defect",
    # bdspace
    "BoundaryDataSpace", "boundary_triple_defect", "build_u_space", "compute_bd_space",
    "dot_map", "dual_projection",
    # evolution
    "EvolutionarySystem", "TimeGrid", "Trajectory", "WellPosednessReport",
    "causality_defect", "check_wellposed", "solve",
    # control
    "BlockPartition", "ControlSystem", "EnergyLedger", "IOSamples", "assemble_control",
    "boundary_equation_defect", "check_compatibility", "energy_ledger", "extract_io",
    "step_ledger",
    # models
    "MaxwellLiftResult", "PortHamiltonianSpec", "WaveSpec", "all_hyperbolic_indicators",
    "build_mixed_type_wave", "build_port_hamiltonian", "build_weiss_tucsnak_wave",
    "deflation_basis", "elliptic_residual", "endpoint_coupling_defect",
    "maxwell_lift_solve", "three_region_indicators",
}


class TestPublicNames:
    def test_the_package_offers_exactly_these_names(self):
        """Every public attribute of the package that is not a submodule is
        one of the pinned names, and every pinned name is offered."""
        public = {name for name, value in vars(evoctl).items()
                  if not name.startswith("_") and not isinstance(value, ModuleType)}
        assert len(PUBLIC_NAMES) == 46
        assert public == PUBLIC_NAMES

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from evoctl import *", namespace)
        assert PUBLIC_NAMES <= namespace.keys()
