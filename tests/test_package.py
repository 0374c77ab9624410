"""The public names of the evoctl package: what `import evoctl` offers
and what `from evoctl import *` binds, and the rule that every check the
package defines is run by a command."""

import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import evoctl

PUBLIC_NAMES = {
    # errors
    "EvoctlError", "HypothesisViolationError", "InvalidGridError", "NumericalRankError",
    "PositivityError", "ShapeMismatchError", "StepSingularityError",
    # operators
    "Grid1D", "GradDivPair", "build_sbp_pair_1d", "ibp_defect",
    # bdspace
    "BoundaryDataSpace", "boundary_triple_defect", "compute_bd_space", "dot_map",
    "dual_projection",
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
    "deflation_basis", "maxwell_lift_solve", "three_region_indicators",
}


class TestPublicNames:
    def test_the_package_offers_exactly_these_names(self):
        """Every public attribute of the package that is not a submodule is
        one of the pinned names, and every pinned name is offered."""
        public = {name for name, value in vars(evoctl).items()
                  if not name.startswith("_") and not isinstance(value, ModuleType)}
        assert len(PUBLIC_NAMES) == 43
        assert public == PUBLIC_NAMES

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from evoctl import *", namespace)
        assert PUBLIC_NAMES <= namespace.keys()


# the public checks that no command runs, each with its reason
UNRUN_CHECKS = {
    # needs two runs, so it is the test oracle of the causality guarantee
    "causality_defect",
    # measures discretisation error on the wave presets; its fate waits for
    # the question of the dropped velocity mean
    "boundary_equation_defect",
}


class TestEveryCheckRuns:
    def test_every_public_check_is_named_in_the_command_line(self):
        """A public callable named *_defect or *_residual in any module is
        named in evoctl/cli.py, unless the allow-list gives its reason."""
        checks = set()
        for info in pkgutil.iter_modules(evoctl.__path__):
            module = importlib.import_module(f"evoctl.{info.name}")
            checks |= {name for name, value in vars(module).items()
                       if callable(value) and not name.startswith("_")
                       and re.search(r"_(defect|residual)$", name)}
        cli_source = Path(evoctl.__file__).with_name("cli.py").read_text(encoding="utf-8")
        named = {name for name in checks if re.search(rf"\b{name}\b", cli_source)}
        assert UNRUN_CHECKS <= checks
        assert checks - named == UNRUN_CHECKS
