"""Counting statistics of a driven cavity coupled to a trapped condensate.

The package turns a physical configuration (trap, drive, cavity modes)
or raw coupling matrices into the joint photon/excited-atom count
distribution of the corresponding quadratic bosonic model:

    config -> coupling blocks -> quadratic Hamiltonian -> Bogoliubov
    diagonalization -> Bloch-Messiah squeeze factors -> thermal Gaussian
    state -> hafnian-based count probabilities -> samples.

See the pipeline module for one-call stage chaining and the cli module
for the command line front end.
"""

__version__ = "0.1.0"

from .bdg import (
    BogoliubovDecomposition,
    InstabilityError,
    QuadraticHamiltonian,
    StabilityReport,
    assemble_hamiltonian,
    bogoliubov_diagonalize,
    check_stability,
)
from .blochmessiah import (
    BlochMessiahFactors,
    ModeFunctions,
    ReconstructionError,
    bloch_messiah,
    mode_functions,
    squeeze_spectrum,
)
from .gaussian import (
    CountsVector,
    GaussianState,
    base_matrix,
    covariance,
    extend_matrix,
    mean_occupations,
)
from .hafnian import (
    HafnianSizeError,
    hafnian_naive,
    hafnian_powertrace,
)
from .model import (
    ConfigError,
    CouplingBlocks,
    GridResolutionError,
    GridSpec,
    ModeBasis,
    SystemConfig,
    build_mode_basis,
    compute_coupling_blocks,
    config_from_dict,
    estimate_scattering_time,
    load_config,
)
from .sampling import (
    ChiSquareResult,
    ImaginaryResidualError,
    OutcomeDistribution,
    TruncationError,
    chi_square,
    enumerate_distribution,
    marginalize,
    outcome_probability,
    recommend_cutoff,
    sample,
)

__all__ = [
    "__version__",
    "BlochMessiahFactors",
    "BogoliubovDecomposition",
    "ChiSquareResult",
    "ConfigError",
    "CountsVector",
    "CouplingBlocks",
    "GaussianState",
    "GridResolutionError",
    "GridSpec",
    "HafnianSizeError",
    "ImaginaryResidualError",
    "InstabilityError",
    "ModeBasis",
    "ModeFunctions",
    "OutcomeDistribution",
    "QuadraticHamiltonian",
    "ReconstructionError",
    "StabilityReport",
    "SystemConfig",
    "TruncationError",
    "assemble_hamiltonian",
    "base_matrix",
    "bloch_messiah",
    "bogoliubov_diagonalize",
    "build_mode_basis",
    "check_stability",
    "chi_square",
    "compute_coupling_blocks",
    "config_from_dict",
    "covariance",
    "enumerate_distribution",
    "estimate_scattering_time",
    "extend_matrix",
    "hafnian_naive",
    "hafnian_powertrace",
    "load_config",
    "marginalize",
    "mean_occupations",
    "mode_functions",
    "outcome_probability",
    "recommend_cutoff",
    "sample",
    "squeeze_spectrum",
]
