"""Elastodynamic resonances of 2D disk and core-shell metamaterial structures.

Mode-exact layer-potential solvers on circles: complex-argument cylinder
functions, single-layer-potential mode matrices, the frequency-domain
Neumann-Poincare eigensystem, per-mode transmission solvers and detection of
cloaking by anomalous localized resonance.
"""

__version__ = "0.1.0"

from .calr import (  # noqa: F401
    CalrReport,
    CoreShellConfig,
    TuningFailedError,
    Verdict,
    calr_energy,
    recipe_config,
    tune_p,
)
from .fields import LayeredField  # noqa: F401
from .media import (  # noqa: F401
    AnnulusGeometry,
    Convexity,
    DegenerateMaterialError,
    LameParams,
    Wavenumbers,
    convexity_check,
    wavenumbers,
)
from .nocore import (  # noqa: F401
    ModeSolution,
    NewtonianPotential,
    NormalizationSingularError,
    SourceModes,
    SourceTerm,
    solve_modes,
    sweep,
)
from .np_spectrum import (  # noqa: F401
    EigCase,
    NpEigenSystem,
    NpModeMatrix,
    np_eigensystem,
    np_matrix,
    quasistatic_reference,
)
from .potentials import scalar_slp_mode, traction_matrix  # noqa: F401
from .specfun import CylPair, bessel_j, cyl_pair  # noqa: F401
