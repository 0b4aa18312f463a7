"""spinprep: a numerical laboratory for preparation classes of open two-spin
systems, their blow-up maps, and the (non)linearity of the reduced dynamics.

The package propagates the full two-spin system exactly and quantifies when
the induced dynamics of the system spin alone is linear or affine in its
initial state, and when it is genuinely nonlinear, as a function of how the
initial total state was prepared.
"""

from .diagnostics import (
    ConvexityTestResult,
    LineFit,
    LinearityReport,
    affinity_defect,
    convexity_test,
    factorization_residual,
    figure_sweep,
    linearity_scan,
)
from .errors import (
    DimensionError,
    DomainError,
    ExtrapolationWarning,
    InsufficientSpanError,
    NonInvertiblePropagatorError,
    NonInvertibleSusceptibilityError,
    PreparationDomainError,
    UnreachableStateError,
    ValidationError,
)
from .evolve import (
    AffineFitReport,
    ReducedAffineMap,
    chebyshev_targets,
    evolve_total,
    factorizing_propagator,
    fit_affine_map,
    invert_propagator,
    propagator,
    reduced_evolution,
)
from .linalg import (
    DensityReport,
    dag,
    herm_eig,
    kron,
    matrix_function,
    partial_trace,
    validate_density,
)
from .model import (
    BlochDecomposition,
    EquilibriumCurvePoint,
    ModelParams,
    analytic_spectrum,
    bloch_decompose,
    energies,
    equilibrium_observables,
    hamiltonian,
    qubit_bloch,
    reduced_from_bloch,
)
from .prepare import (
    Equilibrium,
    Factorizing,
    FactorizeAndWait,
    MoriLinearResponse,
    OperatorSandwich,
    Preparation,
    blow_up,
    equilibrium_state,
    invert_field,
    kubo_integral,
    mori_blow_up,
    mori_fields,
    operator_sandwich_state,
    susceptibility,
)

__version__ = "0.1.0"
