"""inred: input-redundancy analysis and certification for constrained LTI systems.

Exact rational geometry decides whether a linearly constrained system admits
distinct inputs producing the same output (and of which kind); a floating
point trajectory engine certifies individual pairs constructively under
general box or polyhedral constraints.
"""

from .exact import (
    DimensionMismatch,
    InvarianceViolated,
    RationalMatrix,
    Subspace,
    image,
    kernel,
    preimage,
    restriction_matrix,
)
from .geometry import (
    AdaptedBasis,
    DegenerateStateSpace,
    PinnedBases,
    ReducedSystem,
    SystemQuadruple,
    adapted_basis,
    controllable_weakly_unobservable,
    friend,
    max_controlled_invariant,
    output_nulling,
    reduce_system,
    weakly_unobservable,
)
from .analysis import (
    ConsistencyError,
    Kind,
    RedundancyReport,
    analyze,
    analyze_degenerate,
    degree_and_kind,
    joint_kernel_dim,
    left_invertibility,
    report_to_dict,
    report_to_text,
)
from .trajectory import (
    ConstraintSet,
    Grid,
    Interpolation,
    Membership,
    Polyhedron,
    SampledSignal,
    SingularGramian,
    Status,
    TrajectoryTriple,
    boundary_residence,
    check_admissible,
    interior_window,
    margins,
    membership,
    simulate,
)
from .synthesis import (
    IRCertificate,
    IncrementCheck,
    KernelBump,
    NoInteriorWindow,
    NotAdmissibleNominal,
    RZero,
    RhoZero,
    StateLoop,
    VerificationFailed,
    certify_ir_pair,
    compute_scaling,
    synthesize_increment,
    synthesize_kernel_bump,
    synthesize_state_loop,
    verify_increment,
)

__version__ = "0.1.0"
