"""Neveu decompositions and ergodic convergence certificates.

Finite-dimensional tracial algebras, positive-contraction superoperators,
Foelner-scheme ergodic averages, invariant/wandering splittings and the
associated convergence certificates (mean, bilaterally almost uniform,
in measure).
"""

from .algebra import (
    Operator,
    Projection,
    TracialAlgebra,
    abs_op,
    distribution,
    op_norm,
    op_norms,
    order_leq,
    spectral_decompose,
    spectral_projection,
    support,
    trace,
    trace_norm,
)
from .maps import (
    CheckReport,
    SuperOperator,
    check_commuting,
    check_contraction,
    check_lamperti,
    dual,
    from_classical,
    from_conjugation,
    from_kraus,
    from_matrix,
)
from .dynamics import (
    FolnerScheme,
    SemigroupAction,
    average,
    average_super,
    averages,
    folner_ratio,
    folner_set,
)
from .neveu import (
    MeanErgodicProjection,
    NeveuDecomposition,
    fixed_space,
    inf_profile,
    invariant_state,
    mean_ergodic_projection,
    neveu_decompose,
    wandering_sum,
    weakly_wandering_certificate,
)
from .convergence import (
    BauCertificate,
    MeasureCertificate,
    StochasticReport,
    bau_certify,
    corner_compatibility,
    convex_hull_residual,
    measure_certify,
    moving_bump_counterexample,
    stochastic_run,
)
from .scenarios import (
    Report,
    Scenario,
    emit,
    gallery,
    load_report,
    load_scenario,
    run,
)

__version__ = "0.1.0"
