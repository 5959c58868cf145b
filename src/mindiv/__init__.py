"""Minimum-divergence estimation toolkit.

Robust estimation of continuous parametric models by four families of
divergence-based criteria (escort subdivergence, superdivergence, power
pseudodistance, Renyi pseudodistance) plus the MLE, together with their
influence functions and a contaminated-model simulation harness.  The
superdivergence max-min over the escort is attained at the MLE on every
family here, so that estimator is computed in closed form.
"""

from .errors import (
    DegenerateDataError,
    DomainError,
    EstimationError,
    EvaluationError,
    InvalidInputError,
    SampleParseError,
    SingularMatrixError,
    ToolkitError,
)
from .estimators import (
    EstimateResult,
    EstimatorSpec,
    estimate,
    mle,
    renyi_pseudodistance,
    sub_criterion,
    sub_divergence,
    sub_psi,
)
from .families import (
    FAMILIES,
    NORMAL,
    NORMAL_LOCATION,
    NORMAL_SCALE,
    PARETO,
    Family,
    get_family,
)
from .influence import (
    UNBOUNDED,
    InfluenceCurve,
    SensitivitySummary,
    if_general,
    if_mle,
    if_numeric,
    if_pseudo,
    if_renyi,
    if_sub_location,
    if_sub_scale,
    influence_curve,
    sensitivity,
)
from .kernels import (
    orthogonal_constant,
    phi,
    phi_ring,
    phi_sharp,
    phi_star,
    power_divergence,
    psi_components,
    psi_kernel,
)
from .measures import (
    Measure,
    contaminate,
    empirical,
    quadrature_of,
    read_sample,
)
from .simulation import (
    CONTAMINANTS,
    ContaminationModel,
    EstimatorRow,
    StudyResult,
    pool_results,
    report,
    run_study,
    sample_contaminated,
)

__version__ = "0.1.0"
