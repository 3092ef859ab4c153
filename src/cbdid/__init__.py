"""Covariate-balancing difference-in-differences toolkit.

Doubly robust estimation of the (conditional) average treatment effect on
the treated from two-period panel data, with propensity scores fit either by
maximum likelihood or by GMM on second-order covariate balance moments,
risk-based model selection criteria, and a Monte Carlo lab for the
accompanying simulation studies.
"""

from .data import (
    CsvSchema,
    Dataset,
    ModelSpec,
    delta,
    design_matrix,
    load_csv,
    split_blocks,
    unvech,
    vech,
)
from .errors import (
    CbdidError,
    ConvergenceError,
    DataError,
    DegenerateGroupError,
    DimensionError,
    EmptyDataError,
    NumericalError,
    ParseError,
    PositivityError,
    RankError,
    SchemaError,
    SeparationError,
    SpecError,
)
from .estimator import PsMode, ThetaFit, att_summary, fit_theta, rho_weights
from .propensity import (
    CbdFit,
    LogisticPropensity,
    MleFit,
    Weighting,
    fit_cbd,
    fit_mle,
    moment_h,
    moment_jacobian,
    predict_e1,
)
from .selection import (
    CriterionKind,
    CriterionValue,
    PsConfig,
    ScoreFit,
    SelectionResult,
    SpecFit,
    evaluate_criterion,
    fit_scores,
    fit_spec,
    forward_select,
    gof_weighted,
    penalty_cbd,
    penalty_known,
    penalty_mle,
    proposed_penalty,
    qicw_penalty,
    sigma_hat_sq,
)
from .simlab import (
    DgpFamily,
    DgpSpec,
    McReport,
    empirical_risk,
    generate,
    run_table,
    theta_star_oracle,
    tp_fp,
)

__version__ = "0.1.0"
