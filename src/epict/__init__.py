"""Reproduction numbers and outbreak simulation for Markovian SIR epidemics
with digital (app-based) and manual contact tracing.

The package has five layers:

* :mod:`epict.params`    -- validated model parameters and the baseline
  reproduction number ``beta / (gamma + delta)``.
* :mod:`epict.digital`   -- closed-form branching-process quantities when
  only app-based tracing operates, and the manual-only number ``r_manual``.
* :mod:`epict.component` -- Monte Carlo estimation of the combined
  digital + manual model's offspring matrix and reproduction number.
* :mod:`epict.epidemic`  -- finite-population event-driven simulation with
  instant recursive tracing on to-be-traced component labels, for
  outbreak-size ensembles.
* :mod:`epict.sweep`     -- critical curves, heatmaps and figure datasets on
  top of the other layers.
"""

from .params import (
    InvalidParams,
    Params,
    delta_for_testing_fraction,
    params_from_dict,
    params_from_json,
    params_to_dict,
    r0,
    testing_fraction,
    with_param,
)
from .digital import (
    DivergentSeries,
    OffspringMatrix,
    expected_jumps,
    mean_component_size,
    mean_infections_per_jump,
    offspring_matrix_digital,
    r_component_digital,
    r_individual_digital,
    r_manual,
    spectral_radius_2x2,
)
from .component import (
    EVENT_CAP,
    EventCapExceeded,
    MatrixEstimate,
    NaiveProductEstimate,
    RootType,
    SpectralRadiusEstimate,
    component_dies_out,
    component_growth_bound,
    estimate_offspring_matrix,
    naive_combined_r,
    r_component_combined,
    simulate_components,
)
from .epidemic import (
    DIAGNOSED,
    INFECTIOUS,
    RECOVERED,
    EnsembleSummary,
    EpidemicOutcome,
    EpidemicRecords,
    ensemble_outcomes,
    run_ensemble,
    run_epidemic,
    summarize_ensemble,
    trace_closure,
)
from .sweep import (
    AxisSpec,
    CurvePoint,
    HeatmapGrid,
    MCSettings,
    NonMonotoneTarget,
    NoRootInBracket,
    SolveSpec,
    SweepSpec,
    Target,
    critical_curve,
    evaluate_target,
    find_critical,
    heatmap_grid,
    profile,
    spec_from_json,
)

__version__ = "0.1.0"
