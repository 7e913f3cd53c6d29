"""Reproduction numbers and outbreak simulation for Markovian SIR epidemics
with digital (app-based) and manual contact tracing.

The package has five layers:

* :mod:`epict.params`    -- validated model parameters and the baseline
  reproduction number ``beta / (gamma + delta)``.
* :mod:`epict.digital`   -- closed-form branching-process quantities when
  only app-based tracing operates, the manual-only number ``r_manual`` and
  their independence product.
* :mod:`epict.component` -- Monte Carlo estimation of the combined
  digital + manual model's offspring matrix and reproduction number.
* :mod:`epict.epidemic`  -- finite-population event-driven simulation with
  instant recursive tracing on to-be-traced component labels, for
  outbreak-size ensembles.
* :mod:`epict.sweep`     -- critical curves, heatmaps and figure datasets on
  top of the other layers.

The package namespace holds what the demos and the README's quick start
use, and the exceptions a caller catches; everything else is imported from
its module.
"""

from .params import InvalidParams, Params, delta_for_testing_fraction, r0, with_param
from .digital import (
    DivergentSeries,
    expected_jumps,
    mean_component_size,
    mean_infections_per_jump,
    offspring_matrix_digital,
    r_component_digital,
    r_individual_digital,
    r_manual,
)
from .component import (
    EventCapExceeded,
    estimate_offspring_matrix,
    naive_combined_r,
    r_component_combined,
)
from .epidemic import run_ensemble
from .sweep import MCSettings, NonMonotoneTarget, NoRootInBracket, Target, find_critical

__version__ = "0.1.0"
