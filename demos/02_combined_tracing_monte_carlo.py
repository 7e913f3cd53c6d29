"""Monte Carlo reproduction number for combined digital + manual tracing.

With manual tracing added (each contact of a diagnosed individual is reached
with probability p), traceable groups mix app-users and manually-linked
non-app-users.  Their mean offspring matrix has no closed form, so it is
estimated by simulating components to extinction and multiplying each
component's birth rates by the time spent in each state.  Every component
ends exactly once (a diagnosis, or its last recovery), and for each kind of
jump (app-user or non-app-user joining or recovering) the expected count
equals the expected sum of that jump's probability over the component's
jumps.  The estimator uses these five known means as control variates,
which narrows the intervals about eight-fold at these parameters.

The punchline: the combined effect beats the two effects multiplied.  The
independence guess R_0(1-r_M)(1-r_D) = R_M R_D / R_0 needs no simulation:
both single-mode numbers are closed form.  At the reference parameters it
sits above 1 (outbreaks possible) while the true combined number sits
below 1.
"""

from epict import (
    Params,
    estimate_offspring_matrix,
    naive_combined_r,
    r_component_combined,
)

params = Params(beta=0.8, gamma=1 / 7, delta=1 / 7, pi=2 / 3, p=2 / 3, n=1)
REPLICATES = 100_000  # per root type; bump for tighter intervals

est = estimate_offspring_matrix(params, REPLICATES, seed=1, workers=2)
m, se = est.mean, est.se
print("estimated offspring matrix (exposure-time estimator, five martingale controls):")
print(f"  [[{m.m11:.4f} +- {se[0]:.4f}, {m.m12:.4f} +- {se[1]:.4f}],")
print(f"   [{m.m21:.4f} +- {se[2]:.4f}, {m.m22:.4f} +- {se[3]:.4f}]]")

combined = r_component_combined(params, REPLICATES, seed=3, workers=2)
print(f"\ncombined R_DM = {combined.value:.4f}"
      f"  (95% CI [{combined.ci_low:.4f}, {combined.ci_high:.4f}])")

naive = naive_combined_r(params)
print(f"independence guess R_0(1-r_M)(1-r_D) = {naive.value:.4f} (exact:"
      f" R_M = {naive.r_manual.value:.4f}, R_D = {naive.r_digital:.4f})")

if combined.ci_high < 1.0 < naive.value:
    print("\ncombined tracing is subcritical even though the independence "
          "product predicts supercritical: the whole beats the product of "
          "the parts.")
