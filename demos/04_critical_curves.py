"""Critical testing levels: how much testing makes tracing sufficient?

For a given tracing strength, the critical testing fraction delta/(delta+gamma)
is where the relevant reproduction number crosses 1.  Two comparisons:

* app-based vs manual tracing at equal "coverage" v: the app needs more
  testing, because tracing requires BOTH sides of a contact to run the app --
  and even comparing against pi^2 (the chance both sides use it), manual
  interviews still win;
* the combined model against the independence guess.

Digital and manual curve points are closed form (R_D and R_M); the combined
point is Monte Carlo (the bisection takes a side only when an estimate is 3
standard errors clear of 1, and reports the 95% interval of the estimate at
its root), so this demo keeps it to one point; see the `epict sweep`
subcommand for the full datasets.
"""

import math

from epict import (
    MCSettings,
    Params,
    Target,
    find_critical,
    with_param,
)

FIG = Params(beta=6 / 7, gamma=1 / 7, delta=1 / 7, pi=0.0, p=0.0, n=1)
BRACKET = (0.0, 5 / 6)
mc = MCSettings(replicates=15_000, seed=11, workers=2)

print("coverage v | digital f* | digital f*(sqrt v) | manual f*")
for v in (0.3, 0.6, 0.9):
    digital = find_critical(
        Target.R_D, "testing_fraction", BRACKET, with_param(FIG, "pi", v)
    )
    digital_sq = find_critical(
        Target.R_D, "testing_fraction", BRACKET, with_param(FIG, "pi", math.sqrt(v))
    )
    manual = find_critical(
        Target.R_M, "testing_fraction", BRACKET, with_param(FIG, "p", v)
    )
    print(f"   {v:.1f}     |   {digital.critical_value:.3f}    |"
          f"       {digital_sq.critical_value:.3f}        |  {manual.critical_value:.3f}")

print("\n(the digital column stays above the manual one, even squared)")

# one combined-model point: at testing fraction 1/2 and p = 0.4, the app
# fraction where the combined reproduction number crosses 1
point = find_critical(
    Target.R_DM, "p", (0.0, 1.0),
    with_param(with_param(FIG, "pi", 0.5), "testing_fraction", 0.5),
    coord_tol=1e-2, mc=mc,
)
print(f"\ncombined model at pi=0.5, testing fraction 0.5: "
      f"R_DM crosses 1 at p = {point.critical_value:.3f} "
      f"(95% CI [{point.ci_low:.3f}, {point.ci_high:.3f}])")
