"""One operator, two value maps: the mixture-decomposition ambiguity.

A convex mixture E = w P_n + (1 - w) P_m of two non-collinear projectors is a
single well-defined operator.  The value-map construction can be applied to E
directly, or to each projector separately and then mixed.  The two results
share every average but are different functions: the direct map only takes
E's eigenvalues (both strictly between 0 and 1), while the mixed map takes
0 and 1 wherever the projector maps agree.
"""

import numpy as np

from hvlab import (
    OMEGA_MAX,
    OMEGA_MIN,
    PureState,
    bell_value,
    bell_value_operator,
    expectation,
    projector,
    sum_conflict_witness,
)

x = np.array([1.0, 0.0, 0.0])
y = np.array([0.0, 1.0, 0.0])
# a state tilted away from both axes, so both projector maps vanish together
# on a region of positive measure
s = np.array([-0.6, -0.8, 0.0])
psi = PureState(s)
w = 0.5

mixture = w * projector(x) + (1.0 - w) * projector(y)
low, high = mixture.eigenvalues
print(f"E = {w} P_x + {1 - w} P_y, eigenvalues {low:.6f} and {high:.6f}")
print()

direct = bell_value_operator(psi, mixture)
map_x = bell_value(psi, x)
map_y = bell_value(psi, y)
mixed = w * map_x + (1.0 - w) * map_y
print("map of E directly  :", direct)
print("mixture of the maps:", mixed)
print(f"integrals: {direct.integrate():.6f} vs {mixed.integrate():.6f}"
      f" (quantum expectation {expectation(psi, mixture):.6f})")
print()

both_zero = (1.0 - map_x) * (1.0 - map_y)
edges = (OMEGA_MIN, *both_zero.breakpoints, OMEGA_MAX)
region = [(left, right) for left, right, value in zip(edges, edges[1:], both_zero.values) if value == 1.0]
print(f"both projector maps vanish on {region} (measure {both_zero.integrate():.6f});")
print(f"there the mixed map is 0 but the direct map is {low:.6f} > 0:")
print("a single operator carries two incompatible definite-value stories.")
print()

witness = sum_conflict_witness(psi, x, y, w)
print(f"total disagreement measure: {witness.measure:.6f}")
for sample in witness.samples:
    print(
        f"  on ({sample.omega_left:+.4f}, {sample.omega_right:+.4f}): "
        f"direct {sample.lhs_value:.6f} vs mixed {sample.rhs_value:.6f}"
    )
