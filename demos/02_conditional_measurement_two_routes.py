"""Two representations of one conditional measurement, and where they split.

Measure projector B (axis n), then immediately measure projector A (axis m).
Quantum mechanics computes the conditional probability either by updating the
state first, or by forming the operator product B A B and never touching the
state.  Both give (1 + n.m)/2.

The dispersion-free construction mirrors both routes - and produces two
*different* functions on the hidden interval with the same integral.  The
same physical quantity ends up with two conflicting definite-value pictures.
"""

import numpy as np

from hvlab import (
    PureState,
    nonuniqueness_witness,
    route_operator_product,
    route_state_update,
)

z = np.array([0.0, 0.0, 1.0])
x = np.array([1.0, 0.0, 0.0])

psi = PureState(z)

print("state z, condition on x, then measure x again (a repeated measurement):")
via_state = route_state_update(x, x)
via_product = route_operator_product(psi, x, x)
print("  route via state update     :", via_state)
print("  route via operator product :", via_product)
print(f"  integrals: {via_state.integrate():.6f} and {via_product.integrate():.6f}")
print()
print("Route one says: after the first measurement the answer is certainly 1,")
print("everywhere.  Route two still remembers the original state's hidden-")
print("variable profile and pays for it with a value of 2 on half the")
print("interval - not even an eigenvalue of the measured projector's map.")
print()

witness = nonuniqueness_witness(psi, x, x)
print(f"disagreement region: measure {witness.measure:.6f}")
for sample in witness.samples:
    print(
        f"  on ({sample.omega_left:+.3f}, {sample.omega_right:+.3f}) "
        f"route one gives {sample.lhs_value}, route two gives {sample.rhs_value}"
    )
print()

rng = np.random.default_rng(2)
positive = 0
trials = 2000
done = 0
while done < trials:
    s = rng.normal(size=3)
    s /= np.sqrt(s @ s)
    n = rng.normal(size=3)
    n /= np.sqrt(n @ n)
    m = rng.normal(size=3)
    m /= np.sqrt(m @ m)
    if abs(np.dot(n, m)) >= 1.0 - 1e-6 or 1.0 + np.dot(n, s) <= 1e-6:
        continue
    done += 1
    if nonuniqueness_witness(PureState(s), n, m).measure > 0.0:
        positive += 1
print(
    f"random geometry: {100.0 * positive / trials:.2f}% of {trials} generic triples "
    "disagree on a set of positive measure"
)
print("(agreement is the measure-zero exception, not the rule)")
