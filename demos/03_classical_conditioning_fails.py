"""Classical conditional probability is the wrong rule for quantum sequences.

Classically, P(A | B) = P(A and B) / P(B): intersect the two events as subsets
of the same sample space.  The hidden-variable maps are literally indicator
functions on an interval, so the classical rule is available - intersect the
two 0/1 maps drawn for the *same* state and divide.

It gives the wrong answer.  Conditioning in quantum mechanics changes the
state, and a rule that keeps using the original state for both questions
erases exactly that update.
"""

import numpy as np

from hvlab import PureState, bell_value, classical_conditional, conditional_expectation

z = np.array([0.0, 0.0, 1.0])
x = np.array([1.0, 0.0, 0.0])
y = np.array([0.0, 1.0, 0.0])

psi = PureState(z)

map_x = bell_value(psi, x)
map_y = bell_value(psi, y)
print("state z; the maps for axes x and y are both:", map_x)
print("their intersection has measure", (map_x * map_y).integrate())
print()

classical = classical_conditional(psi, y, x)
quantum = conditional_expectation(psi, y, x)
print(f"classical rule:  P(y-outcome | x-outcome) = {classical:.6f}")
print(f"quantum value :  {quantum:.6f}")
print(f"discrepancy   :  {abs(classical - quantum):.6f}")
print()
print("The two indicators coincide as subsets, so the classical rule is")
print("certain the second answer repeats the first.  Quantum mechanics says")
print("the outcomes are unbiased coin flips of each other.")
print()

print("For commuting questions the classical rule is fine:")
tilted = PureState(np.array([0.8, 0.0, 0.6]))
same = classical_conditional(tilted, x, x)
opposite = classical_conditional(tilted, -x, x)
print(f"  same axis     : classical {same:.6f}, quantum 1.000000")
print(f"  opposite axis : classical {opposite:.6f}, quantum 0.000000")
