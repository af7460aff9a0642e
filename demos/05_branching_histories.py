"""Branching: a fresh hidden-variable level per measurement heals the split.

Instead of forcing one function on one interval to describe a measurement
sequence, give every measurement its own copy of the interval.  A history of
k measurements becomes a product of k single-level 0/1 maps, divided by the
normalization of each completed level - reduction realized inside a
dispersion-free formalism.

Integrating the levels out in different orders reproduces the two
single-interval representations as intermediate functions, yet every order
ends at the same number: the conflict dissolves into bookkeeping.
"""

import numpy as np

from hvlab import (
    BranchHistory,
    PureState,
    branch,
    branch_records,
    integrate_in_order,
    joint_function,
    outcome_probabilities,
    repeated_measurement_check,
)

z = np.array([0.0, 0.0, 1.0])
x = np.array([1.0, 0.0, 0.0])
y = np.array([0.0, 1.0, 0.0])

psi = PureState(z)

history = BranchHistory(psi)
for axis in (x, y):
    history, _ = branch(history, axis)

print("history: start at z, select the x outcome, then select the y outcome")
for record in branch_records(history):
    print(
        f"  level {record['level']}: axis {record['axis']}, "
        f"normalizer {record['normalizer']}, map values {record['values']}"
    )
print()

joint = joint_function(history)
print(f"joint function: {joint.levels} levels, prefactor {joint.prefactor}")
for index in (0, 1):
    rest = joint.integrate_level(index)  # one level left: its factor times the prefactor
    print(f"  integrate level {index + 1} first ->", rest.factors[0] * rest.prefactor)
print("  (the two intermediate functions are the two single-interval routes)")
print(f"  both orders finish at {integrate_in_order(history, (1, 2)):.6f}"
      f" and {integrate_in_order(history, (2, 1)):.6f}")
print()

repeated = repeated_measurement_check(psi, x)
print("repeat the same measurement instead:", repeated)
print("a second (third, fourth, ...) level is identically 1: once projected,")
print("nothing changes - idempotence holds level by level.")
print()

table = outcome_probabilities(psi, [x, y, x])
print("full outcome tree for the axis sequence x, y, x:")
for pattern, probability in sorted(table.items()):
    label = " -> ".join(f"{o:>10s}" for o in pattern)
    print(f"  {label} : {probability:.6f}")
print(f"  total: {sum(table.values()):.6f}")
