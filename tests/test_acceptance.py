"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import time

import numpy as np

from hvlab import (
    BranchHistory,
    PureState,
    bell_value,
    bell_value_operator,
    branch,
    classical_conditional,
    conditional_expectation,
    constant,
    integrate_in_order,
    joint_function,
    nonuniqueness_witness,
    outcome_probabilities,
    projector,
    route_operator_product,
    route_state_update,
    sandwich,
    sum_conflict_witness,
)

from conftest import X, Y, Z, random_unit
from monte_carlo import mc_integrate

TOL = 1e-12


def report(criterion: int, label: str, passed: bool) -> None:
    print(f"{'PASS' if passed else 'FAIL'} - criterion {criterion}: {label}")
    assert passed, f"criterion {criterion} failed: {label}"


def test_criterion_1_measure_reproduction():
    rng = np.random.default_rng(101)
    pairs = [(random_unit(rng), random_unit(rng)) for _ in range(10_000)]
    start = time.perf_counter()
    worst = 0.0
    for s, m in pairs:
        psi = PureState(s)
        got = bell_value(psi, m).integrate()
        want = 0.5 * (1.0 + float(np.dot(s, m)))
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    report(
        1,
        f"measure reproduction over 10^4 draws (worst {worst:.2e}, {elapsed * 1000:.0f} ms)",
        worst <= TOL and elapsed < 1.0,
    )


def test_criterion_2_sandwich_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        n, m = random_unit(rng), random_unit(rng)
        got = sandwich(n, m)
        coefficient = 0.5 * (1.0 + float(np.dot(n, m)))
        err = max(
            abs(2.0 * got.a - coefficient),
            float(np.max(np.abs(np.asarray(got.b) - coefficient * 0.5 * n))),
        )
        worst = max(worst, err)
    report(2, f"sandwich identity over 10^4 pairs (worst {worst:.2e})", worst <= TOL)


def test_criterion_3_route_agreement_on_averages():
    rng = np.random.default_rng(103)
    worst = 0.0
    count = 0
    while count < 10_000:
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(n, s)) <= 1e-6:
            continue
        count += 1
        psi = PureState(s)
        want = 0.5 * (1.0 + float(np.dot(n, m)))
        err = max(
            abs(route_state_update(n, m).integrate() - want),
            abs(route_operator_product(psi, n, m).integrate() - want),
        )
        worst = max(worst, err)
    report(3, f"route agreement on averages over 10^4 triples (worst {worst:.2e})", worst <= TOL)


def test_criterion_4_pointwise_nonuniqueness():
    psi = PureState(Z)
    via_state = route_state_update(X, X)
    via_product = route_operator_product(psi, X, X)
    witness = nonuniqueness_witness(psi, X, X)
    aligned_instance = (
        via_state == constant(1.0)
        and via_product.values == (0.0, 2.0)
        and witness.measure == 1.0
    )

    rng = np.random.default_rng(104)
    positive = 0
    trials = 0
    while trials < 1000:
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if abs(float(np.dot(n, m))) >= 1.0 - 1e-6 or 1.0 + float(np.dot(n, s)) <= 1e-6:
            continue
        trials += 1
        if nonuniqueness_witness(PureState(s), n, m).measure > 0.0:
            positive += 1
    fraction = positive / trials
    report(
        4,
        f"pointwise non-uniqueness (aligned instance exact, {100 * fraction:.1f}% positive witnesses)",
        aligned_instance and fraction >= 0.99,
    )


def test_criterion_5_classical_rule_violation():
    psi = PureState(Z)
    classical = classical_conditional(psi, Y, X)
    quantum = conditional_expectation(psi, Y, X)
    violation_exact = classical == 1.0 and quantum == 0.5 and abs(classical - quantum) == 0.5

    rng = np.random.default_rng(105)
    worst_collinear = 0.0
    for _ in range(200):
        s, n = random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(s, n)) <= 1e-6 or 1.0 - float(np.dot(s, n)) <= 1e-6:
            continue
        same = abs(classical_conditional(PureState(s), n, n) - 1.0)
        opposite = abs(
            classical_conditional(PureState(s), -n, n)
            - conditional_expectation(PureState(s), -n, n)
        )
        worst_collinear = max(worst_collinear, same, opposite)
    report(
        5,
        f"classical-rule violation exact (1 vs 1/2); collinear agreement worst {worst_collinear:.2e}",
        violation_exact and worst_collinear <= TOL,
    )


def test_criterion_6_sum_decomposition_conflict():
    rng = np.random.default_rng(106)
    lam = 0.5
    mixture = lam * projector(X) + (1.0 - lam) * projector(Y)
    low_eigenvalue = 0.5 * (1.0 - 1.0 / np.sqrt(2.0))
    found = False
    worst_average = 1.0
    for _ in range(1000):
        s = random_unit(rng)
        psi = PureState(s)
        map_n = bell_value(psi, X)
        map_m = bell_value(psi, Y)
        both_zero = (1.0 - map_n) * (1.0 - map_m)
        if both_zero.integrate() <= 0.0:
            continue
        lhs = bell_value_operator(psi, mixture)
        rhs = lam * map_n + (1.0 - lam) * map_m
        witness = sum_conflict_witness(psi, X, Y, lam)
        # segment-exact values of the mixture map on the both-zero region:
        # evaluate at the left edge of every union-partition segment
        union = sorted({*lhs.breakpoints, *both_zero.breakpoints})
        value_on_region = {
            lhs(left) for left in (-0.5, *union) if both_zero(left) == 1.0
        }
        covered = (both_zero * (1.0 - witness.omega_region)).integrate() == 0.0
        worst_average = abs(lhs.integrate() - rhs.integrate())
        found = (
            witness.measure > 0.0
            and covered
            and all(abs(v - low_eigenvalue) <= TOL and v > 0.0 for v in value_on_region)
            and worst_average <= TOL
        )
        if found:
            break
    report(
        6,
        f"sum-decomposition conflict witnessed (averages differ by {worst_average:.2e})",
        found,
    )


def test_criterion_7_branching_recovers_quantum_value():
    rng = np.random.default_rng(107)
    worst = 0.0
    count = 0
    while count < 1000:
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(n, s)) <= 1e-6:
            continue
        count += 1
        history = BranchHistory(PureState(s))
        for axis in (n, m):
            history, _ = branch(history, axis)
        want = 0.5 * (1.0 + float(np.dot(n, m)))
        err = max(
            abs(integrate_in_order(history, (1, 2)) - want),
            abs(integrate_in_order(history, (2, 1)) - want),
        )
        worst = max(worst, err)
    report(7, f"two-level branching recovers (1 + n.m)/2 in both orders (worst {worst:.2e})", worst <= TOL)


def test_criterion_8_idempotence():
    rng = np.random.default_rng(108)
    count = 0
    all_constant = True
    while count < 1000:
        s, axis = random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(s, axis)) <= 1e-6:
            continue
        count += 1
        history, _ = branch(BranchHistory(PureState(s)), axis)
        for _ in range(3):  # second, third, and fourth repetitions
            history, _ = branch(history, axis)
            if history.nodes[-1].level_function != constant(1.0):
                all_constant = False
    report(8, "repeated measurements give identically-1 level functions", all_constant)


def test_criterion_9_probability_conservation():
    rng = np.random.default_rng(109)
    worst = 0.0
    for index in range(100):
        depth = 1 + index % 4
        s = random_unit(rng)
        axes = [random_unit(rng) for _ in range(depth)]
        table = outcome_probabilities(PureState(s), axes)
        assert len(table) == 2**depth
        worst = max(worst, abs(sum(table.values()) - 1.0))
    report(9, f"outcome trees sum to 1 up to depth 4 (worst {worst:.2e})", worst <= TOL)


def test_criterion_10_monte_carlo_cross_check():
    rng = np.random.default_rng(110)
    n_samples = 1_000_000
    start = time.perf_counter()
    ok = True

    def within_four_se(fn, exact):
        estimate, stderr = mc_integrate(fn, n_samples, rng)
        return abs(estimate - exact) <= 4.0 * stderr + 1e-13

    for _ in range(100):
        s, m = random_unit(rng), random_unit(rng)
        fn = bell_value(PureState(s), m)
        ok = ok and within_four_se(fn, fn.integrate())

    count = 0
    while count < 100:
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(n, s)) <= 1e-6:
            continue
        count += 1
        psi = PureState(s)
        via_state = route_state_update(n, m)
        via_product = route_operator_product(psi, n, m)
        ok = ok and within_four_se(via_state, via_state.integrate())
        ok = ok and within_four_se(via_product, via_product.integrate())

    count = 0
    while count < 100:
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(n, s)) <= 1e-6:
            continue
        count += 1
        history = BranchHistory(PureState(s))
        for axis in (n, m):
            history, _ = branch(history, axis)
        joint = joint_function(history)
        ok = ok and within_four_se(joint, joint.integrate())

    elapsed = time.perf_counter() - start
    report(
        10,
        f"seeded Monte Carlo reproduces criteria 1, 3, 7 within 4 SE ({elapsed:.1f} s)",
        ok and elapsed < 30.0,
    )
