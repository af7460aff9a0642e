import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hvlab import (
    HermitianOp,
    PureState,
    ReductionUndefinedError,
    ScenarioConfig,
    StepFunction,
    UndefinedConditionalError,
    ValidationError,
    WitnessUndefinedError,
    bell_value,
    bell_value_operator,
    classical_conditional,
    conditional_expectation,
    constant,
    disagreement_witness,
    expectation,
    nonuniqueness_witness,
    projector,
    route_operator_product,
    route_state_update,
    run_scenario,
    run_sweep,
    sandwich,
    scenarios,
    sum_conflict_witness,
    unit_vector,
)

import matrix_oracle as oracle
from conftest import X, Y, Z, random_unit, rational_axes

GRID = np.linspace(-0.5, 0.5, 10_001)


def closed_form_value(omega, s, m):
    """Direct evaluation of the dispersion-free map.

    sign(0) = +1 inside; the outer tie s.m == 0.0 takes the product of the
    signs of the first non-zero components of s and m.
    """
    c = float(np.dot(s, m))
    inner = np.where(np.asarray(omega) + 0.5 * abs(c) >= 0.0, 1.0, -1.0)
    if c == 0.0:
        outer = np.sign(s[np.flatnonzero(s)[0]]) * np.sign(m[np.flatnonzero(m)[0]])
    else:
        outer = np.sign(c)
    return 0.5 * (1.0 + inner * outer)


def interval_measure(intervals) -> float:
    return sum(right - left for left, right in intervals)


def intersect_intervals(first, second):
    """Oracle: pairwise intersection of two disjoint-interval lists."""
    out = []
    for a_left, a_right in first:
        for b_left, b_right in second:
            left, right = max(a_left, b_left), min(a_right, b_right)
            if right > left:
                out.append((left, right))
    return out


def support_intervals(step):
    edges = (-0.5, *step.breakpoints, 0.5)
    return [(left, right) for left, right, value in zip(edges, edges[1:], step.values) if value == 1.0]


# ---------------------------------------------------------------------------
# bell_value
# ---------------------------------------------------------------------------


def test_bell_value_eigenstate_is_constant_one():
    assert bell_value(PureState(Z), Z).values == (1.0,)


def test_bell_value_measure_reproduction_dot_06():
    psi = PureState(Z)
    m = np.array([0.8, 0.0, 0.6])  # s.m = 0.6
    assignment = bell_value(psi, m)
    assert assignment.breakpoints == (-0.3,)
    assert assignment.values == (0.0, 1.0)
    assert abs(assignment.integrate() - 0.8) <= 1e-15
    assert abs(assignment.integrate() - expectation(psi, projector(m))) <= 1e-15


def test_bell_value_orthogonal_uses_sign_zero_convention():
    # frozen from the closed-form grid evaluation below: indicator of (0, 1/2)
    assignment = bell_value(PureState(Z), X)
    assert assignment.breakpoints == (0.0,)
    assert assignment.values == (0.0, 1.0)
    assert assignment.integrate() == 0.5
    np.testing.assert_array_equal(assignment(GRID), closed_form_value(GRID, Z, X))
    # the opposite axis takes the opposite polarity: indicator of [-1/2, 0)
    opposite = bell_value(PureState(Z), -X)
    assert opposite.values == (1.0, 0.0)
    np.testing.assert_array_equal(opposite(GRID), closed_form_value(GRID, Z, -X))


def test_bell_value_rejects_non_unit_inputs():
    with pytest.raises(ValidationError):
        bell_value(PureState(Z), [0.5, 0.0, 0.0])


@settings(max_examples=200)
@given(data=st.data())
def test_bell_value_matches_closed_form_pointwise(data):
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    s, m = random_unit(rng), random_unit(rng)
    assignment = bell_value(PureState(s), m)
    probe = np.linspace(-0.5, 0.5, 257)
    np.testing.assert_array_equal(assignment(probe), closed_form_value(probe, s, m))


def test_bell_value_spectrum_and_measure_sweep(rng):
    for _ in range(1000):
        s, m = random_unit(rng), random_unit(rng)
        psi = PureState(s)
        assignment = bell_value(psi, m)
        assert set(assignment.values) <= {0.0, 1.0}
        want = expectation(psi, projector(m))
        assert abs(assignment.integrate() - want) <= 1e-12


def test_bell_value_completeness_pointwise(rng):
    # pointwise completeness for m and -m; generic states never have s.m == 0.0
    probe = np.linspace(-0.5, 0.5, 101)
    for _ in range(200):
        s, m = random_unit(rng), random_unit(rng)
        psi = PureState(s)
        total = bell_value(psi, m) + bell_value(psi, -m)
        np.testing.assert_array_equal(total(probe), np.ones_like(probe))
    # exact eigenstate case
    total = bell_value(PureState(Z), Z) + bell_value(PureState(Z), -Z)
    assert total.values == (1.0,)


def test_bell_value_completeness_in_measure_on_degenerate_locus():
    # s.m == 0.0 exactly: the tie is broken by p(s) p(m), the signs of the first
    # non-zero components, so the maps for m and -m still complement pointwise
    psi = PureState(Z)
    plus = bell_value(psi, X)
    minus = bell_value(psi, -X)
    assert plus + minus == constant(1.0)
    assert plus.integrate() + minus.integrate() == 1.0


# pairs orthogonal in exact integer arithmetic; in floats s.m is 0.0 or a rounding error
ORTHOGONAL_PAIRS = [
    (np.array(a) / da, np.array(b) / db)
    for (a, da), (b, db) in product(rational_axes(), repeat=2)
    if sum(x * y for x, y in zip(a, b)) == 0
]


def test_orthogonal_pairs_include_the_exact_tie():
    ties = [(s, m) for s, m in ORTHOGONAL_PAIRS if float(np.dot(s, m)) == 0.0]
    assert 0 < len(ties) < len(ORTHOGONAL_PAIRS)


@settings(max_examples=300)
@given(pair=st.sampled_from(ORTHOGONAL_PAIRS), flip=st.sampled_from((1.0, -1.0)))
def test_sign_tie_on_exactly_orthogonal_geometries(pair, flip):
    s, n = pair
    psi = PureState(s)
    assert bell_value(psi, n) + bell_value(psi, -n) == constant(1.0)
    # the operator maps of P_n and P_-n take opposite eigenvalues at every omega
    plus = bell_value_operator(psi, projector(n))
    minus = bell_value_operator(psi, projector(-n))
    assert plus.breakpoints == minus.breakpoints
    assert plus.values == minus.values[::-1]
    m = flip * n
    assert route_state_update(s, m) == route_state_update(m, s)
    report = run_scenario(ScenarioConfig("classical_rule", state=s, axes={"n": n, "m": m}))
    assert report.passed
    assert report.hv_values["classical_conditional"] == (1.0 if flip > 0.0 else 0.0)


# ---------------------------------------------------------------------------
# bell_value_operator
# ---------------------------------------------------------------------------


def test_operator_map_reduces_to_projector_map():
    psi = PureState(Z)
    assert bell_value_operator(psi, projector(X)) == bell_value(psi, X)
    tilted = np.array([0.8, 0.0, 0.6])
    assert bell_value_operator(psi, projector(tilted)) == bell_value(psi, tilted)


def test_operator_map_of_identity_is_constant_one():
    assignment = bell_value_operator(PureState(Z), HermitianOp(1.0, np.zeros(3)))
    assert assignment.values == (1.0,)


@pytest.mark.parametrize(
    "b, direction",
    [
        ([1e200, 0.0, 0.0], X),
        ([1e-160, 0.0, 0.0], X),
        ([6e199, 0.0, 8e199], [0.6, 0.0, 0.8]),
        ([6e-161, 0.0, 8e-161], [0.6, 0.0, 0.8]),
    ],
    ids=["overflowing", "underflowing", "overflowing-tilted", "underflowing-tilted"],
)
def test_operator_map_of_an_extreme_b_matches_the_matrix_oracle(b, direction):
    # b.b overflows to inf or underflows to a subnormal; b_norm scales b by a
    # power of two first, so |b| is exact and b/|b| is the unit direction
    op = HermitianOp(0.0, b)
    matrix = oracle.operator_matrix(0.0, b)
    np.testing.assert_allclose(op.eigenvalues, oracle.eigenvalues_matrix(matrix), rtol=1e-14)
    s = [0.0, 0.6, 0.8]
    assignment = bell_value_operator(PureState(s), op)
    low, high = op.eigenvalues
    unit_map = bell_value(PureState(s), direction)
    assert assignment.breakpoints == unit_map.breakpoints
    assert assignment.values == tuple(high if v == 1.0 else low for v in unit_map.values)
    assert assignment.integrate() == pytest.approx(oracle.expectation_matrix(s, matrix), rel=1e-14)


def test_operator_map_mixture_against_eigendecomposition_oracle(rng):
    # E = (P_n + P_m)/2 with perpendicular axes: eigenvalues (1 +- 1/sqrt(2))/2
    for _ in range(25):
        s = random_unit(rng)
        psi = PureState(s)
        mixture = 0.5 * projector(X) + 0.5 * projector(Y)
        assignment = bell_value_operator(psi, mixture)
        want_eigs = oracle.eigenvalues_matrix(
            0.5 * oracle.projector_matrix(X) + 0.5 * oracle.projector_matrix(Y)
        )
        np.testing.assert_allclose(sorted(set(assignment.values)), want_eigs, atol=1e-12)
        np.testing.assert_allclose(
            sorted(mixture.eigenvalues),
            [0.5 * (1 - 1 / np.sqrt(2)), 0.5 * (1 + 1 / np.sqrt(2))],
            atol=1e-12,
        )
        v = (X + Y) / 2.0
        want_integral = 0.5 + 0.5 * float(np.dot(v, s))
        assert abs(assignment.integrate() - want_integral) <= 1e-12


def test_operator_map_spectrum_and_average_random_operators(rng):
    for _ in range(300):
        s = random_unit(rng)
        psi = PureState(s)
        op = HermitianOp(rng.normal(), rng.normal(size=3))
        assignment = bell_value_operator(psi, op)
        low, high = op.eigenvalues
        assert set(assignment.values) <= {low, high}
        assert abs(assignment.integrate() - expectation(psi, op)) <= 1e-12


# ---------------------------------------------------------------------------
# the two conditional-measurement routes
# ---------------------------------------------------------------------------


def test_route_state_update_examples():
    assert route_state_update(X, X).values == (1.0,)
    tilted = np.array([0.8, 0.0, 0.6])
    assignment = route_state_update(Z, tilted)  # n.m = 0.6
    assert set(assignment.values) == {0.0, 1.0}
    assert abs(assignment.integrate() - 0.8) <= 1e-15


def test_route_state_update_symmetric_under_axis_swap(rng):
    for _ in range(100):
        n, m = random_unit(rng), random_unit(rng)
        assert route_state_update(n, m) == route_state_update(m, n)


def test_route_operator_product_zx_frozen_values():
    psi = PureState(Z)
    assignment = route_operator_product(psi, X, X)
    assert assignment.breakpoints == (0.0,)
    assert assignment.values == (0.0, 2.0)
    assert assignment.integrate() == 1.0


def test_route_operator_product_average(rng):
    for _ in range(500):
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(n, s)) <= 1e-6:
            continue
        psi = PureState(s)
        want = 0.5 * (1.0 + float(np.dot(n, m)))
        assert abs(route_operator_product(psi, n, m).integrate() - want) <= 1e-12


def test_route_operator_product_orthogonal_preparation_raises():
    # the guard is chain_probability's, so the error is the chain's at step 0
    with pytest.raises(ReductionUndefinedError, match="chain hits an orthogonal projector at step 0") as err:
        route_operator_product(PureState(Z), -Z, X)
    assert err.value.index == 0


def test_routes_agree_on_averages_with_oracle(rng):
    for _ in range(200):
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(n, s)) <= 1e-6:
            continue
        psi = PureState(s)
        want = oracle.conditional_matrix(s, m, n)
        assert abs(route_state_update(n, m).integrate() - want) <= 1e-12
        assert abs(route_operator_product(psi, n, m).integrate() - want) <= 1e-12


def test_route_spectra_match_their_observables(rng):
    probe = np.linspace(-0.5, 0.5, 64)
    for _ in range(100):
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(n, s)) <= 1e-6:
            continue
        psi = PureState(s)
        # P_m in the state prepared on n, and B A B / Tr[rho B] in the original state
        product = sandwich(n, m) * (1.0 / expectation(psi, projector(n)))
        for assignment, observable, state in (
            (route_state_update(n, m), projector(m), PureState(n)),
            (route_operator_product(psi, n, m), product, psi),
        ):
            low, high = observable.eigenvalues
            points = set(assignment(probe)) | set(assignment.values)
            for value in points:
                assert min(abs(value - low), abs(value - high)) <= 1e-12
            # the map's integral is its observable's expectation value
            want = expectation(state, observable)
            assert abs(assignment.integrate() - want) <= 1e-12


# ---------------------------------------------------------------------------
# nonuniqueness witness
# ---------------------------------------------------------------------------


def test_nonuniqueness_witness_zx_has_full_measure():
    witness = nonuniqueness_witness(PureState(Z), X, X)
    assert witness.measure == 1.0
    assert witness.omega_region.values == (1.0,)
    lhs = {sample.lhs_value for sample in witness.samples}
    rhs = {sample.rhs_value for sample in witness.samples}
    assert lhs == {1.0}
    assert rhs == {0.0, 2.0}


def test_nonuniqueness_witness_degenerate_agreement():
    witness = nonuniqueness_witness(PureState(Z), Z, Z)
    assert witness.measure == 0.0
    assert witness.samples == ()
    assert not witness


def test_repeated_measurement_routes_disagree(rng):
    for _ in range(100):
        s, m = random_unit(rng), random_unit(rng)
        if abs(float(np.dot(s, m))) >= 1.0 - 1e-6:
            continue
        psi = PureState(s)
        assert route_state_update(m, m).values == (1.0,)
        via_product = route_operator_product(psi, m, m)
        base = bell_value(psi, m)
        scaled = base * (1.0 / base.integrate())
        assert via_product == scaled
        assert nonuniqueness_witness(psi, m, m).measure > 0.0


def test_nonuniqueness_generic_disagreement_fraction(rng):
    hits = 0
    trials = 0
    while trials < 1000:
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if abs(float(np.dot(n, m))) >= 1.0 - 1e-6 or abs(float(np.dot(n, s))) >= 1.0 - 1e-6:
            continue
        trials += 1
        witness = nonuniqueness_witness(PureState(s), n, m)
        via_state = route_state_update(n, m)
        via_product = route_operator_product(PureState(s), n, m)
        if via_state == via_product:
            assert witness.measure == 0.0
        else:
            assert witness.measure > 0.0
            hits += 1
    assert hits / trials > 0.99


def test_witness_measure_consistency(rng):
    for _ in range(50):
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        witness = nonuniqueness_witness(PureState(s), n, m)
        assert witness.measure == witness.omega_region.integrate()


# ---------------------------------------------------------------------------
# classical conditional rule
# ---------------------------------------------------------------------------


def test_classical_conditional_same_axis_is_one(rng):
    for _ in range(20):
        s, n = random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(s, n)) <= 1e-6:
            continue
        assert classical_conditional(PureState(s), n, n) == 1.0


def test_classical_conditional_violates_quantum_value():
    # z state, condition on x, observe y: both indicators are (0, 1/2), so the
    # intersection rule yields 1 while the quantum conditional value is 1/2
    psi = PureState(Z)
    fa = bell_value(psi, Y)
    fb = bell_value(psi, X)
    meet = intersect_intervals(support_intervals(fa), support_intervals(fb))
    assert interval_measure(meet) == 0.5
    assert interval_measure(support_intervals(fb)) == 0.5
    classical = classical_conditional(psi, Y, X)
    assert classical == 1.0
    quantum = conditional_expectation(psi, Y, X)
    assert abs(classical - quantum) == 0.5


def test_classical_conditional_opposite_axes_disjoint(rng):
    for _ in range(50):
        s, n = random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(s, n)) <= 1e-6:
            continue
        got = classical_conditional(PureState(s), -n, n)
        want = conditional_expectation(PureState(s), -n, n)
        assert got == 0.0
        assert abs(got - want) <= 1e-15


def test_classical_conditional_agrees_with_interval_oracle(rng):
    for _ in range(100):
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        psi = PureState(s)
        fb = bell_value(psi, n)
        if fb.integrate() <= 1e-12:
            continue
        fa = bell_value(psi, m)
        meet = intersect_intervals(support_intervals(fa), support_intervals(fb))
        want = interval_measure(meet) / interval_measure(support_intervals(fb))
        assert abs(classical_conditional(psi, m, n) - want) <= 1e-12


def test_classical_conditional_zero_condition_raises():
    with pytest.raises(UndefinedConditionalError):
        classical_conditional(PureState(Z), X, -Z)


# ---------------------------------------------------------------------------
# sum-decomposition conflict
# ---------------------------------------------------------------------------


def test_sum_conflict_witness_perpendicular_axes():
    # a state tilted against both axes keeps both indicators zero on a common
    # subinterval while the mixture map sits at its lower eigenvalue there
    s = np.array([-0.6, -0.8, 0.0])
    psi = PureState(s)
    witness = sum_conflict_witness(psi, X, Y, 0.5)
    assert witness.measure > 0.0

    mixture = 0.5 * projector(X) + 0.5 * projector(Y)
    lhs = bell_value_operator(psi, mixture)
    map_n = bell_value(psi, X)
    map_m = bell_value(psi, Y)
    rhs = 0.5 * map_n + 0.5 * map_m

    both_zero = (1.0 - map_n) * (1.0 - map_m)
    both_one = map_n * map_m
    assert both_zero.integrate() > 0.0
    assert both_one.integrate() > 0.0
    # every omega with both projector maps 0 (or both 1) must be in the witness
    assert (both_zero * (1.0 - witness.omega_region)).integrate() == 0.0
    assert (both_one * (1.0 - witness.omega_region)).integrate() == 0.0
    # on the both-zero region the mixture map sits at its lower eigenvalue > 0;
    # evaluate at segment left edges of the union partition (right-continuity)
    low = 0.5 * (1.0 - 1.0 / np.sqrt(2.0))
    union = sorted({*lhs.breakpoints, *both_zero.breakpoints})
    values_on_region = {lhs(left) for left in (-0.5, *union) if both_zero(left) == 1.0}
    assert values_on_region
    for value in values_on_region:
        assert abs(value - low) <= 1e-12
        assert value > 0.0
    # wherever both projector maps are 1 the mixture map cannot reach 1
    values_on_ones = {lhs(left) for left in (-0.5, *union) if both_one(left) == 1.0}
    assert values_on_ones
    assert all(value != 1.0 for value in values_on_ones)
    # averages still agree
    assert abs(lhs.integrate() - rhs.integrate()) <= 1e-12
    assert abs(lhs.integrate() - expectation(psi, mixture)) <= 1e-12


def test_sum_conflict_witness_pointwise_grid_oracle(rng):
    probe = np.linspace(-0.5, 0.5, 501)
    for _ in range(50):
        s, n = random_unit(rng), random_unit(rng)
        m = random_unit(rng)
        if abs(float(np.dot(n, m))) >= 1.0 - 1e-6:
            continue
        lam = float(rng.uniform(0.05, 0.95))
        psi = PureState(s)
        witness = sum_conflict_witness(psi, n, m, lam)
        mixture = lam * projector(n) + (1.0 - lam) * projector(m)
        lhs = bell_value_operator(psi, mixture)
        rhs = lam * bell_value(psi, n) + (1.0 - lam) * bell_value(psi, m)
        np.testing.assert_array_equal(
            witness.omega_region(probe), (lhs(probe) != rhs(probe)).astype(float)
        )


def test_sum_conflict_collinear_and_weight_validation():
    psi = PureState(Z)
    with pytest.raises(WitnessUndefinedError):
        sum_conflict_witness(psi, X, X, 0.5)
    with pytest.raises(WitnessUndefinedError):
        sum_conflict_witness(psi, X, -X, 0.5)
    with pytest.raises(ValidationError):
        sum_conflict_witness(psi, X, Y, 0.0)
    with pytest.raises(ValidationError):
        sum_conflict_witness(psi, X, Y, 1.0)
    with pytest.raises(ValidationError, match="mixture weight must be a finite real number, got 'a'"):
        sum_conflict_witness(psi, X, Y, "a")


def test_collinear_matches_the_np_cross_form(rng):
    from hvlab.bell import NONCOLLINEARITY_TOLERANCE, _collinear

    def by_np_cross(n, m):
        cross = np.cross(n, m)
        return float(np.sqrt(cross @ cross)) <= NONCOLLINEARITY_TOLERANCE

    pairs = [(random_unit(rng), random_unit(rng)) for _ in range(2000)]
    # near the 1e-9 edge: n and n + t p (or -n + t p) for a unit p orthogonal
    # to n, with |n x m| = t stepping through the tolerance by 2^-44 relative
    for _ in range(20):
        n = random_unit(rng)
        p = np.cross(n, random_unit(rng))
        p /= np.sqrt(p @ p)
        for k in range(-40, 41):
            t = NONCOLLINEARITY_TOLERANCE * (1.0 + k * 2.0**-44)
            pairs.extend([(n, n + t * p), (n, -n + t * p)])
    # exact cross products: |X x (1, t, 0)| is t, stepped one float at a time
    t = NONCOLLINEARITY_TOLERANCE
    for _ in range(4):
        t = np.nextafter(t, 0.0)
    for k in range(9):
        for n, m in ((X, [1.0, t, 0.0]), (Y, [0.0, -1.0, t]), (Z, [0.0, t, 1.0])):
            pairs.append((n, np.array(m)))
        t = np.nextafter(t, 1.0)
    results = [_collinear(n, m) for n, m in pairs]
    assert results == [by_np_cross(n, m) for n, m in pairs]
    assert True in results and False in results


# ---------------------------------------------------------------------------
# canonical inequality is a disagreement of positive measure
# ---------------------------------------------------------------------------

_BREAKPOINTS = st.floats(min_value=-0.499, max_value=0.499, allow_nan=False)
_LEVELS = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


@st.composite
def _canonical_pairs(draw):
    """A step function and a second one: equal, one value apart, one breakpoint apart, or independent."""
    bps = sorted(set(draw(st.lists(_BREAKPOINTS, max_size=5))))
    f = StepFunction(bps, draw(st.lists(_LEVELS, min_size=len(bps) + 1, max_size=len(bps) + 1)))
    bps, values = list(f.breakpoints), list(f.values)
    kind = draw(st.sampled_from(["equal", "value", "breakpoint", "breakpoint by one ulp", "independent"]))
    if kind == "value":
        i = draw(st.integers(0, len(values) - 1))
        # differs from itself and both neighbours, so g keeps f's breakpoints
        neighbours = values[max(i - 1, 0) : i + 2]
        values[i] = draw(_LEVELS.filter(lambda v: v not in neighbours))
    elif kind.startswith("breakpoint") and bps:
        i = draw(st.integers(0, len(bps) - 1))
        low = bps[i - 1] if i else -0.5
        high = bps[i + 1] if i + 1 < len(bps) else 0.5
        if kind == "breakpoint":
            moved = draw(st.floats(min_value=low, max_value=high, exclude_min=True, exclude_max=True))
        else:
            moved = math.nextafter(bps[i], draw(st.sampled_from([low, high])))
        assume(low < moved < high and moved != bps[i])
        bps[i] = moved
    elif kind == "independent":
        more = sorted(set(draw(st.lists(_BREAKPOINTS, max_size=5))))
        bps, values = more, draw(st.lists(_LEVELS, min_size=len(more) + 1, max_size=len(more) + 1))
    return f, StepFunction(bps, values)


@settings(max_examples=300)
@given(pair=_canonical_pairs())
@example(pair=(StepFunction([0.0], [0.0, 1.0]), StepFunction([-0.0], [0.0, 1.0])))
@example(pair=(StepFunction([0.25], [0.0, 1.0]), StepFunction([math.nextafter(0.25, 1.0)], [0.0, 1.0])))
@example(pair=(StepFunction([], [1.0]), StepFunction([], [math.nextafter(1.0, 2.0)])))
def test_canonical_inequality_is_a_positive_disagreement_measure(pair):
    f, g = pair
    assert (f != g) == (disagreement_witness(f, g).measure > 0.0)


def _negated(v):
    return unit_vector([-x for x in v])


# geometries of one seeded draw (s, n, m); the last three make the routes coincide
_ROUTE_GEOMETRIES = {
    "drawn": lambda s, n, m: (s, n, m),
    "n = s": lambda s, n, m: (s, s, m),
    "m = n": lambda s, n, m: (s, n, n),
    "n = s = m": lambda s, n, m: (s, s, s),
    "n = s = -m": lambda s, n, m: (s, s, _negated(s)),
    "m = -n": lambda s, n, m: (s, n, _negated(n)),
}


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), geometry=st.sampled_from(sorted(_ROUTE_GEOMETRIES)))
def test_route_pairs_differ_exactly_where_a_witness_has_measure(seed, geometry):
    # the sweep's draws, three unit axes at a time from one seeded generator
    s, n, m = _ROUTE_GEOMETRIES[geometry](*scenarios._random_units(np.random.default_rng(seed), 3))
    via_state = route_state_update(n, m)
    via_product = route_operator_product(PureState(s), n, m)
    coincide = geometry in ("n = s = m", "n = s = -m", "m = -n")
    assert (via_state == via_product) is coincide
    assert (via_state != via_product) == (disagreement_witness(via_state, via_product).measure > 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_route_pairs_differ_exactly_where_a_witness_has_measure(monkeypatch, seed):
    pairs = []

    def recorded(psi, n, m, _check=scenarios._route_check):
        result = _check(psi, n, m)
        pairs.append(result[3:])
        return result

    monkeypatch.setattr(scenarios, "_route_check", recorded)
    run_sweep(seed, 200)
    assert len(pairs) == 200
    for via_state, via_product in pairs:
        assert (via_state != via_product) == (disagreement_witness(via_state, via_product).measure > 0.0)
