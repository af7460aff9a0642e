import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab import (
    BranchHistory,
    HermitianOp,
    PureState,
    ReductionUndefinedError,
    ValidationError,
    branch,
    chain_probability,
    conditional_expectation,
    cosine_between,
    expectation,
    projector,
    sandwich,
    unit_vector,
)

from hvlab.qubit import _negated_unit

import matrix_oracle as oracle
from conftest import X, Y, Z, random_unit, rational_axes


def ops_close(op: HermitianOp, other: HermitianOp, tol: float) -> bool:
    return abs(op.a - other.a) <= tol and float(np.max(np.abs(op.b - other.b))) <= tol


# ---------------------------------------------------------------------------
# vectors, states, operators
# ---------------------------------------------------------------------------


def test_unit_vector_validation():
    u = unit_vector([1.0, 0.0, 0.0])
    assert not u.flags.writeable
    with pytest.raises(ValidationError):
        unit_vector([1.0, 1.0, 0.0])
    with pytest.raises(ValidationError):
        unit_vector([1.0, 0.0])
    with pytest.raises(ValidationError):
        unit_vector([np.inf, 0.0, 0.0])


_NON_FINITE = [(bad, k) for bad in (np.nan, np.inf, -np.inf) for k in range(3)]


def _with_component(k, value):
    v = np.array([0.0, 0.0, 0.0])
    v[k] = value
    return v


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: unit_vector("abc"), "vector"),
        (lambda: unit_vector([1, 0, "x"], "axis m"), "axis m"),
        (lambda: unit_vector([1j, 0, 0], "axis n"), "axis n"),
        (lambda: unit_vector(object(), "state"), "state"),
        # numpy would cast these to float, dropping the imaginary part
        (lambda: unit_vector(np.array([0.6 + 1j, 0.8, 0.0]), "axis c"), "axis c"),
        (lambda: PureState([np.complex128(1 + 1j), 0.0, 0.0]), "state Bloch vector"),
        (lambda: HermitianOp("x", [0, 0, 0]), "operator scalar part"),
        (lambda: HermitianOp(np.complex128(0.5 + 1j), [0, 0, 0]), "operator scalar part"),
        (lambda: HermitianOp(0.5, [0, 0, "y"]), "operator vector part"),
        # a float64 array of shape (3,) skips the cast, not the finiteness test
        *[
            (lambda bad=bad, k=k: unit_vector(_with_component(k, bad)), "^vector has non-finite components$")
            for bad, k in _NON_FINITE
        ],
        *[
            (
                lambda bad=bad, k=k: HermitianOp(0.5, _with_component(k, bad)),
                "^operator vector part has non-finite components$",
            )
            for bad, k in _NON_FINITE
        ],
    ],
    ids=[
        "string",
        "string-component",
        "complex",
        "object",
        "complex-array",
        "complex-scalar",
        "operator-scalar",
        "operator-complex-scalar",
        "operator-vector",
        *[f"float64-{bad}-at-{k}" for bad, k in _NON_FINITE],
        *[f"operator-float64-{bad}-at-{k}" for bad, k in _NON_FINITE],
    ],
)
def test_non_numeric_vectors_raise_validation_error(build, name):
    with pytest.raises(ValidationError, match=name):
        build()


def test_negated_unit_is_checked_negation(rng):
    axes = [random_unit(rng) for _ in range(50)] + [X, -Y, Z, np.array([0.0, -0.8, 0.6])]
    for axis in axes:
        u = unit_vector(axis)
        negated = _negated_unit(u)
        assert negated.tobytes() == unit_vector(np.negative(u)).tobytes()
        assert not negated.flags.writeable
        with pytest.raises(ValueError):
            negated.flags.writeable = True
        assert unit_vector(negated) is negated
        assert _negated_unit(negated).tobytes() == u.tobytes()
    with pytest.raises(ValidationError):
        _negated_unit([2.0, 0.0, 0.0])


def test_unit_vector_passes_its_own_output_through():
    u = unit_vector([0.6, 0.8, 0.0])
    assert unit_vector(u) is u
    assert unit_vector(u, "another name") is u
    # every producer of an axis hands on a vector unit_vector passes through
    bloch = PureState([0.0, 0.6, 0.8]).bloch
    assert unit_vector(bloch) is bloch
    assert PureState(u).bloch is u
    selected, complement = branch(BranchHistory(PureState([0.0, 0.0, 1.0])), u)
    assert selected.nodes[0].axis is u
    assert complement.nodes[0].axis is u


def test_derived_arrays_of_a_checked_vector_are_checked_again():
    u = unit_vector([0.6, 0.8, 0.0])
    for derived in (0.5 * u, u + u, np.negative(u), -u, u[:2], np.multiply(u, 2.0)):
        assert type(derived) is np.ndarray
    assert type(u[0]) is np.float64
    for bad in (2 * u, u + u, u[:2], u.imag):
        with pytest.raises(ValidationError):
            unit_vector(bad)
    # a copy is writeable, so it is no longer the vector that was checked
    copy = u.copy()
    assert unit_vector(copy) is not copy
    copy[0] = 2.0
    with pytest.raises(ValidationError):
        unit_vector(copy)
    negated = unit_vector(np.negative(u))
    assert unit_vector(negated) is negated


def test_checked_vector_stays_read_only():
    u = unit_vector([0.6, 0.8, 0.0])
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0] = 0.0
    with pytest.raises(ValueError):
        u.flags.writeable = True
    assert u.tolist() == [0.6, 0.8, 0.0]
    source = np.array([0.0, 1.0, 0.0])
    v = unit_vector(source)
    op = HermitianOp(0.5, source)
    source[1] = 5.0
    assert v.tolist() == [0.0, 1.0, 0.0]
    assert op.b.tolist() == [0.0, 1.0, 0.0] and not op.b.flags.writeable
    # other dtypes, byte orders and strides give the same native float64 copy
    strided = np.array([0.0, 9.0, 1.0, 9.0, 0.0, 9.0])[::2]
    for other in (np.array([0, 1, 0]), np.array([0.0, 1.0, 0.0], dtype=">f8"), strided):
        checked = unit_vector(other)
        assert checked.dtype == np.float64 and checked.dtype.isnative
        assert checked.tolist() == [0.0, 1.0, 0.0]


def _array_comparison_cosine(u, v):
    # the array-comparison form cosine_between replaced, kept as the oracle
    if np.array_equal(u, v):
        return 1.0
    if np.array_equal(u, np.negative(v)):
        return -1.0
    return min(1.0, max(-1.0, float(np.dot(u, v))))


_RATIONAL_FLOAT_AXES = [np.array(nums) / den for nums, den in rational_axes()]


def _flip_zero_signs(v, flips):
    # rewrite each 0.0 or -0.0 component as +0.0 or -0.0
    return np.array([(-0.0 if flip else 0.0) if x == 0.0 else x for x, flip in zip(v.tolist(), flips)])


@settings(max_examples=400)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rational=st.sampled_from(_RATIONAL_FLOAT_AXES),
    use_rational=st.booleans(),
    relation=st.sampled_from(("same", "equal", "opposite", "other")),
    flips=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    checked=st.booleans(),
)
def test_cosine_between_matches_array_comparison_oracle(seed, rational, use_rational, relation, flips, checked):
    rng = np.random.default_rng(seed)
    u = rational if use_rational else random_unit(rng)
    v = {
        "same": u,
        "equal": u.copy(),
        "opposite": np.negative(u),
        "other": random_unit(rng),
    }[relation]
    u, v = _flip_zero_signs(u, flips[:3]), _flip_zero_signs(v, flips[3:])
    if checked:
        u, v = unit_vector(u), unit_vector(v)
    got = cosine_between(u, v)
    want = _array_comparison_cosine(u, v)
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_cosine_short_circuits_on_identical_arrays(rng):
    v = random_unit(rng)
    assert cosine_between(v, v) == 1.0
    assert cosine_between(v, -v) == -1.0
    w = random_unit(rng)
    assert abs(cosine_between(v, w) - float(np.dot(v, w))) <= 1e-15
    assert cosine_between(X, Y) == 0.0


def test_cosine_between_checks_both_arguments():
    # a 2-vector and a non-unit 3-vector are refused in either place, by name
    for bad in (np.array([1.0, 0.0]), np.array([2.0, 0.0, 0.0])):
        with pytest.raises(ValidationError, match="first vector"):
            cosine_between(bad, -bad)
        with pytest.raises(ValidationError, match="second vector"):
            cosine_between(X, bad)


def test_pure_state_and_density():
    psi = PureState(Z)
    # the density matrix (1 + s.sigma)/2 of a pure state is the projector on s
    assert projector(psi.bloch) == HermitianOp(0.5, Z / 2)
    with pytest.raises(ValidationError):
        PureState([0.0, 0.0, 2.0])


def test_hermitian_op_basics():
    op = HermitianOp(0.3, [0.1, 0.2, 0.2])
    low, high = op.eigenvalues
    assert low == 0.3 - op.b_norm and high == 0.3 + op.b_norm
    ident = HermitianOp(1.0, np.zeros(3))
    assert ident.a == 1.0 and ident.b_norm == 0.0
    scaled = 2.0 * op
    assert scaled.a == 0.6
    total = op + op
    np.testing.assert_array_equal(total.b, 2 * op.b)
    assert (op + -1.0 * op).b_norm == 0.0
    assert op == HermitianOp(0.3, [0.1, 0.2, 0.2])
    assert ops_close(op, HermitianOp(0.3 + 1e-14, [0.1, 0.2, 0.2]), tol=1e-12)


# ---------------------------------------------------------------------------
# projector
# ---------------------------------------------------------------------------


def test_projector_examples():
    p = projector(Z)
    assert p.a == 0.5
    np.testing.assert_array_equal(p.b, np.array([0.0, 0.0, 0.5]))
    assert p.eigenvalues == (0.0, 1.0)
    with pytest.raises(ValidationError):
        projector([0.0, 0.0, 0.9])


def test_opposite_projectors_annihilate(rng):
    # the product P_m P_(-m) vanishes, so its expectation is 0 in every state
    for _ in range(20):
        m = random_unit(rng)
        s = random_unit(rng)
        squeezed = sandwich(m, -m)
        assert abs(expectation(PureState(s), squeezed)) <= 1e-15
        matrix = oracle.projector_matrix(m) @ oracle.projector_matrix(-m)
        assert abs(oracle.expectation_matrix(s, matrix)) <= 1e-15


# ---------------------------------------------------------------------------
# expectation
# ---------------------------------------------------------------------------


def test_expectation_examples():
    psi = PureState(Z)
    assert expectation(psi, projector(Z)) == 1.0
    assert expectation(psi, projector(X)) == 0.5
    tilted = np.array([0.8, 0.0, 0.6])  # s.m = 0.6 against the z state
    assert expectation(psi, projector(tilted)) == 0.8


def test_expectation_matches_matrix_oracle(rng):
    for _ in range(50):
        s, m = random_unit(rng), random_unit(rng)
        got = expectation(PureState(s), projector(m))
        want = oracle.expectation_matrix(s, oracle.projector_matrix(m))
        assert abs(got - want) <= 1e-14


def test_completeness_of_opposite_projectors(rng):
    for _ in range(50):
        s, m = random_unit(rng), random_unit(rng)
        psi = PureState(s)
        total = expectation(psi, projector(m)) + expectation(psi, projector(-m))
        assert abs(total - 1.0) <= 1e-15


# ---------------------------------------------------------------------------
# sandwich
# ---------------------------------------------------------------------------


def test_sandwich_examples():
    assert ops_close(sandwich(X, X), projector(X), tol=1e-15)
    half = sandwich(X, Y)
    assert ops_close(half, 0.5 * projector(X), tol=1e-15)
    zero = sandwich(X, -X)
    assert abs(zero.a) <= 1e-15 and zero.b_norm <= 1e-15
    with pytest.raises(ValidationError, match="outer axis must be a unit vector"):
        sandwich([0.0, 0.0, 0.9], X)
    # an operator is not an axis, even when it is a projector
    with pytest.raises(ValidationError, match="inner axis must be a real 3-vector"):
        sandwich(X, projector(X))


def test_sandwich_closed_form_and_matrix_oracle(rng):
    for _ in range(200):
        n, m = random_unit(rng), random_unit(rng)
        got = sandwich(n, m)
        coefficient = 0.5 * (1.0 + float(np.dot(n, m)))
        assert ops_close(got, coefficient * projector(n), tol=1e-12)
        a, b = oracle.bloch_decompose(
            oracle.sandwich_matrix(oracle.projector_matrix(n), oracle.projector_matrix(m))
        )
        assert abs(got.a - a) <= 1e-13
        assert float(np.max(np.abs(got.b - b))) <= 1e-13


def test_sandwich_coefficient_symmetry(rng):
    for _ in range(50):
        n, m = random_unit(rng), random_unit(rng)
        bab = sandwich(n, m)
        aba = sandwich(m, n)
        assert abs(2.0 * bab.a - 2.0 * aba.a) <= 1e-14


# ---------------------------------------------------------------------------
# conditional expectation
# ---------------------------------------------------------------------------


def test_conditional_expectation_examples():
    psi = PureState(Z)
    assert conditional_expectation(psi, X, X) == 1.0
    assert abs(conditional_expectation(psi, Y, X) - 0.5) <= 1e-15
    with pytest.raises(ReductionUndefinedError):
        conditional_expectation(psi, X, -Z)


def test_conditional_expectation_state_independent(rng):
    n, m = random_unit(rng), random_unit(rng)
    want = 0.5 * (1.0 + float(np.dot(n, m)))
    for _ in range(50):
        s = random_unit(rng)
        if 1.0 + float(np.dot(n, s)) <= 1e-6:
            continue
        got = conditional_expectation(PureState(s), m, n)
        assert abs(got - want) <= 1e-12


def test_conditional_expectation_swap_symmetry_and_oracle(rng):
    for _ in range(50):
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        psi = PureState(s)
        forward = conditional_expectation(psi, m, n)
        swapped = conditional_expectation(psi, n, m)
        assert abs(forward - swapped) <= 1e-12
        assert abs(forward - oracle.conditional_matrix(s, m, n)) <= 1e-12


def test_conditional_expectation_identities_are_exact():
    # identical axes give certainty and opposite ones impossibility, bit for bit
    rng = np.random.default_rng(15)
    for _ in range(1000):
        n = random_unit(rng)
        psi = PureState(n)
        assert conditional_expectation(psi, n, n) == 1.0
        assert conditional_expectation(psi, -n, n) == 0.0


def test_conditional_expectation_is_the_reduced_state_expectation_bit_for_bit():
    # the closed form gives the bits of <A> in the reduced state n, 1/2 + (m/2).n
    rng = np.random.default_rng(16)
    for _ in range(2000):
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(n, s)) <= 1e-6:
            continue
        assert conditional_expectation(PureState(s), m, n) == 0.5 + float(np.dot(0.5 * m, n))


# ---------------------------------------------------------------------------
# chain probability
# ---------------------------------------------------------------------------


def test_chain_probability_examples():
    psi = PureState(Z)
    assert chain_probability(psi, [Z]) == 1.0
    # frozen from the explicit matrix oracle: Tr[P_z P_x rho P_x P_z] chain = 1/4
    got = chain_probability(psi, [X, Z])
    assert got == 0.25
    assert abs(oracle.chain_probability_matrix(Z, [X, Z]) - 0.25) <= 1e-15
    # |n| - 1 = 1.6e-9 is outside the unit-vector tolerance
    with pytest.raises(ValidationError, match=r"axes\[1\] must be a unit vector"):
        chain_probability(psi, [X, [1.0 + 1.6e-9, 0.0, 0.0]])


def test_chain_probability_idempotent_step(rng):
    for _ in range(20):
        s, n = random_unit(rng), random_unit(rng)
        single = chain_probability(PureState(s), [n])
        repeated = chain_probability(PureState(s), [n, n])
        assert repeated == single


def test_near_unit_axis_rejected_by_every_axis_entry_point():
    # |near| - 1 = 1.6e-9 is outside the unit-vector tolerance
    near = [1.0 + 1.6e-9, 0.0, 0.0]
    psi = PureState(X)
    calls = [
        lambda: conditional_expectation(psi, Y, near),
        lambda: conditional_expectation(psi, near, Y),
        lambda: sandwich(near, Y),
        lambda: sandwich(Y, near),
        lambda: chain_probability(psi, [near]),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="must be a unit vector"):
            call()


def test_chain_probability_orthogonal_reports_index():
    psi = PureState(Z)
    with pytest.raises(ReductionUndefinedError) as err:
        chain_probability(psi, [X, -X])
    assert err.value.index == 1


def test_chain_probability_matches_matrix_oracle(rng):
    for _ in range(30):
        s = random_unit(rng)
        axes = [random_unit(rng) for _ in range(3)]
        got = chain_probability(PureState(s), axes)
        want = oracle.chain_probability_matrix(s, axes)
        assert abs(got - want) <= 1e-12
