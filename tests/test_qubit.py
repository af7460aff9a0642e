import numpy as np
import pytest

from hvlab import (
    HermitianOp,
    PureState,
    ReductionUndefinedError,
    ValidationError,
    chain_probability,
    conditional_expectation,
    cosine_between,
    expectation,
    projector,
    reduce_state,
    sandwich,
    unit_vector,
)

import matrix_oracle as oracle
from conftest import X, Y, Z, random_unit


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


def test_cosine_short_circuits_on_identical_arrays(rng):
    v = random_unit(rng)
    assert cosine_between(v, v) == 1.0
    assert cosine_between(v, -v) == -1.0
    w = random_unit(rng)
    assert abs(cosine_between(v, w) - float(np.dot(v, w))) <= 1e-15
    assert cosine_between(X, Y) == 0.0


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
    assert not op.is_projector
    with pytest.raises(ValidationError):
        op.axis
    ident = HermitianOp.identity()
    assert ident.a == 1.0 and ident.b_norm == 0.0
    scaled = 2.0 * op
    assert scaled.a == 0.6
    total = op + op
    np.testing.assert_array_equal(total.b, 2 * op.b)
    assert (op - op).b_norm == 0.0
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
        squeezed = sandwich(projector(m), projector(-m))
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
    p_n = projector(X)
    assert ops_close(sandwich(p_n, p_n), p_n, tol=1e-15)
    half = sandwich(projector(X), projector(Y))
    assert ops_close(half, 0.5 * projector(X), tol=1e-15)
    zero = sandwich(projector(X), projector(-X))
    assert abs(zero.a) <= 1e-15 and zero.b_norm <= 1e-15
    with pytest.raises(ValidationError):
        sandwich(HermitianOp(1.0, [0.0, 0.0, 0.0]), p_n)


def test_sandwich_closed_form_and_matrix_oracle(rng):
    for _ in range(200):
        n, m = random_unit(rng), random_unit(rng)
        got = sandwich(projector(n), projector(m))
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
        bab = sandwich(projector(n), projector(m))
        aba = sandwich(projector(m), projector(n))
        assert abs(2.0 * bab.a - 2.0 * aba.a) <= 1e-14


# ---------------------------------------------------------------------------
# reduce_state
# ---------------------------------------------------------------------------


def test_reduce_examples():
    psi = PureState(Z)
    assert reduce_state(psi, projector(Z)) == psi
    assert reduce_state(psi, projector(X)) == PureState(X)
    with pytest.raises(ReductionUndefinedError):
        reduce_state(psi, projector(-Z))


def test_reduce_is_idempotent(rng):
    for _ in range(20):
        s, n = random_unit(rng), random_unit(rng)
        psi = PureState(s)
        once = reduce_state(psi, projector(n))
        twice = reduce_state(once, projector(n))
        assert once == twice


# ---------------------------------------------------------------------------
# conditional expectation
# ---------------------------------------------------------------------------


def test_conditional_expectation_examples():
    psi = PureState(Z)
    assert conditional_expectation(psi, projector(X), projector(X)) == 1.0
    assert abs(conditional_expectation(psi, projector(Y), projector(X)) - 0.5) <= 1e-15
    with pytest.raises(ReductionUndefinedError):
        conditional_expectation(psi, projector(X), projector(-Z))


def test_conditional_expectation_state_independent(rng):
    n, m = random_unit(rng), random_unit(rng)
    want = 0.5 * (1.0 + float(np.dot(n, m)))
    for _ in range(50):
        s = random_unit(rng)
        if 1.0 + float(np.dot(n, s)) <= 1e-6:
            continue
        got = conditional_expectation(PureState(s), projector(m), projector(n))
        assert abs(got - want) <= 1e-12


def test_conditional_expectation_swap_symmetry_and_oracle(rng):
    for _ in range(50):
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        psi = PureState(s)
        forward = conditional_expectation(psi, projector(m), projector(n))
        swapped = conditional_expectation(psi, projector(n), projector(m))
        assert abs(forward - swapped) <= 1e-12
        assert abs(forward - oracle.conditional_matrix(s, m, n)) <= 1e-12


# ---------------------------------------------------------------------------
# chain probability
# ---------------------------------------------------------------------------


def test_chain_probability_examples():
    psi = PureState(Z)
    assert chain_probability(psi, [projector(Z)]) == 1.0
    # frozen from the explicit matrix oracle: Tr[P_z P_x rho P_x P_z] chain = 1/4
    got = chain_probability(psi, [projector(X), projector(Z)])
    assert got == 0.25
    assert abs(oracle.chain_probability_matrix(Z, [X, Z]) - 0.25) <= 1e-15


def test_chain_probability_idempotent_step(rng):
    for _ in range(20):
        s, n = random_unit(rng), random_unit(rng)
        single = chain_probability(PureState(s), [projector(n)])
        repeated = chain_probability(PureState(s), [projector(n), projector(n)])
        assert repeated == single


def test_near_projector_rejected_by_every_entry_point():
    # |2b| - 1 = 1.6e-9 is outside the unit-vector tolerance PureState holds the axis to
    near = HermitianOp(0.5, [0.5 + 0.8e-9, 0.0, 0.0])
    assert not near.is_projector
    psi = PureState(X)
    calls = [
        lambda: conditional_expectation(psi, projector(Y), near),
        lambda: conditional_expectation(psi, near, projector(Y)),
        lambda: reduce_state(psi, near),
        lambda: chain_probability(psi, [near]),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="must be a projector"):
            call()


def test_chain_probability_orthogonal_reports_index():
    psi = PureState(Z)
    with pytest.raises(ReductionUndefinedError) as err:
        chain_probability(psi, [projector(X), projector(-X)])
    assert err.value.index == 1


def test_chain_probability_matches_matrix_oracle(rng):
    for _ in range(30):
        s = random_unit(rng)
        axes = [random_unit(rng) for _ in range(3)]
        got = chain_probability(PureState(s), [projector(a) for a in axes])
        want = oracle.chain_probability_matrix(s, axes)
        assert abs(got - want) <= 1e-12
