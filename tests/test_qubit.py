import struct
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab import (
    BranchHistory,
    BranchNode,
    HermitianOp,
    PureState,
    ReductionUndefinedError,
    ScenarioConfig,
    ValidationError,
    bell_value,
    branch,
    branch_records,
    chain_probability,
    conditional_expectation,
    constant,
    cosine_between,
    disagreement_witness,
    emit_trace,
    expectation,
    integrate_in_order,
    joint_function,
    projector,
    qubit,
    repeated_measurement_check,
    run_scenario,
    sandwich,
    sequence_probability,
    unit_vector,
)

import matrix_oracle as oracle
from monte_carlo import mc_integrate
from conftest import X, Y, Z, random_unit, rational_axes


def ops_close(op: HermitianOp, other: HermitianOp, tol: float) -> bool:
    return abs(op.a - other.a) <= tol and float(np.max(np.abs(np.asarray(op.b) - np.asarray(other.b)))) <= tol


# ---------------------------------------------------------------------------
# vectors, states, operators
# ---------------------------------------------------------------------------


def test_unit_vector_validation():
    u = unit_vector([1.0, 0.0, 0.0])
    with pytest.raises(TypeError):
        u[0] = 0.0
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
        # a float64 array of shape (3,) meets the finiteness test as a list does
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
        # None where a sequence, a history or a state belongs
        (
            lambda: sequence_probability(PureState(Z), None, ("selected",)),
            "^axes and pattern must be sequences, got NoneType and tuple$",
        ),
        (
            lambda: sequence_probability(PureState(Z), [X], None),
            "^axes and pattern must be sequences, got list and NoneType$",
        ),
        (lambda: branch(None, X), "^history must be a BranchHistory, got NoneType$"),
        (lambda: repeated_measurement_check(None, X), "^psi must be a PureState, got NoneType$"),
        # None or a plain array where a package object belongs
        (lambda: bell_value(None, X), "^psi must be a PureState, got NoneType$"),
        (lambda: expectation(Z, projector(X)), "^psi must be a PureState, got ndarray$"),
        (lambda: expectation(PureState(Z), None), "^observable must be a HermitianOp, got NoneType$"),
        (lambda: disagreement_witness(constant(1.0), Z), "^rhs must be a StepFunction, got ndarray$"),
        (lambda: joint_function(None), "^history must be a BranchHistory, got NoneType$"),
        (lambda: integrate_in_order(Z, [1]), "^history must be a BranchHistory, got ndarray$"),
        (lambda: branch_records(Z), "^history must be a BranchHistory, got ndarray$"),
        (
            lambda: mc_integrate(None, 10, np.random.default_rng(0)),
            "^fn must be a StepFunction or ProductFunction, got NoneType$",
        ),
        (lambda: run_scenario(None), "^config must be a ScenarioConfig, got NoneType$"),
        # raised before any directory is made
        (lambda: emit_trace(Z, "unused"), "^config must be a ScenarioConfig, got ndarray$"),
        # refused also where the scenario has no traces to write
        (lambda: emit_trace(ScenarioConfig("sweep"), None), "^out_dir must be a str or PathLike, got NoneType$"),
        # an object with a .bloch attribute is not a state: its vector was never checked
        (
            lambda: bell_value(SimpleNamespace(bloch=np.array([2.0, 0, 0])), X),
            "^psi must be a PureState, got SimpleNamespace$",
        ),
        (
            lambda: chain_probability(SimpleNamespace(bloch=np.array([2.0, 0, 0])), [X]),
            "^psi must be a PureState, got SimpleNamespace$",
        ),
        (lambda: BranchNode(X, "selected", None), "^level_function must be a StepFunction, got NoneType$"),
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
        "sequence-probability-axes-none",
        "sequence-probability-pattern-none",
        "branch-history-none",
        "repeated-measurement-state-none",
        "bell-value-state-none",
        "expectation-state-array",
        "expectation-observable-none",
        "disagreement-witness-side-array",
        "joint-function-history-none",
        "integrate-in-order-history-array",
        "branch-records-history-array",
        "mc-integrate-function-none",
        "run-scenario-config-none",
        "emit-trace-config-array",
        "emit-trace-out-dir-none-without-traces",
        "bell-value-state-with-bloch",
        "chain-probability-state-with-bloch",
        "branch-node-level-function-none",
    ],
)
def test_non_numeric_vectors_raise_validation_error(build, name):
    with pytest.raises(ValidationError, match=name):
        build()


def test_complement_prepares_the_checked_negation(rng):
    axes = [random_unit(rng) for _ in range(50)] + [X, -Y, Z, np.array([0.0, -0.8, 0.6])]
    for axis in axes:
        _, complement = branch(BranchHistory(PureState(Z)), axis)
        node = complement.nodes[0]
        bloch = node.prepared_state.bloch
        negated = unit_vector(np.negative(np.asarray(node.axis)))
        assert np.asarray(bloch).tobytes() == np.asarray(negated).tobytes()
        assert unit_vector(bloch) is bloch


def test_checked_axis_and_operator_vector_are_immutable_float_triples(rng):
    u, v = unit_vector([0.6, 0.8, 0.0]), unit_vector(random_unit(rng))
    op = HermitianOp(0.5, [0.1, 0.2, 0.3])
    for triple in (u, op.b):
        assert isinstance(triple, tuple) and len(triple) == 3
        assert all(type(x) is float for x in triple)
        with pytest.raises(TypeError):
            triple[0] = 0.0
    with pytest.raises(AttributeError):
        op.b = (0.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        PureState(u).bloch = v


def test_checked_axis_neither_repeats_nor_concatenates():
    u, v = unit_vector([0.6, 0.8, 0.0]), unit_vector([0.0, 0.6, 0.8])
    b = HermitianOp(0.5, [0.1, 0.2, 0.3]).b
    for triple in (u, b):
        for attempt in (
            lambda: 2 * triple,
            lambda: triple * 2,
            lambda: 2.0 * triple,
            lambda: triple * 2.0,
            lambda: triple + v,
            lambda: v + triple,
            lambda: triple + np.asarray(v),
            lambda: triple + (1.0,),
            lambda: (1.0,) + triple,
        ):
            with pytest.raises(TypeError):
                attempt()


def test_numpy_arithmetic_on_a_triple_raises():
    # numpy would convert the triple on the right of an array or numpy scalar
    u = unit_vector([0.6, 0.8, 0.0])
    op = HermitianOp(0.5, [0.1, 0.2, 0.3])
    for attempt in (lambda: np.zeros(3) + op.b, lambda: np.asarray(u) + u, lambda: np.float64(2.0) * u):
        with pytest.raises(TypeError):
            attempt()


def test_checked_axis_matmul_is_the_fixed_order_dot_product(rng):
    for _ in range(50):
        u, v = unit_vector(random_unit(rng)), unit_vector(random_unit(rng))
        assert struct.pack("<d", u @ v) == struct.pack("<d", qubit._dot3(u, v))
        assert type(u @ v) is float
    # the bench's workload test writes state @ axis on the config's vectors
    config = ScenarioConfig("route_agreement", state=Z, axes={"n": X, "m": Y})
    assert config.state @ config.axis("n") == 0.0


@pytest.mark.parametrize(
    "given",
    [
        np.array([0.6, 0.8, 0.0]),
        [0.0, -0.6, 0.8],
        [-0.0, -0.0, -1.0],
        np.array([0, 1, 0]),
        np.array([0.0, 1.0, 0.0], dtype=">f8"),
        np.array([1.0 + 5e-10, 0.0, 0.0]),
        (0.36, 0.48, 0.8),
    ],
    ids=["float64-array", "list", "negative-zeros", "int-array", "big-endian", "in-tolerance", "tuple"],
)
def test_asarray_of_a_checked_axis_is_the_float64_copy_bit_for_bit(given):
    # the array unit_vector returned before axes became triples: np.array(given) cast to float64
    want = np.array(given).astype(np.float64)
    got = np.asarray(unit_vector(given))
    assert got.dtype == np.float64 and got.dtype.isnative and got.shape == (3,)
    assert got.tobytes() == want.astype("<f8").tobytes()


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


def _unit_vector_outcome(v):
    # the returned bits, or the error's type and message
    try:
        u = unit_vector(v, "axis")
    except ValidationError as exc:
        return type(exc), str(exc)
    return type(u), np.asarray(u).dtype, np.asarray(u).tobytes()


_ACCEPT_PATH_CASES = {
    "in-tolerance": [0.6, 0.8, 0.0],
    "in-tolerance-1-plus-5e-10": [1.0 + 5e-10, 0.0, 0.0],
    "in-tolerance-1-minus-5e-10": [0.0, 1.0 - 5e-10, 0.0],
    "norm-1-plus-2e-9": [1.0 + 2e-9, 0.0, 0.0],
    "norm-1-minus-2e-9": [0.0, 0.0, 1.0 - 2e-9],
    **{f"{bad}-at-{k}": _with_component(k, bad).tolist() for bad, k in _NON_FINITE},
    **{f"{bad}-at-{k}-beside-0.6-0.8": [0.6, 0.8][:k] + [bad] + [0.6, 0.8][k:] for bad, k in _NON_FINITE},
    "overflowing": [1e200, 0.0, 0.0],
    "underflowing": [1e-160, 0.0, 0.0],
    "negative-zeros": [-0.0, -0.6, 0.8],
    "negative-zeros-only-one-nonzero": [-0.0, -0.0, -1.0],
}


@pytest.mark.parametrize("components", _ACCEPT_PATH_CASES.values(), ids=_ACCEPT_PATH_CASES.keys())
def test_float64_arrays_match_the_full_check(components):
    # a float64 array of shape (3,) and a list both take _vector3's full check
    array = np.array(components)
    assert array.dtype == np.float64
    assert _unit_vector_outcome(array) == _unit_vector_outcome(list(components))
    assert _unit_vector_outcome(array[::-1].copy()) == _unit_vector_outcome(list(components)[::-1])


def test_float_tuples_within_tolerance_skip_the_full_check(monkeypatch, rng):
    # a plain tuple of three exact floats is the one input accepted after one
    # norm test; any other input, and such a tuple that fails it, meets _vector3
    calls = []
    full_check = qubit._vector3

    def counted(v, name):
        calls.append(name)
        return full_check(v, name)

    monkeypatch.setattr(qubit, "_vector3", counted)
    for v in [random_unit(rng) for _ in range(20)] + [X, np.array([1.0 + 5e-10, 0.0, 0.0])]:
        unit_vector(tuple(v.tolist()))
    assert calls == []
    for v in ((1.0 + 2e-9, 0.0, 0.0), (np.nan, 0.0, 0.0), (1e200, 0.0, 0.0)):
        with pytest.raises(ValidationError):
            unit_vector(v)
    assert len(calls) == 3
    del calls[:]
    for v in (X.copy(), [1.0, 0.0, 0.0], (np.float64(1.0), 0.0, 0.0), (1, 0.0, 0.0)):
        unit_vector(v)
    assert len(calls) == 4
    # no norm near 1 sits exactly 1e-9 from it (1e-9 needs 82 fraction bits), so
    # the boundary is tested at a tolerance one norm can meet: it is accepted there
    # on the one-pass path, as the full check's ``> tolerance`` test accepts it
    monkeypatch.setattr(qubit, "UNIT_TOLERANCE", 2.0**-50)
    at_boundary = (1.0 + 2.0**-50, 0.0, 0.0)
    assert np.sqrt(np.dot(at_boundary, at_boundary)) - 1.0 == 2.0**-50
    del calls[:]
    assert np.asarray(unit_vector(at_boundary)).tobytes() == np.array(at_boundary).tobytes()
    assert calls == []
    assert np.asarray(unit_vector(list(at_boundary))).tobytes() == np.array(at_boundary).tobytes()
    assert calls == ["vector"]


def _rows_outcome(build):
    # the type of each axis and the bits of all components, or the error's type and message
    try:
        axes = build()
    except ValidationError as exc:
        return type(exc), str(exc)
    return [type(u) for u in axes], np.fromiter(chain.from_iterable(axes), float, 3 * len(axes)).tobytes()


def _seeded_unit_rows(count):
    rows = np.random.default_rng(23).normal(size=(count, 3))
    return rows / np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, np.newaxis]


def _with_row(row, at=2, count=5):
    rows = _seeded_unit_rows(count)
    rows[at] = row
    return rows


_UNIT_ROW_BLOCKS = {
    "seeded-1e5": _seeded_unit_rows(10**5),
    "seeded-scaled-within-tolerance": _seeded_unit_rows(1000) * np.linspace(1 - 9e-10, 1 + 9e-10, 1000)[:, np.newaxis],
    "empty": np.zeros((0, 3)),
    "one-row": np.array([[0.6, 0.8, 0.0]]),
    "norm-1-plus-2e-9": _with_row([1.0 + 2e-9, 0.0, 0.0]),
    "norm-1-minus-2e-9": _with_row([0.0, 0.0, 1.0 - 2e-9]),
    "norm-1-plus-2e-9-last-of-1000": _with_row([0.0, 1.0 + 2e-9, 0.0], at=999, count=1000),
    "two-failing-rows": np.array([[0.6, 0.8, 0.0], [1.0 + 2e-9, 0.0, 0.0], [np.nan, 0.0, 0.0]]),
    **{f"{bad}-at-{k}": _with_row(_with_component(k, bad)) for bad, k in _NON_FINITE},
    "overflowing": _with_row([1e200, 0.0, 0.0]),
    "underflowing": _with_row([1e-160, 0.0, 0.0]),
    "signed-zeros": np.array([[-0.0, -0.6, 0.8], [0.0, -0.0, 1.0], [-0.0, -0.0, -1.0], [0.6, -0.0, -0.8]]),
}


@pytest.mark.parametrize("rows", _UNIT_ROW_BLOCKS.values(), ids=_UNIT_ROW_BLOCKS.keys())
def test_unit_rows_match_unit_vector_row_by_row(monkeypatch, rows):
    # each row, as a tuple of floats, goes through unit_vector; the block is tested at once
    # and goes through unit_vector only when a row fails the test
    expected = _rows_outcome(lambda: [unit_vector(tuple(row), "axis") for row in rows.tolist()])
    calls = []

    def counted(v, name="vector"):
        calls.append(name)
        return unit_vector(v, name)

    monkeypatch.setattr(qubit, "unit_vector", counted)
    assert _rows_outcome(lambda: qubit._unit_rows(rows, "axis")) == expected
    assert (calls == []) == (expected[0] is not ValidationError)


@pytest.mark.parametrize("given", [np.array([0.6, 0.8, 0.0]), [0.6, 0.8, 0.0]], ids=["float64-array", "list"])
def test_checked_vector_and_its_base_reject_writes(given):
    u = unit_vector(given)
    # a tuple of three floats: no item can be set, and it shares no memory with the input
    assert isinstance(u, tuple)
    with pytest.raises(TypeError, match="does not support item assignment"):
        u[0] = 0.0
    assert not np.shares_memory(np.asarray(u), given)
    given[0] = 2.0
    assert list(u) == [0.6, 0.8, 0.0]


def test_derived_arrays_of_a_checked_vector_are_checked_again():
    u = unit_vector([0.6, 0.8, 0.0])
    array = np.asarray(u)
    for derived in (0.5 * array, np.negative(array), np.multiply(array, 2.0)):
        assert type(derived) is np.ndarray
    assert type(u[:2]) is tuple and type(u[0]) is float
    for bad in (np.multiply(array, 2.0), u[:2], array.imag):
        with pytest.raises(ValidationError):
            unit_vector(bad)
    # a plain copy is not the vector that was checked, so it is checked again
    copy = tuple(u)
    assert unit_vector(copy) is not copy and unit_vector(copy) == u
    copy = list(u)
    copy[0] = 2.0
    with pytest.raises(ValidationError):
        unit_vector(copy)
    negated = unit_vector(np.negative(array))
    assert unit_vector(negated) is negated


def test_checked_vector_stays_read_only():
    u = unit_vector([0.6, 0.8, 0.0])
    with pytest.raises(TypeError):
        u[0] = 0.0
    with pytest.raises(AttributeError):
        u.x = 0.0
    assert list(u) == [0.6, 0.8, 0.0]
    source = np.array([0.0, 1.0, 0.0])
    v = unit_vector(source)
    op = HermitianOp(0.5, source)
    source[1] = 5.0
    assert list(v) == [0.0, 1.0, 0.0]
    assert list(op.b) == [0.0, 1.0, 0.0]
    with pytest.raises(TypeError):
        op.b[1] = 5.0
    # other dtypes, byte orders and strides give the same Python floats
    strided = np.array([0.0, 9.0, 1.0, 9.0, 0.0, 9.0])[::2]
    for other in (np.array([0, 1, 0]), np.array([0.0, 1.0, 0.0], dtype=">f8"), strided):
        checked = unit_vector(other)
        assert all(type(x) is float for x in checked)
        assert list(checked) == [0.0, 1.0, 0.0]


def _array_comparison_cosine(u, v):
    # the array-comparison form cosine_between replaced, kept as the oracle;
    # the dot product is written out in the fixed order cosine_between uses
    if np.array_equal(u, v):
        return 1.0
    if np.array_equal(u, np.negative(np.asarray(v))):
        return -1.0
    (u0, u1, u2), (v0, v1, v2) = np.asarray(u).tolist(), np.asarray(v).tolist()
    return min(1.0, max(-1.0, (u0 * v0 + u1 * v1) + u2 * v2))


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
    np.testing.assert_array_equal(total.b, 2 * np.asarray(op.b))
    assert (op + -1.0 * op).b_norm == 0.0
    assert op == HermitianOp(0.3, [0.1, 0.2, 0.2])
    assert ops_close(op, HermitianOp(0.3 + 1e-14, [0.1, 0.2, 0.2]), tol=1e-12)


def test_hermitian_op_scalar_product_refuses_a_bool():
    # a bool is refused as a str is: __mul__ returns NotImplemented
    op = projector(X)
    assert op * 2 == 2.0 * op == HermitianOp(1.0, [1.0, 0.0, 0.0])
    for scalar in (True, False, "2"):
        assert op.__mul__(scalar) is NotImplemented
    for attempt in (lambda: op * True, lambda: False * op):
        with pytest.raises(TypeError):
            attempt()


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
        assert float(np.max(np.abs(np.asarray(got.b) - b))) <= 1e-13


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
        (a0, a1, a2), (b0, b1, b2) = (0.5 * m).tolist(), n.tolist()
        assert conditional_expectation(PureState(s), m, n) == 0.5 + ((a0 * b0 + a1 * b1) + a2 * b2)


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


def test_chain_probability_names_only_an_unchecked_axis(monkeypatch):
    # a checked axis is used as it is, so its error name is never built
    psi, checked = PureState(Z), [unit_vector(X), unit_vector(Z)]
    names = []
    full_check = qubit.unit_vector

    def counted(v, name="vector"):
        names.append(name)
        return full_check(v, name)

    monkeypatch.setattr(qubit, "unit_vector", counted)
    assert chain_probability(psi, [*checked, Y]) == 0.125  # three orthogonal steps of 1/2
    assert names == ["axes[2]"]


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
