import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab import (
    ProductFunction,
    StepFunction,
    ValidationError,
    constant,
    indicator_from_sign,
)

from monte_carlo import mc_integrate

# midpoints of 10^4 uniform cells: Riemann oracle with error <= (#breaks)/10^4
_CELLS = np.linspace(-0.5, 0.5, 10_001)
GRID = 0.5 * (_CELLS[:-1] + _CELLS[1:])


def closed_form_indicator(omega, threshold, polarity):
    """Direct evaluation of (1/2)[1 + sign(omega + threshold) * polarity], sign(0) = +1."""
    signs = np.where(np.asarray(omega) + threshold >= 0.0, 1.0, -1.0)
    return 0.5 * (1.0 + signs * polarity)


def grid_measure(fn) -> float:
    return float(np.mean(fn(GRID)))


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------


def test_canonical_merges_equal_adjacent_values():
    f = StepFunction((-0.25, 0.0, 0.25), (1.0, 1.0, 2.0, 2.0))
    assert f.breakpoints == (0.0,)
    assert f.values == (1.0, 2.0)


def test_construction_validation():
    with pytest.raises(ValidationError):
        StepFunction((0.1,), (1.0,))  # length mismatch
    with pytest.raises(ValidationError):
        StepFunction((0.2, 0.1), (1.0, 2.0, 3.0))  # not increasing
    with pytest.raises(ValidationError):
        StepFunction((0.1, 0.1), (1.0, 2.0, 3.0))  # duplicate
    with pytest.raises(ValidationError):
        StepFunction((0.5,), (1.0, 2.0))  # breakpoint on the boundary
    with pytest.raises(ValidationError):
        StepFunction((-0.6,), (1.0, 2.0))  # outside the interval
    with pytest.raises(ValidationError):
        StepFunction((), (math.nan,))


@pytest.mark.parametrize(
    "breakpoints, values, message",
    [
        ((math.nan,), (1.0, 2.0), "breakpoint nan outside open interval"),
        ((-0.1, math.nan, 0.2), (1.0, 2.0, 3.0, 4.0), "breakpoint nan outside open interval"),
        ((math.inf,), (1.0, 2.0), "breakpoint inf outside open interval"),
        ((0.1, 0.6), (1.0, 2.0, 3.0), "breakpoint 0.6 outside open interval"),
        ((-0.5,), (1.0, 2.0), "breakpoint -0.5 outside open interval"),
        # the range is checked before the order
        ((0.2, 0.1, 0.7), (1.0, 2.0, 3.0, 4.0), "breakpoint 0.7 outside open interval"),
        ((0.2, 0.1), (1.0, 2.0, 3.0), "breakpoints must be strictly increasing"),
        ((-0.1, 0.3, 0.2), (1.0, 2.0, 3.0, 4.0), "breakpoints must be strictly increasing"),
        ((0.1, 0.1), (1.0, 2.0, 3.0), "breakpoints must be strictly increasing"),
        ((0.1,), (1.0, math.inf), "non-finite segment value inf"),
        ((0.1,), (-math.inf, math.nan), "non-finite segment value -inf"),
        ((), (math.nan,), "non-finite segment value nan"),
        ((0.1,), (1.0,), "need exactly one more value than breakpoints"),
    ],
)
def test_construction_errors_keep_their_messages(breakpoints, values, message):
    with pytest.raises(ValidationError, match=f"^{message}"):
        StepFunction(breakpoints, values)


_HALF = StepFunction((0.0,), (0.0, 1.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StepFunction(["a"], [0, 1]), "breakpoints and values must be real numbers"),
        (lambda: StepFunction((), [None]), "breakpoints and values must be real numbers"),
        (lambda: _HALF("x"), "omega must be real"),
        (lambda: _HALF(["x"]), "omega must be real"),
        # float() would take these with only a ComplexWarning and drop the imaginary part
        (lambda: StepFunction((), [np.complex128(1 + 1j)]), "breakpoints and values must be real numbers"),
        (lambda: StepFunction([np.complex64(0.1)], [0, 1]), "breakpoints and values must be real numbers"),
        (lambda: _HALF(np.complex128(0.1 + 1j)), "omega must be real"),
        (lambda: _HALF(np.array([0.1 + 1j])), "omega must be real"),
        # one complex among exact floats is still scanned for
        (
            lambda: StepFunction((-0.2,), (0.0, np.complex128(1.0))),
            "breakpoints and values must be real numbers",
        ),
    ],
)
def test_non_numeric_input_is_a_validation_error(call, message):
    with pytest.raises(ValidationError, match=f"^{message}: "):
        call()


class _Float(float):
    pass


_STORED_AS_FLOAT = {
    "float": ((-0.2, 0.25), (0.0, 1.0, 2.5), (-0.2, 0.25), (0.0, 1.0, 2.5)),
    "float-merged": ((-0.2, 0.25), (1.0, 1.0, 2.5), (0.25,), (1.0, 2.5)),
    "float-subclass": ((_Float(-0.2),), (_Float(0.0), _Float(1.0)), (-0.2,), (0.0, 1.0)),
    "float64": ((np.float64(-0.2),), (np.float64(0.0), np.float64(1.0)), (-0.2,), (0.0, 1.0)),
    "float-and-float64": ((-0.2,), (0.0, np.float64(1.0)), (-0.2,), (0.0, 1.0)),
    "float64-int-and-float": ((np.float64(0.1),), (1, 2.0), (0.1,), (1.0, 2.0)),
    "float32": ((np.float32(0.1),), (0.0, 1.0), (float(np.float32(0.1)),), (0.0, 1.0)),
    "int": ((0,), (0, 1), (0.0,), (0.0, 1.0)),
    "numpy-int-and-0-d-arrays": ((np.array(-0.2),), (np.int64(0), np.array(1)), (-0.2,), (0.0, 1.0)),
}


@pytest.mark.parametrize(
    "breakpoints, values, stored_breakpoints, stored_values",
    _STORED_AS_FLOAT.values(),
    ids=_STORED_AS_FLOAT.keys(),
)
def test_construction_stores_exact_floats(breakpoints, values, stored_breakpoints, stored_values):
    # exact floats are kept as given; every other real number goes through float()
    f = StepFunction(breakpoints, values)
    assert (f.breakpoints, f.values) == (stored_breakpoints, stored_values)
    assert all(type(x) is float for x in f.breakpoints + f.values)


_NOT_REAL = {
    "bool": ((False,), (True, False)),
    "numpy-bool": ((), (np.True_,)),
    "0-d-bool-array": ((), (np.array(False),)),
    "str-breakpoint": (("0.1",), (0.0, 1.0)),
    "str-value": ((0.1,), (0.0, "1")),
    "bytes": ((), (b"1",)),
    "numpy-str": ((), (np.str_("1"),)),
    "0-d-object-array-of-str": ((), (np.array("1", dtype=object),)),
}


@pytest.mark.parametrize("breakpoints, values", _NOT_REAL.values(), ids=_NOT_REAL.keys())
def test_breakpoints_and_values_refuse_text_and_bools(breakpoints, values):
    # float() would take each of these as a number
    with pytest.raises(ValidationError, match="^breakpoints and values must be real numbers: got "):
        StepFunction(breakpoints, values)


@pytest.mark.parametrize(
    "omega",
    ["0.1", b"0.1", False, np.True_, np.array(True), np.str_("0.1"), np.array("0.1"), np.array("0.2", dtype=object)],
    ids=repr,
)
def test_scalar_omega_refuses_text_and_bools(omega):
    with pytest.raises(ValidationError, match="^omega must be real: got "):
        _HALF(omega)


@pytest.mark.parametrize(
    "omega, expected",
    [(0, 1.0), (-0.1, 0.0), (np.float32(0.25), 1.0), (np.int64(0), 1.0), (np.array(-0.25), 0.0), (np.array(0), 1.0)],
    ids=repr,
)
def test_scalar_omega_accepts_ints_numpy_reals_and_0_d_arrays(omega, expected):
    assert _HALF(omega) == expected


@pytest.mark.parametrize("scalar", [0.5, _Float(0.5), np.float64(0.5), 3], ids=repr)
def test_scalar_operations_convert_the_scalar_once(scalar):
    f = StepFunction((-0.2, 0.1), (0.3, -1.0, 2.0))
    x = float(scalar)
    results = {
        "add": (f + scalar, [v + x for v in f.values]),
        "radd": (scalar + f, [v + x for v in f.values]),
        "sub": (f - scalar, [v - x for v in f.values]),
        "rsub": (scalar - f, [x - v for v in f.values]),
        "mul": (f * scalar, [v * x for v in f.values]),
        "rmul": (scalar * f, [v * x for v in f.values]),
    }
    for name, (got, values) in results.items():
        assert got == StepFunction(f.breakpoints, values), name
        assert all(type(v) is float for v in got.values), name


@pytest.mark.parametrize("scalar", [True, False], ids=repr)
def test_scalar_operations_refuse_a_bool(scalar):
    # a bool is refused as a str is: every operator returns NotImplemented
    f = StepFunction((-0.2, 0.1), (0.3, -1.0, 2.0))
    for method in (f.__add__, f.__radd__, f.__sub__, f.__rsub__, f.__mul__, f.__rmul__):
        assert method(scalar) is NotImplemented
        assert method("0.5") is NotImplemented
    for attempt in (lambda: f + scalar, lambda: scalar - f, lambda: f * scalar, lambda: scalar * f):
        with pytest.raises(TypeError):
            attempt()


def test_right_continuous_evaluation():
    f = StepFunction((0.0,), (2.0, 3.0))
    assert f(-0.1) == 2.0
    assert f(0.0) == 3.0  # value at the breakpoint is the right-hand one
    assert f(0.1) == 3.0
    assert f(-0.5) == 2.0
    assert f(0.5) == 3.0
    with pytest.raises(ValidationError):
        f(0.6)
    with pytest.raises(ValidationError):
        f(np.array([0.0, 0.7]))


@pytest.mark.parametrize(
    "call, prefix",
    [
        (lambda: _HALF(2**2000), "omega must be real: "),
        (lambda: _HALF([0.0, 2**2000]), "omega must be real: "),
        (lambda: StepFunction((), [2**2000]), "breakpoints and values must be real numbers: "),
    ],
    ids=["scalar-omega", "array-omega", "value"],
)
def test_int_beyond_the_float_range_is_a_validation_error(call, prefix):
    # float() of it raises OverflowError, which used to escape bare
    with pytest.raises(ValidationError, match=f"^{prefix}int too large to convert to float$"):
        call()


_NOT_REAL_SAMPLES = {
    "str-list": ["0.2", "0.0"],
    "bool-list": [False, False],
    "bool-among-floats": [0.1, True],
    "numpy-bool-among-floats": [np.True_, -0.1],
    "str-among-floats": [0.1, "0.2"],
    "nested-bool": [[0.1], [False]],
    "bool-array": np.array([True, False]),
    "str-array": np.array(["0.1"]),
    "bytes-array": np.array([b"0.1"]),
    "object-array-with-str": np.array([0.1, "0.2"], dtype=object),
    "list-of-0-d-object-array": [np.array("0.2", dtype=object)],
}


@pytest.mark.parametrize("omega", _NOT_REAL_SAMPLES.values(), ids=_NOT_REAL_SAMPLES.keys())
def test_array_omega_refuses_text_and_bools(omega):
    # np.asarray(omega, dtype=float) would take each of these as numbers
    with pytest.raises(ValidationError, match="^omega must be real: got "):
        _HALF(omega)


@pytest.mark.parametrize(
    "omega",
    [
        [0, -0.1],
        (0.25, np.float64(-0.3)),
        [[0.1], [-0.1]],
        np.array([0, 0]),
        np.array([0.1, -0.1], dtype=object),
        np.array([0.1, -0.1], dtype=np.float32),
    ],
    ids=repr,
)
def test_array_omega_accepts_numbers(omega):
    # each is evaluated as its float64 array is
    assert _HALF(omega).tolist() == _HALF(np.asarray(omega, dtype=float)).tolist()


def test_array_evaluation_matches_scalar():
    f = StepFunction((-0.2, 0.3), (1.0, -1.0, 4.0))
    xs = np.array([-0.5, -0.2, 0.0, 0.3, 0.5])
    assert list(f(xs)) == [f(float(x)) for x in xs]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_omega_is_rejected_in_arrays_and_scalars(bad, position):
    # a NaN sample fails no ordered comparison, so it must not slip through the range check
    f = StepFunction((0.1,), (0.0, 1.0))
    xs = np.array([0.0, -0.2, 0.4])
    xs[position] = bad
    with pytest.raises(ValidationError):
        f(xs)
    with pytest.raises(ValidationError):
        f(bad)


# ---------------------------------------------------------------------------
# indicator_from_sign
# ---------------------------------------------------------------------------


def test_indicator_threshold_half_is_constant_one():
    f = indicator_from_sign(0.5, +1)
    assert f == constant(1.0)
    assert f.integrate() == 1.0


def test_indicator_threshold_zero_is_pure_sign_step():
    f = indicator_from_sign(0.0, +1)
    assert f.breakpoints == (0.0,)
    assert f.values == (0.0, 1.0)
    assert f(0.0) == 1.0  # sign(0) = +1


def test_indicator_quarter_negative_polarity_grid_oracle():
    f = indicator_from_sign(0.25, -1)
    assert f.values == (1.0, 0.0)
    assert f.breakpoints == (-0.25,)
    # frozen from the grid oracle below: measure 1/4
    assert f.integrate() == 0.25
    assert abs(grid_measure(f) - 0.25) <= 2e-4
    np.testing.assert_array_equal(f(GRID), closed_form_indicator(GRID, 0.25, -1))


def test_indicator_validation():
    with pytest.raises(ValidationError):
        indicator_from_sign(0.6, +1)
    with pytest.raises(ValidationError):
        indicator_from_sign(-0.1, +1)
    with pytest.raises(ValidationError):
        indicator_from_sign(0.25, 0)
    # a polarity is an integer, as a sample count is: not a bool or a float
    for polarity in (True, 1.0, -1.0, np.float64(1.0)):
        with pytest.raises(ValidationError, match=r"polarity must be \+1 or -1"):
            indicator_from_sign(0.25, polarity)
    assert indicator_from_sign(0.25, np.int64(-1)) == indicator_from_sign(0.25, -1)


@pytest.mark.parametrize(
    "threshold, polarity",
    [(np.float64(0.25), np.int64(1)), (_Float(0.25), 1), (1 / 4, -1), (0, 1), (np.float32(0.5), -1), (-0.0, 1)],
    ids=repr,
)
def test_indicator_takes_every_real_threshold_as_its_float(threshold, polarity):
    # a float in range and an int polarity of +-1 skip the checkers; the rest meet them
    f = indicator_from_sign(threshold, polarity)
    want = indicator_from_sign(float(threshold), int(polarity))
    assert (f.breakpoints, f.values) == (want.breakpoints, want.values)
    assert all(type(x) is float for x in f.breakpoints + f.values)


# float() would take the strings and the bool, and the complex with only a ComplexWarning
@pytest.mark.parametrize(
    "threshold",
    ["a", "0.25", True, np.complex128(0.25 + 1j), math.nan],
    ids=["str", "numeric-str", "bool", "complex", "nan"],
)
def test_non_real_threshold_is_a_validation_error(threshold):
    with pytest.raises(ValidationError, match="^threshold must be a finite real number, got "):
        indicator_from_sign(threshold, 1)


@given(
    threshold=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    polarity=st.sampled_from([1, -1]),
)
def test_indicator_matches_closed_form_everywhere(threshold, polarity):
    f = indicator_from_sign(threshold, polarity)
    probe = np.array([-0.5, -threshold, 0.0, 0.25, 0.5])
    np.testing.assert_array_equal(f(probe), closed_form_indicator(probe, threshold, polarity))


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_examples():
    assert constant(1.0).integrate() == 1.0
    assert StepFunction((0.0,), (0.0, 1.0)).integrate() == 0.5
    # indicator induced by a dot product of 0.6: threshold 0.3, measure (1+0.6)/2
    f = indicator_from_sign(0.3, +1)
    assert abs(f.integrate() - 0.8) <= 1e-15


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------


def test_complement_of_constant_one_is_zero():
    assert 1.0 - constant(1.0) == constant(0.0)


def test_multiply_is_intersection_for_indicators():
    right_half = indicator_from_sign(0.0, +1)  # 1 on (0, 1/2)
    wide = indicator_from_sign(0.25, +1)  # 1 on (-1/4, 1/2)
    meet = right_half * wide
    assert meet == right_half
    assert meet.integrate() == 0.5


def test_weighted_add_three_valued_grid_oracle():
    left = indicator_from_sign(0.25, -1)  # 1 on (-1/2, -1/4)
    right = indicator_from_sign(0.0, +1)  # 1 on (0, 1/2)
    combined = 0.3 * left + 0.7 * right
    assert set(combined.values) == {0.3, 0.0, 0.7}
    np.testing.assert_allclose(
        combined(GRID), 0.3 * left(GRID) + 0.7 * right(GRID), rtol=0, atol=0
    )


def test_minimum_and_scalar_operations():
    f = StepFunction((0.0,), (1.0, 3.0))
    g = StepFunction((-0.25,), (2.0, 0.5))
    assert f._combine(g, min) == StepFunction((-0.25, 0.0), (1.0, 0.5, 0.5))
    assert (f - 1.0) == StepFunction((0.0,), (0.0, 2.0))
    assert (1.0 - f) == StepFunction((0.0,), (0.0, -2.0))
    assert (-f) == StepFunction((0.0,), (-1.0, -3.0))
    assert f * 2.0 == StepFunction((0.0,), (2.0, 6.0))


# ---------------------------------------------------------------------------
# hypothesis strategies and properties
# ---------------------------------------------------------------------------

_bp = st.floats(min_value=-0.499, max_value=0.499, allow_nan=False)


@st.composite
def step_functions(draw, values=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)):
    bps = sorted(set(draw(st.lists(_bp, max_size=6))))
    vals = draw(st.lists(values, min_size=len(bps) + 1, max_size=len(bps) + 1))
    return StepFunction(bps, vals)


@st.composite
def indicators(draw):
    bps = sorted(set(draw(st.lists(_bp, max_size=6))))
    vals = draw(
        st.lists(st.sampled_from([0.0, 1.0]), min_size=len(bps) + 1, max_size=len(bps) + 1)
    )
    return StepFunction(bps, vals)


@given(f=indicators())
def test_complement_integral(f):
    assert abs((1.0 - f).integrate() - (1.0 - f.integrate())) <= 1e-12


@given(f=step_functions(), g=step_functions())
def test_integrate_linearity(f, g):
    assert abs((f + g).integrate() - (f.integrate() + g.integrate())) <= 1e-12


@given(f=indicators(), g=indicators())
def test_intersection_bounded_by_min_measure(f, g):
    assert (f * g).integrate() <= min(f.integrate(), g.integrate()) + 1e-12


@given(f=step_functions(), g=step_functions())
@settings(max_examples=50)
def test_combine_matches_pointwise_grid(f, g):
    probe = np.linspace(-0.5, 0.5, 101)
    np.testing.assert_array_equal((f + g)(probe), f(probe) + g(probe))
    np.testing.assert_array_equal((f * g)(probe), f(probe) * g(probe))
    np.testing.assert_array_equal(f._combine(g, min)(probe), np.minimum(f(probe), g(probe)))


@given(f=step_functions())
def test_canonical_has_no_adjacent_equal_values(f):
    for a, b in zip(f.values, f.values[1:]):
        assert a != b


# ---------------------------------------------------------------------------
# product functions
# ---------------------------------------------------------------------------


def test_product_examples():
    assert ProductFunction((constant(1.0),), 1.0).integrate() == 1.0
    half = indicator_from_sign(0.0, +1)
    p8 = indicator_from_sign(0.3, +1)  # measure 0.8
    p = ProductFunction((half, p8), 2.0)
    assert abs(p.integrate() - 0.8) <= 1e-15
    # two-level product with a perpendicular preparation and a repeated axis:
    # prefactor 2 restores the unit conditional probability
    unit = ProductFunction((half, constant(1.0)), 2.0)
    assert unit.integrate() == 1.0


def test_product_evaluation_and_levels():
    half = indicator_from_sign(0.0, +1)
    p = ProductFunction((half, constant(3.0)), 2.0)
    assert p((0.25, 0.0)) == 6.0
    assert p((-0.25, 0.0)) == 0.0
    with pytest.raises(ValidationError):
        p((0.1,))
    assert p.levels == 2


def test_integrate_level_any_order():
    rng = np.random.default_rng(7)
    factors = tuple(
        StepFunction(sorted(rng.uniform(-0.49, 0.49, 2)), rng.uniform(-2, 2, 3))
        for _ in range(3)
    )
    p = ProductFunction(factors, 1.7)
    full = p.integrate()
    for order in ((0, 0, 0), (2, 1, 0), (1, 1, 0)):  # indices into the shrinking tuple
        current = p
        for index in order:
            current = current.integrate_level(index)
        assert current.levels == 0
        assert abs(current.prefactor - full) <= 1e-12 * max(1.0, abs(full))


@pytest.mark.parametrize("prefactor", [math.nan, math.inf, -math.inf, "2", None, True, 1j])
def test_product_prefactor_must_be_a_finite_real(prefactor):
    # a NaN prefactor used to be accepted and integrate() returned nan
    with pytest.raises(ValidationError, match="prefactor must be a finite real number"):
        ProductFunction((), prefactor)
    with pytest.raises(ValidationError, match="prefactor must be a finite real number"):
        ProductFunction((indicator_from_sign(0.0, +1),), prefactor)


def test_integrate_level_validation_and_collapse():
    half = indicator_from_sign(0.0, +1)
    p = ProductFunction((half,), 2.0)
    with pytest.raises(ValidationError):
        p.integrate_level(1)
    assert p.integrate_level(0) == ProductFunction((), 1.0)
    assert ProductFunction((half, half)).integrate_level(1) == ProductFunction((half,), 0.5)


# ---------------------------------------------------------------------------
# Monte Carlo cross-check (module invariant: 100 random functions, 1e6 draws)
# ---------------------------------------------------------------------------


def test_monte_carlo_agrees_within_four_standard_errors():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        n_segments = int(rng.integers(1, 6))
        bps = np.sort(rng.uniform(-0.499, 0.499, n_segments - 1)) if n_segments > 1 else []
        f = StepFunction(bps, rng.uniform(-3.0, 3.0, n_segments))
        estimate, stderr = mc_integrate(f, 1_000_000, rng)
        assert abs(estimate - f.integrate()) <= 4.0 * stderr + 1e-13


def test_mc_integrate_validation():
    with pytest.raises(ValidationError):
        mc_integrate(constant(1.0), 1, np.random.default_rng(0))
    for n_samples in (2.5, 10.0, "10", True, None, np.float64(10.0)):
        with pytest.raises(ValidationError, match="^n_samples must be an integer of at least 2, got "):
            mc_integrate(constant(1.0), n_samples, np.random.default_rng(0))
    assert mc_integrate(constant(1.0), np.int64(10), np.random.default_rng(0)) == (1.0, 0.0)


def per_sample_values(fn, n_samples, rng):
    # the per-sample reference: fn at each draw of rng.uniform, level by level
    if isinstance(fn, StepFunction):
        return fn(rng.uniform(-0.5, 0.5, n_samples))
    samples = np.full(n_samples, fn.prefactor)
    for f in fn.factors:
        samples = samples * f(rng.uniform(-0.5, 0.5, n_samples))
    return samples


def test_mc_integrate_counts_the_per_sample_values():
    f = StepFunction((-0.3, 0.0, 0.2, 0.4), (1.5, -2.0, 0.25, 3.0, -1.0))
    cases = [
        (f, 10_000),
        (ProductFunction((f, indicator_from_sign(0.1, -1), f), 0.5), 10_000),
        # 625 cells for 100 samples: the occupied cells are renumbered
        (ProductFunction((f, f, f, f), 2.0), 100),
        (ProductFunction((), -1.5), 10),
    ]
    for fn, n_samples in cases:
        estimate, stderr = mc_integrate(fn, n_samples, np.random.default_rng(3))
        samples = per_sample_values(fn, n_samples, np.random.default_rng(3))
        # the same draws, summed in another order: within gamma_n of each sum
        gamma = n_samples * 2.0**-53
        assert abs(estimate - samples.mean()) <= 2 * gamma * np.abs(samples).max()
        assert abs(stderr - samples.std(ddof=1) / math.sqrt(n_samples)) <= 4 * gamma * stderr

