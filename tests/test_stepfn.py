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
    mc_integrate,
)

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
        (lambda: indicator_from_sign("a", 1), "threshold must be a real number"),
    ],
)
def test_non_numeric_input_is_a_validation_error(call, message):
    with pytest.raises(ValidationError, match=f"^{message}: "):
        call()


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
        with pytest.raises(ValidationError, match="integer of at least 2 samples"):
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


# ---------------------------------------------------------------------------
# segments dump
# ---------------------------------------------------------------------------


def test_segment_dump_round_trips():
    f = StepFunction((-0.125, 0.25), (1.0, 0.5, 2.0))
    assert list(f.segments()) == [(-0.5, -0.125, 1.0), (-0.125, 0.25, 0.5), (0.25, 0.5, 2.0)]
