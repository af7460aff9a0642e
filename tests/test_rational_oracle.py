"""Exact rational oracle: the closed forms of qubit and bell in fractions.Fraction.

Every float input is converted to the exact rational it stores, so the oracle
values carry no rounding at all.  On pairs of integer axes every float
operation is exact and the package must agree to the last bit.  On the
3-4-5 and 2-3-6/7 axes it must stay within the rounding bound of a 3-term dot
product (Higham, Accuracy and Stability of Numerical Algorithms, Thm 3.1):

    |fl(x.y) - x.y| <= gamma_3 * sum_i |x_i y_i|,  gamma_3 = 3u / (1 - 3u),  u = 2**-53,

plus u times the magnitude of each rounded sum, product or quotient taken after
it (|fl(x) - x| <= u |fl(x)| for round to nearest).
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from hvlab import (
    PureState,
    ReductionUndefinedError,
    bell_value,
    conditional_expectation,
    cosine_between,
    expectation,
    projector,
    route_operator_product,
    sandwich,
    unit_vector,
)

from conftest import rational_axes

U = Fraction(1, 2**53)
GAMMA_3 = 3 * U / (1 - 3 * U)

AXES = [np.array(nums) / den for nums, den in rational_axes()]
INDEX = {key: k for k, key in enumerate(rational_axes())}
INTEGER = [den == 1 for _, den in rational_axes()]
# the exact rationals the float axes store, not the ideal (3, 4, 0)/5 and so on
EXACT = [[Fraction(x) for x in axis.tolist()] for axis in AXES]
NORM_SQUARED = [sum((x * x for x in axis), Fraction(0)) for axis in EXACT]


def dot(x: list[Fraction], y: list[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def abs_dot(x: list[Fraction], y: list[Fraction]) -> Fraction:
    return sum((abs(a * b) for a, b in zip(x, y)), Fraction(0))


def exact_sandwich(n, m, nm, nn) -> tuple[Fraction, list[Fraction]]:
    """B A B for A = (1 + m.sigma)/2, B = (1 + n.sigma)/2, by the Pauli expansion.

    With a = b0 = 1/2, av = m/2 and bv = n/2: scalar a b0^2 + 2 b0 (av.bv) + a |bv|^2
    and vector (b0^2 - |bv|^2) av + 2 (a b0 + av.bv) bv, where av.bv = n.m/4 and
    |bv|^2 = n.n/4 (not exactly 1/4 for a float axis).
    """
    c1, c2 = (1 - nn) / 4, (1 + nm) / 2
    return Fraction(1, 8) + nm / 4 + nn / 8, [(c1 * a + c2 * b) / 2 for a, b in zip(m, n)]


def sandwich_bound(weight, nn, outer, inner, got_a, got_b) -> tuple[Fraction, Fraction]:
    """Rounding bounds of qubit.sandwich's float evaluation of the same expansion.

    av.bv and |bv|^2 are dot products (gamma_3 times weight/4 and nn/4); every
    later sum, and every product that is not a power-of-two scaling, adds u
    times its rounded value.  Scalings by 2 and 1/2 are exact.  The vector
    bound holds for every component, since |av_i| and |bv_i| are at most 1/2.
    """
    # the two dot products sandwich takes, on the same float operands
    ab = float(np.dot(0.5 * inner, 0.5 * outer))
    bb = float(np.dot(0.5 * outer, 0.5 * outer))
    ab_err, bb_err = GAMMA_3 * weight / 4, GAMMA_3 * nn / 4
    scalar_err = ab_err + bb_err / 2 + U * (abs(Fraction(0.125 + ab)) + abs(Fraction(got_a)))
    c1, c2 = Fraction(0.25 - bb), Fraction(2.0 * (0.25 + ab))
    c1_err = bb_err + U * abs(c1)
    c2_err = 2 * ab_err + U * abs(c2)
    largest = Fraction(float(np.max(np.abs(np.asarray(got_b)))))
    vector_err = (c1_err + c2_err + U * (abs(c1) + abs(c2))) / 2 + U * largest
    return scalar_err, vector_err


def breakpoint_of(value_map) -> Fraction:
    # a constant map (|s.m| == 1) has its edge at omega = -1/2
    return Fraction(value_map.breakpoints[0]) if value_map.breakpoints else Fraction(-1, 2)


PAIRS = list(product(range(len(AXES)), repeat=2))
# x.y and sum |x_i y_i| of every pair of exact axes
PAIR_DOTS = {(i, j): (dot(EXACT[i], EXACT[j]), abs_dot(EXACT[i], EXACT[j])) for i, j in PAIRS}
# the states the conditioning checks run in, one of each family, fixed in advance
STATES = [INDEX[key] for key in (((0, 0, 1), 1), ((3, 4, 0), 5), ((2, -3, 6), 7))]


def test_axis_set_is_complete():
    assert len(AXES) == 6 + 24 + 48
    assert sum(INTEGER) == 6


def test_closed_forms_against_exact_rationals():
    for i, j in PAIRS:
        s_float, m_float = AXES[i], AXES[j]
        s, m = EXACT[i], EXACT[j]
        sm, weight = PAIR_DOTS[i, j]
        psi = PureState(s_float)

        cosine = Fraction(cosine_between(s_float, m_float))
        probability = Fraction(expectation(psi, projector(m_float)))
        value_map = bell_value(psi, m_float)
        edge = breakpoint_of(value_map)
        integral = Fraction(value_map.integrate())
        product_op = sandwich(s_float, m_float)
        want_a, want_b = exact_sandwich(s, m, sm, NORM_SQUARED[i])
        got_b = [Fraction(float(x)) for x in product_op.b]

        if INTEGER[i] and INTEGER[j]:
            # components in {0, +-1}: every float operation is exact
            assert cosine == sm
            assert probability == (1 + sm) / 2
            assert edge == -abs(sm) / 2
            assert integral == (1 + sm) / 2
            assert Fraction(product_op.a) == want_a == (1 + sm) / 4
            assert got_b == want_b == [(1 + sm) / 4 * x for x in s]
            continue

        assert abs(cosine - sm) <= GAMMA_3 * weight
        assert abs(probability - (1 + sm) / 2) <= GAMMA_3 * weight / 2 + U * abs(probability)
        assert abs(edge + abs(sm) / 2) <= GAMMA_3 * weight / 2
        assert abs(integral - (1 + sm) / 2) <= GAMMA_3 * weight / 2 + U * abs(integral)
        scalar_err, vector_err = sandwich_bound(
            weight, NORM_SQUARED[i], s_float, m_float, product_op.a, product_op.b
        )
        assert abs(Fraction(product_op.a) - want_a) <= scalar_err
        assert all(abs(got - want) <= vector_err for got, want in zip(got_b, want_b))




def test_conditioning_against_exact_rationals():
    # conditional_expectation(psi, m, n) is (1 + n.m)/2 in every state; route_operator_product
    # (psi, n, m) is (1 + n.m)/(1 + n.s) times the value map of n and integrates to (1 + n.m)/2

    # checked once, so the package passes them through
    axes = [unit_vector(axis) for axis in AXES]
    states = [PureState(axes[k]) for k in STATES]
    numerators = {}
    for i, j in PAIRS:
        nm, weight = PAIR_DOTS[i, j]
        # the first state that is not orthogonal to n; the value does not depend on it
        opposite = np.negative(np.asarray(axes[i])).tolist()
        psi = next(state for state in states if np.asarray(state.bloch).tolist() != opposite)
        got = Fraction(conditional_expectation(psi, axes[j], axes[i]))
        if INTEGER[i] and INTEGER[j]:
            assert got == (1 + nm) / 2
        else:
            assert abs(got - (1 + nm) / 2) <= GAMMA_3 * weight / 2 + U * abs(got)
        # 1 + n.m as route_operator_product rounds it, and its error bound
        num = Fraction(1.0 + cosine_between(axes[i], axes[j]))
        numerators[i, j] = 1 + nm, GAMMA_3 * weight + U * num
    for k, i in product(STATES, range(len(AXES))):
        s_float, n_float = axes[k], axes[i]
        psi = PureState(s_float)
        if np.asarray(s_float).tolist() == np.negative(np.asarray(n_float)).tolist():
            # Tr[rho B] = 0: no other pair of these axes comes near the cutoff
            for m_float in axes:
                with pytest.raises(ReductionUndefinedError):
                    conditional_expectation(psi, m_float, n_float)
                with pytest.raises(ReductionUndefinedError):
                    route_operator_product(psi, n_float, m_float)
            continue
        ns, ns_weight = PAIR_DOTS[i, k]
        den = Fraction(1.0 + cosine_between(n_float, s_float))
        # |num'/den' - num/den| <= num_err/den' + |num| den_err/(den' den)
        den_term = (GAMMA_3 * ns_weight + U * den) / (den * (1 + ns))
        # each route is fl(ratio * w) for the integral w of n's value map
        width = Fraction(bell_value(psi, n_float).integrate())
        width_err = GAMMA_3 * ns_weight / 2 + U * width
        for j, m_float in enumerate(axes):
            route = route_operator_product(psi, n_float, m_float)
            ratio = Fraction(max(route.values))
            integral = Fraction(route.integrate())
            num, num_err = numerators[i, j]
            want_ratio = num / (1 + ns)
            if INTEGER[k] and INTEGER[i] and INTEGER[j]:
                assert ratio == want_ratio
                assert integral == num / 2
                continue
            ratio_err = num_err / den + abs(num) * den_term + U * ratio
            assert abs(ratio - want_ratio) <= ratio_err
            integral_err = ratio_err * width + abs(want_ratio) * width_err + U * integral
            assert abs(integral - num / 2) <= integral_err
