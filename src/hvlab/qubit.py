"""Exact single-qubit quantum mechanics over Bloch vectors.

Operators are kept in the real form ``a*1 + b.sigma`` (scalar ``a``, real
3-vector ``b``) instead of complex 2x2 matrices: every identity this package
needs (operator products of the form B A B, traces, eigenvalues, reduction)
has a closed form in ``(a, b)``, which removes complex arithmetic from the
trusted path.  A complex-matrix reference implementation lives in the test
suite as an independent oracle.

A rank-1 projector (1 + n.sigma)/2 is passed around as its unit axis n, checked
by :func:`unit_vector`; :class:`HermitianOp` is for general observables such as
projector mixtures and ``sandwich`` results.

Pure states only: the dispersion-free constructions verified here are defined
for pure states, and mixed states are deliberately unsupported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ReductionUndefinedError, ValidationError

UNIT_TOLERANCE = 1e-9
ORTHOGONALITY_CUTOFF = 1e-12

__all__ = [
    "UNIT_TOLERANCE",
    "ORTHOGONALITY_CUTOFF",
    "unit_vector",
    "cosine_between",
    "HermitianOp",
    "PureState",
    "projector",
    "expectation",
    "sandwich",
    "conditional_expectation",
    "chain_probability",
]


class _UnitVector(np.ndarray):
    """Read-only unit 3-vector that :func:`unit_vector` checked.

    Only an instance that ``unit_vector`` marked as checked is trusted and
    passed through again in O(1).  Ufunc results and indexing give plain
    arrays, and copies or views of an instance carry no mark, so each of
    these is checked again like any other input.
    """

    _checked = False

    def __array_wrap__(self, array, context=None, return_scalar=False):
        if return_scalar:
            return array[()]
        return array if type(array) is np.ndarray else array.view(np.ndarray)

    def __getitem__(self, key):
        return self.view(np.ndarray)[key]


_FLOAT64 = np.dtype(np.float64)


def _vector3(v, name: str) -> np.ndarray:
    """A read-only float copy of a real, finite 3-vector, or a ValidationError.

    A plain float64 array of shape (3,) is copied directly; any other input
    goes through ``np.array`` and a cast.  Both take the same finiteness test
    and give the same bits.
    """
    if type(v) is np.ndarray and v.dtype is _FLOAT64 and v.shape == (3,):
        arr = v.copy()
    else:
        try:
            arr = np.array(v)
            if arr.dtype.kind == "c":
                # casting to float would drop the imaginary part with only a warning
                raise TypeError("got complex components")
            arr = arr.astype(float, copy=False)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{name} must be a real 3-vector: {exc}") from exc
        if arr.shape != (3,):
            raise ValidationError(f"{name} must be a real 3-vector, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise ValidationError(f"{name} has non-finite components")
    arr.setflags(write=False)
    return arr


def _marked(arr: np.ndarray) -> np.ndarray:
    # a read-only unit 3-vector, marked so that unit_vector passes it through
    unit = arr.view(_UnitVector)
    unit._checked = True
    return unit


def unit_vector(v, name: str = "vector") -> np.ndarray:
    """Validate a unit 3-vector (|v| = 1 within 1e-9); returns it read-only.

    A vector this function returned is passed through as is, so each axis is
    checked once however many layers it crosses.  Any other input is copied
    and checked in full by ``_vector3``; the norm is ``sqrt(np.dot(v, v))``.
    """
    if type(v) is _UnitVector and v._checked:
        return v
    arr = _vector3(v, name)
    norm = math.sqrt(float(np.dot(arr, arr)))
    if abs(norm - 1.0) > UNIT_TOLERANCE:
        raise ValidationError(f"{name} must be a unit vector, got norm {norm!r}")
    return _marked(arr)


def _negated_unit(u) -> np.ndarray:
    """-u for a unit vector, marked as checked without a second full check.

    Negation flips only signs, so it is exact: -u is as finite and as close
    to unit norm as u, bit for bit ``unit_vector(np.negative(u))``.
    """
    negated = np.negative(unit_vector(u))
    negated.setflags(write=False)
    return _marked(negated)


def cosine_between(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of two unit vectors, clipped to [-1, 1].

    Elementwise-identical (or exactly opposite) arrays short-circuit to
    exactly +-1.0: for the same float vector the true cosine is 1 even when
    dot(v, v) rounds away from it, and sequential-measurement identities
    (idempotence, zero-probability complements) must hold exactly.  Exact
    comparison only; nothing is snapped within a tolerance.  Both arguments
    go through :func:`unit_vector`, which passes checked axes in O(1).
    """
    u, v = unit_vector(u, "first vector"), unit_vector(v, "second vector")
    a, b = u.tolist(), v.tolist()
    if a == b:
        return 1.0
    if a[0] == -b[0] and a[1] == -b[1] and a[2] == -b[2]:
        return -1.0
    # clipped by comparison rather than min/max calls: run_sweep(seed, 1000)
    # makes about 15,000 calls here
    c = float(np.dot(u, v))
    return 1.0 if c > 1.0 else -1.0 if c < -1.0 else c


@dataclass(frozen=True, eq=False)
class HermitianOp:
    """Qubit observable ``a*1 + b.sigma``; eigenvalues are ``a +- |b|``."""

    a: float
    b: np.ndarray

    def __post_init__(self):
        try:
            if isinstance(self.a, (complex, np.complexfloating)):
                raise TypeError(f"got complex value {self.a!r}")
            object.__setattr__(self, "a", float(self.a))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"operator scalar part must be a real number: {exc}") from exc
        object.__setattr__(self, "b", _vector3(self.b, "operator vector part"))
        if not math.isfinite(self.a):
            raise ValidationError("operator scalar part must be finite")

    @property
    def b_norm(self) -> float:
        return math.sqrt(float(self.b @ self.b))

    @property
    def eigenvalues(self) -> tuple[float, float]:
        r = self.b_norm
        return (self.a - r, self.a + r)

    def __add__(self, other):
        if isinstance(other, HermitianOp):
            return HermitianOp(self.a + other.a, self.b + other.b)
        return NotImplemented

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return HermitianOp(self.a * float(scalar), self.b * float(scalar))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianOp):
            return NotImplemented
        return self.a == other.a and np.array_equal(self.b, other.b)

    def __repr__(self) -> str:
        return f"HermitianOp(a={self.a!r}, b={self.b.tolist()!r})"


@dataclass(frozen=True, eq=False)
class PureState:
    """Pure qubit state with unit Bloch vector s; density matrix (1 + s.sigma)/2."""

    bloch: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bloch", unit_vector(self.bloch, "state Bloch vector"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PureState):
            return NotImplemented
        return np.array_equal(self.bloch, other.bloch)

    def __repr__(self) -> str:
        return f"PureState({self.bloch.tolist()!r})"


def projector(m) -> HermitianOp:
    """Rank-1 projector (1 + m.sigma)/2 onto the unit Bloch axis ``m``."""
    # HermitianOp checks only that its vector part is a real, finite 3-vector.
    # Halving a finite vector scales by a power of two, so it stays finite:
    # 0.5 * m passes that check by construction, and it is stored read-only,
    # bit for bit what HermitianOp(0.5, 0.5 * m) would hold.
    half = unit_vector(m, "projector axis").view(np.ndarray) * 0.5
    half.setflags(write=False)
    op = object.__new__(HermitianOp)
    object.__setattr__(op, "a", 0.5)
    object.__setattr__(op, "b", half)
    return op


def expectation(psi: PureState, op: HermitianOp) -> float:
    """<psi| op |psi> = a + b.s; equals (1 + s.m)/2 for a projector on m."""
    return op.a + float(np.dot(op.b, psi.bloch))


def sandwich(outer_axis, inner_axis) -> HermitianOp:
    """The Hermitian product B A B of the projectors on two unit axes.

    B projects on ``outer_axis`` n and A on ``inner_axis`` m, and the result
    is ``((1 + n.m)/2) * P_n``.  It is evaluated by the general Pauli-algebra
    expansion of B A B, which is real because the cross terms cancel, fed
    with the ``(a, b) = (1/2, axis/2)`` of each projector.
    """
    b0, bv = 0.5, unit_vector(outer_axis, "outer axis") * 0.5
    a0, av = 0.5, unit_vector(inner_axis, "inner axis") * 0.5
    ab = float(np.dot(av, bv))
    bb = float(np.dot(bv, bv))
    scalar = a0 * b0 * b0 + 2.0 * b0 * ab + a0 * bb
    vector = (b0 * b0 - bb) * av + 2.0 * (a0 * b0 + ab) * bv
    return HermitianOp(scalar, vector)


def conditional_expectation(psi: PureState, observed_axis, condition_axis) -> float:
    """Tr[rho B A B] / Tr[rho B] for the projectors on two unit axes.

    A projects on ``observed_axis`` m and B on ``condition_axis`` n.  This
    equals (1 + n.m)/2, the expectation of A in the reduced state, which is
    the axis n itself, independent of the state.  It is evaluated in that
    closed form, with :func:`cosine_between`, so identical axes give exactly
    1.0 and opposite ones exactly 0.0; dividing Tr[rho B A B] by Tr[rho B]
    would amplify the numerator's rounding error by 1 / Tr[rho B].  Raises
    :class:`ReductionUndefinedError` (from :func:`chain_probability`,
    index 0) when Tr[rho B] falls at or below the orthogonality cutoff.
    """
    m = unit_vector(observed_axis, "observed axis")
    n = unit_vector(condition_axis, "condition axis")
    chain_probability(psi, [n])
    return 0.5 * (1.0 + cosine_between(n, m))


def chain_probability(psi: PureState, axes: Iterable) -> float:
    """Probability of selecting, in order, the projector on each unit axis.

    Equals the product over steps of (1 + n_{k-1}.n_k)/2 with n_0 the initial
    Bloch vector and n_k the k-th axis, i.e. the quantum chain rule for
    sequential projective measurements.  Each axis goes through
    :func:`unit_vector` (O(1) for one it already checked).  Raises
    :class:`ReductionUndefinedError` (with the failing index) if an
    intermediate conditioning probability hits the cutoff.
    """
    current = psi.bloch
    total = 1.0
    for k, a in enumerate(axes):
        axis = unit_vector(a, f"axes[{k}]")
        step = 0.5 * (1.0 + cosine_between(current, axis))
        if step <= ORTHOGONALITY_CUTOFF:
            raise ReductionUndefinedError(
                f"chain hits an orthogonal projector at step {k}", index=k
            )
        total *= step
        current = axis
    return total
