"""Exact single-qubit quantum mechanics over Bloch vectors.

Operators are kept in the real form ``a*1 + b.sigma`` (scalar ``a``, real
3-vector ``b``) instead of complex 2x2 matrices: every identity this package
needs (operator products of the form B A B, traces, eigenvalues, reduction)
has a closed form in ``(a, b)``, which removes complex arithmetic from the
trusted path.  A complex-matrix reference implementation lives in the test
suite as an independent oracle.

A rank-1 projector (1 + n.sigma)/2 is passed around as its unit axis n, which
:func:`unit_vector` checks and returns as a tuple of three Python floats
(``np.asarray`` of it gives a float64 array); :class:`HermitianOp` is for
general observables such as projector mixtures and ``sandwich`` results.

Pure states only: the dispersion-free constructions verified here are defined
for pure states, and mixed states are deliberately unsupported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Iterable

import numpy as np

from .errors import _EXACT_FLOAT, ReductionUndefinedError, ValidationError, _real, _reals, _require
from .stepfn import _operand

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


class _Triple(tuple):
    """Three Python floats, immutable; ``np.asarray`` of it is a float64 array.

    ``+`` and ``*`` (reflected too) raise ``TypeError`` rather than concatenate
    or repeat as a plain tuple would, as numpy arithmetic on it does (no ufunc
    converts it to an array); ``u @ v`` is :func:`_dot3`.
    """

    __slots__ = ()
    __array_ufunc__ = None

    def __add__(self, other):
        raise TypeError("a 3-vector triple supports neither + nor *; take np.asarray of it first")

    __radd__ = __mul__ = __rmul__ = __add__

    def __matmul__(self, other) -> float:
        return _dot3(self, other)

    __rmatmul__ = __matmul__


class _Axis(_Triple):
    """A checked unit axis: only :func:`unit_vector` builds one, and passes it through in O(1)."""

    __slots__ = ()


# The checked value types (PureState, HermitianOp, BranchNode, BranchHistory)
# are frozen dataclasses with init=False: their own __init__ checks each
# argument and stores it once through this, where a generated __init__ would
# store it raw and a __post_init__ store the checked value again.
_set = object.__setattr__


def _floats3(v) -> tuple | None:
    # v itself when it is a plain tuple of three exact floats; else None
    if type(v) is tuple and len(v) == 3 and _EXACT_FLOAT.issuperset(map(type, v)):
        return v
    return None


def _vector3(v, name: str) -> _Triple:
    """A real, finite 3-vector as a triple of floats, or a ValidationError.

    An input that ``_floats3`` does not take must have ``np.shape`` (3,); its
    components go through ``errors._reals``, the one rule for real numbers.
    A sequence of another length, not text, is refused by its length before
    ``np.shape`` copies it into an array.  A set or dict is no sequence, and
    ``np.shape`` reads it as shape ().
    """
    components = _floats3(v)
    if components is None:
        if isinstance(v, Sequence) and not isinstance(v, (str, bytes)) and len(v) != 3:
            raise ValidationError(f"{name} must be a real 3-vector, got length {len(v)}")
        try:
            shape = np.shape(v)
            components = _reals(v) if shape == (3,) else None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{name} must be a real 3-vector: {exc}") from exc
        if components is None:
            raise ValidationError(f"{name} must be a real 3-vector, got shape {shape}")
    if not all(map(math.isfinite, components)):
        raise ValidationError(f"{name} has non-finite components")
    return _Triple(components)


def _dot3(a, b) -> float:
    """``(a0*b0 + a1*b1) + a2*b2`` over two sequences of three floats.

    CPython rounds each operation once and never fuses them, so the result
    does not depend on the CPU, unlike numpy's dot product of 3-vectors,
    whose order and fusing the BLAS kernel picked at run time decides.
    """
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def unit_vector(v, name: str = "vector") -> _Axis:
    """Validate a unit 3-vector (|v| = 1 within 1e-9) and return it as a checked axis.

    A checked axis is an immutable tuple of three Python floats, passed
    through as is when given again.  A plain tuple of three exact floats is
    accepted after one norm test: a NaN, an infinite or an overflowing
    component makes the norm fail it.  Any other input, and one that fails
    the test, is checked in full by ``_vector3``, so every message and its
    order stay the same.  Either way the norm is ``sqrt(_dot3(v, v))``.
    """
    if type(v) is _Axis:
        return v
    components = _floats3(v)
    # a NaN norm fails this test, as it must: compared with <=, not >
    if components is not None and abs(math.sqrt(_dot3(components, components)) - 1.0) <= UNIT_TOLERANCE:
        return _Axis(components)
    components = _vector3(v, name)
    norm = math.sqrt(_dot3(components, components))
    if abs(norm - 1.0) > UNIT_TOLERANCE:
        raise ValidationError(f"{name} must be a unit vector, got norm {norm!r}")
    return _Axis(components)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # sqrt(_dot3(row, row)) of each row of a (k, 3) float64 array in numpy columns: each
    # elementwise ufunc rounds once and none is fused, so the bits are _dot3's
    x, y, z = rows.T
    return np.sqrt((x * x + y * y) + z * z)


def _unit_rows(rows: np.ndarray, name: str) -> list[_Axis]:
    """``[unit_vector(row, name) for row in rows]`` for a float64 array of shape (k, 3).

    The norm test runs on all rows at once, on ``_row_norms``, so every norm
    has the bits of ``unit_vector``'s.  When a row fails it (a NaN, an
    infinite or an overflowing component fails it too) the block goes
    through ``unit_vector`` row by row, so the first failing row raises the
    same error with the same message.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        passed = bool((np.abs(_row_norms(rows) - 1.0) <= UNIT_TOLERANCE).all())
    if passed:
        return list(map(_Axis, rows.tolist()))
    return [unit_vector(row, name) for row in rows]


def cosine_between(u, v) -> float:
    """Dot product of two unit vectors, clipped to [-1, 1].

    Elementwise-identical (or exactly opposite) vectors short-circuit to
    exactly +-1.0: for the same float vector the true cosine is 1 even when
    dot(v, v) rounds away from it, and sequential-measurement identities
    (idempotence, zero-probability complements) must hold exactly.  Exact
    comparison only; nothing is snapped within a tolerance.  Both arguments
    go through :func:`unit_vector`, which passes checked axes in O(1).
    """
    return _cosine(unit_vector(u, "first vector"), unit_vector(v, "second vector"))


def _cosine(a: _Axis, b: _Axis) -> float:
    # cosine_between's core over two axes unit_vector already checked; callers
    # that hold checked axes call it directly
    if a == b:
        return 1.0
    if a[0] == -b[0] and a[1] == -b[1] and a[2] == -b[2]:
        return -1.0
    # clipped by comparison rather than min/max calls: run_sweep(seed, 1000)
    # makes about 15,000 calls here
    c = _dot3(a, b)
    return 1.0 if c > 1.0 else -1.0 if c < -1.0 else c


@dataclass(frozen=True, init=False)
class HermitianOp:
    """Qubit observable ``a*1 + b.sigma``; eigenvalues are ``a +- |b|``."""

    a: float
    b: tuple[float, float, float]
    __array_ufunc__ = None  # numpy operands defer to the operators below, and so to the one rule

    def __init__(self, a: float, b: tuple[float, float, float]) -> None:
        _set(self, "a", _real(a, "operator scalar part"))
        _set(self, "b", _vector3(b, "operator vector part"))

    @property
    def b_norm(self) -> float:
        # sqrt(_dot3(b, b)); where b.b could overflow or underflow (the largest
        # |b_i| outside [2**-500, 2**500]) b is scaled by an exact power of two
        # first and the root scaled back (Blue 1978)
        b = self.b
        largest = max(map(abs, b))
        if 2.0**-500 <= largest <= 2.0**500 or largest == 0.0:
            return math.sqrt(_dot3(b, b))
        scale = 2.0**-600 if largest > 1.0 else 2.0**600
        scaled = [x * scale for x in b]
        return math.sqrt(_dot3(scaled, scaled)) / scale

    @property
    def eigenvalues(self) -> tuple[float, float]:
        return self._spectrum()[1:]

    def _spectrum(self) -> tuple[float, float, float]:
        # |b| and the eigenvalues a - |b| and a + |b| from one root
        r = self.b_norm
        return r, self.a - r, self.a + r

    def __add__(self, other):
        if isinstance(other, HermitianOp):
            return HermitianOp(self.a + other.a, tuple(x + y for x, y in zip(self.b, other.b)))
        return NotImplemented

    def __mul__(self, scalar):
        x = _operand(scalar)
        if x is None:
            return NotImplemented
        return HermitianOp(self.a * x, tuple(c * x for c in self.b))

    __rmul__ = __mul__


@dataclass(frozen=True, init=False)
class PureState:
    """Pure qubit state with unit Bloch vector s; density matrix (1 + s.sigma)/2."""

    bloch: _Axis

    def __init__(self, bloch: _Axis) -> None:
        _set(self, "bloch", unit_vector(bloch, "state Bloch vector"))


def projector(m) -> HermitianOp:
    """Rank-1 projector (1 + m.sigma)/2 onto the unit Bloch axis ``m``.

    Halving a checked axis gives a finite vector part, so the operator is
    stored as ``HermitianOp(0.5, m / 2)`` would store it, without its checks.
    """
    op = object.__new__(HermitianOp)
    _set(op, "a", 0.5)
    _set(op, "b", _Triple([x * 0.5 for x in unit_vector(m, "projector axis")]))
    return op


def expectation(psi: PureState, op: HermitianOp) -> float:
    """<psi| op |psi> = a + b.s; equals (1 + s.m)/2 for a projector on m."""
    _require(op, HermitianOp, "observable")
    return _expectation(_require(psi, PureState, "psi").bloch, op)


def _expectation(s: _Axis, op: HermitianOp) -> float:
    return op.a + _dot3(op.b, s)


def sandwich(outer_axis, inner_axis) -> HermitianOp:
    """The Hermitian product B A B of the projectors on two unit axes.

    B projects on ``outer_axis`` n and A on ``inner_axis`` m, and the result
    is ``((1 + n.m)/2) * P_n``.  It is evaluated by the general Pauli-algebra
    expansion of B A B, which is real because the cross terms cancel, fed
    with the ``(a, b) = (1/2, axis/2)`` of each projector.
    """
    b0, bv = 0.5, [x * 0.5 for x in unit_vector(outer_axis, "outer axis")]
    a0, av = 0.5, [x * 0.5 for x in unit_vector(inner_axis, "inner axis")]
    ab = _dot3(av, bv)
    bb = _dot3(bv, bv)
    scalar = a0 * b0 * b0 + 2.0 * b0 * ab + a0 * bb
    k1, k2 = b0 * b0 - bb, 2.0 * (a0 * b0 + ab)
    return HermitianOp(scalar, tuple(k1 * a + k2 * b for a, b in zip(av, bv)))


def conditional_expectation(psi: PureState, observed_axis, condition_axis) -> float:
    """Tr[rho B A B] / Tr[rho B] for the projectors on two unit axes.

    A projects on ``observed_axis`` m and B on ``condition_axis`` n.  This
    equals (1 + n.m)/2, the expectation of A in the reduced state, which is
    the axis n itself, independent of the state.  It is evaluated in that
    closed form, with the core of :func:`cosine_between`, so identical axes
    give exactly 1.0 and opposite ones exactly 0.0; dividing Tr[rho B A B] by
    Tr[rho B] would amplify the numerator's rounding error by 1 / Tr[rho B].
    Raises :class:`ReductionUndefinedError` (the chain step's, index 0) when
    Tr[rho B] falls at or below the orthogonality cutoff.
    """
    m = unit_vector(observed_axis, "observed axis")
    n = unit_vector(condition_axis, "condition axis")
    return _conditional_expectation(_cosine(_require(psi, PureState, "psi").bloch, n), _cosine(n, m))


def _conditional_expectation(c_sn: float, c: float) -> float:
    # conditional_expectation's core from the cosines of s and n and of n and m; chain step 0 may raise
    _chain_step(c_sn, 0)
    return 0.5 * (1.0 + c)


def _chain_step(c: float, k: int) -> float:
    # step k of a chain, (1 + c)/2 for the cosine c of the state and the measured axis
    step = 0.5 * (1.0 + c)
    if step <= ORTHOGONALITY_CUTOFF:
        raise ReductionUndefinedError(f"chain hits an orthogonal projector at step {k}", index=k)
    return step


def chain_probability(psi: PureState, axes: Iterable) -> float:
    """Probability of selecting, in order, the projector on each unit axis.

    Equals the product over steps of (1 + n_{k-1}.n_k)/2 with n_0 the initial
    Bloch vector and n_k the k-th axis, i.e. the quantum chain rule for
    sequential projective measurements.  Each axis goes through
    :func:`unit_vector` (O(1) for one it already checked).  Raises
    :class:`ReductionUndefinedError` (with the failing index) if an
    intermediate conditioning probability hits the cutoff.
    """
    current = _require(psi, PureState, "psi").bloch
    try:
        indexed = enumerate(axes)
    except TypeError as exc:  # axes is not iterable
        raise ValidationError(f"axes must be a sequence of unit 3-vectors, got {axes!r}") from exc
    total = 1.0
    for k, a in indexed:
        # the name is needed only in an error, so a checked axis skips building it
        axis = a if type(a) is _Axis else unit_vector(a, f"axes[{k}]")
        total *= _chain_step(_cosine(current, axis), k)
        current = axis
    return total
