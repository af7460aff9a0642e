"""Exact single-qubit quantum mechanics over Bloch vectors.

Operators are kept in the real form ``a*1 + b.sigma`` (scalar ``a``, real
3-vector ``b``) instead of complex 2x2 matrices: every identity this package
needs (operator products of the form B A B, traces, eigenvalues, reduction)
has a closed form in ``(a, b)``, which removes complex arithmetic from the
trusted path.  A complex-matrix reference implementation lives in the test
suite as an independent oracle.

Pure states only: the dispersion-free constructions verified here are defined
for pure states, and mixed states are deliberately unsupported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    "reduce_state",
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


def _vector3(v, name: str) -> np.ndarray:
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
    arr.flags.writeable = False
    return arr


def unit_vector(v, name: str = "vector") -> np.ndarray:
    """Validate a unit 3-vector (|v| = 1 within 1e-9); returns it read-only.

    A vector this function returned is passed through as is, so each axis is
    checked once however many layers it crosses.
    """
    if type(v) is _UnitVector and v._checked:
        return v
    arr = _vector3(v, name)
    norm = math.sqrt(float(arr @ arr))
    if abs(norm - 1.0) > UNIT_TOLERANCE:
        raise ValidationError(f"{name} must be a unit vector, got norm {norm!r}")
    unit = arr.view(_UnitVector)
    unit._checked = True
    return unit


def cosine_between(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of two unit vectors, clipped to [-1, 1].

    Elementwise-identical (or exactly opposite) arrays short-circuit to
    exactly +-1.0: for the same float vector the true cosine is 1 even when
    dot(v, v) rounds away from it, and sequential-measurement identities
    (idempotence, zero-probability complements) must hold exactly.  Exact
    comparison only; nothing is snapped within a tolerance.
    """
    a, b = u.tolist(), v.tolist()
    if a == b:
        return 1.0
    if a == [-x for x in b]:
        return -1.0
    return min(1.0, max(-1.0, float(np.dot(u, v))))


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

    @property
    def is_projector(self) -> bool:
        # |2b| is the norm of the axis, held to the unit-vector test PureState applies to it;
        # a is held to the same 1e-9
        return (
            abs(self.a - 0.5) <= UNIT_TOLERANCE
            and abs(2.0 * self.b_norm - 1.0) <= UNIT_TOLERANCE
        )

    @property
    def axis(self) -> np.ndarray:
        """Unit Bloch axis of a projector (b scaled back to the sphere)."""
        if not self.is_projector:
            raise ValidationError("axis is only defined for projectors")
        return unit_vector(np.multiply(self.b, 2.0), "projector axis")

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
    axis = unit_vector(m, "projector axis")
    return HermitianOp(0.5, axis * 0.5)


def expectation(psi: PureState, op: HermitianOp) -> float:
    """<psi| op |psi> = a + b.s; equals (1 + s.m)/2 for a projector on m."""
    return op.a + float(np.dot(op.b, psi.bloch))


def _require_projector(op: HermitianOp, name: str) -> None:
    if not op.is_projector:
        raise ValidationError(f"{name} must be a projector (a = 1/2, |b| = 1/2), got {op!r}")


def sandwich(outer: HermitianOp, inner: HermitianOp) -> HermitianOp:
    """The Hermitian product ``outer * inner * outer`` for two projectors.

    For projectors on axes n (outer) and m (inner) the result is
    ``((1 + n.m)/2) * P_n``.  The closed form below is the general
    Pauli-algebra expansion of B A B, which is real because the cross terms
    cancel; projector-ness of the inputs is still enforced per contract.
    """
    _require_projector(outer, "outer operator")
    _require_projector(inner, "inner operator")
    b0, bv = outer.a, outer.b
    a0, av = inner.a, inner.b
    ab = float(np.dot(av, bv))
    bb = float(np.dot(bv, bv))
    scalar = a0 * b0 * b0 + 2.0 * b0 * ab + a0 * bb
    vector = (b0 * b0 - bb) * av + 2.0 * (a0 * b0 + ab) * bv
    return HermitianOp(scalar, vector)


def reduce_state(psi: PureState, condition: HermitianOp) -> PureState:
    """Post-measurement state B rho B / Tr[rho B] for a projector B.

    For a pure state and a rank-1 projector the reduced state is the
    projector's own axis.  Raises :class:`ReductionUndefinedError` when
    Tr[rho B] falls at or below the orthogonality cutoff.
    """
    _require_projector(condition, "condition")
    weight = expectation(psi, condition)
    if weight <= ORTHOGONALITY_CUTOFF:
        raise ReductionUndefinedError(
            f"state is orthogonal to the conditioning projector (Tr[rho B] = {weight!r})"
        )
    return PureState(condition.axis)


def conditional_expectation(psi: PureState, observed: HermitianOp, condition: HermitianOp) -> float:
    """Tr[rho B A B] / Tr[rho B] for projectors A (observed) and B (condition).

    For rank-1 projectors this equals (1 + n.m)/2, independent of the state.
    It is evaluated as the expectation of A in the reduced state
    B rho B / Tr[rho B] (see :func:`reduce_state`), which stays exact to
    rounding as Tr[rho B] shrinks; dividing Tr[rho B A B] by Tr[rho B] would
    amplify the numerator's rounding error by 1 / Tr[rho B].
    """
    _require_projector(observed, "observed operator")
    return expectation(reduce_state(psi, condition), observed)


def chain_probability(psi: PureState, sequence: Sequence[HermitianOp] | Iterable[HermitianOp]) -> float:
    """Probability of selecting every projector outcome in order.

    Equals the product over steps of (1 + n_{k-1}.n_k)/2 with n_0 the initial
    Bloch vector, i.e. the quantum chain rule for sequential projective
    measurements.  Raises :class:`ReductionUndefinedError` (with the failing
    index) if an intermediate conditioning probability hits the cutoff.
    """
    current = psi.bloch
    total = 1.0
    for k, op in enumerate(sequence):
        _require_projector(op, f"sequence[{k}]")
        # the projector test already held |2b| to the unit-vector tolerance
        axis = np.multiply(op.b, 2.0)
        step = 0.5 * (1.0 + cosine_between(current, axis))
        if step <= ORTHOGONALITY_CUTOFF:
            raise ReductionUndefinedError(
                f"chain hits an orthogonal projector at step {k}", index=k
            )
        total *= step
        current = axis
    return total
