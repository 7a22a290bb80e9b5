"""Exception types shared across the package.

Everything derives from :class:`QToricError`, itself a ``ValueError``, so
callers can catch either the package base or plain ``ValueError``.
"""


class QToricError(ValueError):
    """Base class for validation and domain errors raised by qtoric."""


class LengthMismatchError(QToricError):
    """A sequence does not have the length required by its role."""


class ZeroStateError(QToricError):
    """An identically zero vector was passed where a projective point is needed."""


class NonFiniteAmplitudeError(QToricError):
    """An amplitude or coordinate is NaN or infinite."""


class DimensionMismatchError(QToricError):
    """Two objects that must share a dimension do not."""


class EmptyFactorListError(QToricError):
    """A tensor product of zero factors was requested."""


class UnknownNameError(QToricError):
    """A named fixture state was requested that does not exist."""


class WrongQubitCountError(QToricError):
    """An operation was applied to a state with an unsupported qubit count."""


class QubitLimitError(WrongQubitCountError):
    """A qubit count exceeds a documented size limit."""


class OddQubitCountError(WrongQubitCountError):
    """The m-tangle was requested for an odd number of qubits."""


class UnsupportedPolytopeError(QToricError):
    """The polytope is outside the class an operation supports."""


class RedundantVertexError(QToricError):
    """A vertex lies in the convex hull of the remaining vertices."""


class DegenerateIntervalError(QToricError):
    """A box axis has zero length where a full-dimensional box is required."""


class IndexOutOfRangeError(QToricError):
    """A relation index does not address a point of the exponent set."""


class SchemaError(QToricError):
    """A JSON document does not match the documented input schema."""
