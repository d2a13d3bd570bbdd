"""Exception types shared across the package."""

from __future__ import annotations


class DulacError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(DulacError):
    """Syntax or semantic error in a text input, with source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(message)

    def __str__(self) -> str:
        if self.line is not None:
            return f"line {self.line}, column {self.col}: {self.message}"
        return self.message


# --- multiplier synthesis ---


class TraceZeroError(DulacError):
    """The matrix has zero trace; the quadratic multiplier ansatz divides by it."""


class SingularAnsatzError(DulacError):
    """The 3x3 coefficient-matching system is singular (3a^2+10ad-4bc+3d^2 = 0)."""


class DoubleZeroEigenvalueError(DulacError):
    """Both eigenvalues vanish; no quadratic multiplier exists."""


class NotAnEquilibriumError(DulacError):
    """The given point is not a zero of the field to tolerance."""


class CertificationFailedError(DulacError):
    """No box down to the minimum radius could be certified."""


class FlowBoxError(DulacError):
    """Flow-box multiplier construction failed; ``node`` locates the failure."""

    def __init__(self, message: str, node: tuple | None = None):
        self.node = node
        super().__init__(message)


# --- Darboux machinery ---


class NotInvariantError(DulacError):
    """The candidate curve is not invariant; carries the division remainder."""

    def __init__(self, message: str, remainder=None):
        self.remainder = remainder
        super().__init__(message)


class ConstantInputError(DulacError):
    """A nonconstant polynomial was required."""


class NotExponentialFactorError(DulacError):
    """The defining polynomial identity for exp(g/h) has no polynomial cofactor."""


class DegreeBoundViolatedError(DulacError):
    """Exponential-factor cofactor exceeds the degree bound d-1."""


class NoNontrivialRelationError(DulacError):
    """The cofactor relation has only the trivial kernel; no Darboux integral."""


# --- flow numerics ---


class NoReturnError(DulacError):
    """The trajectory did not return to the section within the time budget."""


class CycleNotFoundError(DulacError):
    """Return-map iteration did not converge to a periodic orbit."""


class DegenerateCurveWarning(UserWarning):
    """A common zero of f and grad f is not a zero of the field."""
