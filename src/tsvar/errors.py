"""Exception types shared across the library.

Everything derives from :class:`TsvarError` so callers can catch library
failures with a single except clause while still being able to tell the
individual conditions apart.
"""


class TsvarError(Exception):
    """Base class for all library errors."""


class NotOnGrid(TsvarError):
    """A time value does not coincide with any grid point (within tolerance)."""


class InvalidAlpha(TsvarError):
    """Diamond-alpha weight outside [0, 1]."""


class GridTooSmall(TsvarError):
    """Operation needs more grid points than the scale provides."""


class Pole(TsvarError):
    """Gamma function evaluated at a non-positive integer."""


class DomainError(TsvarError):
    """Evaluation left the mathematical domain (ln/sqrt of a negative, abs'(0), ...)."""


class NonRegressive(TsvarError):
    """1 + mu(t) p(t) vanishes somewhere, so e_p does not exist."""


class OrderNotPositive(TsvarError):
    """Fractional sum order must be > 0."""


class OffDomain(TsvarError):
    """Fractional-sum evaluation point is not on the shifted grid."""


class ZeroWeightMass(TsvarError):
    """Jensen weights integrate to zero."""


class InvalidExponent(TsvarError):
    """Hoelder/Minkowski p <= 1, or power-bound exponents violating p >= q > 0."""


class OutsideDomPsiInverse(TsvarError):
    """The nonlinear Gronwall domain condition fails: Psi^-1 argument not in range(Psi)."""


class QuadratureFailure(TsvarError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class RootNotBracketed(TsvarError):
    """The integral inverter cannot reach its target: the integrand is negative or
    not finite at an iterate, or the integral never gets there."""


class NonFinite(TsvarError):
    """A forward simulation overflowed to inf/nan."""


class NoConvergence(TsvarError):
    """Newton iteration (or every start of a multi-start run) failed to converge."""


class SingularJacobian(TsvarError):
    """Newton hit a numerically singular Jacobian."""


class ConstraintInfeasible(TsvarError):
    """No isoperimetric start satisfied the constraint system."""


class HypothesisHViolated(TsvarError):
    """Operation requires sigma(t) = a1*t + a0 (uniform or geometric scale)."""


class PreconditionViolated(TsvarError):
    """A theorem precondition checked at runtime does not hold."""


class NonPositivePhi(TsvarError):
    """Direct-method weight function must be strictly positive."""


class ExprSyntaxError(TsvarError):
    """Lagrangian expression failed to parse.

    Attributes
    ----------
    offset : int
        0-based character offset of the offending token.
    message : str
        What was expected / found.
    """

    def __init__(self, offset: int, message: str):
        self.offset = offset
        self.message = message
        super().__init__(f"syntax error at offset {offset}: {message}")
