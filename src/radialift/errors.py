"""Exception types shared across the package.

Quadrature raises none of them for a failed integral: a NaN from the
integrand or a missed tolerance is reported in the result, with
``converged=False``.  The value functions, which return a bare number,
raise ConvergenceError for such a result.
"""


class ExpressionSyntaxError(ValueError):
    """Profile text failed to parse.

    Carries the byte offset of the failure and the set of token kinds that
    would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.expected = frozenset(expected)


class UnknownIdentifierError(ExpressionSyntaxError):
    """An identifier that is neither the variable, a constant, nor a function."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r}", offset, expected=("identifier",))
        self.name = name


class EvaluationDomainError(ValueError):
    """A node was evaluated outside its domain (division by zero, log of 0, ...)."""

    def __init__(self, node, value, reason):
        super().__init__(f"{reason} in {node!s} at s={value!r}")
        self.node = str(node)
        self.value = value


class BesselDomainError(ValueError):
    """Argument outside the domain of a Bessel routine."""


class UnsupportedOrderError(ValueError):
    """Bessel order below -1/2 or beyond the supported ceiling."""


class ZeroFindingError(RuntimeError):
    """Root polishing failed; carries the 1-based index of the failing zero."""

    def __init__(self, index, message):
        super().__init__(f"zero #{index}: {message}")
        self.index = index


class ConvergenceError(RuntimeError):
    """A quadrature-backed operation did not reach tolerance.

    ``result`` holds the best available QuadratureResult (or None).
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class IntegrabilityError(ValueError):
    """The transform's integrability gate failed; carries the probe report."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class ParityError(ValueError):
    """Dimension step of a lift is not an even nonnegative integer."""


class BranchError(ValueError):
    """Resolvent parameter z sits on the nonnegative real axis."""


class EngineError(RuntimeError):
    """A differentiation engine could not produce the requested derivative."""


class SphereRuleError(RuntimeError):
    """Two successive sphere-quadrature orders disagree beyond tolerance."""
