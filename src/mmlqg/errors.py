"""Exception hierarchy.

Exit-code mapping used by the CLI: SchemaError -> 2, NumericalError and
subclasses -> 3, AssumptionViolationError -> 4.
"""


class MmlqgError(Exception):
    """Base class for all package errors."""


class SchemaError(MmlqgError):
    """Malformed configuration or inconsistent shapes.

    The message names the offending key or field.  An error about one
    field carries its name in ``field`` (the attribute path, like
    ``major.A0``) and the bare complaint in ``detail``; the config layer
    turns the field into a JSON path (``$.major.A0``).
    """

    def __init__(self, message, field=None):
        super().__init__(message if field is None else "%s: %s" % (field, message))
        self.field = field
        self.detail = message


class OutOfRangeError(MmlqgError, ValueError):
    """Time query outside the grid interval."""


class NumericalError(MmlqgError):
    """Base for failures of the numerical machinery."""


class IntegrationDivergedError(NumericalError):
    """Non-finite value produced during an ODE sweep.

    Carries the node index and time at which the sweep first left the
    finite range and, for a stacked sweep, the index of the member that
    did (0 otherwise).
    """

    def __init__(self, message, node=None, time=None, member=0):
        super().__init__(message)
        self.node = node
        self.time = time
        self.member = member


class RiccatiBlowupError(NumericalError):
    """Riccati or offset sweep diverged; reports the first non-finite node."""

    def __init__(self, message, node=None, time=None):
        super().__init__(message)
        self.node = node
        self.time = time


class FixedPointError(NumericalError):
    """Consistency iteration failed to converge; carries the residual trace."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class AreSolveError(NumericalError):
    """No stabilizing solution of the discounted algebraic Riccati equation:
    the matrix sign iteration failed, or the root missed the residual gate
    or left the closed loop unstable."""


class DivergedPathError(NumericalError):
    """A simulated path left the finite range; carries the path id."""

    def __init__(self, message, path=None, node=None):
        super().__init__(message)
        self.path = path
        self.node = node


class DimensionGuardError(SchemaError):
    """A matrix of an agent record has the wrong shape for its state: an
    ExtendedSystem weight, or the major data build_extended_minor reads."""


class UnsupportedOracleError(MmlqgError):
    """Oracle invoked outside its validity domain (e.g. nonzero noise)."""


class AssumptionViolationError(MmlqgError):
    """A model assumption (convexity, detectability, stability) fails.

    Carries the structured report that identified the violation.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
