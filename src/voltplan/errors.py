"""Exception types shared across the package.

CLI exit codes: a SolverError (a solver broke its own contract) exits 4,
TimingInfeasible exits 3, and every other VoltplanError (validation and
parse failures) exits 2. Flow arcs have no lower bounds, so no flow network
voltplan builds can be infeasible; a flow solve fails only by breaking its
own contract.
"""


class VoltplanError(Exception):
    pass


class ValidationError(VoltplanError):
    pass


class NotConvex(ValidationError):
    """Curve slope magnitudes are not strictly decreasing."""


class NotMonotone(ValidationError):
    """Delays not strictly increasing or powers not strictly decreasing."""


class WrongArity(ValidationError):
    """Point count does not match the requested level count."""


class ResultNotConvex(ValidationError):
    """Adding the shifter overhead broke the curve invariants."""


class EmptyNet(ValidationError):
    """A net with a source but no sinks."""


class CyclicNetlist(ValidationError):
    """The directed graph over modules contains a cycle."""


class MalformedExpression(ValidationError):
    """Slicing expression is not a valid normalized postfix string."""


class ParseError(ValidationError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateName(ParseError):
    pass


class UnknownBlock(ParseError):
    pass


class SolverError(VoltplanError):
    """A solver failed internally or returned a result that breaks its own
    contract: a fault in voltplan, not in the input."""


class NegativeResidualCycle(SolverError):
    """A flow solver returned a flow its potentials do not certify."""


class TimingInfeasible(VoltplanError):
    """Even the fastest levels exceed the cycle-time budget."""

    def __init__(self, message, critical_path=()):
        super().__init__(message)
        self.critical_path = tuple(critical_path)
