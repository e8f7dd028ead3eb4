"""Exception hierarchy shared by all wfk modules."""


class WfkError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(WfkError, ValueError):
    """Operands have incompatible shapes."""


class PoleError(WfkError, ArithmeticError):
    """A rational function was evaluated at (or too close to) a pole."""


class InvariantError(WfkError, ValueError):
    """A domain value violates one of its declared invariants."""


class FormatError(WfkError, ValueError):
    """An input file is missing or is not in its expected format."""


class FirRequiredError(WfkError, ValueError):
    """An operation restricted to FIR filters received IIR parameters."""


class ConvergenceError(WfkError, ArithmeticError):
    """An iterative solve failed to converge within its iteration cap."""


class SamplingError(WfkError, RuntimeError):
    """Resampling retries were exhausted while drawing circle points."""
