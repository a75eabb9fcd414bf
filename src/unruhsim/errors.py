"""Exception hierarchy shared across the package."""


class SimulationError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SimulationError):
    """Matrix operands have incompatible shapes."""


class NotHermitian(SimulationError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class OutOfRange(SimulationError):
    """A physical parameter lies outside its admissible interval."""


def require_member(what: str, value, allowed) -> None:
    """The membership rule: OutOfRange unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise OutOfRange(f"unknown {what} {value!r}")


class TraceDeviation(SimulationError):
    """A density matrix trace deviates from one beyond tolerance."""


class NegativeEigenvalue(SimulationError):
    """A density matrix has an eigenvalue below the PSD tolerance."""


class CompletenessViolation(SimulationError):
    """A Kraus set fails the trace-preservation (completeness) relation.

    Carries the measured defect so callers can report it.
    """

    def __init__(self, message: str, defect: float):
        super().__init__(message)
        self.defect = defect


class IoFailure(SimulationError):
    """Wraps OS-level failures when writing output files."""
