"""Exception types shared across the package."""


class CtrwLabError(Exception):
    """Base class for all errors raised by ctrwlab."""


class DomainError(CtrwLabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class SimulationError(CtrwLabError):
    """Path generation failed (bad environment value, invalid state, ...)."""


class JumpCapError(SimulationError):
    """A path exceeded the configured maximum number of jumps."""

    def __init__(self, cap: int, horizon_t: float):
        self.cap = cap
        self.horizon_t = horizon_t
        super().__init__(
            f"path exceeded the jump cap of {cap} events before reaching "
            f"horizon t={horizon_t!r}"
        )


class BoundaryError(CtrwLabError):
    """An environment was queried too close to (or outside) its window."""


class QuadratureError(CtrwLabError):
    """Numerical integration failed to reach its accuracy target."""


class DivergentSumError(CtrwLabError):
    """A lattice series failed the Cauchy test within the truncation cap."""


class ExperimentConfigError(CtrwLabError, ValueError):
    """An experiment configuration violates a precondition or assumption."""


class ReportIOError(CtrwLabError):
    """Writing a report or other output file failed; carries the
    destination path."""

    def __init__(self, path, cause):
        self.path = str(path)
        super().__init__(f"could not write {path}: {cause}")
