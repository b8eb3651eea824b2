"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class PoleError(ValueError):
    """Evaluation requested at (or too close to) a pole."""


class SpecialPointError(ValueError):
    """Point where the function is finite but not computed by this package."""


class NotGenericError(ValueError):
    """Expansion parameter collides with a pole of a Gamma or zeta factor."""


class PrecisionError(RuntimeError):
    """A result or its error bound past double range, or a tolerance out of reach.

    Carries the error bound that was actually achieved in ``achieved``.
    """

    def __init__(self, message: str, achieved: float = float("inf")):
        super().__init__(message)
        self.achieved = achieved


class IndeterminateSignError(RuntimeError):
    """Sign decision impossible: error bound straddles zero after refinement."""


class AnalysisError(RuntimeError):
    """A search or certification procedure failed in an unexpected way."""
