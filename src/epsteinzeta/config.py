"""Evaluation configuration shared by the series and the theta-integral rule."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class EvalConfig:
    """Truncation policy for every tolerance-driven evaluation.

    tol
        Target absolute error of the returned value.
    """

    tol: float = 1e-9

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")

    def tighter(self, factor: float) -> "EvalConfig":
        """A copy with tol scaled by ``factor`` (used for sign refinement)."""
        return EvalConfig(tol=self.tol * factor)


DEFAULT_CONFIG = EvalConfig()
