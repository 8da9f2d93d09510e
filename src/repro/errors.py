"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """An operation received tensors with incompatible shapes."""


class GradientError(ReproError, RuntimeError):
    """Backward pass was requested on an invalid graph or tensor."""


class ConfigError(ReproError, ValueError):
    """A model or decomposition configuration is invalid."""


class DecompositionError(ReproError, RuntimeError):
    """Tucker/SVD decomposition failed or was misused."""


class EvaluationError(ReproError, RuntimeError):
    """The evaluation harness was driven with inconsistent inputs."""


class HardwareModelError(ReproError, ValueError):
    """The analytic hardware model received an invalid specification."""


class CheckpointError(ReproError, IOError):
    """A model checkpoint could not be saved or restored."""


class ServingError(ReproError, RuntimeError):
    """The serving engine was driven with invalid requests or state."""


class PoolExhaustedError(ServingError):
    """The preallocated KV page store has no free pages left."""


class ParallelError(ReproError, RuntimeError):
    """The tensor-parallel runtime was misconfigured or a rank failed."""


class CollectiveAborted(ParallelError):
    """A collective or P2P wait ended because a peer rank failed first."""
