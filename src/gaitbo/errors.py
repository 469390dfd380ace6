"""Exception types shared across the package."""

from __future__ import annotations


class GaitBoError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(GaitBoError, ValueError):
    """A value lies outside the box or interval it must belong to."""


class GridNodeError(GaitBoError, ValueError):
    """A gait parameter does not coincide with a lookup-table node."""


class ConfigurationError(GaitBoError, ValueError):
    """A config object or input combination is invalid."""


class SimulationError(GaitBoError, RuntimeError):
    """The plant produced a non-finite state.

    step_index is the step it failed at; episode_index, when a batch of
    episodes was run, the input-order index of the failing episode.
    """

    def __init__(self, message: str, step_index: int | None = None,
                 episode_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.episode_index = episode_index


class NumericalError(GaitBoError, RuntimeError):
    """A linear-algebra routine failed beyond recoverable jitter."""


class DegenerateGeometryError(GaitBoError, ValueError):
    """Points span no solid polyhedron, or one so thin that its face planes miss a vertex."""


class SafeSetError(GaitBoError, RuntimeError):
    """Safe-set extraction cannot proceed (too few safe points)."""


class BlackBoxError(GaitBoError, RuntimeError):
    """An optimization black box failed; carries the partial history."""

    def __init__(self, message: str, history: tuple = ()):
        super().__init__(message)
        self.history = history
