"""Exception types shared across the package, and the step limit that raises one."""

from contextlib import contextmanager
from contextvars import ContextVar
from math import inf


class SgfactError(Exception):
    """Base class for all errors raised by this package."""


class ConstructionError(SgfactError, ValueError):
    """Invalid input while building a semigroup, system, or other object."""


class DimensionMismatchError(SgfactError, ValueError):
    """Operands whose dimensions are required to agree do not."""


class NotInSemigroupError(SgfactError, ValueError):
    """An element-level operation was asked about a non-member."""


class NotFullError(SgfactError, ValueError):
    """An operation that requires a full semigroup received a plain one."""


class UnsupportedDimensionError(SgfactError, ValueError):
    """An operation limited to numerical semigroups got dimension > 1."""


class ResourceLimitError(SgfactError, RuntimeError):
    """A counting loop exceeded the configured step budget."""

    def __init__(self, steps: int):
        super().__init__(f"step budget of {steps} exceeded")
        self.steps = steps


_step_limit = ContextVar("step_limit", default=None)


class _Budget:
    """The step count of one counting loop, against the limit in force when it starts."""

    __slots__ = ("limit", "spent")

    def __init__(self):
        limit = _step_limit.get()
        self.limit = inf if limit is None else limit
        self.spent = 0

    def spend(self, n: int = 1) -> None:
        """Count n steps; raise :class:`ResourceLimitError` once more than the limit are spent."""
        self.spent += n
        if self.spent > self.limit:
            raise ResourceLimitError(self.limit)


@contextmanager
def step_limit(n: int | None):
    """Make each counting loop in the block raise :class:`ResourceLimitError`
    after ``n`` steps of its own (``None``: no limit), like ``decimal.localcontext``.

    Every counting loop keeps its count in one :class:`_Budget`, the only
    reader of the limit.  An answer served from one of the package's two
    caches (the homogenized Graver basis and the toric ideal of a semigroup)
    runs no loop and so spends no steps; an aborted run caches nothing."""
    if n is not None and n < 0:
        raise ConstructionError(f"step limit must be nonnegative, got {n}")
    token = _step_limit.set(n)
    try:
        yield
    finally:
        _step_limit.reset(token)
