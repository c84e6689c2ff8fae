"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Arguments violate an operation's precondition (unknown variable,
    overlapping sets, scope mismatch, out-of-domain value...)."""


class CyclicGraphError(InvalidInputError):
    """The directed part of a graph contains a cycle."""


class PartialSupportError(RuntimeError):
    """A computation required conditioning on a zero-probability context.

    Raised instead of silently producing NaNs; callers that can tolerate
    partial factors check the ``partial`` flag on factors instead.
    """


class WindowTooSmallError(InvalidInputError):
    """A temporal window does not cover the slices a construction needs."""


class UnsupportedModelError(RuntimeError):
    """The model is outside the supported class (e.g. infinite dynamic
    confounder span, or a window over the cell cap)."""


class InfiniteSpanError(UnsupportedModelError):
    """A self-sustaining confounder chain gives the intervention an
    infinite dynamic time span."""


class UnsupportedQueryError(RuntimeError):
    """The query violates an algorithm's applicability condition
    (e.g. t_y inside the dynamic time span)."""


class UnsupportedTransportError(RuntimeError):
    """Selection-variable placement is outside the supported transport
    class, or the required source experiment is not available."""


class PromiseViolationError(RuntimeError):
    """All candidates were eliminated: the promise that the true graph is
    in the candidate set did not hold."""


class InternalError(RuntimeError):
    """An invariant the algorithms guarantee was violated; indicates a bug
    rather than bad input."""
