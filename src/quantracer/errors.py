"""Exception types shared across the package."""


class QuantracerError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(QuantracerError):
    """A quadrature or root solve stopped short of its tolerance.

    Adaptive quadrature raises it after its panel cap or on a panel too
    narrow to split; ``value`` is then the running total and ``error`` the
    summed gaps of the panels left to split.  find_root_monotone raises it
    for a NaN root function (no value or error) and after its 200
    iterations, with the last iterate as ``value`` and the bracket width
    as ``error``.  Callers can decide whether to accept a degraded result.
    """

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class NoSignChange(QuantracerError):
    """Root bracket does not straddle a sign change; caller must expand it."""


class StepUnderflow(QuantracerError):
    """ODE stepper needed a step below machine scale (near-singular velocity).

    ``t`` and ``x`` are the last sample the path returned before the
    failure (an accepted step point, or the last ``t_eval`` sample), or the
    start (t0, x0) when there is none, so callers can recover or report it.
    """

    def __init__(self, message, t=None, x=None):
        super().__init__(message)
        self.t = t
        self.x = x


class InvalidRange(QuantracerError):
    """Requested interval is empty or inverted."""


class DegenerateK(QuantracerError):
    """Scattering mode requested for a non-positive wave number."""


class GridTooCoarse(QuantracerError):
    """Wave-number grid cannot resolve the oscillation at the requested (x, t)."""


class NormBelowP(QuantracerError):
    """The remaining total probability is below the requested quantile level.

    ``t_end`` is the time at which the norm crossed the level, when known.
    """

    def __init__(self, message, t_end=None):
        super().__init__(message)
        self.t_end = t_end


class VelocitySingular(QuantracerError):
    """Probability density fell below the evaluation floor; j/rho unreliable."""

    def __init__(self, message, t=None, x=None):
        super().__init__(message)
        self.t = t
        self.x = x
