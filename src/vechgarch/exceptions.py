"""Exception hierarchy used across the package."""


class VechGarchError(Exception):
    """Base class for all errors raised by this package.

    Attributes
    ----------
    stage : str or None
        Estimator stage that failed (``moments``, ``gammas``, ``solve_b``,
        ``sigma``), set on the error as it leaves that stage; ``None`` until
        then.  ``str`` puts it in front of the message as ``[stage] ``.
    """

    stage = None

    def __str__(self):
        message = super().__str__()
        return message if self.stage is None else f"[{self.stage}] {message}"


class InvalidInput(VechGarchError):
    """Malformed input: wrong shape, non-finite values, bad configuration."""


class NumericalFailure(VechGarchError):
    """A numerical routine did not converge or produced an unusable result."""


class SingularMatrix(VechGarchError):
    """A matrix that must be inverted is singular beyond tolerance."""


class SingularLyapunov(VechGarchError):
    """The discrete Lyapunov operator X - B X B' is not invertible."""


class NotPositiveDefinite(VechGarchError):
    """A matrix required to be symmetric positive definite is not."""


class NonStationary(VechGarchError):
    """The autoregressive matrix A + B has spectral radius >= 1."""


class InsufficientData(VechGarchError):
    """Too few observations for the requested computation."""


class UnimodularEigenvalues(VechGarchError):
    """The palindromic quadratic has eigenvalues on (or too close to) the
    unit circle, so no stable solvent exists: cyclic reduction did not
    converge, hit a singular block, or gave ``rho(B)`` inside the band."""


class PositivityViolation(VechGarchError):
    """A simulated conditional covariance matrix failed to be positive
    definite.

    Attributes
    ----------
    step : int
        Zero-based index of the offending recursion step, counted from the
        start of the burn-in.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class MissingSigmaW(VechGarchError):
    """Flow aggregation with m > 1 requires the noise covariance sigma_w."""

