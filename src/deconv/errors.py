"""Exception types raised across the package.

Each class carries the ``exit_code`` that ``deconv`` returns when it
refuses a run: 2 for a malformed file, 3 for mixed dimensions or
arithmetic modes, 5 for too short a truncation, and 4 for every other
refusal, inherited from :class:`DeconvError`.  Keeping the classes in one
module also spares the core modules from importing each other just to
share an error class.
"""


class DeconvError(Exception):
    """Base class for all library-specific failures."""

    exit_code = 4


class DimensionMismatch(DeconvError):
    """Operands live on lattices or grids of different dimension."""

    exit_code = 3


class ModeMismatch(DeconvError):
    """Exact-rational and float64 operands were mixed in one operation."""

    exit_code = 3


class FormatError(DeconvError):
    """A serialized measure, signal, or image could not be parsed."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}" if where else message)


class NormNotLessThanOne(DeconvError):
    """The series construction needs total variation strictly below one."""

    def __init__(self, norm):
        self.norm = norm
        super().__init__(f"total variation {norm} is not < 1; the alternating series does not converge")


class OrderCapExceeded(DeconvError):
    """The requested residual target needs more series terms than the cap allows."""

    def __init__(self, cap: int, bound_at_cap):
        self.cap = cap
        self.bound_at_cap = bound_at_cap
        super().__init__(
            f"residual target unreachable within order cap {cap} (bound at cap: {bound_at_cap})"
        )


class NonFiniteResult(DeconvError, ValueError):
    """A float64 measure or signal would hold inf or NaN, e.g. from an overflowing product."""


class ParameterOutOfRange(DeconvError):
    """A kernel or series parameter lies outside its admissible range."""


class UnsupportedKernel(DeconvError):
    """The operation only knows how to handle specific kernels."""


class InsufficientTruncation(DeconvError):
    """The truncated series is too short for the requested reconstruction."""

    exit_code = 5

    def __init__(self, message: str, required_halfwidth: int | None = None,
                 support_radius: int | None = None):
        self.required_halfwidth = required_halfwidth
        self.support_radius = support_radius
        super().__init__(message)


class GridTooCoarse(DeconvError):
    """Sample spacing is too large for the kernel being sampled."""


class GridTooNarrow(DeconvError):
    """The grid does not cover enough of the kernel's effective support."""


class ReciprocalUnderflow(DeconvError):
    """A kernel spectrum magnitude is too close to zero to divide by."""

    def __init__(self, magnitude):
        self.magnitude = magnitude
        super().__init__(f"kernel spectrum magnitude {magnitude!r} below 1e-300; cannot divide")
