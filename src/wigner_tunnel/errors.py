"""Exception types shared across the package, and the text of recorded warnings."""


class WignerTunnelError(Exception):
    """Base class for all package-specific errors."""


class GammaPoleError(WignerTunnelError):
    """Gamma function evaluated at a non-positive integer."""


class SeriesConvergenceError(WignerTunnelError):
    """A series did not converge (argument outside radius, or term cap hit)."""


class ConvergenceRegionError(WignerTunnelError):
    """Closed-form series requested outside its convergence region."""


class QuadratureError(WignerTunnelError):
    """A quadrature failed to reach the requested tolerance."""


class BranchPointError(WignerTunnelError):
    """Evaluation requested exactly at a branch point."""


class BranchAmbiguityError(WignerTunnelError):
    """Square-root branch cannot be fixed (turning point exactly on grid)."""


class NoBarrierError(WignerTunnelError):
    """Tunneling integral requested at an energy above the barrier top."""


class PoleSearchError(WignerTunnelError):
    """Complex root search for S-matrix poles failed to converge."""


class NonMeromorphicError(WignerTunnelError):
    """Operation requires meromorphic amplitudes (not available for eikonal)."""


class AxisMismatchError(WignerTunnelError):
    """Phase-space grids do not share axes."""


class GridCoverageError(WignerTunnelError):
    """State or propagated support leaks outside the grid."""

    def __init__(self, message, suggested_q=None, suggested_p=None):
        super().__init__(message)
        self.suggested_q = suggested_q
        self.suggested_p = suggested_p


class KernelAccuracyError(WignerTunnelError):
    """Internal consistency monitor tripped (e.g. imaginary parts not cancelling)."""


class ConfigError(WignerTunnelError):
    """CLI configuration file is malformed."""


class MethodCompatibilityError(WignerTunnelError):
    """Requested method cannot be applied to the given barrier."""


def warning_messages(caught):
    """The distinct texts of recorded warnings, in first-seen order."""
    return list(dict.fromkeys(str(w.message) for w in caught))
