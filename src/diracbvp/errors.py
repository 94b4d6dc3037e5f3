"""Exception types shared across the package."""


class DiracBVPError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DiracBVPError, ValueError):
    """An abscissa lies outside [0, pi]."""


class ConfigError(DiracBVPError, ValueError):
    """A problem configuration violates a construction invariant."""


class IntegrationOverflowError(DiracBVPError, RuntimeError):
    """The propagated state became non-finite."""

    def __init__(self, lam):
        self.lam = lam
        super().__init__(f"propagation overflowed at lambda = {lam}")


class PoleError(DiracBVPError, ZeroDivisionError):
    """Evaluation requested at (or numerically on top of) an eigenvalue."""

    def __init__(self, lam, nearest=None):
        self.lam = lam
        self.nearest = nearest
        msg = f"lambda = {lam} is at or near a pole"
        if nearest is not None:
            msg += f" (nearest eigenvalue estimate {nearest})"
        super().__init__(msg)


class MissingRootError(DiracBVPError, RuntimeError):
    """Requested indices without an eigenvalue.

    Raised when the sign scan of the characteristic function holds fewer
    roots than indices, or when its root count could not be certified at
    any scan density.  ``partial`` carries whatever spectral data was still
    recoverable.
    """

    def __init__(self, missing_indices, partial=None):
        self.missing_indices = tuple(missing_indices)
        self.partial = partial
        super().__init__(
            "no certified characteristic-function root for index(es) "
            f"{list(self.missing_indices)}"
        )


class RootRefinementError(DiracBVPError, RuntimeError):
    """Root refinement did not converge within its sweep cap."""

    def __init__(self, sweeps, unconverged):
        self.sweeps = sweeps
        self.unconverged = tuple(unconverged)
        super().__init__(
            f"root refinement did not converge in {sweeps} sweeps "
            f"for bracket(s) near {list(self.unconverged)}"
        )


class NonProportionalError(DiracBVPError, RuntimeError):
    """The left and right solutions are not proportional: not an eigenvalue."""

    def __init__(self, lam, residual):
        self.lam = lam
        self.residual = residual
        super().__init__(
            f"solutions at lambda = {lam} are not proportional "
            f"(fit residual {residual:.3e}); not an eigenvalue"
        )


class GridMismatchError(DiracBVPError, ValueError):
    """Two sampled elements do not share the configuration grid."""
