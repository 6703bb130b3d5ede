"""Exception types shared across the package.

Each class but the base is raised (or, for the warning, warned) by some
other module of the package; ``tests/test_error_classes.py`` checks this.
"""


class ZetakitError(Exception):
    """Base class for all errors raised by zetakit."""


class DomainError(ZetakitError, ValueError):
    """Argument outside the domain of an operation (pole hit, bad range)."""


class UnsupportedOrderError(DomainError):
    """Order parameter beyond what double precision supports."""


class StripError(DomainError):
    """Point lies outside the strip covered by the asymptotic table."""


class PoleError(ZetakitError):
    """Evaluation requested at a pole; carries the Laurent data."""

    def __init__(self, location, order, residue):
        self.location = location
        self.order = order
        self.residue = residue
        super().__init__(
            f"pole of order {order} at s={location} (residue {residue})"
        )


class AccuracyError(ZetakitError):
    """A numerical routine could not certify the requested accuracy."""


class SlowConvergenceError(AccuracyError):
    """Series evaluation attempted too close to the abscissa of convergence."""


class DivergenceError(ZetakitError):
    """Tail estimation detected a non-integrable integrand."""


class RefinementError(ZetakitError):
    """Newton refinement of a zero failed to converge."""


class ConditioningWarning(UserWarning):
    """Result may have reduced accuracy (pole proximity, cancellation)."""
