"""Exception types and the report-check record shared across the package."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One report check, gated when it has a tolerance: it passes when the
    residual is at most the tolerance, or at least it for a floor gate."""

    name: str
    value: object = None
    residual: object = None
    tolerance: object = None
    points: object = None  # the grid size behind the residual
    message: object = None
    floor: bool = False

    def as_dict(self):
        """The report row: the fields, with points, message and floor only
        where set, and gated and passed."""
        row = {key: v for key, v in vars(self).items() if v is not None
               and v is not False or key in ("value", "residual", "tolerance")}
        r, tol = self.residual, self.tolerance
        row.update(gated=tol is not None, passed=tol is None or (
            r is not None and (r >= tol if self.floor else r <= tol)))
        return row


class DynVertexError(Exception):
    """Base class for all package-specific errors."""


class SingularParameter(DynVertexError):
    """A required denominator is (numerically) zero."""


class NonConvergent(DynVertexError):
    """A series failed to converge within the term budget."""


class InadmissibleParameters(DynVertexError):
    """Parameters outside the admissible region of a model or formula."""


class InadmissibleWeights(DynVertexError):
    """A sampled weight vector is negative or not normalized."""


class SizeLimit(DynVertexError):
    """An exact enumeration would exceed the configured state bound."""


class ModeError(DynVertexError):
    """Operation requested in the wrong (elliptic/trigonometric) mode."""


class ContourInfeasible(DynVertexError):
    """No admissible contour geometry exists for the requested identity."""


class NotConverged(DynVertexError):
    """A quadrature did not reach the requested accuracy."""


class OutOfDomain(DynVertexError):
    """Evaluation point outside the domain of a closed-form shape."""
