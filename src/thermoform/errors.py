"""Exception and warning taxonomy for the pipeline.

Every stage raises a named error so the CLI can annotate per-rung failures
instead of crashing a whole sweep.
"""


class ThermoformError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(ThermoformError):
    """Config file missing, malformed, or violating the schema."""


class MapDomainEscapeError(ThermoformError):
    """An orbit left [0,1] by more than the clamp tolerance."""


class SingularPotentialError(ThermoformError):
    """A pullback orbit met a zero derivative, where -t*log|Df| is singular."""


class AmbiguousPointError(ThermoformError):
    """Point coincides with a partition endpoint within root tolerance."""


class TowerTooLargeError(ThermoformError):
    """Domain count exceeded the configured cap."""


class ComponentUndetectedError(ThermoformError):
    """No cyclic strongly connected component found up to the height cap."""


class NoEdgeError(ThermoformError):
    """Tower step would leave the constructed graph (height cap reached)."""


class BaseNotInTransitivePartError(ThermoformError):
    """The candidate base cylinder produces an empty check-set."""


class SchemeTooLargeError(ThermoformError):
    """Branch enumeration exceeded the piece budget."""


class BranchNotContractingError(ThermoformError):
    """Composed inverse branch failed the two-point shrinkage test."""


class PressureUnbracketedError(ThermoformError):
    """No sign change of the pressure estimate inside the s-bracket."""


class TransferOperatorDivergedError(ThermoformError):
    """Power iteration for the leading eigenvector (density or conformal
    masses) did not converge within the iteration cap."""


class TailUnderresolvedError(ThermoformError):
    """Fewer than three usable tail points for the decay fit."""


class IncomparableSchemesError(ThermoformError):
    """Schemes do not share a base-cylinder itinerary."""


class LowCoverageWarning(UserWarning):
    """Scheme coverage fell below the configured floor."""


class UnstablePressureWarning(UserWarning):
    """The pressure root search hit its step cap or left a residual above
    tolerance; the root may be unreliable."""


class VariationNotSummableWarning(UserWarning):
    """V_k tail non-decreasing; geometric fit impossible."""


class ProjectionUnstableWarning(UserWarning):
    """tau-mean very large; tail truncation dominates the projection."""


class TransitiveTieWarning(UserWarning):
    """Two maximal cyclic SCCs tie in size; uniqueness diagnostic failed."""
