"""Exception hierarchy for the varbound package."""


class VarboundError(Exception):
    """Base class for all varbound errors."""


# -- experiment model ---------------------------------------------------------

class InvalidDesign(VarboundError):
    """Design parameters are malformed (bad probabilities, counts, partitions)."""


class SupportTooLarge(VarboundError):
    """Exact enumeration requested but the design support exceeds the cap.

    Callers should fall back to Monte Carlo sampling.
    """


class RuleUndefined(VarboundError):
    """A custom exposure table has no entry for the requested assignment."""


class ZeroExposureProbability(VarboundError):
    """An inverse-propensity estimator needs a strictly positive exposure probability."""


class DegenerateAssignment(VarboundError):
    """A realized assignment left an exposure group empty for a ratio estimator."""


class SingularRegression(VarboundError):
    """The regression design matrix is rank deficient in a way that leaves the
    contrast coefficient unidentified even under pseudo-inversion."""


class IncompatibleEstimator(VarboundError):
    """Regression estimators require every realized exposure to be one of the
    two contrasted labels; other labels leave the estimator outside the
    two-exposure coefficient representation."""


# -- matrix kernel ------------------------------------------------------------

class NonConvergence(VarboundError):
    """An iterative numerical routine failed to converge within its cap."""


class DimensionMismatch(VarboundError):
    """Matrix or vector dimensions do not agree, or a matrix file does not
    hold a matrix of the expected shape."""


class AsymmetricInput(VarboundError):
    """A matrix expected to be symmetric exceeds the skew tolerance."""


class NonFiniteInput(VarboundError):
    """A matrix has a NaN or infinite entry."""


# -- bound solver -------------------------------------------------------------

class UnsupportedObjective(VarboundError):
    """The objective has no strictly monotone term or an unknown term type."""


class Infeasible(VarboundError):
    """The slack constraint set is empty.

    The off-diagonal entries of -A always extend to a positive semidefinite
    slack matrix, so this only occurs when a diagonal index was forced into
    the unobservable set while its variance entry is positive, or while an
    unobservable pair in its row has a nonzero entry, or when the solver
    state is corrupt. Diagnostics are attached to the message.
    """


class MaxIterations(VarboundError):
    """Solver hit its iteration cap. The best iterate is attached as .result."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NotASlackMatrix(VarboundError):
    """Admissibility testing requires a (near) positive semidefinite input."""


class NonDiagonalW(VarboundError):
    """The generalized pairwise slack requires a diagonal targeting matrix."""


class NonPositiveWeight(VarboundError):
    """Targeting weights must be strictly positive."""


class InvalidN(VarboundError):
    """Closed-form bounds need at least two units."""


# -- bound estimation ---------------------------------------------------------

class IncompatibleBound(VarboundError):
    """The bound has a nonzero coefficient on a pair that is never (or too
    rarely) observed, so it cannot be estimated without bias."""


class MissingOutcome(VarboundError):
    """Realized data lacks an outcome for an index the estimator needs."""


class InvalidConjugatePair(VarboundError):
    """Moment-based error bounds need Hoelder conjugates: 1/p + 1/q = 1."""


# -- configuration and i/o ----------------------------------------------------

class ParseError(VarboundError):
    """A scenario or data file is not valid JSON / CSV."""


class ValidationError(VarboundError):
    """A scenario parsed but failed validation. All findings are collected."""

    def __init__(self, findings):
        self.findings = list(findings)
        lines = "; ".join(f"{ptr}: {msg}" for ptr, msg in self.findings)
        super().__init__(f"invalid scenario ({lines})")
