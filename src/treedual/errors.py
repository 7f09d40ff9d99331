"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI and tests
can match on failure categories without parsing messages.
"""

from __future__ import annotations


class TreedualError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


class ParseError(TreedualError):
    """Scenario file is malformed (bad JSON, unknown fields, bad types)."""

    code = "PARSE_ERROR"


class InvalidTreeError(TreedualError):
    """A tree invariant is violated; carries the offending node id."""

    code = "INVALID_TREE"

    def __init__(self, message, node_id=None):
        super().__init__(message)
        self.node_id = node_id


class DomainError(TreedualError):
    """Argument outside a function's domain (e.g. negative conjugate arg)."""

    code = "DOMAIN"


class AssumptionFailError(TreedualError):
    """A standing assumption on the utility pair fails certification."""

    code = "ASSUMPTION_FAIL"

    def __init__(self, assumption, detail=""):
        super().__init__(f"assumption violated: {assumption}" + (f" ({detail})" if detail else ""))
        self.assumption = assumption


class NoMartingaleMeasureError(TreedualError):
    """The market admits no absolutely continuous martingale measure."""

    code = "NO_MM"


class CapExceededError(TreedualError):
    """Vertex enumeration exceeded the configured cap."""

    code = "CAP_EXCEEDED"

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class NonconvergedError(TreedualError):
    """Solver stopped without a verdict (iteration cap, numerical trouble)."""

    code = "NONCONVERGED"

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InfeasibleEntropyError(TreedualError):
    """Every feasible measure has infinite generalized entropy."""

    code = "INFEASIBLE_ENTROPY"


class ValueAtSupremumError(TreedualError):
    """Optimal value within rounding of sup U.

    Raised by ``solve_dual`` for the exponential family, the only one with a
    finite sup U, when the optimal dual mass exp(L) underflows to 0 (an
    endowment above about 745/gamma), and by ``entropic_penalty`` for a
    base value that rounds to sup U.  The pricing searches never meet it.
    """

    code = "AT_SUPREMUM"


class NoPrimalOptimizerError(TreedualError):
    """Dual optimum is degenerate; no primal optimizer exists."""

    code = "NO_PRIMAL_OPTIMIZER"


class ReplicationGapError(TreedualError):
    """Terminal wealth and strategy disagree beyond tolerance (solver diagnostic)."""

    code = "REPLICATION_GAP"

    def __init__(self, message, node_id=None, residual=None):
        super().__init__(message)
        self.node_id = node_id
        self.residual = residual


class NotExponentialError(TreedualError):
    """Operation requires the exponential utility family."""

    code = "NOT_EXPONENTIAL"


class BracketFailError(TreedualError):
    """Monotone bracket for a scalar root could not be established."""

    code = "BRACKETFAIL"


class InfiniteEntropyError(TreedualError):
    """Entropic penalty of a measure with infinite relative entropy."""

    code = "INFINITE"


class AugmentInfeasibleError(TreedualError):
    """Augmented market admits arbitrage (no martingale measure)."""

    code = "AUGMENT_INFEASIBLE"


class DimensionError(TreedualError):
    """Problem too large for the brute-force oracle's exhaustive mode."""

    code = "DIMENSION"


class GapDetectedError(TreedualError):
    """Oracle found a duality gap beyond tolerance; carries the report."""

    code = "GAP_DETECTED"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class EvaluationOverflowError(TreedualError):
    """Objective left the representable floating-point range.

    Raised by ``solve_dual`` for the exponential family when the optimal
    expected utility is below -1e250 (an endowment below about -575/gamma).
    Pricing never meets it.
    """

    code = "OVERFLOW"
