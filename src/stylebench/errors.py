"""Exception hierarchy shared across the toolkit.

Data-shaped problems (bad input files, missing features, infeasible
generator targets) derive from ``DataError`` so the CLI can map them to a
dedicated exit code.
"""


class StylebenchError(Exception):
    """Base class for all toolkit errors."""


class DataError(StylebenchError):
    """Problems with input data or data-producing configuration."""


class MalformedRecord(DataError):
    """An interaction or feature record that cannot be parsed.

    Carries the source path and 1-based line number of the offending row.
    """

    def __init__(self, path, line_no, reason):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{self.path}:{line_no}: {reason}")


class UnknownKind(MalformedRecord):
    """Interaction kind outside {sale, view}."""


class NonPositiveQuantity(MalformedRecord):
    """Interaction quantity below 1."""


class MissingFeatures(DataError):
    """A user or item id has no row in the required feature table."""


class InfeasibleTargets(DataError):
    """Synthetic-generator targets that cannot be satisfied together."""


class EmptyTraining(StylebenchError):
    """Training dataset contains no interactions."""


class UnknownItem(StylebenchError):
    """Item id absent from a trained factor model."""


class SingularSystem(StylebenchError):
    """A least-squares subproblem was singular despite regularization."""


class InvalidReport(StylebenchError):
    """A computed report breaks an invariant of its metrics or coverage."""


class SchemaMismatch(StylebenchError):
    """Feature rows do not conform to a model's feature schema."""


class TooFewUsers(StylebenchError):
    """Pairwise list metrics need at least two users."""


class AllUndefined(StylebenchError):
    """Micro-average over a set of users that all lack relevant items."""


class ZeroPopularity(StylebenchError):
    """Relative popularity is undefined when nothing was sold in training."""


class ZeroSales(StylebenchError):
    """Short-head analysis is undefined when nothing was sold."""


class DegenerateTableWarning(UserWarning):
    """All training labels identical; forest degenerates to single leaves."""
