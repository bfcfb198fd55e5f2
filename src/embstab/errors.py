"""Exception and warning types shared across the package."""


class EmbStabError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(EmbStabError):
    """Operand shapes or embedding widths are incompatible."""


class NonFinite(EmbStabError):
    """Input contains NaN or Inf entries."""


class RankDeficient(EmbStabError):
    """Score space has fewer usable singular values than the embedding width."""


class RoleMismatch(EmbStabError):
    """An item matrix was supplied where a user matrix was expected, or vice versa."""


class InsufficientOverlap(EmbStabError):
    """Too few shared ids between a run and its reference to align reliably."""


class EmptyIntersection(EmbStabError):
    """The two inputs share no ids."""


class ZeroNormRow(EmbStabError):
    """A compared embedding row has zero norm; cosine similarity is undefined."""


class DuplicateId(EmbStabError):
    """An id occurs more than once where uniqueness is required."""


class InvalidConfig(EmbStabError, ValueError):
    """A simulation config field, a ranking depth or an RBO persistence outside
    (0, 1) violates its constraints."""


class InvalidRunId(EmbStabError):
    """Run id contains characters unsafe for use as a directory name."""


class UnknownRun(EmbStabError):
    """No stored run with the requested id."""


class CorruptFile(EmbStabError):
    """Stored artifact failed checksum or structural validation."""


class DegenerateAlignmentWarning(UserWarning):
    """Cross-covariance is rank deficient; the alignment is optimal but not unique."""


class RankTruncationWarning(UserWarning):
    """Singular values below threshold were dropped; the effective rank is reduced."""
