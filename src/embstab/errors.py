"""Exception and warning types shared across the package."""


class EmbStabError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(EmbStabError):
    """Operand shapes or embedding widths are incompatible."""


class NonFinite(EmbStabError):
    """Input contains NaN or Inf entries."""


class RankDeficient(EmbStabError):
    """Score space has no singular value above the truncation threshold, so
    no map can serve the run (e.g. an all-zero side)."""


class RoleMismatch(EmbStabError):
    """An item matrix was supplied where a user matrix was expected, or vice versa."""


class InsufficientOverlap(EmbStabError):
    """Too few shared ids: fewer than max(e, 10) item ids between a run and
    the reference it aligns to, or none between two compared runs."""


class ZeroNormRow(EmbStabError):
    """A compared embedding row has zero norm; cosine similarity is undefined."""


class DuplicateId(EmbStabError):
    """An id occurs more than once where uniqueness is required."""


class InvalidConfig(EmbStabError, ValueError):
    """A value out of range: a simulation config field, a `simulate --runs`
    below 0, or a metrics.rbo depth below 1 or persistence outside (0, 1)."""


class InvalidRunId(EmbStabError):
    """Run id contains characters unsafe for use as a directory name."""


class UnknownRun(EmbStabError):
    """No stored run with the requested id."""


class StaleReference(EmbStabError):
    """latest_ref no longer names a run's reference, or already exists for a seed."""


class CorruptFile(EmbStabError):
    """Stored artifact failed checksum or structural validation."""


class DegenerateAlignmentWarning(UserWarning):
    """Cross-covariance is rank deficient; the alignment is optimal but not unique."""


class RankTruncationWarning(UserWarning):
    """Singular values below threshold were dropped; the effective rank is reduced."""
