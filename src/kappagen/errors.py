"""Exception hierarchy for the kappagen package."""


class KappagenError(Exception):
    """Base class for all kappagen-specific errors."""


class DomainError(KappagenError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class MomentDivergenceError(KappagenError, ValueError):
    """A requested moment (or moment-based index) does not exist."""


class CurveNonexistenceError(KappagenError, ValueError):
    """The Lorenz curve does not exist for the given parameters."""


class DegenerateDataError(KappagenError, ValueError):
    """The sample carries no usable information for the requested operation."""


class DegenerateNormalizationError(KappagenError, ValueError):
    """A normalizing constant vanishes, leaving the quantity undefined."""


class SupportViolationError(DomainError):
    """An observation falls outside the support of the model being fitted."""

    def __init__(self, message, index=None, value=None):
        super().__init__(message)
        self.index = index
        self.value = value


class DataFormatError(KappagenError, ValueError):
    """A dataset file could not be parsed."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number
