"""Exception hierarchy.

Two families matter to callers: ``InputError`` covers unreadable or
inconsistent inputs (files, configs, layouts) and maps to CLI exit code 2,
``DomainError`` covers method-level failures (invalid chains, empty
subsets, inapplicable models, results that overflow float64) and maps
to exit code 1.
"""


class RouteBoostError(Exception):
    """Base class for all package-specific errors."""


class InputError(RouteBoostError):
    """A file, config, or layout definition is unusable."""


class DomainError(RouteBoostError):
    """The requested operation is impossible for the given data."""


# --- input problems ---------------------------------------------------------

class MalformedCsv(InputError):
    pass


class UnknownTarget(InputError):
    pass


class DuplicateSignal(InputError):
    pass


class CoalesceConflict(InputError):
    """Two source signals are present in the same row with differing values."""


class InvalidLayout(InputError):
    pass


class ConfigError(InputError):
    pass


# --- domain problems --------------------------------------------------------

class UnknownSignal(DomainError):
    pass


class RowOutOfRange(DomainError):
    pass


class OverlappingGroups(DomainError):
    pass


class UnknownGroup(DomainError):
    pass


class EmptySegment(DomainError):
    pass


class NoQualifyingRoutes(DomainError):
    pass


class NoBaseSignals(DomainError):
    pass


class EmptySubset(DomainError):
    pass


class NotNested(DomainError):
    pass


class DuplicateFeatureSet(DomainError):
    pass


class EmptyTrainingSet(DomainError):
    pass


class SingularSystem(DomainError):
    pass


class ArityMismatch(DomainError):
    pass


class NoApplicableModel(DomainError):
    pass


class InvalidModel(DomainError):
    """An ensemble breaks a model invariant: repeated member names or a
    member that reads the model's target."""


class NonFinite(DomainError):
    """A fitted parameter, a prediction or a metric overflowed float64."""
