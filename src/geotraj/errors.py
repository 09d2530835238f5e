"""Exception hierarchy for the toolkit.

Every structured failure raises a subclass of :class:`GeotrajError`; the CLI
maps each class to a stable non-zero exit code (see ``cli.EXIT_CODES``).
"""


class GeotrajError(Exception):
    """Base class for all structured toolkit errors."""


class NonConvergence(GeotrajError):
    """Iterative coordinate solve did not converge (pathological input)."""


class OutOfDomain(GeotrajError):
    """Coordinate outside the validity domain of a projection."""


class ParseError(GeotrajError):
    """Base class for file-parsing failures."""


class MalformedLine(ParseError):
    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


class NonMonotonicTimestamp(ParseError):
    def __init__(self, line_no: int, detail: str = "timestamp not increasing"):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


class EmptyFile(ParseError):
    pass


class DuplicateId(ParseError):
    pass


class UnknownStatus(ParseError):
    def __init__(self, line_no: int, token: str):
        self.line_no = line_no
        self.token = token
        super().__init__(f"line {line_no}: unknown GNSS status {token!r}")


class NoFixAvailable(GeotrajError):
    """RTK log contains no fix-quality record."""


class InsufficientPoints(GeotrajError):
    """Fewer matched points than the operation requires."""


class DegenerateConfiguration(GeotrajError):
    """Point set too close to collinear for a unique rigid alignment."""


class NoCheckpoints(GeotrajError):
    pass


class UnknownCheckpoint(GeotrajError):
    pass


class UndefinedGap(GeotrajError):
    """Alignment gap undefined because the absolute RMSE is zero."""


class InsufficientSamples(GeotrajError):
    pass


class AllZeroAbscissa(GeotrajError):
    """Drift fit impossible: all regressor values are zero."""


class SchemaMismatch(GeotrajError):
    """Serialized document does not match the expected schema."""


class InvalidSpec(GeotrajError):
    """Synthetic scenario specification violates its invariants."""


class ConfigError(GeotrajError):
    """Run configuration missing, malformed, or referencing absent files."""
