"""Exception taxonomy shared across the toolkit.

Everything derives from SasMambaError so callers can catch broadly; the CLI
maps subclasses onto its exit codes (1 usage, 2 data/format, 3 numerical).
"""


class SasMambaError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(SasMambaError, ValueError):
    """Operand shapes are incompatible with an operation's contract."""


class DomainError(SasMambaError, ValueError):
    """A numeric argument lies outside the operation's valid domain."""


class ConfigError(SasMambaError, ValueError):
    """A model or stride configuration violates its invariants."""


class NumericError(SasMambaError, ArithmeticError):
    """Non-finite values encountered, or a numerical procedure diverged."""


class GraphConsumedError(SasMambaError, RuntimeError):
    """Backward reached a graph that an earlier backward already consumed."""


class DegeneracyError(SasMambaError, ValueError):
    """Point cloud too degenerate for a well-posed alignment."""


class FormatError(SasMambaError, ValueError):
    """A file does not conform to its declared format."""


class VersionError(FormatError):
    """File format version is newer than this implementation supports."""


class CorruptionError(FormatError):
    """Structurally invalid payload: truncation or inconsistent manifest."""


class ChecksumError(FormatError):
    """Stored payload checksum does not match the payload bytes."""
