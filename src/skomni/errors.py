"""Exception types shared across the package.

The split mirrors how the CLI reports failures: malformed user input
(files, flag syntax, bad pmfs) is distinct from domain errors (operation
asked for outside its supported range) and from internal-inconsistency
errors, which indicate that two routes to the same quantity disagreed and
the result cannot be trusted.
"""


class SkomniError(Exception):
    """Base class for all package errors."""


class InputError(SkomniError):
    """Malformed input: files, literals, or probability data."""


class InvalidSubsetError(SkomniError):
    """A terminal subset is empty, out of range, or otherwise inadmissible."""


class InvalidPartitionError(SkomniError):
    """A family of cells does not partition the ground set."""


class SizeLimitError(SkomniError):
    """The operation does not support the requested number of terminals."""


class InternalInconsistencyError(SkomniError):
    """Two independent computations of the same quantity disagreed."""
