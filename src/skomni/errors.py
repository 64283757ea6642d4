"""Exception types shared across the package.

Each leaf class is one exit code of the CLI.  ``InputError`` (exit 2) is
malformed input: files, flag syntax, bad pmfs, or a terminal subset or
cell family that is not one.  ``SizeLimitError`` (exit 3) is an operation
asked for outside its supported range.  ``InternalInconsistencyError``
(exit 4) means that two routes to the same quantity disagreed and the
result cannot be trusted.
"""


class SkomniError(Exception):
    """Base class for all package errors."""


class InputError(SkomniError):
    """Malformed input: files, literals, probability data, subsets or partitions."""


class SizeLimitError(SkomniError):
    """The operation does not support the requested number of terminals."""


class InternalInconsistencyError(SkomniError):
    """Two independent computations of the same quantity disagreed."""
