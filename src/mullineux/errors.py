"""Exception hierarchy.

Everything raised on purpose by this package derives from MullineuxError,
and it has two branches.  InputError (and its subclass NoPathError) marks
bad user input and maps to exit code 2 in the command line tool;
InternalError marks a violated internal consistency guarantee and maps to
exit code 3.
"""


class MullineuxError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MullineuxError, ValueError):
    """A user-supplied value violates a documented precondition."""


class NoPathError(InputError):
    """Two multicharges do not lie in the same orbit, so no path exists."""


class InternalError(MullineuxError):
    """An internal consistency guarantee failed; indicates a bug."""
