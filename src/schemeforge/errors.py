"""The package's exception base.

Every error the package raises on purpose derives from SchemeforgeError and
keeps a built-in base (ValueError, RuntimeError) as well, so callers may
catch either. Anything else escaping the package is a bug.
"""


class SchemeforgeError(Exception):
    """Base of every typed schemeforge error."""
