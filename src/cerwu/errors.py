"""Exception hierarchy shared across the package.

``InputError`` subclasses map to CLI exit status 1 (bad user input);
everything else surfacing from the library maps to exit status 2.

A corrupt or truncated payload in a ``.cwm`` file is bad user input:
``QuantizedRecord.decode_layer`` turns the decoder's ``DecodeError`` (from
the static kind's rANS decoder or the adaptive kinds' range decoder) into
a ``ParseError`` naming the record, its symbol count and what failed (the
failing symbol, or the rANS decoder's initial or final state or unread
bytes), so ``cerwu decompress`` exits 1. A ``DecodeError`` that escapes
otherwise comes from a caller handing ``rangecoder.decode`` bytes of its
own, and stays internal.
"""


class CerwuError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CerwuError):
    """Invalid user-supplied data (shapes, missing entries, bad files)."""


class ShapeError(InputError):
    """Dimension mismatch between related arrays."""


class ParseError(InputError):
    """Malformed container file; message carries the byte offset."""


class FactorizationError(CerwuError):
    """Cholesky factorization failed; raise the damping delta and retry."""


class DecodeError(CerwuError):
    """Entropy-coded payload is truncated or corrupt."""


class SearchSpaceError(InputError):
    """Brute-force enumeration refused: assignment space too large."""
