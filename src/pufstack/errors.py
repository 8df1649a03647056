"""Exception hierarchy shared across the package, and the integer check
that raises one where a seed, timestamp or index enters."""

import numbers
from typing import Optional


class PufStackError(Exception):
    """Base class for all package errors."""


class ValidationError(PufStackError):
    """A parameter or input violates its documented range or shape."""


class ChallengeShapeError(ValidationError):
    """Challenge length does not match the device configuration."""


class ProtocolStateError(PufStackError):
    """A protocol operation was invoked out of order."""


class AuthenticationError(PufStackError):
    """MAC or signature verification failed."""


class ReplayError(AuthenticationError):
    """A previously seen nonce was presented again within the same epoch."""


class TamperError(PufStackError):
    """AEAD authentication failed: ciphertext, nonce, or tag was modified."""


class FormatError(PufStackError):
    """A decrypted or framed payload does not follow its documented schema."""


def require_int(value, name: str, minimum: Optional[int] = None) -> int:
    """``value`` as a Python int: any integer, numpy's too, but not a bool,
    which would pass as 0 or 1, and none below ``minimum`` when one is
    given. Anything else raises ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, not {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)
