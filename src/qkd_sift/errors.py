"""Exception types shared across the package.

Everything raised on purpose derives from :class:`QkdSiftError` so callers can
catch the package's failures with a single except clause.  Aborts of the key
distillation (too-short key, failed verification, missing test data) share the
:class:`ProtocolAbort` base because they are outcomes of an honest run rather
than programming errors.  :func:`is_int` and :func:`is_real` are the number
checks that the validations raising them share.
"""

from __future__ import annotations


class QkdSiftError(Exception):
    """Base class for all errors raised by qkd_sift."""


# --------------------------------------------------------------------------
# quantum state / channel layer


class NormalizationError(QkdSiftError, ValueError):
    """A state or outcome distribution is not normalized within tolerance."""


# --------------------------------------------------------------------------
# protocol layer


class MaxRoundsExceeded(QkdSiftError, RuntimeError):
    """The round cap elapsed before the termination rule was satisfied."""


class ProtocolAbort(QkdSiftError, RuntimeError):
    """Base class for honest aborts of the post-processing chain."""


class AbortKeyTooShort(ProtocolAbort):
    """The extractable key length came out non-positive."""


class AbortNoTestData(ProtocolAbort):
    """No X-agreed rounds were collected, so the error rate is unobservable."""


class AbortVerificationFailed(ProtocolAbort):
    """The error-verification tags of the two final keys disagree."""


# --------------------------------------------------------------------------
# finite-key bound layer


class DomainError(QkdSiftError, ValueError):
    """An argument lies outside the mathematical domain of a bound."""


class SecurityParameterError(QkdSiftError, ValueError):
    """The concentration failure probability swallows the secrecy budget.

    Raised when ``eps_s ** 2 <= eta``: the smoothing term ``eps_s**2 - eta``
    of the secrecy cost would be zero or negative, so no key length is
    defined for the requested parameters.
    """


# --------------------------------------------------------------------------
# adversary layer


class ConfigError(QkdSiftError, ValueError):
    """A strategy configuration value is out of range or inconsistent."""


# --------------------------------------------------------------------------
# statistics layer


class TraceInconsistent(QkdSiftError, ValueError):
    """Recounted martingale increments disagree with the stored counters."""


class EnumerationTooLarge(QkdSiftError, ValueError):
    """The exact enumeration was asked for more rounds than is tractable."""


# --------------------------------------------------------------------------
# command line layer


class ParseError(QkdSiftError, ValueError):
    """A config file could not be parsed; carries file position context."""


class ValidationError(QkdSiftError, ValueError):
    """A parsed config violates an invariant; the message names which one."""


class IoError(QkdSiftError, OSError):
    """An output artifact could not be written."""


def is_int(value: object) -> bool:
    """True for an ``int`` that is not a ``bool``, so JSON ``true`` is no count."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """True for an ``int`` or ``float`` that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
