"""Exception types shared across the package.

Everything raised on purpose derives from :class:`QkdSiftError` so callers can
catch the package's failures with a single except clause.  Aborts of the key
distillation (too-short key, failed verification, missing test data) share the
:class:`ProtocolAbort` base because they are outcomes of an honest run rather
than programming errors.  :func:`is_int`, :func:`is_real` and :func:`as_count`
are the number checks that the validations raising them share, and
:func:`check_record`, :func:`load_kind` and :func:`dump_kind` read and write
the objects of a config.
"""

from __future__ import annotations

import dataclasses
import operator


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


def as_count(value: object, name: str, least: int) -> int:
    """``value`` as a count of at least ``least``: an int or NumPy integer, not a bool.

    Anything else raises :class:`DomainError`, a float too, however whole:
    ``inf`` rounds would claim a bound that never fails.
    """
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def is_real(value: object) -> bool:
    """True for an ``int`` or ``float`` that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_record(value: object, where: str, cls: type, filled: tuple[str, ...] = ()) -> dict:
    """``value`` if it is a dict of dataclass ``cls``'s fields that gives each
    field without a default, less those in ``filled``; else :class:`ParseError`.

    ``where`` names the object: ``config`` for the root, else its field.
    """
    if not isinstance(value, dict):
        if where == "config":
            raise ParseError(f"config root must be an object, got {type(value).__name__}")
        raise ParseError(f"field {where!r} must be an object")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in value:  # in the document's order, so the message is too
        if key not in names:
            raise ParseError(f"unknown field {key!r} in {where}")
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in filled and f.name not in value:
            raise ParseError(f"missing field {f.name!r} in {where}")
    return value


def load_kind(doc: object, what: str, kinds: dict[str, type], error: type[QkdSiftError]) -> object:
    """The dataclass that ``kinds`` maps ``doc["kind"]`` to, built from the
    other keys of ``doc``; else ``error``, with ``what`` naming ``doc``."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise error(f"{what} must be an object with a 'kind' field, got {doc!r}")
    kind = doc["kind"]
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise error(f"unknown {what} kind {kind!r}; expected one of {sorted(kinds)}")
    try:
        return cls(**{k: v for k, v in doc.items() if k != "kind"})
    except TypeError as exc:
        raise error(f"bad fields for {what} {kind!r}: {exc}") from exc


def dump_kind(obj: object, noun: str, kinds: dict[str, type], error: type[QkdSiftError]) -> dict:
    """Inverse of :func:`load_kind`: ``{"kind": ..., **fields}`` of ``obj``,
    or ``error`` if ``obj`` is no ``noun`` of a class in ``kinds``."""
    for kind, cls in kinds.items():
        if isinstance(obj, cls):
            return {"kind": kind, **vars(obj)}
    raise error(f"unknown {noun} {obj!r}")
