"""Adversarial channel strategies.

A strategy is a label plus a behavior function ``(prefix, rng) -> ChannelOp``.
The prefix is the public transcript of *completed* rounds only, so a strategy
can be classically adaptive round by round but can never peek ahead; the
interface gives it nothing else to depend on.  Emitted channel operations are
validated as trace preserving when they are constructed.

The prefix is a :class:`~qkd_sift.protocol.Transcript`.  It stores the
announcements as ``bytearray`` columns with one entry per emitted round:
``detected`` (0/1), ``basis_b`` and ``basis_a`` (``Basis.value``; ``basis_a``
is 0 on undetected rounds), plus ``detected_basis_b``, Bob's basis of each
detected round in order.  A strategy can read the columns directly, as the
adaptive tracker does with ``detected_basis_b[-window:]``, or walk
``prefix.rounds``, a read-only lazy view that builds a ``RoundRecord`` per
round on access (``len``, indexing, slices, iteration, ``reversed``).

Each built-in strategy returns, for the whole session, ops from the small
set that :func:`make_strategy` builds once per call; it builds no op per
round.  The protocol engine memoizes the Born/Kraus algebra per (POVM,
ChannelOp) pair by value, which turns the per-round cost into a few scalar
samples; ops that ``make_strategy`` mints again for one configuration equal
the earlier ones, so a fresh strategy per run builds no law.  Custom
strategies are free to construct ops on the fly.

Built-in strategies also declare that set as ``EveStrategy.ops`` and carry a
``schedule``, the vectorized counterpart of ``behavior``.  A schedule is
called as ``schedule(detected, basis_b, draws)`` once per session, after the
fact:

* ``detected`` is a bool array with one entry per emitted round, up to and
  including the last detection the session counts, or None when every
  emitted round is a detection;
* ``basis_b`` is Bob's basis of each of those detected rounds, as
  ``Basis.value`` (uint8);
* ``draws(k)`` returns the next ``k`` ``random()`` values of the adversary's
  stream, the one ``behavior`` receives.

It returns the index into ``ops`` of the op that ``behavior`` would return in
each emitted round, and it takes from ``draws`` exactly the values, in the
order, that ``behavior`` would take from its stream over those rounds.
The session engine uses the schedule to replay sessions in NumPy: the
estimation runs of :func:`~qkd_sift.stats.coverage_trials`, and long
sessions of :func:`~qkd_sift.protocol.run_actual` and
:func:`~qkd_sift.protocol.run_virtual`.  It does so when every op of ``ops``
has the same delivery and detection probabilities under the detector, so
that the draws that decide a round do not depend on the op.  Otherwise, as
for every ``EveStrategy(label, behavior)``, sessions run the round loop.

The adaptive tracker's window moves only at detections, so its schedule
finds the window's state once per number of detections so far: the Z count
of the window by subtracting two slices of the running Z count.  Its laws
(the attack probability, whether a round draws, the op of an attack) come
from ``behavior``'s own float operations, on each state of the first
``window`` detections, where the window is still filling, and then from a
table of the ``window + 1`` states of a full window, built the first time a
session of more than ``window`` detections asks for it.  So nothing the
schedule builds outgrows the session, however large the window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Literal, Union

import numpy as np

from .errors import ConfigError, is_int, is_real
from .quantum_core import Basis, ChannelOp, RandomStream

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .protocol import Transcript

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)


def identity_lossy_channel(p_loss: float) -> ChannelOp:
    """Deliver the qubit untouched with probability 1 - p_loss."""
    if p_loss >= 1.0:
        return ChannelOp(deliver_kraus=(), lose_kraus=(_I2,))
    if p_loss <= 0.0:
        return ChannelOp(deliver_kraus=(_I2,), lose_kraus=())
    return ChannelOp(
        deliver_kraus=(np.sqrt(1.0 - p_loss) * _I2,),
        lose_kraus=(np.sqrt(p_loss) * _I2,),
    )


def depolarizing_channel(p: float, p_loss: float = 0.0) -> ChannelOp:
    """With probability p replace the delivered qubit by I/2, then lose p_loss.

    Deliver branch Kraus: sqrt(1-p)·I plus sqrt(p/4)·{I, X, Y, Z}, scaled by
    sqrt(1 - p_loss).
    """
    scale = np.sqrt(1.0 - p_loss)
    deliver = [np.sqrt(1.0 - p) * _I2]
    if p > 0.0:
        deliver += [np.sqrt(p / 4.0) * m for m in (_I2, _PAULI_X, _PAULI_Y, _PAULI_Z)]
    deliver = tuple(scale * k for k in deliver)
    lose = (np.sqrt(p_loss) * _I2,) if p_loss > 0.0 else ()
    return ChannelOp(deliver_kraus=deliver, lose_kraus=lose)


def dephasing_channel(basis: Basis) -> ChannelOp:
    """Measure in ``basis`` and resend the outcome state (intercept-resend)."""
    from .quantum_core import PROJECTOR

    return ChannelOp(
        deliver_kraus=(PROJECTOR[(0, basis)], PROJECTOR[(1, basis)]),
        lose_kraus=(),
    )


# ---------------------------------------------------------------------------
# Strategy configurations


def _check_prob(value: float, name: str) -> None:
    if not (is_real(value) and 0.0 <= value <= 1.0):
        raise ConfigError(f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True)
class IdentityLossy:
    """Pure loss, no disturbance."""

    p_loss: float = 0.0

    def __post_init__(self) -> None:
        _check_prob(self.p_loss, "p_loss")


@dataclass(frozen=True)
class Depolarizing:
    """Isotropic noise with optional loss."""

    p: float
    p_loss: float = 0.0

    def __post_init__(self) -> None:
        _check_prob(self.p, "p")
        _check_prob(self.p_loss, "p_loss")


@dataclass(frozen=True)
class InterceptResend:
    """Measure-and-resend in a fixed or per-round random basis.

    ``basis_policy`` is one of ``always_z``, ``always_x``, ``random``; with
    the random policy the Z basis is intercepted with probability ``q``.
    """

    basis_policy: Literal["always_z", "always_x", "random"] = "random"
    q: float = 0.5

    def __post_init__(self) -> None:
        if self.basis_policy not in ("always_z", "always_x", "random"):
            raise ConfigError(f"unknown basis_policy {self.basis_policy!r}")
        _check_prob(self.q, "q")


@dataclass(frozen=True)
class AdaptiveBasisTracker:
    """Intercept in whichever basis Bob has announced more often lately.

    Watches Bob's announced bases over the last ``window`` detected rounds of
    the public prefix.  With empirical Z frequency f, the attack fires with
    probability min(1, bias_gain * |2f - 1|) and dephases in the majority
    basis; otherwise the round passes untouched.  A balanced or empty history
    means no attack.
    """

    window: int = 16
    bias_gain: float = 1.0

    def __post_init__(self) -> None:
        if not is_int(self.window) or self.window < 1:
            raise ConfigError(f"window must be an integer >= 1, got {self.window!r}")
        if not (is_real(self.bias_gain) and 0.0 <= self.bias_gain < math.inf):
            raise ConfigError(f"bias_gain must be a finite number >= 0, got {self.bias_gain!r}")


StrategyConfig = Union[IdentityLossy, Depolarizing, InterceptResend, AdaptiveBasisTracker]

Behavior = Callable[["Transcript", RandomStream], ChannelOp]
Schedule = Callable[[np.ndarray, np.ndarray, Callable[[int], np.ndarray]], np.ndarray]


@dataclass(frozen=True)
class EveStrategy:
    """A labelled behavior function; the label keys reports and CSV rows.

    ``ops`` and ``schedule`` are optional: the finite set of ops that
    ``behavior`` returns, and its vectorized counterpart (see the module
    docstring).  They are left out of equality and hashing.
    """

    label: str
    behavior: Behavior
    ops: tuple[ChannelOp, ...] = field(default=(), compare=False)
    schedule: Schedule | None = field(default=None, compare=False)


def _rounds(detected: np.ndarray | None, basis_b: np.ndarray) -> int:
    """The number of emitted rounds a schedule is asked about."""
    return len(basis_b) if detected is None else len(detected)


def _first_op(detected: np.ndarray | None, basis_b: np.ndarray, draws) -> np.ndarray:
    """Schedule of a strategy that returns ``ops[0]`` every round."""
    return np.zeros(_rounds(detected, basis_b), dtype=np.intp)


def _constant(label: str, op: ChannelOp) -> EveStrategy:
    """The strategy that returns ``op`` every round."""

    def behavior(prefix: "Transcript", rng: RandomStream) -> ChannelOp:
        return op

    return EveStrategy(label=label, behavior=behavior, ops=(op,), schedule=_first_op)


def make_strategy(cfg: StrategyConfig) -> EveStrategy:
    """Compile a configuration into an executable strategy."""
    if isinstance(cfg, IdentityLossy):
        label = f"identity_lossy(p_loss={cfg.p_loss:g})"
        return _constant(label, identity_lossy_channel(cfg.p_loss))

    if isinstance(cfg, Depolarizing):
        label = f"depolarizing(p={cfg.p:g},p_loss={cfg.p_loss:g})"
        return _constant(label, depolarizing_channel(cfg.p, cfg.p_loss))

    if isinstance(cfg, InterceptResend):
        dephase_z = dephasing_channel(Basis.Z)
        dephase_x = dephasing_channel(Basis.X)
        label = f"intercept_resend({cfg.basis_policy},q={cfg.q:g})"
        if cfg.basis_policy != "random":
            return _constant(label, dephase_z if cfg.basis_policy == "always_z" else dephase_x)
        q = cfg.q

        def behavior(prefix: "Transcript", rng: RandomStream) -> ChannelOp:
            return dephase_z if rng.random() < q else dephase_x

        def schedule(detected: np.ndarray | None, basis_b: np.ndarray, draws) -> np.ndarray:
            # One draw per emitted round: index 0 (Z) below q, else 1 (X).
            return (draws(_rounds(detected, basis_b)) >= q).astype(np.intp)

        return EveStrategy(
            label=label, behavior=behavior, ops=(dephase_z, dephase_x), schedule=schedule
        )

    if isinstance(cfg, AdaptiveBasisTracker):
        identity = identity_lossy_channel(0.0)
        dephase = {Basis.Z: dephasing_channel(Basis.Z), Basis.X: dephasing_channel(Basis.X)}
        window = cfg.window
        gain = cfg.bias_gain
        z_value = Basis.Z.value

        def behavior(prefix: "Transcript", rng: RandomStream) -> ChannelOp:
            # Recomputed from the prefix every round, so sessions can share
            # this closure.  The transcript keeps the detected rounds' bases
            # as a column, so the window costs one slice and one C-level count.
            recent = prefix.detected_basis_b[-window:]
            seen = len(recent)
            if seen == 0:
                return identity
            f_z = recent.count(z_value) / seen
            p_attack = gain * abs(2.0 * f_z - 1.0)
            if p_attack <= 0.0 or rng.random() >= min(p_attack, 1.0):
                return identity
            return dephase[Basis.Z if f_z > 0.5 else Basis.X]

        def attack_laws(z: np.ndarray, seen) -> tuple[np.ndarray, np.ndarray]:
            # Per window state, with the float operations of ``behavior``:
            # the attack probability capped at 1, which draws where it is
            # above 0, and the op of an attack (1 dephase in Z, 2 in X).
            f_z = z / seen
            p_attack = gain * np.abs(2.0 * f_z - 1.0)
            return np.minimum(p_attack, 1.0), np.where(f_z > 0.5, 1, 2)

        @functools.cache
        def full_window() -> tuple[np.ndarray, np.ndarray]:
            # A full window's state is its Z count alone, so past the first
            # ``window`` detections the laws are looked up in this table of
            # ``window + 1`` rows, built when a session first gets there.
            return attack_laws(np.arange(window + 1), window)

        def schedule(detected: np.ndarray | None, basis_b: np.ndarray, draws) -> np.ndarray:
            # The window moves only at detections, so its state is found once
            # per k = number of detections so far, k < n as the n-th detection
            # ends the session, and then read off per emitted round.
            n = len(basis_b)
            z_count = np.zeros(n + 1, dtype=np.intp)
            np.add.accumulate(basis_b == z_value, out=z_count[1:])
            head = min(n, window)  # the states whose window is still filling
            cut = np.zeros(n)  # no draw at k = 0, an empty window
            side = np.zeros(n, dtype=np.intp)
            cut[1:head], side[1:head] = attack_laws(z_count[1:head], np.arange(1, head))
            if n > window:
                full_cut, full_side = full_window()
                z = z_count[window:n] - z_count[: n - window]
                cut[window:], side[window:] = full_cut[z], full_side[z]
            if detected is not None:
                before = np.cumsum(detected) - detected
                cut, side = cut[before], side[before]
            draw = cut > 0.0
            u = np.ones(len(cut))
            u[draw] = draws(int(np.count_nonzero(draw)))
            # ops: 0 identity, 1 dephase in Z, 2 dephase in X.
            return np.where(u < cut, side, 0)

        return EveStrategy(
            label=f"adaptive_basis_tracker(window={window},bias_gain={gain:g})",
            behavior=behavior,
            ops=(identity, dephase[Basis.Z], dephase[Basis.X]),
            schedule=schedule,
        )

    raise ConfigError(f"unknown strategy configuration {cfg!r}")


# ---------------------------------------------------------------------------
# JSON mapping used by config files


_KIND_MAP = {
    "identity_lossy": IdentityLossy,
    "depolarizing": Depolarizing,
    "intercept_resend": InterceptResend,
    "adaptive_basis_tracker": AdaptiveBasisTracker,
}


def strategy_from_dict(d: dict) -> StrategyConfig:
    """Build a strategy config from its JSON form {"kind": ..., **fields}."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"strategy must be an object with a 'kind' field, got {d!r}")
    kind = d["kind"]
    cls = _KIND_MAP.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(
            f"unknown strategy kind {kind!r}; expected one of {sorted(_KIND_MAP)}"
        )
    fields = {k: v for k, v in d.items() if k != "kind"}
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ConfigError(f"bad fields for strategy {kind!r}: {exc}") from exc


def strategy_to_dict(cfg: StrategyConfig) -> dict:
    """Inverse of :func:`strategy_from_dict`."""
    for kind, cls in _KIND_MAP.items():
        if isinstance(cfg, cls):
            out: dict = {"kind": kind}
            out.update(vars(cfg))
            return out
    raise ConfigError(f"unknown strategy configuration {cfg!r}")
