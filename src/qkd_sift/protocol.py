"""Protocol sessions: iterative sifting until enough rounds are detected.

Three executable pictures share one round loop, :func:`_session`:

* :func:`run_actual`   — prepare-and-measure.  Alice sends a random source
  state; Bob applies his three-outcome measurement; both announce.  Runs on
  2x2 states.
* :func:`run_virtual`  — entanglement picture.  A fresh pair per round, the
  detection filter on Bob's side, and *deferred* sifted-key measurements after
  the loop.  Announcements carry exactly the same content per round as the
  prepare-and-measure variant, so the two are indistinguishable from the
  channel.
* :func:`run_estimation` — the bookkeeping variant: every detected pair is
  measured in X immediately, while the phase-error weights of the conditional
  states are kept, in columns, for the martingale analysis.

Termination counts *detected* rounds, matched or mismatched bases alike, and
detection probability is basis-independent by POVM construction, so the
stopping rule leaks nothing about basis choices.  When ``batch_size > 1``,
rounds already in flight when the threshold fills are still announced but
their detections are discarded, keeping the detected count exact.

Adaptive adversaries see, for round i, the transcript of rounds 1..i-1 only.

Per-round determinism: every sample comes from the session stream in a fixed
order (channel branch, bases, outcome), and the adversary draws from its own
sub-stream, so a (seed, trial index) pair fully determines a session.

The loop has a NumPy counterpart for built-in strategies, those with a
``schedule``.  The stopping rule counts detections whatever their bases, so
when every op of the strategy sends the draws the same way, a session is
set by its draws alone: :func:`_walk` follows them through the stream's
MT19937 words, and the schedule then gives each round's op.  A replay
tests every draw that it compares with a fixed probability (delivery,
detection and the bases) on the words themselves (:func:`_is_below`):
``random() < p`` exactly when the 53-bit integer behind ``random()`` is
below ``ceil(p * 2**53)``.  A ``random()`` value is built only for a draw
compared with a law's table: the readouts, and in the actual picture the
delivery and detection of a round whose bit and bases set their
probability.  The walk visits the delivered rounds and counts the
undelivered ones between them; only a transcript needs the start of every
round.  ``run_actual`` and ``run_virtual`` replay sessions of at least
``_REPLAY_MIN_DETECTIONS`` detections and ``batch_size`` 1 this way, and
:func:`replay_counter` gives the estimation counters of coverage trials at
any batch size: the walk ends at the n-th detection, and rounds in flight
past it change no counter.  When every round is a detection (no loss, an
ideal detector) there is no walk: the session's words are one block of ten
per round.  A replay returns what the loop returns.  Only
:func:`_replay_session` also leaves the stream where the loop leaves it;
:func:`replay_counter` may leave it elsewhere.  Custom strategies, the
per-basis quota rule, and short or batched sessions run the loop.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from array import array
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from . import finite_key, hashing
from .adversary import EveStrategy, Schedule, _first_op
from .errors import (
    _FLOAT_OVERFLOW,
    AbortKeyTooShort,
    AbortVerificationFailed,
    MaxRoundsExceeded,
    NormalizationError,
    ValidationError,
    is_int,
    is_real,
)
from .quantum_core import (
    Basis,
    BobPOVM,
    ChannelOp,
    Density4,
    RandomStream,
    bell_pair,
    channel_branches,
    filter_branches,
    ideal_povm,
    pair_outcome_probs,
    prob_phase_error,
    qubit_channel_branches,
    qubit_outcome_probs,
    source_state,
)

_PROB_SUM_ATOL = 1e-8


@dataclass(frozen=True)
class ProtocolParams:
    """Session parameters.

    ``n_det_ter`` is the detected-round count at which the loop stops;
    ``delta`` the concentration deviation per detected round; ``f_ec`` the
    error-correction inefficiency; ``batch_size`` how many rounds are in
    flight before announcements are awaited (1 = strictly sequential).
    ``max_rounds`` defaults to 1000 * n_det_ter.
    """

    p_z_a: float
    p_x_a: float
    p_z_b: float
    p_x_b: float
    n_det_ter: int
    eps_s: float
    eps_c: float
    delta: float
    f_ec: float = 1.16
    max_rounds: int | None = None
    batch_size: int = 1

    def __post_init__(self) -> None:
        for name in ("p_z_a", "p_x_a", "p_z_b", "p_x_b"):
            v = getattr(self, name)
            if not (is_real(v) and 0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {v!r}")
        if abs(self.p_z_a + self.p_x_a - 1.0) > 1e-12:
            raise ValidationError("basis probabilities of A must sum to 1 within 1e-12")
        if abs(self.p_z_b + self.p_x_b - 1.0) > 1e-12:
            raise ValidationError("basis probabilities of B must sum to 1 within 1e-12")
        if not is_int(self.n_det_ter) or self.n_det_ter < 1:
            raise ValidationError(f"n_det_ter must be a positive integer, got {self.n_det_ter!r}")
        if self.n_det_ter >= _FLOAT_OVERFLOW:
            bits = self.n_det_ter.bit_length()
            raise ValidationError(f"n_det_ter must fit a float, got {bits} bits")
        for name in ("eps_s", "eps_c"):
            v = getattr(self, name)
            if not (is_real(v) and 0.0 < v < 1.0):
                raise ValidationError(f"{name} must be in (0, 1), got {v!r}")
        if not (is_real(self.delta) and math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValidationError(f"delta must be finite and >= 0, got {self.delta!r}")
        if not (is_real(self.f_ec) and math.isfinite(self.f_ec) and self.f_ec >= 1.0):
            raise ValidationError(f"f_ec must be finite and >= 1, got {self.f_ec!r}")
        if self.max_rounds is None:
            object.__setattr__(self, "max_rounds", 1000 * self.n_det_ter)
        if not is_int(self.max_rounds) or self.max_rounds < self.n_det_ter:
            raise ValidationError(
                f"max_rounds must be an integer >= n_det_ter, got {self.max_rounds!r}"
            )
        if not is_int(self.batch_size) or self.batch_size < 1:
            raise ValidationError(f"batch_size must be a positive integer, got {self.batch_size!r}")

    @property
    def q_z(self) -> float:
        """Probability that both sides pick Z in a round."""
        return self.p_z_a * self.p_z_b

    @property
    def q_x(self) -> float:
        return self.p_x_a * self.p_x_b


@dataclass(frozen=True)
class CountDetected:
    """Stop once n detected rounds are counted (the secure rule)."""

    n: int

    def __post_init__(self) -> None:
        if not is_int(self.n) or self.n < 1:
            raise ValidationError(f"detection target must be an integer >= 1, got {self.n!r}")


@dataclass(frozen=True)
class CountPerBasis:
    """Stop once both per-basis quotas fill.

    Demonstration rule only: its stopping time depends on announced bases,
    which skews which positions end up as test rounds.  The secure entry
    points refuse it.
    """

    n_z_req: int
    n_x_req: int

    def __post_init__(self) -> None:
        if not all(is_int(n) and n >= 1 for n in (self.n_z_req, self.n_x_req)):
            raise ValidationError(
                f"per-basis quotas must be integers >= 1, got ({self.n_z_req!r}, {self.n_x_req!r})"
            )


TerminationRule = Union[CountDetected, CountPerBasis]


class RoundRecord(NamedTuple):
    """One announced round.  ``basis_a`` is present exactly when detected."""

    index: int
    detected: bool
    basis_b: Basis
    basis_a: Basis | None


_BASES = tuple(Basis)  # indexed by ``Basis.value``


class Transcript:
    """Everything public: parameters and the per-round announcements.

    The announcements are stored as ``bytearray`` columns with one entry per
    emitted round; the round index is the position + 1.

    * ``detected``: 1 if the round was announced as detected, else 0;
    * ``basis_b``: Bob's announced basis as ``Basis.value``;
    * ``basis_a``: Alice's announced basis as ``Basis.value``, 0 when the
      round is undetected;
    * ``detected_basis_b``: Bob's basis of each detected round, in order.

    ``rounds`` is a read-only, lazy view that yields :class:`RoundRecord`s.
    ``Transcript(params, rounds=records)`` fills the columns from records
    numbered 1, 2, 3, ...
    """

    def __init__(self, params: ProtocolParams, rounds: Iterable[RoundRecord] = ()) -> None:
        self.params = params
        self.detected = bytearray()
        self.basis_b = bytearray()
        self.basis_a = bytearray()
        self.detected_basis_b = bytearray()
        for position, rec in enumerate(rounds, 1):
            if rec.index != position:
                raise ValidationError(
                    f"round records must be numbered 1, 2, ...; got {rec.index} at {position}"
                )
            basis_a_type = Basis if rec.detected else type(None)
            if not (
                isinstance(rec.detected, (bool, np.bool_))
                and isinstance(rec.basis_b, Basis)
                and isinstance(rec.basis_a, basis_a_type)
            ):
                raise ValidationError(
                    f"round {position}: detected must be a bool and bases Basis members,"
                    f" with basis_a exactly when detected; got {rec!r}"
                )
            self.detected.append(1 if rec.detected else 0)
            self.basis_b.append(rec.basis_b.value)
            if rec.detected:
                self.basis_a.append(rec.basis_a.value)
                self.detected_basis_b.append(rec.basis_b.value)
            else:
                self.basis_a.append(0)

    @property
    def rounds(self) -> _RoundsView:
        return _RoundsView(self)

    @property
    def n_detected(self) -> int:
        return len(self.detected_basis_b)


class _RoundsView(Sequence):
    """The rounds of a transcript as :class:`RoundRecord`s, built on access.

    Supports ``len``, indexing (negative too) and slices (as lists); the
    ``Sequence`` mixins add iteration and ``reversed``.  It reads the columns
    live, so a view taken during a session sees the rounds emitted since.
    """

    def __init__(self, transcript: Transcript) -> None:
        self._transcript = transcript

    def __len__(self) -> int:
        return len(self._transcript.detected)

    def _record(self, i: int) -> RoundRecord:
        t = self._transcript
        if t.detected[i]:
            return RoundRecord(i + 1, True, _BASES[t.basis_b[i]], _BASES[t.basis_a[i]])
        return RoundRecord(i + 1, False, _BASES[t.basis_b[i]], None)

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return [self._record(j) for j in range(*i.indices(n))]
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("round index out of range")
        return self._record(i)


@dataclass(frozen=True)
class SiftedData:
    """Bit strings kept after basis reconciliation (uint8 arrays of 0/1)."""

    s_az: np.ndarray
    s_bz: np.ndarray
    s_ax: np.ndarray
    s_bx: np.ndarray
    n_z: int
    n_x: int

    def __post_init__(self) -> None:
        if not (len(self.s_az) == len(self.s_bz) == self.n_z):
            raise ValidationError("Z-string lengths disagree with n_z")
        if not (len(self.s_ax) == len(self.s_bx) == self.n_x):
            raise ValidationError("X-string lengths disagree with n_x")

    def x_error_weight(self) -> int:
        """Hamming weight of s_ax XOR s_bx."""
        return int(np.count_nonzero(self.s_ax != self.s_bx))


class PerRound(NamedTuple):
    """Estimation-run record of one detected round."""

    bases: tuple[Basis, Basis]
    x_outcomes: tuple[int, int]
    p_ph: float
    p_xerr: float


_PAIRS = tuple((a, b) for a in _BASES for b in _BASES)  # by ``EstimationRun.pairs``
_ZZ, _XX = _PAIRS.index((Basis.Z, Basis.Z)), _PAIRS.index((Basis.X, Basis.X))


@dataclass(frozen=True)
class EstimationRun:
    """Output of :func:`run_estimation`.

    The detected rounds are kept in columns, one entry each: ``pairs`` holds
    2 * (Alice's basis) + (Bob's basis) as ``Basis.value``, ``readouts``
    2 * x_a + x_b for the immediate X outcomes, and ``laws`` an index into
    ``t_phase``, the run's phase-error weights t; p_ph = q_z * t and p_xerr =
    q_x * t.  ``per_round`` builds the :class:`PerRound` records on access.

    ``lambda_ph`` counts detected rounds where both sides announced Z and the
    immediate X measurements disagreed; ``lambda_xerr`` the same for X-basis
    announcements.  ``s_az_vir``/``s_bz_vir`` are the X outcomes on Z-agreed
    rounds — the basis-flipped counterpart of the sifted key.
    """

    transcript: Transcript
    pairs: bytearray
    readouts: bytearray
    laws: array
    t_phase: tuple[float, ...]
    lambda_ph: int
    lambda_xerr: int
    s_az_vir: np.ndarray
    s_bz_vir: np.ndarray

    @property
    def per_round(self) -> list[PerRound]:
        params = self.transcript.params
        weights = [(params.q_z * t, params.q_x * t) for t in self.t_phase]
        return [
            PerRound(_PAIRS[pair], divmod(readout, 2), *weights[law])
            for pair, readout, law in zip(self.pairs, self.readouts, self.laws)
        ]


@dataclass(frozen=True)
class FinalKeys:
    """Distilled keys plus the public randomness needed to audit them."""

    f_az: np.ndarray
    f_bz: np.ndarray
    aborted: bool
    lambda_ec: int
    meta: dict

    def __post_init__(self) -> None:
        if not self.aborted and len(self.f_az) != len(self.f_bz):
            raise ValidationError("final key lengths disagree")


def derive_stream(master_seed: int, index: int) -> RandomStream:
    """Stream for trial ``index`` of a run seeded with ``master_seed``.

    Counter construction: the child seed is ``(master_seed << 64) + index``,
    injective over (u64 seed, index), so a trial's stream depends on its
    index alone, not on which trials ran before it.
    """
    if not (is_int(master_seed) and 0 <= master_seed < 2**64):
        raise ValidationError(f"master seed must be a u64, got {master_seed!r}")
    if not (is_int(index) and index >= 0):
        raise ValidationError(f"trial index must be an integer >= 0, got {index!r}")
    return random.Random((master_seed << 64) + index)


def _eve_stream(rng: RandomStream, schedule: Schedule | None) -> RandomStream | None:
    """The adversary's private sub-stream, derived once per session, or None
    for a ``_first_op`` schedule, which takes no draws; the seed is drawn either way."""
    seed = rng.getrandbits(64)
    return None if schedule is _first_op else random.Random(seed)


# ---------------------------------------------------------------------------
# Round laws: the Born/Kraus algebra of one (POVM, channel op) pair, reduced
# to plain floats once and then sampled from.  Both operators compare by value,
# so every session that meets an equal pair shares one law.  The caches are
# bounded because a custom strategy may mint an op of a new value every round.


class _ActualLaw(NamedTuple):
    """``p_detect[c]`` is the readout below which Bob detects a delivered round
    of code c, the larger cut of ``outcome_cum[c]``: with ``p_deliver`` it
    decides a round, as ``(p_deliver, p_detect)`` of a :class:`_VirtualLaw` do."""

    # A basis counts 0 for Z and 1 for X.  p_deliver[2 * bit + basis_a]
    p_deliver: tuple[float, ...]
    # outcome_cum[4 * bit + 2 * basis_a + basis_b] = (P(bob=0), P(bob in {0,1}))
    outcome_cum: tuple[tuple[float, float], ...]
    p_detect: tuple[float, ...]


class _VirtualLaw(NamedTuple):
    p_deliver: float
    p_detect: float  # conditional on delivery
    rho_detected: Density4 | None
    t_phase: float
    zz_cum: tuple[float, float, float]  # cumulative over (0,0),(0,1),(1,0); rest (1,1)
    xx_cum: tuple[float, float, float]


def _cum_pair(probs: np.ndarray, what: str) -> tuple[float, float, float]:
    total = float(probs.sum())
    if abs(total - 1.0) > _PROB_SUM_ATOL:
        raise NormalizationError(f"{what}: outcome probabilities sum to {total!r}")
    p00, p01, p10 = float(probs[0, 0]), float(probs[0, 1]), float(probs[1, 0])
    return (p00, p00 + p01, p00 + p01 + p10)


@functools.lru_cache(maxsize=512)
def _actual_law(povm: BobPOVM, op: ChannelOp) -> _ActualLaw:
    p_deliver = []
    outcome_cum = []
    for bit in (0, 1):
        for basis in (Basis.Z, Basis.X):
            p_del, rho_del = qubit_channel_branches(source_state(bit, basis), op)
            p_deliver.append(p_del)
            if rho_del is None:
                outcome_cum += [(0.0, 0.0)] * 2
                continue
            for bob_basis in (Basis.Z, Basis.X):
                p0, p1, p_fail = qubit_outcome_probs(rho_del, bob_basis, povm)
                total = p0 + p1 + p_fail
                if abs(total - 1.0) > _PROB_SUM_ATOL:
                    raise NormalizationError(
                        f"three-outcome probabilities sum to {total!r}"
                    )
                outcome_cum.append((p0, p0 + p1))
    return _ActualLaw(tuple(p_deliver), tuple(outcome_cum), tuple(map(max, outcome_cum)))


@functools.lru_cache(maxsize=512)
def _virtual_law(povm: BobPOVM, op: ChannelOp) -> _VirtualLaw:
    p_deliver, rho_delivered = channel_branches(bell_pair(), op)
    if rho_delivered is None:
        return _VirtualLaw(p_deliver, 0.0, None, 0.0, (0.0,) * 3, (0.0,) * 3)
    rho_delivered.validate()
    p_detect, rho_detected = filter_branches(rho_delivered, povm)
    if rho_detected is None:
        return _VirtualLaw(p_deliver, p_detect, None, 0.0, (0.0,) * 3, (0.0,) * 3)
    rho_detected.validate()
    t = prob_phase_error(rho_detected, povm)
    zz = pair_outcome_probs(rho_detected, Basis.Z, Basis.Z, povm)
    xx = pair_outcome_probs(rho_detected, Basis.X, Basis.X, povm)
    return _VirtualLaw(
        p_deliver,
        p_detect,
        rho_detected,
        t,
        _cum_pair(zz, "ZZ readout"),
        _cum_pair(xx, "XX readout"),
    )


# ---------------------------------------------------------------------------
# Session engine

# The three pictures of one session.  They share every announcement and the
# termination rule; :func:`_session` branches on them only where the pictures
# really differ.
_ACTUAL = "actual"
_VIRTUAL = "virtual"
_ESTIMATION = "estimation"


def run_actual(
    params: ProtocolParams,
    eve: EveStrategy,
    rng: RandomStream,
    povm: BobPOVM | None = None,
) -> tuple[Transcript, SiftedData]:
    """Prepare-and-measure session; stops at exactly n_det_ter detections."""
    return _counted_session(params, eve, rng, povm, _ACTUAL)


def run_insecure_termination(
    params: ProtocolParams,
    rule: CountPerBasis,
    eve: EveStrategy,
    rng: RandomStream,
    povm: BobPOVM | None = None,
) -> tuple[Transcript, SiftedData]:
    """Prepare-and-measure session under a per-basis quota stopping rule.

    A public sampler of sessions under the insecure rule whose bias
    :func:`~qkd_sift.stats.enumerate_bias` computes exactly, by enumeration
    and without sessions.  The stopping time of this rule depends on the
    announced bases, which is the defect it shows.
    """
    if not isinstance(rule, CountPerBasis):
        raise ValidationError("run_insecure_termination requires a CountPerBasis rule")
    povm = povm if povm is not None else ideal_povm()
    return _session(params, eve, rng, povm, rule, _ACTUAL)


def run_virtual(
    params: ProtocolParams,
    eve: EveStrategy,
    rng: RandomStream,
    povm: BobPOVM | None = None,
) -> tuple[Transcript, SiftedData, list[Density4]]:
    """Entanglement-picture session with deferred sifted-key measurements.

    Returns the transcript, the sifted data obtained by measuring the kept
    pairs *after* the loop, and the retained conditional states of the
    Z-agreed rounds in detection order.
    """
    return _counted_session(params, eve, rng, povm, _VIRTUAL)


def _counted_session(
    params: ProtocolParams,
    eve: EveStrategy,
    rng: RandomStream,
    povm: BobPOVM | None,
    picture: str,
) -> tuple:
    """A session that stops at n_det_ter detections, replayed when that pays.

    Sessions of at least :data:`_REPLAY_MIN_DETECTIONS` detections that
    :func:`_replayer` can replay are replayed; the rest run the round loop.
    """
    povm = povm if povm is not None else ideal_povm()
    replay = None
    if params.n_det_ter >= _REPLAY_MIN_DETECTIONS:
        replay = _replayer(params, eve, povm, picture)
    if replay is not None:
        return replay(rng)
    return _session(params, eve, rng, povm, CountDetected(params.n_det_ter), picture)


def run_estimation(
    params: ProtocolParams,
    eve: EveStrategy,
    rng: RandomStream,
    povm: BobPOVM | None = None,
) -> EstimationRun:
    """Session in which every detected pair is measured in X immediately.

    Each detected round records the announced bases, the X outcomes, and t,
    the phase-error weight of that round's post-detection state, which gives
    its conditional probabilities p_ph = q_z * t and p_xerr = q_x * t.  Both
    probabilities come from the single trace evaluation t, so their ratio is
    q_z : q_x by construction.
    """
    povm = povm if povm is not None else ideal_povm()
    return _session(params, eve, rng, povm, CountDetected(params.n_det_ter), _ESTIMATION)


def _session(
    params: ProtocolParams,
    eve: EveStrategy,
    rng: RandomStream,
    povm: BobPOVM,
    rule: TerminationRule,
    picture: str,
) -> EstimationRun | tuple:
    """The one round loop behind every session picture.

    Draw order per round, from the session stream:

    * actual: Alice's basis, her bit, delivery, Bob's basis, and Bob's
      readout if delivered;
    * virtual and estimation: delivery, detection if delivered, Bob's basis,
      and on a counted detection Alice's basis; estimation then reads X at
      once, while the virtual picture reads the kept pairs after the loop.
    """
    # The picture is tested once; the loop branches on plain local flags.
    actual = picture is _ACTUAL
    virtual = picture is _VIRTUAL
    estimation = picture is _ESTIMATION
    law_of = _actual_law if actual else _virtual_law
    eve_rng = _eve_stream(rng, eve.schedule)
    behavior = eve.behavior
    rand = rng.random
    getrandbits = rng.getrandbits

    p_z_a = params.p_z_a
    p_z_b = params.p_z_b
    batch = params.batch_size
    max_rounds = params.max_rounds
    Z_VALUE, X_VALUE = Basis.Z.value, Basis.X.value

    # Stop once n_det >= det_target and both quotas fill; exactly one of the
    # two conditions is live for a given rule.
    counting_detected = isinstance(rule, CountDetected)
    if counting_detected:
        det_target, nz_req, nx_req = rule.n, 0, 0
    else:
        det_target, nz_req, nx_req = 0, rule.n_z_req, rule.n_x_req

    transcript = Transcript(params)
    announce_detected = transcript.detected.append
    announce_basis_b = transcript.basis_b.append
    announce_basis_a = transcript.basis_a.append
    note_detected_basis_b = transcript.detected_basis_b.append
    # Z- and X-agreed bits.  Actual: the sifted strings.  Virtual: filled by
    # the deferred readout of ``kept`` after the loop.
    az: list[int] = []
    bz: list[int] = []
    ax: list[int] = []
    bx: list[int] = []
    # Virtual: (is_z_pair, cum3) per kept round, and the Z-agreed states.
    kept: list[tuple[bool, tuple[float, float, float]]] = []
    retained: list[Density4] = []
    # Estimation: the columns of EstimationRun, and each t_phase's index.
    pairs = bytearray()
    readouts = bytearray()
    laws = array("I")
    t_index: dict[float, int] = {}
    n_det = 0
    idx = 0
    # The laws of the strategy's own ops, found once by identity: an op that
    # flips between them (the adaptive tracker's) hashes no matrix bytes.
    # The last op and its law: most strategies return one op all session, so
    # the lookup runs only when the op changes.
    known = {id(op): law_of(povm, op) for op in eve.ops}
    last_op = law = None

    while n_det < det_target or len(az) < nz_req or len(ax) < nx_req:
        if idx >= max_rounds:
            raise MaxRoundsExceeded(
                f"no termination after {idx} rounds ({n_det} detected)"
            )
        for _ in range(batch):
            if idx >= max_rounds:
                break
            idx += 1
            op = behavior(transcript, eve_rng)
            if op is not last_op:
                law = known.get(id(op))
                if law is None:  # an op outside ``eve.ops``
                    law = law_of(povm, op)
                last_op = op
                if estimation:
                    law_code = t_index.setdefault(law.t_phase, len(t_index))
            if actual:
                a_is_z = rand() < p_z_a
                a_bit = getrandbits(1)
                code = 2 * a_bit + (not a_is_z)  # as _ActualLaw indexes p_deliver
                delivered = rand() < law.p_deliver[code]
                b_is_z = rand() < p_z_b
                detected = False
                b_bit = 0
                if delivered:
                    c0, c1 = law.outcome_cum[2 * code + (not b_is_z)]
                    u = rand()
                    if u < c0:
                        detected = True
                    elif u < c1:
                        detected = True
                        b_bit = 1
            else:
                detected = rand() < law.p_deliver and rand() < law.p_detect
                b_is_z = rand() < p_z_b
            if detected and counting_detected and n_det >= det_target:
                # Threshold filled while this round was in flight: announce it
                # as non-detected so the detected count stays exact.
                detected = False
            b_value = Z_VALUE if b_is_z else X_VALUE
            announce_basis_b(b_value)
            if not detected:
                announce_detected(0)
                announce_basis_a(0)
                continue
            n_det += 1
            if not actual:
                a_is_z = rand() < p_z_a
            a_value = Z_VALUE if a_is_z else X_VALUE
            announce_detected(1)
            announce_basis_a(a_value)
            note_detected_basis_b(b_value)
            if actual:
                if a_is_z:
                    if b_is_z:
                        az.append(a_bit)
                        bz.append(b_bit)
                elif not b_is_z:
                    ax.append(a_bit)
                    bx.append(b_bit)
            elif virtual:
                if a_is_z and b_is_z:
                    kept.append((True, law.zz_cum))
                    retained.append(law.rho_detected)
                elif not a_is_z and not b_is_z:
                    kept.append((False, law.xx_cum))
            else:
                cum = law.xx_cum
                u = rand()
                readouts.append(0 if u < cum[0] else 1 if u < cum[1] else 2 if u < cum[2] else 3)
                pairs.append(2 * a_value + b_value)
                laws.append(law_code)

    if estimation:
        pair = np.frombuffer(pairs, dtype=np.uint8)
        readout = np.frombuffer(readouts, dtype=np.uint8)
        zz, xx = readout[pair == _ZZ], readout[pair == _XX]
        return EstimationRun(
            transcript=transcript,
            pairs=pairs,
            readouts=readouts,
            laws=laws,
            t_phase=tuple(t_index),
            # x_a != x_b exactly at the readouts 1 and 2.
            lambda_ph=int(np.count_nonzero(zz % 3)),
            lambda_xerr=int(np.count_nonzero(xx % 3)),
            s_az_vir=zz >> 1,
            s_bz_vir=zz & 1,
        )

    for is_z, cum in kept:  # the virtual picture's deferred readout
        u = rand()
        a_bit, b_bit = divmod(0 if u < cum[0] else 1 if u < cum[1] else 2 if u < cum[2] else 3, 2)
        if is_z:
            az.append(a_bit)
            bz.append(b_bit)
        else:
            ax.append(a_bit)
            bx.append(b_bit)

    sifted = SiftedData(
        s_az=np.array(az, dtype=np.uint8),
        s_bz=np.array(bz, dtype=np.uint8),
        s_ax=np.array(ax, dtype=np.uint8),
        s_bx=np.array(bx, dtype=np.uint8),
        n_z=len(az),
        n_x=len(ax),
    )
    if counting_detected and sifted.n_z + sifted.n_x > params.n_det_ter:
        raise ValidationError("sifted counts exceed the detection threshold")
    if virtual:
        return transcript, sifted, retained
    return transcript, sifted


# ---------------------------------------------------------------------------
# Replays: a session's draws walked in NumPy instead of the round loop

# Draws per buffer refill of a replay, at most.
_REPLAY_CHUNK = 1 << 16
# run_actual and run_virtual replay sessions of at least this many detections.
# A replay has a fixed cost of 0.1-0.3 ms that the loop does not have; from
# 512 detections on the replay was faster for every built-in law measured.
_REPLAY_MIN_DETECTIONS = 512

# How each picture lays its rounds out in its draws, as (span, skip, strides):
# a round takes ``skip`` units if not delivered and ``strides[hit]`` if
# delivered, and never more than ``span``.  The actual picture counts MT19937
# words (basis 2, bit 1, delivery 2, Bob's basis 2, readout 2); the others
# count ``random()`` values, two words each (delivery, detection, Bob's
# basis, then Alice's basis and, in estimation, the X readout).
_LAYOUTS = {
    _ACTUAL: (9, 7, (9, 9)),
    _VIRTUAL: (4, 2, (3, 4)),
    _ESTIMATION: (5, 2, (3, 5)),
}
# The units of a detected estimation round that its counters read: Bob's
# basis, Alice's basis and the X readout.
_ESTIMATION_READS = np.arange(2, 5)


def replay_counter(
    params: ProtocolParams, eve: EveStrategy, povm: BobPOVM | None = None
) -> Callable[[RandomStream], tuple[int, int, float, float, int, int]] | None:
    """A function from a session stream to the counters of its estimation run.

    The counters are ``(lambda_ph, lambda_xerr, sum_p_ph, sum_p_xerr, n_z,
    n_x)``: the two error counts, the ``math.fsum`` of the per-round p_ph and
    p_xerr, and the numbers of Z-Z and X-X detected rounds of
    ``run_estimation(params, eve, stream, povm)``.  The function replays the
    session's draws in NumPy (:func:`_replay_counts`) and gives the same
    numbers.  It exists only when :func:`_replayer` allows a replay;
    otherwise this returns None.  Unlike :func:`_replay_session`, it does
    not give back the words it draws past the session, so unless every
    round is a detection it leaves the stream elsewhere than the loop.
    """
    return _replayer(params, eve, povm if povm is not None else ideal_povm(), _ESTIMATION)


class _Tally(NamedTuple):
    """What the estimation counters need of each law, indexed by op."""

    error_from: np.ndarray  # xx_cum[0]: the X readouts from here ...
    error_below: np.ndarray  # ... to below xx_cum[2] disagree
    p_ph: tuple[list[int], int]  # q_z * t_phase, as :func:`_dyadic` gives it
    p_xerr: tuple[list[int], int]  # q_x * t_phase


def _replayer(
    params: ProtocolParams, eve: EveStrategy, povm: BobPOVM, picture: str
) -> Callable[[RandomStream], tuple] | None:
    """The replay of ``picture``'s sessions as a function of the stream, or None.

    A replay needs ``eve.schedule``, and laws of all of ``eve.ops`` under
    which the draws that decide a round do not depend on the op: the same
    ``(p_deliver, p_detect)``, which in the actual picture are tuples over
    the bit and the pair of bases.  A round must also detect with positive
    probability, so all-loss laws run the loop.  A replay stops at the n-th
    detection, so the actual and virtual pictures, which announce the
    rounds in flight past it, need ``batch_size`` 1.  Nothing is drawn here.
    """
    if not eve.schedule or not eve.ops or (picture is not _ESTIMATION and params.batch_size > 1):
        return None
    law_of = _actual_law if picture is _ACTUAL else _virtual_law
    laws = [law_of(povm, op) for op in eve.ops]
    if len({(law.p_deliver, law.p_detect) for law in laws}) != 1:
        return None
    if picture is _ACTUAL:
        a_probs = (params.p_z_a, params.p_x_a)
        b_probs = (params.p_z_b, params.p_x_b)
        # By the codes of _ActualLaw: 2 * bit + Alice's basis, then Bob's basis.
        sent = [0.5 * a_probs[c & 1] * p for c, p in enumerate(laws[0].p_deliver)]
        p_deliver = sum(sent)
        p_hit = sum(sent[c >> 1] * b_probs[c & 1] * d for c, d in enumerate(laws[0].p_detect))
    else:
        p_deliver = laws[0].p_deliver
        p_hit = p_deliver * laws[0].p_detect
    if not p_hit > 0.0:
        return None
    _, skip, strides = _LAYOUTS[picture]
    per_round = skip + p_deliver * (strides[0] - skip) + p_hit * (strides[1] - strides[0])
    # Units to draw per detection to come: the expected number, no margin.
    per_detection = per_round / p_hit
    if picture is not _ESTIMATION:
        return functools.partial(
            _replay_session, params, eve.schedule, laws, picture, per_detection
        )
    tally = _Tally(
        np.array([law.xx_cum[0] for law in laws]),
        np.array([law.xx_cum[2] for law in laws]),
        _dyadic([params.q_z * law.t_phase for law in laws]),
        _dyadic([params.q_x * law.t_phase for law in laws]),
    )
    return functools.partial(_replay_counts, params, eve.schedule, laws[0], tally, per_detection)


def _dyadic(values: Sequence[float]) -> tuple[list[int], int]:
    """``values`` as integer numerators over one power of two, and that power.

    A float is a dyadic rational, so value j is exactly ``numerators[j] /
    scale``.
    """
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(denominator for _, denominator in ratios)
    return [numerator * (scale // denominator) for numerator, denominator in ratios], scale


def _repeated_sum(weights: tuple[list[int], int], counts: Sequence[int]) -> float:
    """``math.fsum`` of ``counts[j]`` copies of value j, for ``weights = _dyadic(values)``.

    Both are the exact sum rounded once: the sum of the numerators is an
    exact int, and the true division of two ints is correctly rounded.
    """
    numerators, scale = weights
    return sum(map(operator.mul, counts, numerators)) / scale


def _to_random(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The ``random()`` values built from MT19937 words ``hi`` then ``lo``.

    ``random()`` takes two 32-bit words and returns
    ``((w1 >> 5) * 2**26 + (w2 >> 6)) * 2**-53``.
    """
    return ((hi >> 5) * 67108864.0 + (lo >> 6)) * (1.0 / 9007199254740992.0)


def _is_below(hi: np.ndarray, lo: np.ndarray, p: float) -> np.ndarray:
    """Whether ``random()`` from words ``hi[i]`` then ``lo[i]`` is below p, as a bool mask.

    Every replay compares a draw with a fixed probability this way, on the
    words and without building a float.  ``random()`` is x * 2**-53 for the
    53-bit integer x = (hi >> 5) * 2**26 + (lo >> 6), and p * 2**53 is
    exact, so for 0 < p < 1 ``random() < p`` exactly when x < t = ceil(p *
    2**53).  ``edge`` is the least hi whose ``hi >> 5`` ties t's high 27
    bits, and ``low`` is t's low 26 bits: below ``edge`` the test holds,
    from ``edge + 32`` on it fails, and at a tie, one hi in 2**27, it holds
    when ``lo >> 6`` is below ``low``.
    """
    if p >= 1.0:
        return np.ones(len(hi), dtype=bool)
    if not p > 0.0:
        return np.zeros(len(hi), dtype=bool)
    t = math.ceil(p * 9007199254740992.0)
    edge, low = t >> 26 << 5, t & 0x3FFFFFF
    below = hi < edge
    if low:  # otherwise no tie is below p, as at p = 1/2
        tie = (hi >> 5) == edge >> 5
        if tie.any():
            below |= tie & ((lo >> 6) < low)
    return below


# Words per getrandbits call of _words.  Drawn whole, a 400 KB buffer's int
# and bytes went back to the system and were faulted in again every trial.
_WORDS_PIECE = 8192


def _words(stream: RandomStream, k: int) -> np.ndarray:
    """The next k MT19937 words of ``stream``, drawn in bulk.

    ``getrandbits(32 * m)`` takes m words and puts the first in the lowest
    bits; ``random()`` takes two.
    """
    words = np.empty(k, dtype="<u4")
    for start in range(0, k, _WORDS_PIECE):
        m = min(_WORDS_PIECE, k - start)
        piece = stream.getrandbits(32 * m).to_bytes(4 * m, "little")
        words[start : start + m] = np.frombuffer(piece, dtype="<u4")
    return words


def _word_pairs(stream: RandomStream, k: int) -> np.ndarray:
    """The words of the next k ``random()`` values, two to a uint64 (see :func:`_halves`)."""
    return _words(stream, 2 * k).view("<u8")


def _halves(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and second words of packed ``random()`` values, as views.

    A gather of the packed values moves both words of each at once.
    """
    words = pairs.view("<u4")
    return words[..., 0::2], words[..., 1::2]


def _uniforms(stream: RandomStream, k: int) -> np.ndarray:
    """The next k ``stream.random()`` values, drawn at once."""
    return _to_random(*_halves(_word_pairs(stream, k)))


class _Words:
    """A session stream's MT19937 words, drawn in bulk and given back exactly.

    The stream's state before the last draw is kept, so :meth:`seek` can
    leave the stream after any word of it, where a :func:`_walk` session ends.
    """

    def __init__(self, stream: RandomStream) -> None:
        self._stream = stream
        self._drawn = 0

    def words(self, k: int) -> np.ndarray:
        self._mark: tuple[int, tuple] = (self._drawn, self._stream.getstate())
        self._drawn += k
        return _words(self._stream, k)

    def pairs(self, k: int) -> np.ndarray:
        return self.words(2 * k).view("<u8")

    def uniforms(self, k: int) -> np.ndarray:
        return _to_random(*_halves(self.pairs(k)))

    def seek(self, used: int) -> None:
        """Leave the stream as if only the first ``used`` words were drawn."""
        drawn, state = self._mark
        self._stream.setstate(state)
        self._stream.getrandbits(32 * (used - drawn))
        self._drawn = used


def _replay_counts(
    params: ProtocolParams,
    schedule: Schedule,
    law: _VirtualLaw,
    tally: _Tally,
    per_detection: float,
    rng: RandomStream,
) -> tuple[int, int, float, float, int, int]:
    """The counters of :func:`replay_counter`, from ``rng``'s draws in NumPy.

    The laws share their delivery and detection probabilities (those of
    ``law``), so which draws are which does not depend on the op.  When
    every round is a detection, the session is n rounds of five draws: one
    ``(n, 10)`` block of words, with no walk and no array of detections or
    round indices.  Otherwise :func:`_walk` finds the detections.  Either
    way each detection gives six words, those of Bob's basis, Alice's basis
    and the X readout, and the schedule gives its op.  The basis draws are
    tested on their words (:func:`_is_below`); only the readout, compared
    with the cuts of its op's law, becomes a ``random()`` value.  Rounds
    after the n-th detection, in flight or not, change no counter, so the
    replay stops there.
    """
    eve_rng = _eve_stream(rng, schedule)
    n = params.n_det_ter
    # With one op every detection has it, and the schedule is not needed.
    several = len(tally.error_from) > 1
    detected = None  # every emitted round is a detection
    if law.p_deliver >= 1.0 and law.p_detect >= 1.0:
        # random() < 1 always holds, so every round is a detection of five
        # draws, ten words, and there is nothing to walk (max_rounds >= n
        # always).  Words 4-9 are the ones read.
        words = _words(rng, 10 * n).reshape(n, 10)[:, 4:]
    else:

        def extract(s: _Stretch) -> tuple:
            reads = s.u[s.at[s.hits][:, np.newaxis] + _ESTIMATION_READS]
            return (reads, _round_index(s)[s.hits]) if several else (reads,)

        columns, _ = _walk(
            functools.partial(_word_pairs, rng),
            n,
            params.max_rounds,
            per_detection,
            _LAYOUTS[_ESTIMATION],
            _one_draw_tests(law),
            extract,
        )
        words = columns[0].view("<u4")
        if several:
            index = columns[1]
            detected = np.zeros(index[-1] + 1, dtype=bool)
            detected[index] = True
    b_z = _is_below(words[:, 0], words[:, 1], params.p_z_b)
    a_z = _is_below(words[:, 2], words[:, 3], params.p_z_a)
    readout = _to_random(words[:, 4], words[:, 5])
    if several:
        basis_b = (~b_z).view(np.uint8)  # Basis.value: Z is 0, X is 1
        op = schedule(detected, basis_b, functools.partial(_uniforms, eve_rng))
        if detected is not None:
            op = op[index]
        per_op = np.bincount(op, minlength=len(tally.error_from)).tolist()
    else:
        op, per_op = 0, [n]
    # xa != xb exactly when the readout falls between xx_cum[0] and xx_cum[2].
    error = (readout >= tally.error_from[op]) & (readout < tally.error_below[op])
    zz = a_z & b_z
    xx = ~(a_z | b_z)
    return (
        int(np.count_nonzero(zz & error)),
        int(np.count_nonzero(xx & error)),
        _repeated_sum(tally.p_ph, per_op),
        _repeated_sum(tally.p_xerr, per_op),
        int(np.count_nonzero(zz)),
        int(np.count_nonzero(xx)),
    )


def _replay_session(
    params: ProtocolParams,
    schedule: Schedule,
    laws: list,
    picture: str,
    per_detection: float,
    rng: RandomStream,
) -> tuple:
    """``run_actual`` or ``run_virtual``'s output, from ``rng``'s draws in NumPy.

    The same transcript, sifted strings and (virtual) retained states as
    :func:`_session`, and ``rng`` is left in the same state.  The walk of
    :func:`_walk` finds each round's draws; the schedule then gives the op of
    each detected round, which sets Bob's bit (actual) or the law of the
    deferred readout that the virtual picture draws after the last round.
    """
    eve_rng = _eve_stream(rng, schedule)
    stream = _Words(rng)
    p_z_a, p_z_b = params.p_z_a, params.p_z_b
    if picture is _ACTUAL:
        deliver = np.array(laws[0].p_deliver)
        detect = np.array(laws[0].p_detect)

        def delivery(w, limit):
            # Every delivered round is below the largest p_deliver; where the
            # bit and basis give another, the readout is tested against it.
            at = np.flatnonzero(_is_below(w[3 : limit + 3], w[4 : limit + 4], deliver.max()))
            if deliver.min() == deliver.max():
                return at
            code = (w[at + 2] >> 31 << 1) | ~_is_below(w[at], w[at + 1], p_z_a)
            return at[_to_random(w[at + 3], w[at + 4]) < deliver[code]]

        def detection(w, s):
            a = ~_is_below(w[s], w[s + 1], p_z_a)
            b = ~_is_below(w[s + 5], w[s + 6], p_z_b)
            return _to_random(w[s + 7], w[s + 8]) < detect[4 * (w[s + 2] >> 31) + 2 * a + b]

        tests = delivery, detection

        def extract(s: _Stretch) -> tuple:
            w, at = s.u, s.at[s.hits]
            starts, delivered = _round_starts(s)
            return (
                s.before + np.flatnonzero(delivered)[s.hits],
                _is_below(w[starts + 5], w[starts + 6], p_z_b),
                _is_below(w[at], w[at + 1], p_z_a),
                (w[at + 2] >> 31).astype(np.uint8),  # getrandbits(1) is the top bit
                _to_random(w[at + 7], w[at + 8]),
            )

        draw, words_per_unit = stream.words, 1
    else:
        tests = _one_draw_tests(laws[0])

        def extract(s: _Stretch) -> tuple:
            starts, delivered = _round_starts(s)
            return (
                s.before + np.flatnonzero(delivered)[s.hits],
                _is_below(*_halves(s.u[starts + 1 + delivered]), p_z_b),
                _is_below(*_halves(s.u[s.at[s.hits] + 3]), p_z_a),
            )

        draw, words_per_unit = stream.pairs, 2
    (index, b_z, a_z, *rest), used = _walk(
        draw,
        params.n_det_ter,
        params.max_rounds,
        per_detection,
        _LAYOUTS[picture],
        tests,
        extract,
    )
    stream.seek(words_per_unit * used)

    hits = np.zeros(index[-1] + 1, dtype=bool)  # the last round is the n-th detection
    hits[index] = True
    basis_b = (~b_z).view(np.uint8)  # Basis.value: Z is 0, X is 1
    op = schedule(hits, basis_b[index], functools.partial(_uniforms, eve_rng))[index]
    basis_a = np.zeros_like(basis_b)
    basis_a[index] = ~a_z
    transcript = Transcript(params)
    transcript.detected += memoryview(hits.view(np.uint8))
    transcript.basis_b += memoryview(basis_b)
    transcript.basis_a += memoryview(basis_a)
    transcript.detected_basis_b += memoryview(basis_b[index])

    b_z = b_z[index]
    zz = a_z & b_z
    xx = ~(a_z | b_z)
    if picture is _ACTUAL:
        a_bits, readout = rest
        # Bob reads 0 below P(bob=0) of the round's law, else 1.
        bob_zero = np.array([[cum[0] for cum in law.outcome_cum] for law in laws])
        code = 4 * a_bits.astype(np.intp) + 2 * ~a_z + ~b_z
        b_bits = (readout >= bob_zero[op, code]).astype(np.uint8)
        z, x = zz, xx
    else:
        # The deferred readout: one draw per kept pair, in detection order.
        kept = zz | xx
        z = zz[kept]
        x = ~z
        cum = np.array([[law.xx_cum, law.zz_cum] for law in laws])[op[kept], z.astype(np.intp)]
        u = stream.uniforms(len(cum))
        outcome = np.where(
            u < cum[:, 0], 0, np.where(u < cum[:, 1], 1, np.where(u < cum[:, 2], 2, 3))
        ).astype(np.uint8)
        a_bits, b_bits = outcome >> 1, outcome & 1
    n_z, n_x = int(np.count_nonzero(z)), int(np.count_nonzero(x))
    sifted = SiftedData(a_bits[z], b_bits[z], a_bits[x], b_bits[x], n_z, n_x)
    if picture is _ACTUAL:
        return transcript, sifted
    states = [law.rho_detected for law in laws]
    return transcript, sifted, [states[i] for i in op[zz].tolist()]


def _one_draw_tests(law: _VirtualLaw) -> tuple[Callable, Callable]:
    """:func:`_walk`'s tests when delivery and detection take a ``random()`` each."""
    p_deliver, p_detect = law.p_deliver, law.p_detect
    return (
        lambda u, limit: np.flatnonzero(_is_below(*_halves(u[:limit]), p_deliver)),
        lambda u, starts: _is_below(*_halves(u[starts + 1]), p_detect),
    )


def _walk(
    draw: Callable[[int], np.ndarray],
    n: int,
    max_rounds: int,
    per_detection: float,
    layout: tuple[int, int, tuple[int, int]],
    tests: tuple[Callable, Callable],
    extract: Callable[[_Stretch], tuple],
) -> tuple[list[np.ndarray], int]:
    """Walk a session's rounds through its draws to its n-th detection.

    ``draw(k)`` gives the session's next k units: MT19937 words, or
    ``random()`` values as :func:`_word_pairs` packs their words.
    ``layout`` is ``(span, skip, strides)`` from :data:`_LAYOUTS`.
    ``tests`` are two predicates on a buffer ``u``: ``delivered(u, limit)``
    gives the units below ``limit`` at which a round that starts there is
    delivered, and ``detected(u, starts)`` whether the delivered rounds at
    ``starts`` are detections.  The session ends at the n-th detection, so
    no round is in flight; raises :class:`MaxRoundsExceeded` as
    :func:`_session` does.

    Draws come in buffers of at most :data:`_REPLAY_CHUNK` units, sized from
    ``per_detection``, the expected units per detection, with no margin.  A
    round cut by the end of a buffer is carried into the next, which starts
    with it; so the session's last round, a detection that takes the whole
    span, ends in the last draw.  The
    walk visits only the delivered rounds; the undelivered ones between
    them are counted, not built.  ``extract`` gets the :class:`_Stretch` of
    rounds emitted from each buffer.  Returns the arrays that ``extract``
    returned, each joined over the stretches, and the number of units the
    session used.
    """
    span, skip, strides = layout
    is_delivered, is_detected = tests
    pieces = []
    tail = None  # the units of the previous buffer from the round it did not fit
    base = count = rounds = 0  # units before the buffer; detections and rounds so far
    while True:
        want = (n - count) * per_detection + 64
        u = draw(_REPLAY_CHUNK if want >= _REPLAY_CHUNK else int(want))
        if tail is not None:
            u = np.concatenate((tail, u))
        limit = len(u) - span + 1  # a round that starts before limit fits in the buffer
        delivered = is_delivered(u, limit)
        m = len(delivered)
        # The walk needs the detections beforehand only if they set the
        # stride; otherwise it tests just the rounds it takes.
        hit = is_detected(u, delivered) if strides[0] != strides[1] else None
        step = strides[0]
        if hit is not None and hit.any():
            step = strides[1] if hit.all() else np.where(hit, strides[1], strides[0])
        if m == limit and np.ndim(step) == 0:
            path = np.arange(0, limit, step)  # every start delivered, one stride: no walk
        else:
            upcoming = _upcoming(delivered, len(u) + 1, skip)
            path = _chase(upcoming[delivered + step], int(upcoming[0]), m)
        at = delivered[path]
        hits = is_detected(u, at) if hit is None else hit[path]
        found = np.flatnonzero(hits)[n - count - 1 : n - count]  # the n-th detection
        after = 0  # undelivered rounds after the last delivered one
        if len(found):
            at, hits = at[: found[0] + 1], hits[: found[0] + 1]
        else:
            end = int(at[-1]) + strides[1 if hits[-1] else 0] if len(at) else 0
            stop = end if end >= limit else end - (end - limit) // skip * skip
            after = (stop - end) // skip
        emitted = after
        if len(at):
            # Up to the last delivered round, the units that no delivered
            # round takes are undelivered rounds.
            taken = strides[0] * (len(at) - 1) + (strides[1] - strides[0]) * int(
                np.count_nonzero(hits[:-1])
            )
            emitted += len(at) + (int(at[-1]) - taken) // skip
        stretch = _Stretch(u, at, hits, strides, after, skip, rounds, emitted)
        if rounds + emitted > max_rounds:
            detected = count + np.count_nonzero(_round_index(stretch)[hits] < max_rounds)
            raise MaxRoundsExceeded(
                f"no termination after {max_rounds} rounds ({detected} detected)"
            )
        pieces.append(extract(stretch))
        rounds += emitted
        if len(found):
            # Join the stretches' pieces column by column.
            columns = [c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*pieces)]
            return columns, base + int(at[-1]) + strides[1]
        count += int(np.count_nonzero(hits))
        tail = u[stop:]
        base += stop


class _Stretch(NamedTuple):
    """The ``rounds`` rounds that a walk emits from one buffer, from its first unit on.

    ``at`` are the starts of the delivered rounds, in order, and ``hits``
    whether each is a detection, which sets its stride in ``strides``.  The
    other rounds are undelivered, ``skip`` units each: they run from the
    buffer's start and from the end of each delivered round up to the next,
    and ``after`` of them follow the last one.  The session emitted
    ``before`` rounds ahead of them.
    """

    u: np.ndarray
    at: np.ndarray
    hits: np.ndarray
    strides: tuple[int, int]
    after: int
    skip: int
    before: int
    rounds: int


def _runs(s: _Stretch) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of rounds of ``s`` starts, and how many rounds it has.

    Each run but the last is undelivered rounds and the delivered round that
    ends it; the last is the ``after`` rounds.
    """
    first = np.concatenate(([0], s.at + np.where(s.hits, s.strides[1], s.strides[0])))
    return first, np.append((s.at - first[:-1]) // s.skip + 1, s.after)


def _round_index(s: _Stretch) -> np.ndarray:
    """The index of each delivered round of ``s`` among the session's rounds."""
    if s.rounds == len(s.at):  # every round delivered
        return s.before + np.arange(s.rounds)
    return s.before + np.cumsum(_runs(s)[1][:-1]) - 1


def _round_starts(s: _Stretch) -> tuple[np.ndarray, np.ndarray]:
    """The start of each round of ``s``, and whether it is delivered."""
    if s.rounds == len(s.at):
        return s.at, np.ones(s.rounds, dtype=bool)
    first, runs = _runs(s)
    last = np.cumsum(runs)
    starts = np.repeat(first - s.skip * (last - runs), runs) + s.skip * np.arange(s.rounds)
    delivered = np.zeros(s.rounds, dtype=bool)
    delivered[last[:-1] - 1] = True
    return starts, delivered


def _chase(successor: np.ndarray, j: int, m: int) -> np.ndarray:
    """The chain j, successor[j], successor[successor[j]], ... of indices below m.

    ``successor`` maps each index below m to a larger one, or to m.  The
    Python loop follows the chain eight links a step, on ``successor``
    composed with itself three times, and writes through a ``memoryview``
    into a preallocated array; NumPy then fills in the links between,
    halving the step three times.  The arrays are of ``intp``, which NumPy
    gathers by without a cast.
    """
    jumps = [np.append(successor, m).astype(np.intp)]  # m ends the chain and maps to itself
    for _ in range(3):
        jumps.append(jumps[-1][jumps[-1]])
    path = np.empty(m // 8 + 2, dtype=np.intp)
    out, far = memoryview(path), memoryview(jumps.pop())
    k = 0
    while j < m:
        out[k] = j
        k += 1
        j = far[j]
    for jump in reversed(jumps):
        links = np.empty(2 * k, dtype=np.intp)
        links[0::2] = path[:k]
        links[1::2] = jump[path[:k]]
        path, k = links, 2 * k
    return path[: np.searchsorted(path, m)]


def _upcoming(delivered: np.ndarray, size: int, skip: int) -> np.ndarray:
    """For each unit q < size, where a walk of undelivered rounds from q stops.

    That is the index in ``delivered`` of the first delivered start at or
    after q that is equal to q mod ``skip``, or ``len(delivered)`` where
    there is none.
    """
    m = len(delivered)
    grid = np.full((-(-size // skip), skip), m, dtype=np.int32)
    grid.ravel()[delivered] = np.arange(m, dtype=np.int32)
    upcoming = np.empty_like(grid)
    np.minimum.accumulate(grid[::-1], out=upcoming[::-1])
    return upcoming.ravel()


# ---------------------------------------------------------------------------
# Post-processing


def postprocess(
    sifted: SiftedData, params: ProtocolParams, rng: RandomStream
) -> FinalKeys:
    """Distill final keys: bound the phase errors, correct, compress, verify.

    Error correction is idealized — Bob's string is replaced by Alice's and
    the syndrome cost lambda_ec is charged against the key length.  Privacy
    amplification is the seeded Toeplitz hash.  Verification tags come from
    the polynomial hash of the l-bit keys over a prime p >= 2(l-1)/eps_c, so
    two different keys collide with probability at most (l-1)/p <= eps_c/2;
    ``consumed_preshared_bits`` counts the pre-shared bits that drawing p and
    the evaluation point took.  Raises the ProtocolAbort subclasses on a
    non-positive key length or tag mismatch, propagates the aborts of the
    bound pipeline, and raises DomainError when p would exceed the range in
    which primality is decided exactly.
    """
    result = finite_key.pipeline(sifted, params)
    if result.l <= 0:
        raise AbortKeyTooShort(
            f"extractable key length {result.l} (pre-floor {result.l_pre_floor:.3f})"
        )
    l = result.l
    corrected_b = sifted.s_az.copy()  # idealized reconciliation

    seed_bits = hashing.random_bits(rng, sifted.n_z + l - 1)
    f_az = hashing.toeplitz_hash(sifted.s_az, l, seed_bits)
    f_bz = hashing.toeplitz_hash(corrected_b, l, seed_bits)

    # The least tag_bits with 2**tag_bits >= 2(l-1)/eps_c, in exact
    # arithmetic; random_prime draws p >= 2**tag_bits.
    p_min = Fraction(2 * max(l - 1, 1)) / Fraction(params.eps_c)
    tag_bits = (math.ceil(p_min) - 1).bit_length()
    modulus = hashing.random_prime(rng, tag_bits)
    point, point_bits = hashing.random_below(rng, modulus)
    tag_a = hashing.poly_hash(f_az, modulus, point)
    tag_b = hashing.poly_hash(f_bz, modulus, point)
    meta = {
        "toeplitz_seed_hex": bits_to_hex(seed_bits),
        "poly_modulus": modulus,
        "poly_point": point,
        "tag_a": tag_a,
        "tag_b": tag_b,
        "consumed_preshared_bits": tag_bits + point_bits,
        "lambda_ec": result.lambda_ec,
        "key_length": l,
    }
    if tag_a != tag_b:
        raise AbortVerificationFailed(f"verification tags differ: {tag_a} != {tag_b}")
    return FinalKeys(
        f_az=f_az, f_bz=f_bz, aborted=False, lambda_ec=result.lambda_ec, meta=meta
    )


# ---------------------------------------------------------------------------
# Serialization helpers (documented JSON shapes; see docs/output-formats.md)


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a 0/1 array MSB-first into hex; pair with the stored bit length."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def hex_to_bits(hex_str: str, n_bits: int) -> np.ndarray:
    """Unpack ``n_bits`` bits from hex as :func:`bits_to_hex` writes them."""
    if not (is_int(n_bits) and n_bits >= 0):
        raise ValidationError(f"bit length must be an integer >= 0, got {n_bits!r}")
    if not isinstance(hex_str, str):
        raise ValidationError(f"hex bits must be a string, got {type(hex_str).__name__}")
    n_digits = 2 * -(-n_bits // 8)
    if len(hex_str) != n_digits:
        raise ValidationError(f"{n_bits} bits take {n_digits} hex digits, got {len(hex_str)}")
    try:
        raw = bytes.fromhex(hex_str)
    except ValueError as exc:
        raise ValidationError(f"not a string of hex digits: {exc}") from exc
    if 2 * len(raw) != n_digits:  # fromhex skips whitespace
        raise ValidationError("whitespace among the hex digits")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n_bits].astype(np.uint8)


def transcript_counts(transcript: Transcript) -> dict:
    """The fields of :func:`transcript_to_json` that precede ``rounds``."""
    return {"n_rounds": len(transcript.detected), "n_detected": transcript.n_detected}


def transcript_to_json(transcript: Transcript) -> dict:
    names = [basis.name for basis in _BASES]
    columns = zip(transcript.detected, transcript.basis_b, transcript.basis_a)
    return {
        **transcript_counts(transcript),
        "rounds": [
            [i, d, names[b], names[a] if d else None]
            for i, (d, b, a) in enumerate(columns, 1)
        ],
    }


def transcript_rounds_parts(transcript: Transcript, depth: int) -> list[str]:
    """The ``rounds`` array of :func:`transcript_to_json` as JSON text, in pieces.

    Joined, the pieces are what ``json.dumps(..., indent=2)`` writes for that
    array when it sits at nesting depth ``depth`` (the value of a key whose
    line is indented by ``2 * depth`` spaces), but they are built from the
    columns without the per-round lists.  A caller that splices the array
    into a larger text joins these pieces with the rest in one ``str.join``,
    so the array is never copied whole.
    A round's row depends only on its index and on the 3-bit code
    (detected, basis_b, basis_a).  Each round contributes two pieces: the
    digits of its index above the last two, then an entry of an 800-entry
    table keyed by ``(index % 100) * 8 + code`` that holds the two low digits
    zero-padded, the row's tail and the opening of the next row.  So the
    hundred rounds of a block share one ``str(index // 100)``.  Rounds 1-99
    have no high digits: their first piece is the empty string and their
    table entry holds the low digits unpadded.
    """
    n = len(transcript.detected)
    if n == 0:
        return ["[]"]
    outer = "\n" + "  " * depth
    row = outer + "  "
    item = row + "  "
    tails = []
    for code in range(8):
        detected, basis_b, basis_a = code >> 2, (code >> 1) & 1, code & 1
        announced_a = f'"{_BASES[basis_a].name}"' if detected else "null"
        tails.append(
            f',{item}{detected},{item}"{_BASES[basis_b].name}",{item}{announced_a}{row}]'
        )
    # Each row's tail is followed by the opening of the next row.  The tables
    # are object arrays: indexing one hands out its own strings, so no object
    # is made per round (a list of keys would make an int for each key > 256).
    opening = f",{row}[{item}"
    padded = np.array(
        [f"{low:02d}{tail}{opening}" for low in range(100) for tail in tails], dtype=object
    )
    unpadded = np.array(
        [f"{low}{tail}{opening}" for low in range(100) for tail in tails], dtype=object
    )
    keys = np.resize(np.arange(1, 101, dtype=np.uint16) % 100 << 3, n)
    keys |= np.frombuffer(transcript.detected, dtype=np.uint8) << 2
    keys |= np.frombuffer(transcript.basis_b, dtype=np.uint8) << 1
    keys |= np.frombuffer(transcript.basis_a, dtype=np.uint8)
    # Round i's pieces sit at 2i - 1 (high digits) and 2i (table entry).
    parts: list[str] = [""] * (2 * n + 1)
    parts[0] = f"[{row}[{item}"
    parts[2:200:2] = unpadded[keys[:99]].tolist()
    parts[200::2] = padded[keys[99:]].tolist()
    blocks = list(map(str, range(1, n // 100 + 1)))
    for first in range(100, 200):
        # Rounds first, first + 100, ... take one block each: every 200th piece.
        parts[2 * first - 1 :: 200] = blocks[: len(range(first, n + 1, 100))]
    parts[-1] = parts[-1][: -len(opening)] + outer + "]"
    return parts


def sifted_to_json(sifted: SiftedData) -> dict:
    return {
        "n_z": sifted.n_z,
        "n_x": sifted.n_x,
        "x_error_weight": sifted.x_error_weight(),
        "s_az_hex": bits_to_hex(sifted.s_az),
        "s_bz_hex": bits_to_hex(sifted.s_bz),
        "s_ax_hex": bits_to_hex(sifted.s_ax),
        "s_bx_hex": bits_to_hex(sifted.s_bx),
    }
