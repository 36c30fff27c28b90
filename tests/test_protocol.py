"""Session loops: termination, announcements, law agreement, distillation."""

import dataclasses
import itertools
import json
import math
import random

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qkd_sift import adversary, protocol
from qkd_sift.adversary import (
    AdaptiveBasisTracker,
    Depolarizing,
    EveStrategy,
    IdentityLossy,
    InterceptResend,
    dephasing_channel,
    depolarizing_channel,
    identity_lossy_channel,
    make_strategy,
)
from qkd_sift.errors import (
    AbortKeyTooShort,
    AbortNoTestData,
    MaxRoundsExceeded,
    ValidationError,
)
from qkd_sift.protocol import (
    CountDetected,
    CountPerBasis,
    ProtocolParams,
    RoundRecord,
    SiftedData,
    Transcript,
    _actual_law,
    _virtual_law,
    bits_to_hex,
    derive_stream,
    hex_to_bits,
    postprocess,
    replay_counter,
    run_actual,
    run_estimation,
    run_insecure_termination,
    run_virtual,
    sifted_to_json,
    transcript_rounds_parts,
    transcript_to_json,
)
from qkd_sift.quantum_core import (
    Basis,
    BobPOVM,
    ChannelOp,
    bell_pair,
    channel_branches,
    detection_povm,
    ideal_povm,
    pair_outcome_probs,
)
from qkd_sift.stats import estimation_counts

IDENTITY = make_strategy(IdentityLossy(0.0))

_PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def _params(n=32, p_z=0.5, **kw):
    defaults = dict(
        p_z_a=p_z, p_x_a=1.0 - p_z, p_z_b=p_z, p_x_b=1.0 - p_z,
        n_det_ter=n, eps_s=1e-9, eps_c=1e-12, delta=0.05,
    )
    defaults.update(kw)
    return ProtocolParams(**defaults)


# -- parameter validation -----------------------------------------------------


def test_params_reject_bad_basis_probabilities():
    with pytest.raises(ValidationError, match="basis probabilities"):
        _params(p_z_a=0.5, p_x_a=0.4)
    with pytest.raises(ValidationError, match="basis probabilities"):
        _params(p_z_b=0.7, p_x_b=0.7)


def test_params_reject_out_of_range_fields():
    with pytest.raises(ValidationError):
        _params(n=0)
    with pytest.raises(ValidationError):
        _params(eps_s=0.0)
    with pytest.raises(ValidationError):
        _params(eps_c=1.0)
    with pytest.raises(ValidationError):
        _params(delta=-0.01)
    with pytest.raises(ValidationError):
        _params(f_ec=0.99)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="delta must be finite"):
            _params(delta=bad)
        with pytest.raises(ValidationError, match="f_ec must be finite"):
            _params(f_ec=bad)
    with pytest.raises(ValidationError):
        _params(batch_size=0)


def test_max_rounds_default_and_floor():
    assert _params(n=7).max_rounds == 7000
    with pytest.raises(ValidationError, match="max_rounds"):
        _params(n=10, max_rounds=9)
    assert _params(n=10, max_rounds=10).max_rounds == 10


def test_q_z_q_x_products():
    p = _params(p_z=0.8)
    assert p.q_z == pytest.approx(0.64, abs=1e-15)
    assert p.q_x == pytest.approx(0.04, abs=1e-15)


# -- trial streams ------------------------------------------------------------


def test_derive_stream_is_reproducible_and_distinct():
    a1 = [derive_stream(12345, 7).random() for _ in range(4)]
    a2 = [derive_stream(12345, 7).random() for _ in range(4)]
    b = [derive_stream(12345, 8).random() for _ in range(4)]
    c = [derive_stream(12346, 7).random() for _ in range(4)]
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_derive_stream_validation():
    with pytest.raises(ValidationError):
        derive_stream(-1, 0)
    with pytest.raises(ValidationError):
        derive_stream(2**64, 0)
    with pytest.raises(ValidationError):
        derive_stream(0, -1)


@pytest.mark.parametrize(
    "seed, index", [(1, 0.5), (True, 0), (0, True), (1.0, 0), ("1", 0), (0, None)]
)
def test_derive_stream_refuses_a_seed_or_index_that_is_no_int(seed, index):
    # random.Random would seed itself from any of these.
    with pytest.raises(ValidationError):
        derive_stream(seed, index)


# -- termination and announcement structure -----------------------------------


def _mismatch_count(transcript):
    return sum(
        1
        for r in transcript.rounds
        if r.detected and r.basis_a is not r.basis_b
    )


@pytest.mark.parametrize(
    "cfg",
    [IdentityLossy(0.3), Depolarizing(0.2), InterceptResend("random")],
)
def test_detected_count_is_exact(cfg):
    params = _params(n=40)
    strat = make_strategy(cfg)
    for seed in range(5):
        transcript, sifted = run_actual(params, strat, derive_stream(3, seed))
        assert transcript.n_detected == 40
        assert sifted.n_z + sifted.n_x + _mismatch_count(transcript) == 40


def test_round_records_are_contiguous_and_well_formed():
    transcript, _ = run_actual(
        _params(n=25), make_strategy(IdentityLossy(0.5)), derive_stream(4, 0)
    )
    for i, rec in enumerate(transcript.rounds):
        assert rec.index == i + 1
        # announced basis of A present exactly when the round is detected
        assert (rec.basis_a is not None) == rec.detected
    # with sequential rounds the loop stops on a detection
    assert transcript.rounds[-1].detected


def test_batched_sessions_keep_the_count_exact():
    # a lossless channel detects every round, so a batch of 7 overflows the
    # target mid-flight; the overflow must be announced as non-detected
    params = _params(n=20, batch_size=7)
    transcript, sifted = run_actual(params, IDENTITY, derive_stream(5, 1))
    assert transcript.n_detected == 20
    assert len(transcript.rounds) == 21  # 3 full batches
    assert not transcript.rounds[-1].detected
    assert sifted.n_z + sifted.n_x + _mismatch_count(transcript) == 20


def test_no_termination_raises():
    params = _params(n=5, max_rounds=50)
    with pytest.raises(MaxRoundsExceeded):
        run_actual(params, make_strategy(IdentityLossy(1.0)), derive_stream(6, 0))


def test_virtual_counts_match_the_same_invariants():
    params = _params(n=30)
    for seed in range(3):
        transcript, sifted, retained = run_virtual(
            params, make_strategy(Depolarizing(0.1, p_loss=0.2)), derive_stream(7, seed)
        )
        assert transcript.n_detected == 30
        assert sifted.n_z + sifted.n_x + _mismatch_count(transcript) == 30
        assert len(retained) == sifted.n_z
        for i, rec in enumerate(transcript.rounds):
            assert rec.index == i + 1
            assert (rec.basis_a is not None) == rec.detected


def test_virtual_identity_retains_exact_bell_pairs():
    _, sifted, retained = run_virtual(_params(n=16), IDENTITY, derive_stream(8, 0))
    assert len(retained) == sifted.n_z > 0
    for rho in retained:
        assert np.array_equal(rho.mat, bell_pair().mat)


def test_detection_is_basis_independent_under_eta():
    # detection probability must not depend on the announced bases: with
    # eta = 0.8 the per-basis detect totals are the same matrix exactly
    povm = detection_povm(0.8)
    assert np.array_equal(povm.m0z + povm.m1z, povm.m0x + povm.m1x)
    transcript, _ = run_actual(
        _params(n=50), IDENTITY, derive_stream(9, 0), povm=povm
    )
    assert transcript.n_detected == 50


# -- strategy interface: strictly causal --------------------------------------


def test_strategies_see_only_completed_rounds():
    seen = []
    op = identity_lossy_channel(0.4)

    def spy(prefix, rng):
        seen.append(len(prefix.rounds))
        # every record handed to the strategy is a finished announcement
        assert all(r.index <= len(prefix.rounds) for r in prefix.rounds)
        return op

    params = _params(n=12)
    transcript, _ = run_actual(
        params, EveStrategy("spy", spy), derive_stream(10, 0)
    )
    assert seen == list(range(len(transcript.rounds)))


# -- transcript columns and the rounds view ------------------------------------


def test_transcript_view_round_trips_its_records():
    gen = random.Random(3)
    recs = []
    for i in range(1, 41):
        detected = gen.random() < 0.6
        basis_a = gen.choice((Basis.Z, Basis.X)) if detected else None
        recs.append(RoundRecord(i, detected, gen.choice((Basis.Z, Basis.X)), basis_a))
    transcript = Transcript(_params(n=12), rounds=recs)
    view = transcript.rounds
    assert len(view) == 40
    assert list(view) == recs
    assert [view[i] for i in range(-40, 40)] == recs + recs
    assert view[-1] == recs[-1]
    for part in (slice(None), slice(5, 17), slice(-7, None), slice(None, None, -3), slice(30, 2, -2)):
        assert view[part] == recs[part]
    assert list(reversed(view)) == recs[::-1]
    assert transcript.n_detected == sum(r.detected for r in recs)
    assert all(type(r.detected) is bool for r in view)
    with pytest.raises(IndexError):
        view[40]
    with pytest.raises(IndexError):
        view[-41]
    # The index is the position, so records must come numbered from 1.
    with pytest.raises(ValidationError):
        Transcript(_params(n=12), rounds=recs[1:])


def test_session_columns_agree_with_their_records():
    params = ProtocolParams(
        p_z_a=0.6, p_x_a=0.4, p_z_b=0.7, p_x_b=0.3,
        n_det_ter=200, eps_s=1e-9, eps_c=1e-12, delta=0.1, batch_size=4,
    )
    eve = make_strategy(AdaptiveBasisTracker(window=3, bias_gain=1.5))
    transcript, _ = run_actual(params, eve, derive_stream(8, 0), povm=detection_povm(0.8))
    recs = list(transcript.rounds)
    assert any(not r.detected for r in recs)
    rebuilt = Transcript(params, rounds=recs)
    for column in ("detected", "basis_b", "basis_a", "detected_basis_b"):
        assert getattr(rebuilt, column) == getattr(transcript, column)
    assert transcript_to_json(transcript)["rounds"] == [
        [r.index, int(r.detected), r.basis_b.name, r.basis_a.name if r.detected else None]
        for r in recs
    ]
    assert transcript.n_detected == params.n_det_ter


def test_basis_choices_are_independent_of_the_prefix():
    # chi-square of consecutive announced-basis pairs on a long identity run
    transcript, _ = run_actual(_params(n=4000), IDENTITY, derive_stream(11, 0))
    bases = [0 if r.basis_b is Basis.Z else 1 for r in transcript.rounds]
    table = np.zeros((2, 2))
    for prev, cur in zip(bases, bases[1:]):
        table[prev, cur] += 1
    _, p_value, _, _ = scipy.stats.chi2_contingency(table)
    assert p_value > 1e-3


# -- per-basis quota rule ------------------------------------------------------


def test_count_per_basis_validation():
    with pytest.raises(ValidationError):
        CountPerBasis(0, 1)
    with pytest.raises(ValidationError):
        CountDetected(0)


@pytest.mark.parametrize("bad", [True, 2.5, 2.0, "2"], ids=repr)
def test_integer_fields_refuse_bools_and_non_integers(bad):
    # isinstance(True, int) holds, so a JSON true once passed as the count 1.
    for make in (
        lambda: _params(n=bad),
        lambda: _params(max_rounds=bad),
        lambda: _params(batch_size=bad),
        lambda: CountDetected(bad),
        lambda: CountPerBasis(bad, 1),
        lambda: CountPerBasis(1, bad),
    ):
        with pytest.raises(ValidationError):
            make()


def test_insecure_entry_point_requires_per_basis_rule():
    with pytest.raises(ValidationError):
        run_insecure_termination(
            _params(n=8), CountDetected(8), IDENTITY, derive_stream(12, 0)
        )


def test_per_basis_quotas_fill_exactly():
    params = _params(n=8)
    rule = CountPerBasis(5, 3)
    for seed in range(10):
        transcript, sifted = run_insecure_termination(
            params, rule, IDENTITY, derive_stream(13, seed)
        )
        assert sifted.n_z >= 5 and sifted.n_x >= 3
        # the stopping round fills the last open quota, so exactly one of the
        # two quotas is at its requirement
        assert sifted.n_z == 5 or sifted.n_x == 3


def test_stopping_round_never_feeds_a_closed_quota():
    """The skew being measured: the last round's pattern is constrained.

    If the Z quota was already met before the final round while X was open,
    the session can only have stopped on an X-agreed detection, so the last
    detected round is never (Z, Z).
    """
    params = _params(n=8)
    rule = CountPerBasis(2, 1)
    hits = 0
    for seed in range(300):
        transcript, sifted = run_insecure_termination(
            params, rule, IDENTITY, derive_stream(14, seed)
        )
        n_z_before = n_x_before = 0
        last = transcript.rounds[-1]
        for rec in transcript.rounds[:-1]:
            if rec.detected and rec.basis_a is rec.basis_b:
                if rec.basis_a is Basis.Z:
                    n_z_before += 1
                else:
                    n_x_before += 1
        if n_z_before >= 2 and n_x_before < 1:
            hits += 1
            assert last.detected
            assert (last.basis_a, last.basis_b) != (Basis.Z, Basis.Z)
    assert hits > 30  # the conditioning event actually occurs


# -- round-law agreement: three independent derivations ------------------------


_OPS = {
    "identity_lossy_0.3": identity_lossy_channel(0.3),
    "depolarizing_0.2": depolarizing_channel(0.2),
    "dephasing_z": dephasing_channel(Basis.Z),
}


@pytest.mark.parametrize("eta", [1.0, 0.8])
@pytest.mark.parametrize("op_name", sorted(_OPS))
def test_prepared_and_entangled_oracles_agree(op_name, eta):
    op = _OPS[op_name]
    kraus = [np.asarray(k) for k in op.deliver_kraus]
    qubit = oracles.qubit_round_law(kraus, 0.6, 0.4, eta)
    pair = oracles.entangled_round_law(kraus, 0.6, 0.4, eta)
    for key, p in qubit.items():
        if key[2] is None or key[3] == "fail":
            continue
        assert pair[key] == pytest.approx(p, abs=1e-12), key
    lost_qubit = sum(p for k, p in qubit.items() if k[2] is None)
    assert pair["lost"] == pytest.approx(lost_qubit, abs=1e-12)
    fail_qubit = sum(p for k, p in qubit.items() if k[3] == "fail")
    assert pair["fail"] == pytest.approx(fail_qubit, abs=1e-12)


@pytest.mark.parametrize("eta", [1.0, 0.8])
@pytest.mark.parametrize("op_name", sorted(_OPS))
def test_session_kernel_matches_the_oracle_laws(op_name, eta):
    op = _OPS[op_name]
    kraus = [np.asarray(k) for k in op.deliver_kraus]
    povm = detection_povm(eta)

    # prepared-qubit side
    law = _actual_law(povm, op)
    oracle = oracles.qubit_round_law(kraus, 0.6, 0.4, eta)
    for bit in (0, 1):
        for ai, basis_a in enumerate(("Z", "X")):
            prep = (0.6 if basis_a == "Z" else 0.4) * 0.5
            p_lost = oracle[(basis_a, bit, None, None)] / prep
            p_deliver = law.p_deliver[2 * bit + ai]
            assert p_deliver == pytest.approx(1.0 - p_lost, abs=1e-12)
            if p_deliver == 0.0:
                continue
            for bi, basis_b in enumerate(("Z", "X")):
                p_b = 0.4 if basis_b == "Z" else 0.6
                scale = prep * p_b * p_deliver
                p0 = oracle[(basis_a, bit, basis_b, 0)] / scale
                p1 = oracle[(basis_a, bit, basis_b, 1)] / scale
                c0, c1 = law.outcome_cum[4 * bit + 2 * ai + bi]
                assert c0 == pytest.approx(p0, abs=1e-12)
                assert c1 == pytest.approx(p0 + p1, abs=1e-12)

    # entangled side
    vlaw = _virtual_law(povm, op)
    pair = oracles.entangled_round_law(kraus, 0.6, 0.4, eta)
    assert vlaw.p_deliver == pytest.approx(1.0 - pair["lost"], abs=1e-12)
    p_detect_mass = vlaw.p_deliver * vlaw.p_detect
    assert pair["fail"] == pytest.approx(
        vlaw.p_deliver - p_detect_mass, abs=1e-12
    )
    for basis, cum in (("Z", vlaw.zz_cum), ("X", vlaw.xx_cum)):
        p_a = 0.6 if basis == "Z" else 0.4
        p_b = 0.4 if basis == "Z" else 0.6
        scale = p_a * p_b * p_detect_mass
        joint = {
            (a, o): pair[(basis, a, basis, o)] / scale
            for a in (0, 1)
            for o in (0, 1)
        }
        assert cum[0] == pytest.approx(joint[(0, 0)], abs=1e-12)
        assert cum[1] == pytest.approx(joint[(0, 0)] + joint[(0, 1)], abs=1e-12)
        assert cum[2] == pytest.approx(
            joint[(0, 0)] + joint[(0, 1)] + joint[(1, 0)], abs=1e-12
        )
    # the phase-error weight is the X-anticorrelation of the same law
    xx = {
        (a, o): pair[("X", a, "X", o)]
        for a in (0, 1)
        for o in (0, 1)
    }
    t_oracle = (xx[(0, 1)] + xx[(1, 0)]) / (0.4 * 0.6 * p_detect_mass)
    assert vlaw.t_phase == pytest.approx(t_oracle, abs=1e-12)


# -- estimation sessions -------------------------------------------------------


def test_estimation_identity_has_zero_weight_everywhere():
    run = run_estimation(_params(n=64), IDENTITY, derive_stream(15, 0))
    assert run.lambda_ph == 0
    assert run.lambda_xerr == 0
    assert all(pr.p_ph == 0.0 and pr.p_xerr == 0.0 for pr in run.per_round)
    # identity keeps the pair perfectly X-correlated
    assert all(pr.x_outcomes[0] == pr.x_outcomes[1] for pr in run.per_round)
    assert np.array_equal(run.s_az_vir, run.s_bz_vir)


def test_estimation_phase_flip_channel_saturates_the_weight():
    # the deliver Kraus {Z} maps phi+ to phi-, whose X readouts always
    # disagree: t = 1, so p_ph = q_z and p_xerr = q_x exactly, every round
    op = ChannelOp(deliver_kraus=(_PAULI_Z,), lose_kraus=())
    strat = EveStrategy("phase_flip", lambda prefix, rng: op)
    params = _params(n=64, p_z=0.7)
    run = run_estimation(params, strat, derive_stream(16, 0))
    assert len(run.per_round) == 64
    for pr in run.per_round:
        assert pr.p_ph == params.q_z
        assert pr.p_xerr == params.q_x
        assert pr.x_outcomes[0] != pr.x_outcomes[1]
    n_zz = sum(1 for pr in run.per_round if pr.bases == (Basis.Z, Basis.Z))
    n_xx = sum(1 for pr in run.per_round if pr.bases == (Basis.X, Basis.X))
    assert run.lambda_ph == n_zz
    assert run.lambda_xerr == n_xx


def test_estimation_counts_agree_with_per_round_records():
    run = run_estimation(
        _params(n=200), make_strategy(Depolarizing(0.3)), derive_stream(17, 0)
    )
    assert len(run.per_round) == 200
    ph = sum(
        1
        for pr in run.per_round
        if pr.bases == (Basis.Z, Basis.Z) and pr.x_outcomes[0] != pr.x_outcomes[1]
    )
    xe = sum(
        1
        for pr in run.per_round
        if pr.bases == (Basis.X, Basis.X) and pr.x_outcomes[0] != pr.x_outcomes[1]
    )
    assert (run.lambda_ph, run.lambda_xerr) == (ph, xe)
    n_zz = sum(1 for pr in run.per_round if pr.bases == (Basis.Z, Basis.Z))
    assert len(run.s_az_vir) == len(run.s_bz_vir) == n_zz


def test_estimation_x_readouts_match_born_probabilities():
    """The engine's inline X readout at 1e5 rounds, 4-sigma binomial tolerance."""
    op = depolarizing_channel(0.3)
    rho = channel_branches(bell_pair(), op).rho_first
    probs = pair_outcome_probs(rho, Basis.X, Basis.X, ideal_povm())
    n = 100_000
    strat = EveStrategy("depolarizing", lambda prefix, rng: op)
    run = run_estimation(_params(n=n), strat, derive_stream(42, 0), ideal_povm())
    counts = np.zeros((2, 2))
    for pr in run.per_round:
        counts[pr.x_outcomes] += 1
    for i in (0, 1):
        for j in (0, 1):
            p = probs[i, j]
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts[i, j] / n - p) < 4 * sigma + 1e-12


@pytest.mark.parametrize(
    "draw_p",
    [
        pytest.param(lambda rng: rng.choice((0.0, 0.2, 0.4, 0.6)), id="four_values"),
        pytest.param(lambda rng: rng.random(), id="distinct_values"),
    ],
)
def test_estimation_weights_follow_fresh_ops_every_round(draw_p):
    # A strategy that mints a new op each round: with four values the fresh
    # ops equal earlier ones and share their laws; with a new value each
    # round the 3000 distinct laws overflow the 512-entry law cache, which
    # then evicts.  Either way every p_ph must belong to its own round's op.
    chosen = []

    def behavior(prefix, rng):
        p = draw_p(rng)
        chosen.append(p)
        return depolarizing_channel(p)

    params = _params(n=3000)
    run = run_estimation(
        params, EveStrategy("fresh_depolarizing", behavior), derive_stream(1, 0), ideal_povm()
    )
    detected = [r.index for r in run.transcript.rounds if r.detected]
    assert len(detected) == len(run.per_round) == 3000
    wrong = [
        i
        for i, pr in zip(detected, run.per_round)
        if abs(pr.p_ph - params.q_z * chosen[i - 1] / 2.0) > 1e-12
    ]
    assert wrong == []


def test_estimation_respects_adaptive_strategies():
    run = run_estimation(
        _params(n=100),
        make_strategy(AdaptiveBasisTracker(window=4)),
        derive_stream(18, 0),
    )
    assert run.transcript.n_detected == 100
    # weights can vary by round but stay inside [0, q]
    q_z = _params().q_z
    for pr in run.per_round:
        assert 0.0 <= pr.p_ph <= q_z + 1e-15


@pytest.mark.parametrize("picture", [protocol._ACTUAL, protocol._VIRTUAL, protocol._ESTIMATION])
def test_sessions_find_the_laws_of_the_strategy_ops_once(picture, monkeypatch):
    # The tracker's op flips between the identity and a dephasing op, and
    # each flip once asked the value-keyed law cache, which hashes matrices.
    name = "_actual_law" if picture is protocol._ACTUAL else "_virtual_law"
    law_of, asked = getattr(protocol, name), []
    monkeypatch.setattr(protocol, name, lambda povm, op: asked.append(op) or law_of(povm, op))
    tracker = make_strategy(AdaptiveBasisTracker(window=2, bias_gain=1.5))
    seen = []

    def behavior(prefix, rng):
        seen.append(tracker.behavior(prefix, rng))
        return seen[-1]

    eve = EveStrategy("counting", behavior, ops=tracker.ops)
    params = _params(n=200)
    protocol._session(params, eve, derive_stream(5, 0), ideal_povm(), CountDetected(200), picture)
    flips = sum(a is not b for a, b in zip(seen, seen[1:]))
    assert flips > 20 and asked == list(tracker.ops)
    # An op outside ``ops`` is looked up by value, as before.
    fresh = dephasing_channel(Basis.Z)
    eve = EveStrategy("fresh", lambda prefix, rng: fresh, ops=tracker.ops)
    asked.clear()
    protocol._session(params, eve, derive_stream(5, 1), ideal_povm(), CountDetected(200), picture)
    assert asked == [*tracker.ops, fresh] and asked[-1] is fresh


# -- session replay: the round loop's draws walked in NumPy ---------------------

# Probabilities at the edges of random()'s 53-bit grid: zero, the least
# subnormal, the two floats just below 0.1 (their thresholds differ in the
# last bit), a half, the largest value random() returns, and one.
_THRESHOLD_PROBABILITIES = (
    0.0, 5e-324, 0.09999999999999998, 0.09999999999999999, 0.5, 1.0 - 2.0**-53, 1.0,
)


def _threshold_words(p):
    """Words whose random() value sits at p's threshold t = ceil(p * 2**53).

    The first word ties t's high 27 bits (or just misses them), and the
    second word's high 26 bits are t's low 26 bits, one less or one more.
    """
    t = math.ceil(p * 2.0**53)
    high, low = t >> 26, t & (2**26 - 1)
    firsts = [w for w in ((high << 5) - 1, high << 5, high << 5 | 31, (high + 1) << 5)
              if 0 <= w < 2**32]
    seconds = [part << 6 | tail for part in (low - 1, low, low + 1) if 0 <= part < 2**26
               for tail in (0, 63)]
    pairs = np.array(list(itertools.product(firsts, seconds)), dtype=np.uint32).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


@pytest.mark.parametrize("p", _THRESHOLD_PROBABILITIES)
def test_threshold_test_on_words_equals_the_float_test(p):
    words = np.random.default_rng(11).integers(0, 2**32, (2, 50_000), dtype=np.uint32)
    at_edge = _threshold_words(p)
    for hi, lo in (words, at_edge):
        want = protocol._to_random(hi, lo) < p
        mask = protocol._is_below(hi, lo, p)
        assert mask.dtype == bool and np.array_equal(mask, want), p
    # The mask reads strided columns, as the lossless replay gives them.
    block = np.stack(at_edge * 2, axis=1)
    assert np.array_equal(
        protocol._is_below(block[:, 2], block[:, 1], p), protocol._to_random(*at_edge) < p
    ), p
    # The words at the edge cover both sides of the threshold (except where
    # no value can be below p, or none above it).
    below = np.count_nonzero(protocol._is_below(*at_edge, p))
    assert (below > 0 or p == 0.0) and (below < len(at_edge[0]) or p == 1.0), p


def test_words_stand_for_the_random_values_they_replace():
    # Enough values that the words are drawn in several pieces.
    k = protocol._WORDS_PIECE + 1000
    stream = random.Random(5)
    want = np.array([stream.random() for _ in range(k)])
    drawn = random.Random(5)
    pairs = protocol._word_pairs(drawn, k)
    assert drawn.getstate() == stream.getstate()
    assert np.array_equal(protocol._to_random(*protocol._halves(pairs)), want)
    assert np.array_equal(protocol._uniforms(random.Random(5), k), want)


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 63, 1000])
def test_chase_follows_every_link_of_the_chain(m):
    rng = np.random.default_rng(m)
    for start in range(min(m, 5) + 1):
        # Each index maps to a larger one, or to m, which ends the chain.
        successor = np.minimum(np.arange(m) + rng.integers(1, 4, m), m).astype(np.int32)
        want, j = [], start
        while j < m:
            want.append(j)
            j = int(successor[j])
        assert protocol._chase(successor, start, m).tolist() == want, (m, start)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.integers(0, 10**6)), min_size=1, max_size=3
    )
)
@example([(5e-324, 10**6), (1.0, 10**6), (0.1, 3)])
@example([(0.25 * 0.09999999999999998, 999_983), (0.25 * 0.7999999999999999, 17)])
def test_repeated_sums_equal_fsum_of_the_expanded_rounds(terms):
    values, counts = zip(*terms)
    rounds = itertools.chain.from_iterable(itertools.repeat(v, c) for v, c in terms)
    assert protocol._repeated_sum(protocol._dyadic(values), counts) == math.fsum(rounds)


# Every built-in strategy kind, both tracker windows, and a law whose delivery
# probability differs between the Z and X source states in its last digit.
_REPLAY_STRATEGIES = {
    "identity": IdentityLossy(0.0),
    "lossy": IdentityLossy(0.5),
    "depolarizing": Depolarizing(0.04, p_loss=0.5),
    "depolarizing-90%-loss": Depolarizing(0.15, p_loss=0.9),
    "intercept-random": InterceptResend(),
    "intercept-always-x": InterceptResend(basis_policy="always_x"),
    "tracker-window-1": AdaptiveBasisTracker(1, 1.5),
    "tracker-window-16": AdaptiveBasisTracker(16),
}
_PICTURES = (protocol._ACTUAL, protocol._VIRTUAL)
# (p_z_a, p_z_b): a balanced pair and a skewed one, then pairs that reach the
# threshold test's p >= 1, p <= 0 and tie branches in the basis draws.
_BASIS_PROBABILITIES = (
    (0.5, 0.5), (0.7, 0.5), (1.0, 0.5), (0.5, 0.0), (0.0, 1.0), (0.09999999999999999, 0.9),
)


def _loop_and_replay(params, eve, povm, picture, stream):
    """The round loop's and the replay's outcome of one session, and their
    streams afterwards; an outcome is the result or the MaxRoundsExceeded
    message."""
    replay = protocol._replayer(params, eve, povm, picture)
    assert replay is not None
    outcomes = []
    for run in (
        lambda rng: protocol._session(
            params, eve, rng, povm, CountDetected(params.n_det_ter), picture
        ),
        replay,
    ):
        rng = random.Random(stream)
        try:
            outcomes.append((run(rng), rng.getstate()))
        except MaxRoundsExceeded as exc:
            outcomes.append((str(exc), None))
    return outcomes


def _assert_same_session(got, want, where):
    (got, got_state), (want, want_state) = got, want
    assert got_state == want_state, where
    if isinstance(want, str):
        assert got == want, where
        return
    for column in ("detected", "basis_b", "basis_a", "detected_basis_b"):
        a, b = getattr(got[0], column), getattr(want[0], column)
        assert type(a) is type(b) is bytearray and a == b, (where, column)
    for field in ("s_az", "s_bz", "s_ax", "s_bx"):
        a, b = getattr(got[1], field), getattr(want[1], field)
        assert a.dtype == b.dtype and np.array_equal(a, b), (where, field)
    assert (got[1].n_z, got[1].n_x) == (want[1].n_z, want[1].n_x), where
    if len(want) == 3:
        assert len(got[2]) == len(want[2]), where
        assert all(a is b for a, b in zip(got[2], want[2])), where


@pytest.mark.parametrize("picture", _PICTURES)
@pytest.mark.parametrize("eta", [1.0, 0.8])
@pytest.mark.parametrize("name", sorted(_REPLAY_STRATEGIES))
def test_session_replay_matches_the_round_loop(name, eta, picture):
    eve = make_strategy(_REPLAY_STRATEGIES[name])
    povm = ideal_povm() if eta == 1.0 else detection_povm(eta)
    for stream, (p_z_a, p_z_b) in itertools.product((11, 41, 71), _BASIS_PROBABILITIES):
        params = _params(n=300, p_z_a=p_z_a, p_x_a=1.0 - p_z_a, p_z_b=p_z_b, p_x_b=1.0 - p_z_b)
        got, want = _loop_and_replay(params, eve, povm, picture, stream + int(10 * p_z_a))
        _assert_same_session(got, want, (stream, p_z_a, p_z_b))


@pytest.mark.parametrize("picture", _PICTURES)
def test_session_replay_across_buffers(picture, monkeypatch):
    povm = detection_povm(0.8)
    eve = make_strategy(Depolarizing(0.15, p_loss=0.9))
    # A session long enough for several full buffers, ...
    params = _params(n=4000)
    _assert_same_session(*_loop_and_replay(params, eve, povm, picture, 1), "long")
    # ... and buffers of 64 units, so that many rounds are cut at a buffer's
    # end and the readouts spill into later buffers.
    monkeypatch.setattr(protocol, "_REPLAY_CHUNK", 64)
    for cfg in (IdentityLossy(0.0), AdaptiveBasisTracker(3, 1.5)):
        params = _params(n=150, p_z=0.6)
        got, want = _loop_and_replay(params, make_strategy(cfg), povm, picture, 2)
        _assert_same_session(got, want, cfg)


@pytest.mark.parametrize("picture", sorted(protocol._LAYOUTS))
def test_a_detected_round_takes_its_layouts_whole_span(picture):
    # A session ends with a detected round that fits in no earlier buffer,
    # so it ends in the last draw, the only one whose start _Words keeps.
    span, _, strides = protocol._LAYOUTS[picture]
    assert strides[1] == span


def test_only_strategies_that_draw_get_an_adversary_stream():
    plain = make_strategy(InterceptResend())
    plain = EveStrategy(plain.label, plain.behavior)
    for cfg, draws in [
        (IdentityLossy(0.3), False),
        (Depolarizing(0.15, p_loss=0.9), False),
        (InterceptResend(basis_policy="always_x"), False),
        (InterceptResend(), True),
        (AdaptiveBasisTracker(4), True),
        (plain, True),
    ]:
        eve = cfg if isinstance(cfg, EveStrategy) else make_strategy(cfg)
        rng, want = random.Random(8), random.Random(8)
        seed = want.getrandbits(64)
        got = protocol._eve_stream(rng, eve.schedule)
        # The seed is drawn either way, so the session stream is the same.
        assert rng.getstate() == want.getstate(), cfg
        if draws:
            assert got.getstate() == random.Random(seed).getstate(), cfg
        else:
            assert got is None, cfg


@pytest.mark.parametrize("picture", _PICTURES)
def test_session_replay_raises_max_rounds_as_the_round_loop(picture):
    eve = make_strategy(IdentityLossy(0.5))
    raised = 0
    for max_rounds, stream in itertools.product((20, 23, 30), range(12)):
        params = _params(n=12, max_rounds=max_rounds)
        got, want = _loop_and_replay(params, eve, detection_povm(0.8), picture, stream)
        _assert_same_session(got, want, (max_rounds, stream))
        raised += isinstance(want[0], str)
    assert 0 < raised < 36


def test_a_detector_that_never_detects_is_not_replayed_and_never_terminates():
    zero = np.zeros((2, 2))
    blind = BobPOVM(zero, zero, zero, zero, np.eye(2))
    assert _virtual_law(blind, IDENTITY.ops[0]) == (1.0, 0.0, None, 0.0, (0.0,) * 3, (0.0,) * 3)
    params = _params(n=600, max_rounds=2000)
    for picture in protocol._LAYOUTS:
        assert protocol._replayer(params, IDENTITY, blind, picture) is None, picture
    assert replay_counter(params, IDENTITY, blind) is None
    message = r"^no termination after 2000 rounds \(0 detected\)$"
    for run in (run_actual, run_virtual, run_estimation):
        with pytest.raises(MaxRoundsExceeded, match=message):
            run(params, IDENTITY, derive_stream(10, 0), povm=blind)


@pytest.mark.parametrize("picture", _PICTURES)
def test_sessions_that_never_detect_run_the_round_loop(picture):
    lost = make_strategy(IdentityLossy(1.0))
    params = _params(n=protocol._REPLAY_MIN_DETECTIONS, max_rounds=2000)
    assert protocol._replayer(params, lost, ideal_povm(), picture) is None
    run = run_actual if picture is protocol._ACTUAL else run_virtual
    message = r"^no termination after 2000 rounds \(0 detected\)$"
    with pytest.raises(MaxRoundsExceeded, match=message):
        run(params, lost, derive_stream(9, 0))


def test_long_sessions_of_built_in_strategies_are_replayed(monkeypatch):
    def loop(*args):
        raise AssertionError("the round loop ran")

    monkeypatch.setattr(protocol, "_session", loop)
    params = _params(n=protocol._REPLAY_MIN_DETECTIONS)
    eve = make_strategy(AdaptiveBasisTracker(16))
    assert run_actual(params, eve, derive_stream(4, 0))[0].n_detected == params.n_det_ter
    assert run_virtual(params, eve, derive_stream(4, 1))[0].n_detected == params.n_det_ter
    # Shorter sessions, and strategies without a schedule, run the loop.
    with pytest.raises(AssertionError, match="round loop"):
        run_actual(_params(n=params.n_det_ter - 1), eve, derive_stream(4, 2))
    plain = EveStrategy(eve.label, eve.behavior)
    with pytest.raises(AssertionError, match="round loop"):
        run_virtual(params, plain, derive_stream(4, 3))


@pytest.mark.parametrize("picture", _PICTURES)
def test_batched_sessions_are_not_replayed(picture):
    # The replay ends at the n-th detection, and a batched session still
    # announces the rounds in flight past it.
    params = _params(n=protocol._REPLAY_MIN_DETECTIONS, batch_size=7)
    eve = make_strategy(Depolarizing(0.04, p_loss=0.5))
    assert protocol._replayer(params, eve, detection_povm(0.8), picture) is None
    assert protocol._replayer(_params(n=params.n_det_ter), eve, ideal_povm(), picture)


def test_long_batched_sessions_run_the_round_loop(monkeypatch):
    ran = []

    def loop(params, eve, rng, povm, rule, picture):
        ran.append(picture)
        return picture

    monkeypatch.setattr(protocol, "_session", loop)
    params = _params(n=protocol._REPLAY_MIN_DETECTIONS, batch_size=7)
    eve = make_strategy(AdaptiveBasisTracker(16))
    assert run_actual(params, eve, derive_stream(4, 0)) == protocol._ACTUAL
    assert run_virtual(params, eve, derive_stream(4, 1)) == protocol._VIRTUAL
    assert ran == [protocol._ACTUAL, protocol._VIRTUAL]


@pytest.mark.parametrize(
    "cfg", [Depolarizing(0.15, p_loss=0.9), AdaptiveBasisTracker(16), IdentityLossy(0.0)], ids=repr
)
def test_batched_estimation_counters_are_replayed(cfg):
    # In-flight rounds change no counter, so the counter replay serves any
    # batch size.
    params = _params(n=300, batch_size=7)
    eve = make_strategy(cfg)
    povm = detection_povm(0.8)
    replay = replay_counter(params, eve, povm)
    assert replay is not None
    for stream in range(3):
        want = estimation_counts(run_estimation(params, eve, random.Random(stream), povm))
        assert replay(random.Random(stream)) == want, stream


# -- replay admission under random laws ------------------------------------------

_PAULIS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": _PAULI_Z,
}
_BASIS_DRAW = st.sampled_from([0.5, 0.7, 0.0, 1.0, 0.09999999999999999]) | st.floats(0.05, 0.95)
# Rounds the loop runs at most per drawn session.
_MAX_ROUNDS_CAP = 20_000


def _random_channel(seed, weight, loss, by_code):
    """Depolarizing of ``weight``, then a random unitary; the loss is ``loss``
    for every state, or by code up to ``loss`` along a random axis."""
    rng = np.random.default_rng(seed)
    u = oracles.random_unitary(rng)
    if by_code:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lost = g @ g.conj().T
        lost *= loss / np.linalg.eigvalsh(lost).max()
        keep, lose = oracles.psd_root(np.eye(2) - lost), oracles.psd_root(lost)
    else:
        keep, lose = math.sqrt(1.0 - loss) * np.eye(2), math.sqrt(loss) * np.eye(2)
    noise = [math.sqrt(1.0 - weight) * np.eye(2)]
    if weight > 0.0:
        noise += [math.sqrt(weight / 4.0) * p for p in (np.eye(2), *_PAULIS.values())]
    return ChannelOp(
        deliver_kraus=tuple(u @ k @ keep for k in noise),
        lose_kraus=(lose,) if loss > 0.0 else (),
    )


def _iid_strategy(ops, q):
    """``ops[0]`` with probability q each round, else ``ops[1]``, as
    InterceptResend draws its basis."""

    def behavior(prefix, rng):
        return ops[0] if rng.random() < q else ops[1]

    def schedule(detected, basis_b, draws):
        return (draws(adversary._rounds(detected, basis_b)) >= q).astype(np.intp)

    return EveStrategy("iid", behavior, ops=ops, schedule=schedule)


def _replay_oracle(params, povm, ops, picture):
    """The probability that a round detects, when every op gives each code
    the same delivery and detection probability, else None.

    Read from the laws' fields: ``p_deliver`` and the largest cut of
    ``outcome_cum`` per code (bit, Alice's basis, Bob's basis) in the actual
    picture, ``p_deliver`` and ``p_detect`` in the others.
    """
    if picture is protocol._ACTUAL:
        basis_a, basis_b = (params.p_z_a, params.p_x_a), (params.p_z_b, params.p_x_b)
        per_code = [
            [(law.p_deliver[c >> 1], max(law.outcome_cum[c])) for c in range(8)]
            for law in (_actual_law(povm, op) for op in ops)
        ]
        p_hit = sum(
            0.5 * basis_a[c >> 1 & 1] * basis_b[c & 1] * deliver * detect
            for c, (deliver, detect) in enumerate(per_code[0])
        )
    else:
        per_code = [
            (law.p_deliver, law.p_detect) for law in (_virtual_law(povm, op) for op in ops)
        ]
        p_hit = per_code[0][0] * per_code[0][1]
    shared = all(codes == per_code[0] for codes in per_code)
    return p_hit if shared and p_hit > 0.0 else None


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    weight=st.floats(0.0, 1.0),
    loss=st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]) | st.floats(0.05, 0.95),
    by_code=st.booleans(),
    second=st.sampled_from([None, "x", "y", "z", "random"]),
    q=st.floats(0.0, 1.0),
    eta=st.sampled_from([1.0, 0.8]) | st.floats(0.05, 1.0),
    p_z=st.tuples(_BASIS_DRAW, _BASIS_DRAW),
    n=st.integers(1, 1200),
    slack=st.floats(0.8, 1.4),
    picture=st.sampled_from([protocol._ACTUAL, protocol._VIRTUAL, protocol._ESTIMATION]),
    stream=st.integers(0, 2**32 - 1),
)
@example(  # loss by code that the unitary leaves unequal: the per-code delivery branch
    seed=3, weight=0.1, loss=0.6, by_code=True, second=None, q=0.5, eta=0.8,
    p_z=(0.5, 0.5), n=300, slack=1.4, picture=protocol._ACTUAL, stream=1,
)
@example(  # two ops of one law, drawn i.i.d.
    seed=4, weight=0.2, loss=0.3, by_code=True, second="z", q=0.4, eta=0.8,
    p_z=(0.09999999999999999, 0.9), n=300, slack=1.4, picture=protocol._VIRTUAL, stream=2,
)
def test_replays_are_admitted_by_the_laws_and_equal_the_round_loop(
    seed, weight, loss, by_code, second, q, eta, p_z, n, slack, picture, stream
):
    op = _random_channel(seed, weight, loss, by_code)
    if second is None:
        eve = adversary._constant("one", op)
    elif second == "random":
        eve = _iid_strategy((op, _random_channel(seed + 1, weight, loss, by_code)), q)
    else:  # a Pauli after the channel: often the same law, to the last bit
        pauli = _PAULIS[second]
        other = ChannelOp(tuple(pauli @ k for k in op.deliver_kraus), op.lose_kraus)
        eve = _iid_strategy((op, other), q)
    povm = ideal_povm() if eta == 1.0 else detection_povm(eta)
    params = _params(n=n, p_z_a=p_z[0], p_x_a=1.0 - p_z[0], p_z_b=p_z[1], p_x_b=1.0 - p_z[1])
    p_hit = _replay_oracle(params, povm, eve.ops, picture)
    assert (protocol._replayer(params, eve, povm, picture) is None) == (p_hit is None)
    if p_hit is None:
        return
    max_rounds = max(n, min(int(slack * n / p_hit), _MAX_ROUNDS_CAP))
    params = dataclasses.replace(params, max_rounds=max_rounds)
    where = (picture, max_rounds)
    if picture is not protocol._ESTIMATION:
        _assert_same_session(*_loop_and_replay(params, eve, povm, picture, stream), where)
        return
    outcomes = []
    for count in (
        lambda rng: estimation_counts(run_estimation(params, eve, rng, povm)),
        replay_counter(params, eve, povm),
    ):
        try:
            outcomes.append(count(random.Random(stream)))
        except MaxRoundsExceeded as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1], where


# -- post-processing ------------------------------------------------------------


def _synthetic_sifted(n_z, n_x, wt=0):
    rng = np.random.default_rng(1)
    s_az = rng.integers(0, 2, n_z).astype(np.uint8)
    s_ax = rng.integers(0, 2, n_x).astype(np.uint8)
    s_bx = s_ax.copy()
    s_bx[:wt] ^= 1
    return SiftedData(
        s_az=s_az, s_bz=s_az.copy(), s_ax=s_ax, s_bx=s_bx, n_z=n_z, n_x=n_x
    )


def test_postprocess_distills_matching_keys_at_scale():
    params = ProtocolParams(
        p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
        n_det_ter=300_000, eps_s=1e-4, eps_c=1e-6, delta=0.012,
    )
    keys = postprocess(_synthetic_sifted(75_000, 75_000, wt=0), params, random.Random(19))
    assert not keys.aborted
    assert len(keys.f_az) > 30_000
    assert np.array_equal(keys.f_az, keys.f_bz)
    assert keys.meta["tag_a"] == keys.meta["tag_b"]
    assert keys.lambda_ec == 0
    # The tag prime is sized for the key, so (l - 1)/p <= eps_c/2 ...
    l = len(keys.f_az)
    assert keys.meta["poly_modulus"] >= 2 * (l - 1) / 1e-6
    assert keys.meta["poly_modulus"].bit_length() == 38
    # ... and the pre-shared bits are those drawn: 37 for the prime, then
    # three rejection-sampled 38-bit draws for the point.
    assert keys.meta["consumed_preshared_bits"] == 37 + 3 * 38


def test_postprocess_aborts_when_too_short():
    params = ProtocolParams(
        p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
        n_det_ter=20_000, eps_s=1e-4, eps_c=1e-6, delta=0.05,
    )
    # the concentration allowance alone (2 * N * delta = 2000) swamps a
    # ten-bit Z string: e_ph clamps at 1/2 and the length floors to zero
    with pytest.raises(AbortKeyTooShort):
        postprocess(_synthetic_sifted(10, 10, wt=0), params, random.Random(20))


def test_postprocess_surfaces_an_exhausted_security_budget():
    from qkd_sift.errors import SecurityParameterError

    # eta = 2 exp(-32 * 0.05^2 / 2) ~ 1.9 can never sit under eps_s^2
    with pytest.raises(SecurityParameterError):
        postprocess(_synthetic_sifted(16, 16, wt=0), _params(n=32), random.Random(25))


def test_postprocess_aborts_with_heavy_test_errors():
    params = ProtocolParams(
        p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
        n_det_ter=300_000, eps_s=1e-4, eps_c=1e-6, delta=0.012,
    )
    # wt/n_x = 1/2 pushes the bound past the vacuous point
    with pytest.raises(AbortKeyTooShort):
        postprocess(_synthetic_sifted(75_000, 75_000, wt=37_500), params, random.Random(21))


def test_postprocess_propagates_missing_test_data():
    with pytest.raises(AbortNoTestData):
        postprocess(_synthetic_sifted(100, 0), _params(n=128), random.Random(22))


# -- serialization ---------------------------------------------------------------


@settings(max_examples=60)
@given(st.lists(st.integers(0, 1), max_size=70))
def test_bits_hex_round_trip(bits):
    arr = np.array(bits, dtype=np.uint8)
    assert np.array_equal(hex_to_bits(bits_to_hex(arr), len(arr)), arr)


@pytest.mark.parametrize(
    "hex_str, n_bits",
    [
        ("ff", 12), ("", 1), ("ffff", 8), ("ff0", 12), ("ff", -1), ("", -8),
        ("zz", 8), (" ff ", 9), (b"ff", 8), (None, 0), ("ff", 8.0), ("ff", True),
    ],
    ids=[
        "short", "empty", "long", "odd-length", "negative", "negative-empty",
        "not-hex", "whitespace", "bytes", "null", "float-length", "bool-length",
    ],
)
def test_hex_to_bits_rejects_a_length_mismatch(hex_str, n_bits):
    # bits_to_hex writes exactly ceil(n_bits / 8) bytes; anything else is refused
    # rather than decoded to an array of another length.  bytes.fromhex skips
    # whitespace, so " ff " would decode to one byte, short of 9 bits.
    with pytest.raises(ValidationError):
        hex_to_bits(hex_str, n_bits)


def test_transcript_json_shape():
    transcript, sifted = run_actual(
        _params(n=6), make_strategy(IdentityLossy(0.4)), derive_stream(23, 0)
    )
    doc = transcript_to_json(transcript)
    assert doc["n_detected"] == 6
    assert doc["n_rounds"] == len(transcript.rounds)
    for row, rec in zip(doc["rounds"], transcript.rounds):
        assert row[0] == rec.index
        assert row[1] == int(rec.detected)
        assert row[2] in ("Z", "X")
        assert (row[3] is None) == (not rec.detected)

    sdoc = sifted_to_json(sifted)
    assert sdoc["n_z"] == sifted.n_z
    assert np.array_equal(
        hex_to_bits(sdoc["s_az_hex"], sifted.n_z), sifted.s_az
    )


def _writer_transcripts():
    yield "empty", Transcript(_params())
    yield "one-round", run_actual(_params(n=1), IDENTITY, derive_stream(2, 0))[0]
    params = _params(n=300, p_z=0.6, batch_size=7)
    lossy = make_strategy(Depolarizing(0.15, p_loss=0.5))
    yield "lossy-batched", run_virtual(
        params, lossy, derive_stream(3, 0), povm=detection_povm(0.8)
    )[0]
    every_code = [
        RoundRecord(1, False, Basis.Z, None),
        RoundRecord(2, False, Basis.X, None),
        RoundRecord(3, True, Basis.Z, Basis.Z),
        RoundRecord(4, True, Basis.Z, Basis.X),
        RoundRecord(5, True, Basis.X, Basis.Z),
        RoundRecord(6, True, Basis.X, Basis.X),
    ]
    # Past 9 and 99 rounds, so indices of several widths share one text.
    yield "every-code", Transcript(_params(), rounds=[
        rec._replace(index=i) for i, rec in enumerate(every_code * 20, 1)
    ])
    # Around the writer's blocks of 100 rounds and the index widths, ending
    # on an undetected and on a detected row.
    rng = random.Random(11)
    for n in (99, 100, 101, 199, 200, 999, 1000, 1001, 10_000, 10_001):
        codes = [rng.randrange(6) for _ in range(n)]
        for last, label in ((0, "undetected"), (5, "detected")):
            codes[-1] = last
            yield f"random-{n}-{label}", Transcript(_params(), rounds=[
                rec._replace(index=i) for i, rec in enumerate(map(every_code.__getitem__, codes), 1)
            ])


_WRITER_TRANSCRIPTS = dict(_writer_transcripts())


@pytest.mark.parametrize("name", list(_WRITER_TRANSCRIPTS))
def test_rounds_writer_matches_json_dumps(name):
    transcript = _WRITER_TRANSCRIPTS[name]
    text = json.dumps(transcript_to_json(transcript), indent=2)
    start = text.index('"rounds": ') + len('"rounds": ')
    assert text[start:-2] == "".join(transcript_rounds_parts(transcript, 1))
    assert text.endswith("\n}")
    rounds = transcript_to_json(transcript)["rounds"]
    for depth in range(6):
        nested = rounds
        for _ in range(depth):
            nested = [nested]
        opened = "".join("[\n" + "  " * (k + 1) for k in range(depth))
        closed = "".join("\n" + "  " * k + "]" for k in reversed(range(depth)))
        assert json.dumps(nested, indent=2) == (
            opened + "".join(transcript_rounds_parts(transcript, depth)) + closed
        )


def test_final_keys_shape():
    params = ProtocolParams(
        p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
        n_det_ter=300_000, eps_s=1e-4, eps_c=1e-6, delta=0.012,
    )
    keys = postprocess(_synthetic_sifted(75_000, 75_000), params, random.Random(24))
    assert keys.meta["key_length"] == len(keys.f_az) == len(keys.f_bz)
    assert keys.aborted is False
    assert np.array_equal(hex_to_bits(bits_to_hex(keys.f_az), len(keys.f_az)), keys.f_az)
    assert keys.meta["tag_a"] == keys.meta["tag_b"]
