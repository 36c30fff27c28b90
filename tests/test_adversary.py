"""Channel factories, strategy behaviors, and their JSON round-trips."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from qkd_sift.adversary import (
    AdaptiveBasisTracker,
    Depolarizing,
    IdentityLossy,
    InterceptResend,
    dephasing_channel,
    depolarizing_channel,
    identity_lossy_channel,
    make_strategy,
    strategy_from_dict,
    strategy_to_dict,
)
from qkd_sift.errors import ConfigError
from qkd_sift.protocol import ProtocolParams, RoundRecord, Transcript
from qkd_sift.quantum_core import (
    Basis,
    bell_pair,
    channel_branches,
    prob_phase_error,
    ideal_povm,
)

PARAMS = ProtocolParams(
    p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
    n_det_ter=16, eps_s=1e-9, eps_c=1e-12, delta=0.1,
)


def _prefix(bases_b, detected=None):
    """Transcript whose detected rounds announce the given Bob bases."""
    detected = detected or [True] * len(bases_b)
    rounds = [
        RoundRecord(index=i + 1, detected=d, basis_b=b, basis_a=b if d else None)
        for i, (b, d) in enumerate(zip(bases_b, detected))
    ]
    return Transcript(params=PARAMS, rounds=rounds)


# -- channel factories -------------------------------------------------------


def test_identity_lossy_channel_splits_mass_by_p_loss():
    op = identity_lossy_channel(0.3)
    p, rho = channel_branches(bell_pair(), op)
    assert p == pytest.approx(0.7, abs=1e-12)
    assert oracles.lost_mass(bell_pair().mat, op.lose_kraus) == pytest.approx(0.3, abs=1e-12)
    # the delivered state is untouched
    assert np.allclose(rho.mat, bell_pair().mat, atol=1e-12)


def test_identity_lossy_extremes_are_single_branch():
    assert identity_lossy_channel(0.0).lose_kraus == ()
    assert identity_lossy_channel(1.0).deliver_kraus == ()


def test_depolarizing_channel_phase_error_is_half_p():
    for p in (0.0, 0.1, 0.3, 1.0):
        _, rho = channel_branches(bell_pair(), depolarizing_channel(p))
        assert prob_phase_error(rho, ideal_povm()) == pytest.approx(
            p / 2.0, abs=1e-12
        )


def test_depolarizing_with_loss_composes():
    op = depolarizing_channel(0.2, p_loss=0.25)
    p, rho = channel_branches(bell_pair(), op)
    assert p == pytest.approx(0.75, abs=1e-12)
    expect = 0.8 * bell_pair().mat + 0.2 * np.eye(4) / 4.0
    assert np.allclose(rho.mat, expect, atol=1e-12)


def test_dephasing_z_kills_coherences():
    _, rho = channel_branches(bell_pair(), dephasing_channel(Basis.Z))
    expect = np.diag([0.5, 0.0, 0.0, 0.5])
    assert np.allclose(rho.mat, expect, atol=1e-15)
    assert prob_phase_error(rho, ideal_povm()) == pytest.approx(
        0.5, abs=1e-12
    )


def test_dephasing_x_leaves_bell_pair_alone():
    # phi+ is a fixed point of X-basis dephasing on one side
    _, rho = channel_branches(bell_pair(), dephasing_channel(Basis.X))
    assert prob_phase_error(rho, ideal_povm()) == pytest.approx(
        0.0, abs=1e-12
    )


# -- strategy compilation ----------------------------------------------------


def test_builtin_labels():
    assert make_strategy(IdentityLossy(0.3)).label == "identity_lossy(p_loss=0.3)"
    assert make_strategy(Depolarizing(0.15)).label == "depolarizing(p=0.15,p_loss=0)"
    assert (
        make_strategy(InterceptResend("always_z")).label
        == "intercept_resend(always_z,q=0.5)"
    )
    assert (
        make_strategy(AdaptiveBasisTracker()).label
        == "adaptive_basis_tracker(window=16,bias_gain=1)"
    )


def test_static_strategies_reuse_one_channel_instance():
    strat = make_strategy(Depolarizing(0.1))
    rng = random.Random(0)
    first = strat.behavior(_prefix([]), rng)
    assert strat.behavior(_prefix([Basis.Z] * 4), rng) is first


def test_intercept_resend_policies():
    rng = random.Random(5)
    pz = dephasing_channel(Basis.Z).deliver_kraus[0]
    always_z = make_strategy(InterceptResend("always_z"))
    assert np.array_equal(always_z.behavior(_prefix([]), rng).deliver_kraus[0], pz)
    all_z = make_strategy(InterceptResend("random", q=1.0))
    all_x = make_strategy(InterceptResend("random", q=0.0))
    for _ in range(20):
        assert np.array_equal(all_z.behavior(_prefix([]), rng).deliver_kraus[0], pz)
        assert not np.array_equal(
            all_x.behavior(_prefix([]), rng).deliver_kraus[0], pz
        )


def test_adaptive_tracker_is_quiet_without_history():
    strat = make_strategy(AdaptiveBasisTracker())
    op = strat.behavior(_prefix([]), random.Random(0))
    assert op.lose_kraus == ()
    assert np.array_equal(op.deliver_kraus[0], np.eye(2))


def test_adaptive_tracker_attacks_majority_basis():
    strat = make_strategy(AdaptiveBasisTracker(window=8, bias_gain=1.0))
    rng = random.Random(0)
    all_z = _prefix([Basis.Z] * 8)
    op = strat.behavior(all_z, rng)
    # full bias -> attack probability 1 -> Z-basis dephasing
    assert np.array_equal(op.deliver_kraus[0], np.diag([1.0, 0.0]))
    all_x = _prefix([Basis.X] * 8)
    op = strat.behavior(all_x, rng)
    assert op.deliver_kraus[0].shape == (2, 2)
    assert op.deliver_kraus[0][0, 1] != 0  # X projector has off-diagonals


def test_adaptive_tracker_balanced_history_is_identity():
    strat = make_strategy(AdaptiveBasisTracker(window=8))
    prefix = _prefix([Basis.Z, Basis.X] * 4)
    for seed in range(10):
        op = strat.behavior(prefix, random.Random(seed))
        assert np.array_equal(op.deliver_kraus[0], np.eye(2))


def test_adaptive_tracker_skips_undetected_rounds():
    strat = make_strategy(AdaptiveBasisTracker(window=2))
    # last two *detected* rounds are Z; the undetected X rounds must not count
    prefix = _prefix(
        [Basis.Z, Basis.X, Basis.Z, Basis.X],
        detected=[True, False, True, False],
    )
    op = strat.behavior(prefix, random.Random(0))
    assert np.array_equal(op.deliver_kraus[0], np.diag([1.0, 0.0]))


def _closure(fn):
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))


def _random_prefix(rng, length):
    """Records mixing detected and undetected rounds at a random Z skew."""
    p_det = rng.choice((0.2, 0.6, 1.0))
    p_z = rng.random()
    bases = [Basis.Z if rng.random() < p_z else Basis.X for _ in range(length)]
    detected = [rng.random() < p_det for _ in range(length)]
    return _prefix(bases, detected)


@pytest.mark.parametrize("window", [1, 3, 16, 1000])
@pytest.mark.parametrize("gain", [0.0, 0.5, 1.5])
def test_adaptive_tracker_matches_the_prefix_rescan(window, gain):
    strat = make_strategy(AdaptiveBasisTracker(window=window, bias_gain=gain))
    ops = _closure(strat.behavior)
    reference = oracles.adaptive_tracker_reference(
        window, gain, ops["identity"], ops["dephase"], Basis.Z, Basis.X
    )
    gen = random.Random(window * 10 + int(10 * gain))
    attacked = 0
    for case in range(300):
        prefix = _random_prefix(gen, gen.randrange(0, 60))
        eve_rng, twin = random.Random(case), random.Random(case)
        op = strat.behavior(prefix, eve_rng)
        assert op is reference(prefix, twin)
        assert eve_rng.getstate() == twin.getstate()
        attacked += op is not ops["identity"]
    assert (attacked > 0) == (gain > 0.0)


def _behavior_walk(strategy, hits, basis_b, seed):
    """The op index that ``behavior`` returns in each emitted round, called
    round by round on the growing prefix, and its stream's final state."""
    prefix = Transcript(PARAMS)
    stream = random.Random(seed)
    index = {id(op): i for i, op in enumerate(strategy.ops)}
    bases = iter(basis_b.tolist())
    picked = []
    for hit in hits:
        picked.append(index[id(strategy.behavior(prefix, stream))])
        b = next(bases) if hit else Basis.X.value
        prefix.detected.append(int(hit))
        prefix.basis_b.append(b)
        prefix.basis_a.append(b if hit else 0)
        if hit:
            prefix.detected_basis_b.append(b)
    return picked, stream.getstate()


_SCHEDULED = [
    IdentityLossy(0.3),
    Depolarizing(0.15, p_loss=0.9),
    InterceptResend("always_z"),
    InterceptResend("always_x"),
    InterceptResend("random", q=0.3),
] + [
    AdaptiveBasisTracker(window=window, bias_gain=gain)
    for window in (1, 16, 10**6, 2**64)
    for gain in (0.0, 0.5, 1e9)
]


@pytest.mark.parametrize("lossy", [False, True], ids=["every-round-detected", "lossy"])
@pytest.mark.parametrize("cfg", _SCHEDULED, ids=repr)
def test_schedule_picks_the_ops_and_draws_of_behavior(cfg, lossy):
    strategy = make_strategy(cfg)
    gen = random.Random(repr((cfg, lossy)))
    for case in range(12):
        n = gen.choice((1, 2, 15, 16, 17, gen.randrange(1, 200)))
        p_z = gen.choice((0.0, 0.1, 0.5, 0.9, 1.0, gen.random()))
        basis_b = np.array([gen.random() >= p_z for _ in range(n)], dtype=np.uint8)
        if lossy:  # the last emitted round is the n-th detection
            hits = []
            while sum(hits) < n:
                hits.append(gen.random() < 0.4)
            hits = np.array(hits)
        else:
            hits = np.ones(n, dtype=bool)
        want, want_state = _behavior_walk(strategy, hits, basis_b, case)
        twin = random.Random(case)
        got = strategy.schedule(
            hits if lossy else None,
            basis_b,
            lambda k: np.array([twin.random() for _ in range(k)]),
        )
        assert got.tolist() == want, (n, p_z)
        assert twin.getstate() == want_state, (n, p_z)


def test_config_validation():
    with pytest.raises(ConfigError):
        IdentityLossy(p_loss=-0.1)
    with pytest.raises(ConfigError):
        Depolarizing(p=1.5)
    with pytest.raises(ConfigError):
        InterceptResend("sideways")
    with pytest.raises(ConfigError):
        AdaptiveBasisTracker(window=0)
    for window in (2.5, True, "16"):  # 2.5 once failed at the first round
        with pytest.raises(ConfigError, match="window"):
            AdaptiveBasisTracker(window=window)
    with pytest.raises(ConfigError):
        AdaptiveBasisTracker(bias_gain=-1.0)
    # An infinite gain makes the attack probability inf * 0 at a balanced
    # window, and the replay and the round loop read that NaN differently.
    for gain in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="bias_gain"):
            AdaptiveBasisTracker(bias_gain=gain)


# -- JSON mapping ------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        IdentityLossy(0.25),
        Depolarizing(0.1, p_loss=0.05),
        InterceptResend("random", q=0.75),
        AdaptiveBasisTracker(window=4, bias_gain=0.5),
    ],
)
def test_strategy_dict_round_trip(cfg):
    assert strategy_from_dict(strategy_to_dict(cfg)) == cfg


def test_strategy_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        strategy_from_dict({"no_kind": True})
    with pytest.raises(ConfigError):
        strategy_from_dict({"kind": "teleport"})
    with pytest.raises(ConfigError):
        strategy_from_dict({"kind": "depolarizing", "wat": 1})
    with pytest.raises(ConfigError):
        strategy_from_dict("depolarizing")
    with pytest.raises(ConfigError, match="unknown strategy configuration"):
        make_strategy(object())


@given(st.floats(0.0, 1.0), st.floats(0.0, 0.9))
def test_depolarizing_round_trip_any_probs(p, p_loss):
    cfg = Depolarizing(p=p, p_loss=p_loss)
    assert strategy_from_dict(strategy_to_dict(cfg)) == cfg
