"""Golden-artifact corpus: session and bias artifact bytes pinned by sha256.

Each case runs the CLI end to end on a small config and hashes the artifact
file; the session digests in ``golden_digests.json`` were recorded before the
session loops were merged into one engine, and the ``bias`` digests before the
exact enumeration moved to per-composition arithmetic, so any change to the
draw order, to an exact result, or to the serialized shape of a
``qkd-sift/v1`` artifact shows up here.  The insecure per-basis entry point
has no CLI mode and is hashed through the API.

The ``scale`` cases hold a few thousand transcript rows, and the ``render``
cases hash the same transcripts rendered by ``cli.render_report`` at several
nesting depths, so the specialized writer of the ``rounds`` arrays is pinned
at every indent it can meet.

Record the digests of new cases with::

    PYTHONPATH=src python tests/test_golden.py --record

Recording only adds: it writes the digests of cases missing from the
manifest and leaves every recorded entry as it is.  If a recorded digest
would change, it writes nothing, names that case on stderr and exits 1.  To
re-record a case on purpose (an intended format change), delete its entry
from ``golden_digests.json`` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

import pytest

from qkd_sift.adversary import make_strategy, strategy_from_dict
from qkd_sift.cli import main, render_report
from qkd_sift.protocol import (
    CountPerBasis,
    ProtocolParams,
    derive_stream,
    run_actual,
    run_insecure_termination,
    run_virtual,
    sifted_to_json,
    transcript_to_json,
)
from qkd_sift.quantum_core import detection_povm

MANIFEST = Path(__file__).with_name("golden_digests.json")

STRATEGIES = {
    "identity_lossy": {"kind": "identity_lossy", "p_loss": 0.3},
    "depolarizing": {"kind": "depolarizing", "p": 0.15, "p_loss": 0.2},
    "intercept_resend": {"kind": "intercept_resend", "basis_policy": "random", "q": 0.4},
    "adaptive_basis_tracker": {"kind": "adaptive_basis_tracker", "window": 4, "bias_gain": 1.5},
}
MODES = ("actual", "virtual", "estimation", "coverage")

PARAMS = {"p_z_a": 0.6, "p_z_b": 0.7, "n_det_ter": 24, "eps_s": 1e-9, "eps_c": 1e-12, "delta": 0.1}
SCALE_PARAMS = {**PARAMS, "n_det_ter": 2000, "batch_size": 7}


def _cases() -> dict[str, dict]:
    cases = {}
    for mode in MODES:
        for kind, strategy in STRATEGIES.items():
            for trials in (1, 3):
                cases[f"{mode}-{kind}-t{trials}"] = {
                    "mode": mode,
                    "params": PARAMS,
                    "strategy": strategy,
                    "trials": trials,
                    "seed": 5,
                }
        # In-flight overflow and an imperfect detector in every picture.
        cases[f"{mode}-batch4-eta0.8"] = {
            "mode": mode,
            "params": {**PARAMS, "batch_size": 4},
            "strategy": STRATEGIES["depolarizing"],
            "trials": 3,
            "seed": 9,
            "eta_det": 0.8,
        }
        # The tracker's window over a prefix with undetected and in-flight
        # discarded rounds.
        cases[f"{mode}-tracker-batch4-eta0.8"] = {
            "mode": mode,
            "params": {**PARAMS, "batch_size": 4},
            "strategy": {**STRATEGIES["adaptive_basis_tracker"], "window": 3},
            "trials": 3,
            "seed": 9,
            "eta_det": 0.8,
        }
    # Exact stopping-rule bias: both rule kinds at a uniform and a skewed
    # basis choice.
    rules = {
        "count_detected-5-k6": ({"kind": "count_detected", "n": 5}, 6),
        "count_per_basis-2-2-k8": ({"kind": "count_per_basis", "n_z_req": 2, "n_x_req": 2}, 8),
    }
    for name, (rule, k) in rules.items():
        for p_z_a, p_z_b in ((0.5, 0.5), (0.6, 0.7)):
            cases[f"bias-{name}-p{p_z_a}-{p_z_b}"] = {
                "mode": "bias",
                "params": {**PARAMS, "p_z_a": p_z_a, "p_z_b": p_z_b},
                "strategy": STRATEGIES["identity_lossy"],
                "rule": rule,
                "bias_max_rounds": k,
            }
    # Thousands of transcript rows: lossy sessions on an imperfect detector,
    # with the full transcript attached (trials 1).  Batched sessions run the
    # round loop; at batch 1 a session of 512 or more detections is replayed.
    for mode in ("actual", "virtual"):
        for batch in (7, 1):
            cases[f"{mode}-scale-n2000-batch{batch}-eta0.8"] = {
                "mode": mode,
                "params": {**SCALE_PARAMS, "batch_size": batch},
                "strategy": STRATEGIES["depolarizing"],
                "trials": 1,
                "seed": 13,
                "eta_det": 0.8,
            }
    # Coverage trials of many long sessions.  At delta 0 a trial counts as a
    # violation whenever its error count reaches its summed probability, so
    # about half the trials flip on any change to a count or a sum.
    coverage = {
        "depolarizing-loss0.9": ({"kind": "depolarizing", "p": 0.15, "p_loss": 0.9}, {}, 1.0),
        "tracker-w16": ({"kind": "adaptive_basis_tracker", "window": 16}, {}, 1.0),
        "intercept_resend-batch7-eta0.8": (
            STRATEGIES["intercept_resend"], {"batch_size": 7}, 0.8
        ),
    }
    for name, (strategy, extra, eta_det) in coverage.items():
        cases[f"coverage-scale-n2000-t32-{name}"] = {
            "mode": "coverage",
            "params": {**PARAMS, "n_det_ter": 2000, "delta": 0.0, **extra},
            "strategy": strategy,
            "trials": 32,
            "seed": 17,
            "eta_det": eta_det,
        }
    return cases


CASES = _cases()
# JSON renders of the scale sessions' transcripts at several nesting depths.
RENDER_DEPTHS = (1, 3, 8)


def _artifact_digest(doc: dict, tmp: Path) -> str:
    # The artifact echoes its output path, so the path is kept relative.
    with contextlib.chdir(tmp):
        Path("cfg.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", "cfg.json", "--out", "out.json"]) == 0
        return hashlib.sha256(Path("out.json").read_bytes()).hexdigest()


def _insecure_digest() -> str:
    params = ProtocolParams(
        p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
        n_det_ter=8, eps_s=1e-9, eps_c=1e-12, delta=0.1,
    )
    eve = make_strategy(strategy_from_dict(STRATEGIES["depolarizing"]))
    transcript, sifted = run_insecure_termination(
        params, CountPerBasis(5, 3), eve, derive_stream(3, 0)
    )
    doc = {"transcript": transcript_to_json(transcript), "sifted": sifted_to_json(sifted)}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _nested(node, depth: int):
    # Alternate objects and arrays so both kinds of parent set the indent.
    for level in range(depth - 1):
        node = {"level": level, "inner": node} if level % 2 else [node]
    return node


def _render_digest(depth: int) -> str:
    params = ProtocolParams(
        **{**SCALE_PARAMS, "p_x_a": 1.0 - PARAMS["p_z_a"], "p_x_b": 1.0 - PARAMS["p_z_b"]}
    )
    eve = make_strategy(strategy_from_dict(STRATEGIES["depolarizing"]))
    povm = detection_povm(0.8)
    actual, _ = run_actual(params, eve, derive_stream(13, 0), povm=povm)
    virtual, _, _ = run_virtual(params, eve, derive_stream(13, 1), povm=povm)
    # The digests were recorded from transcript_to_json dicts through the
    # generic encoder; the Transcripts themselves go through the row writer.
    envelope = {"actual": _nested(actual, depth), "virtual": [_nested(virtual, depth)]}
    text = render_report(envelope, [], [], "json")
    return hashlib.sha256(text.encode()).hexdigest()


def _all_digests(tmp: Path) -> dict[str, str]:
    digests = {case: _artifact_digest(CASES[case], tmp) for case in sorted(CASES)}
    digests["insecure-count_per_basis-5-3"] = _insecure_digest()
    for depth in RENDER_DEPTHS:
        digests[f"render-scale-depth{depth}"] = _render_digest(depth)
    return digests


def _recorded() -> dict[str, str]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_every_case():
    assert set(_recorded()) == (
        set(CASES)
        | {"insecure-count_per_basis-5-3"}
        | {f"render-scale-depth{depth}" for depth in RENDER_DEPTHS}
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bytes_match_the_recorded_digest(case, tmp_path):
    assert _artifact_digest(CASES[case], tmp_path) == _recorded()[case]


def test_insecure_termination_matches_the_recorded_digest():
    assert _insecure_digest() == _recorded()["insecure-count_per_basis-5-3"]


@pytest.mark.parametrize("depth", RENDER_DEPTHS)
def test_transcript_render_matches_the_recorded_digest(depth):
    assert _render_digest(depth) == _recorded()[f"render-scale-depth{depth}"]


def _record() -> int:
    import tempfile

    recorded = _recorded()
    with tempfile.TemporaryDirectory() as tmp:
        digests = _all_digests(Path(tmp))
    changed = sorted(k for k in recorded if k in digests and digests[k] != recorded[k])
    if changed:
        for case in changed:
            print(f"recorded digest would change: {case}", file=sys.stderr)
        print("nothing written; delete an entry to re-record it", file=sys.stderr)
        return 1
    added = sorted(set(digests) - set(recorded))
    recorded.update((case, digests[case]) for case in added)
    MANIFEST.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"added {len(added)} digests to {MANIFEST}: {', '.join(added) or 'none'}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    sys.exit(_record())
