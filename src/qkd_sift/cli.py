"""Command-line front end: config files in, experiment artifacts out.

The JSON config schema lives in docs/config-schema.json and the CSV column
contracts in docs/output-formats.md; both are versioned through the
``qkd-sift/v1`` schema tag that every JSON artifact carries.  Reports never
embed timestamps or host details, so a (config, seed) pair maps to one exact
output byte sequence.  Trials run in index order on one thread; the
``QKD_SIFT_THREADS`` environment variable is accepted and ignored.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import Any, Callable

from . import finite_key, stats
from .adversary import (
    Depolarizing,
    EveStrategy,
    IdentityLossy,
    StrategyConfig,
    make_strategy,
    strategy_from_dict,
    strategy_to_dict,
)
from .errors import (
    _FLOAT_OVERFLOW,
    ConfigError,
    IoError,
    ParseError,
    QkdSiftError,
    SecurityParameterError,
    ValidationError,
    check_record,
    dump_kind,
    is_int,
    is_real,
    load_kind,
)
from .protocol import (
    CountDetected,
    CountPerBasis,
    ProtocolParams,
    TerminationRule,
    Transcript,
    derive_stream,
    run_actual,
    run_estimation,
    run_virtual,
    sifted_to_json,
    transcript_counts,
    transcript_rounds_parts,
    transcript_to_json,
)
from .quantum_core import BobPOVM, RandomStream, detection_povm

SCHEMA_TAG = "qkd-sift/v1"

SWEEP_AXES = ("n_det_ter", "delta", "depolarizing_p", "q_ratio")
_RULE_KINDS = {"count_detected": CountDetected, "count_per_basis": CountPerBasis}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis and its grid."""

    axis: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValidationError(
                f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}"
            )
        if not self.values:
            raise ValidationError("sweep values must be non-empty")
        for v in self.values:
            if not (is_real(v) and abs(v) < _FLOAT_OVERFLOW):
                raise ValidationError(f"sweep values must be finite real numbers, got {v!r}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValidationError("sweep values must be strictly increasing")


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; frozen so runs can't drift from it."""

    params: ProtocolParams
    strategy: StrategyConfig
    mode: str
    trials: int = 1
    seed: int = 0
    output_path: str = "-"
    output_format: str = "json"
    eta_det: float = 1.0
    rule: TerminationRule | None = None
    sweep: SweepSpec | None = None
    bias_max_rounds: int = 6

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not is_int(self.trials) or self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials!r}")
        if not is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned, got {self.seed!r}")
        if not isinstance(self.output_path, str):
            # open() would take an int as a file descriptor.
            raise ValidationError(f"output_path must be a string, got {self.output_path!r}")
        if self.output_format not in ("json", "csv"):
            raise ValidationError(
                f"output_format must be 'json' or 'csv', got {self.output_format!r}"
            )
        if not (is_real(self.eta_det) and 0.0 < self.eta_det <= 1.0):
            raise ValidationError(f"eta_det must be in (0, 1], got {self.eta_det!r}")
        if not is_int(self.bias_max_rounds) or self.bias_max_rounds < 1:
            raise ValidationError(
                f"bias_max_rounds must be a positive integer, got {self.bias_max_rounds!r}"
            )
        if self.mode == "bias" and self.rule is None:
            raise ValidationError("mode 'bias' requires a termination rule")
        if self.mode == "keyrate-sweep" and self.sweep is None:
            raise ValidationError("mode 'keyrate-sweep' requires a sweep spec")


# ---------------------------------------------------------------------------
# Config (de)serialization


def rule_from_dict(d: dict) -> TerminationRule:
    return load_kind(d, "rule", _RULE_KINDS, ParseError)


def rule_to_dict(rule: TerminationRule) -> dict:
    return dump_kind(rule, "termination rule", _RULE_KINDS, ValidationError)


def config_from_dict(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    check_record(doc, "config", RunConfig)
    mode = doc["mode"]
    if mode not in MODES:
        raise ParseError(f"unknown mode {mode!r}; expected one of {MODES}")

    p = dict(check_record(doc["params"], "params", ProtocolParams, filled=("p_x_a", "p_x_b")))
    for z, x in (("p_z_a", "p_x_a"), ("p_z_b", "p_x_b")):
        if x not in p:
            # ProtocolParams refuses a p_z that is no number before it reads p_x.
            p[x] = 1.0 - p[z] if is_real(p[z]) else None
    params = ProtocolParams(**p)

    try:
        strategy = strategy_from_dict(doc["strategy"])
    except ConfigError as exc:
        raise ParseError(f"strategy: {exc}") from exc

    rule = rule_from_dict(doc["rule"]) if doc.get("rule") is not None else None

    sweep = None
    if doc.get("sweep") is not None:
        raw_sweep = check_record(doc["sweep"], "sweep", SweepSpec)
        if not isinstance(raw_sweep["values"], list):
            raise ParseError("sweep 'values' must be an array")
        sweep = SweepSpec(axis=raw_sweep["axis"], values=tuple(raw_sweep["values"]))

    # The other fields are plain values; RunConfig has the defaults of those left out.
    parsed = {"params": params, "strategy": strategy, "mode": mode, "rule": rule, "sweep": sweep}
    return RunConfig(**{**doc, **parsed})


def config_to_dict(cfg: RunConfig) -> dict:
    """Inverse of :func:`config_from_dict`; load(emit(cfg)) == cfg."""
    doc: dict[str, Any] = {
        "mode": cfg.mode,
        "params": {**vars(cfg.params)},
        "strategy": strategy_to_dict(cfg.strategy),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "output_path": cfg.output_path,
        "output_format": cfg.output_format,
        "eta_det": cfg.eta_det,
        "bias_max_rounds": cfg.bias_max_rounds,
    }
    if cfg.rule is not None:
        doc["rule"] = rule_to_dict(cfg.rule)
    if cfg.sweep is not None:
        doc["sweep"] = {"axis": cfg.sweep.axis, "values": list(cfg.sweep.values)}
    return doc


def _reject_constant(token: str) -> None:
    raise ParseError(f"{token} is not a JSON number")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ParseError(f"{token} overflows a float")
    return value


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoError(f"cannot read config {path!r}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# Mode runners


def _per_trial(
    cfg: RunConfig, trial: Callable[..., dict], header: list[str]
) -> tuple[dict, list[str], list[list]]:
    """A mode of one record per trial: its index, then the fields that
    ``trial(eve, stream, povm)`` gives; the CSV rows cut them to ``header``."""
    povm = detection_povm(cfg.eta_det)
    eve = make_strategy(cfg.strategy)
    streams = (derive_stream(cfg.seed, i) for i in range(cfg.trials))
    records = [{"trial": i, **trial(eve, rng, povm)} for i, rng in enumerate(streams)]
    rows = [[r[c] for c in header] for r in records]
    return {"per_trial": records}, header, rows


def _session_mode(cfg: RunConfig) -> tuple[dict, list[str], list[list]]:
    runner = run_actual if cfg.mode == "actual" else run_virtual

    def one(eve: EveStrategy, rng: RandomStream, povm: BobPOVM) -> dict:
        out = runner(cfg.params, eve, rng, povm=povm)
        transcript, sifted = out[0], out[1]
        rec = {
            "n_rounds": len(transcript.rounds),
            "n_detected": transcript.n_detected,
            "n_z": sifted.n_z,
            "n_x": sifted.n_x,
            "x_error_weight": sifted.x_error_weight(),
        }
        if cfg.trials == 1:
            # Rendered by render_report straight from the columns.
            rec["transcript"] = transcript
            rec["sifted"] = sifted_to_json(sifted)
        return rec

    header = ["trial", "n_rounds", "n_detected", "n_z", "n_x", "x_error_weight"]
    return _per_trial(cfg, one, header)


def _estimation_mode(cfg: RunConfig) -> tuple[dict, list[str], list[list]]:
    def one(eve: EveStrategy, rng: RandomStream, povm: BobPOVM) -> dict:
        run = run_estimation(cfg.params, eve, rng, povm=povm)
        lam_ph, lam_xerr, sum_ph, sum_xerr, n_z, n_x = stats.estimation_counts(run)
        return {
            "n_detected": run.transcript.n_detected,
            "n_z": n_z,
            "n_x": n_x,
            "lambda_ph": lam_ph,
            "lambda_xerr": lam_xerr,
            "sum_p_ph": sum_ph,
            "sum_p_xerr": sum_xerr,
            "relation_residual": stats.relation_check(run),
        }

    header = [
        "trial",
        "n_detected",
        "n_z",
        "n_x",
        "lambda_ph",
        "lambda_xerr",
        "sum_p_ph",
        "sum_p_xerr",
        "relation_residual",
    ]
    return _per_trial(cfg, one, header)


def _coverage_mode(cfg: RunConfig) -> tuple[dict, list[str], list[list]]:
    eve = make_strategy(cfg.strategy)
    trial_stats = stats.coverage_trials(
        cfg.params,
        eve,
        cfg.trials,
        derive_stream(cfg.seed, 0),
        povm=detection_povm(cfg.eta_det),
    )
    report = stats.coverage_report(trial_stats, cfg.params.delta)
    try:  # perfbench's coverage-lossy check pins this **2 rounding (ROADMAP item 2)
        eta_single = math.exp(-cfg.params.n_det_ter * cfg.params.delta**2 / 2.0)
    except OverflowError:  # delta**2 is past the float range, so the tail is 0
        eta_single = 0.0
    results = {
        "trials": report.trials,
        "violations_ph": report.violations_ph,
        "violations_xerr": report.violations_xerr,
        "eta_single": eta_single,
        "delta": report.delta,
        "violation_rate_ph": report.violations_ph / report.trials,
        "violation_rate_xerr": report.violations_xerr / report.trials,
    }
    header = ["trials", "violations_ph", "violations_xerr", "eta_single"]
    rows = [[results[c] for c in header]]
    return results, header, rows


def _bias_mode(cfg: RunConfig) -> tuple[dict, list[str], Iterable[Sequence]]:
    assert cfg.rule is not None
    report = stats.enumerate_bias(
        cfg.rule, (cfg.params.p_z_a, cfg.params.p_z_b), cfg.bias_max_rounds
    )
    results = {
        "rule": rule_to_dict(cfg.rule),
        "n_rounds_enumerated": report.n_rounds_enumerated,
        "tv_from_uniform": report.tv_from_uniform,
        "dependence_detected": report.dependence_detected,
        "terminating_mass": report.terminating_mass,
        "test_error_rate": report.test_error_rate,
        "code_error_rate": report.code_error_rate,
        "t_distribution": report.t_distribution,
    }
    # Rows are read only for CSV output, straight from the distribution.
    return results, ["sequence", "probability"], report.t_distribution.items()


def _sweep_error_rate(strategy: StrategyConfig) -> float:
    """X-basis error rate the sweep pipeline assumes for the channel."""
    if isinstance(strategy, Depolarizing):
        return strategy.p / 2.0
    if isinstance(strategy, IdentityLossy):
        return 0.0
    raise ValidationError(
        "keyrate-sweep requires an identity_lossy or depolarizing strategy"
    )


def keyrate_rows(cfg: RunConfig) -> list[dict]:
    """Evaluate the key-length pipeline on expected counts over the grid.

    Rows are analytic (no sampling): detected-round counts are replaced by
    their expectations, so the sweep isolates how the bound's terms trade off
    along the chosen axis.  Grid points whose tail bound exhausts the
    smoothing budget report l = 0.
    """
    assert cfg.sweep is not None
    base_error = _sweep_error_rate(cfg.strategy)
    axis = cfg.sweep.axis
    rows = []
    for value in cfg.sweep.values:
        n = cfg.params.n_det_ter
        q_z, q_x = cfg.params.q_z, cfg.params.q_x
        delta = cfg.params.delta
        err = base_error
        if axis == "delta":
            delta = float(value)
        elif axis == "n_det_ter":
            if value != int(value):
                raise ValidationError(
                    f"n_det_ter sweep values must be integers, got {value!r}"
                )
            n = int(value)
        elif axis == "depolarizing_p":
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"depolarizing_p sweep values must be in [0, 1], got {value!r}"
                )
            err = float(value) / 2.0
        else:  # q_ratio = q_z / q_x, realized by symmetric basis probabilities
            if value <= 0.0:
                raise ValidationError(
                    f"q_ratio sweep values must be > 0, got {value!r}"
                )
            s = math.sqrt(value) / (1.0 + math.sqrt(value))
            q_z, q_x = s * s, (1.0 - s) * (1.0 - s)
        if n < 1:
            raise ValidationError(f"swept n_det_ter must be >= 1, got {n}")

        n_z = max(1, round(n * q_z))
        n_x = max(1, round(n * q_x))
        wt = err * n_x
        tail = finite_key.azuma_tail(n, delta)
        bound = finite_key.phase_error_bound(wt, q_z, q_x, n, delta)
        e_ph_bar = min(bound / n_z, 0.5)
        lambda_ec = finite_key.ec_syndrome_cost(n_z, min(err, 0.5), cfg.params.f_ec)
        row: dict[str, Any] = {
            "axis": axis,
            "value": float(value),
            "eta": tail.eta,
            "e_ph_bar": e_ph_bar,
            "n_z": n_z,
            "lambda_ec": lambda_ec,
        }
        try:
            result = finite_key.key_length(
                n_z, e_ph_bar, cfg.params.eps_s, tail.eta, lambda_ec, cfg.params.eps_c
            )
            row["l"] = result.l
            row["terms"] = result.terms
        except SecurityParameterError:
            row["l"] = 0
            row["terms"] = None
        rows.append(row)
    return rows


def _sweep_mode(cfg: RunConfig) -> tuple[dict, list[str], list[list]]:
    assert cfg.sweep is not None
    rows = keyrate_rows(cfg)
    header = [cfg.sweep.axis, "eta", "e_ph_bar", "l"]
    csv_rows = [[r["value"], r["eta"], r["e_ph_bar"], r["l"]] for r in rows]
    return {"axis": cfg.sweep.axis, "rows": rows}, header, csv_rows


# The runner of each mode, which gives the artifact's results, CSV header and rows.
_RUNNERS: dict[str, Callable[[RunConfig], tuple[dict, list[str], Iterable[Sequence]]]] = {
    "actual": _session_mode,
    "virtual": _session_mode,
    "estimation": _estimation_mode,
    "coverage": _coverage_mode,
    "bias": _bias_mode,
    "keyrate-sweep": _sweep_mode,
}
MODES = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# Report emission


# The ``rounds`` value of a transcript's stand-in, formatted with a salt.
_ROUNDS_MARKER = "\x00rounds {}"

# Characters per write of an artifact: a session artifact is tens of MB, and
# writing it whole would first encode a copy of all of it.
_WRITE_CHUNK = 1 << 20


def _json_text(envelope: dict) -> str:
    """``json.dumps(envelope, indent=2) + "\\n"``, a Transcript anywhere in the
    envelope written as :func:`transcript_to_json` would write it.

    Each Transcript is encoded as a stand-in object whose ``rounds`` is a
    marker string, and the rows are spliced in at the marker, at the indent of
    its line.  Config strings are user text and could hold a marker, so one
    is used only if it occurs exactly once per stand-in; otherwise the next
    salt is tried.
    """
    for salt in itertools.count():
        marker = _ROUNDS_MARKER.format(salt)
        transcripts: list[Transcript] = []

        def stand_in(obj: object) -> dict:
            if not isinstance(obj, Transcript):
                raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
            transcripts.append(obj)
            return {**transcript_counts(obj), "rounds": marker}

        text = json.dumps(envelope, indent=2, default=stand_in) + "\n"
        pieces = text.split(json.dumps(marker))
        if len(pieces) == len(transcripts) + 1:
            break
    out = [pieces[0]]
    for transcript, piece in zip(transcripts, pieces[1:]):
        key_line = out[-1][out[-1].rfind("\n") + 1 :]
        depth = (len(key_line) - len(key_line.lstrip(" "))) // 2
        out += transcript_rounds_parts(transcript, depth)
        out.append(piece)
    return "".join(out)


def render_report(
    envelope: dict, header: list[str], rows: Iterable[Sequence], fmt: str
) -> str:
    if fmt == "json":
        return _json_text(envelope)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _open_untruncated(path: str, flags: int) -> int:
    """``open``'s default opener, less ``O_TRUNC``."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def emit_report(
    envelope: dict, header: list[str], rows: Iterable[Sequence], fmt: str, path: str
) -> None:
    text = render_report(envelope, header, rows, fmt)
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        # Written over the old file, then cut to length.  Truncating it to
        # zero on open makes ext4 (auto_da_alloc) flush the new file to disk
        # on close and discard the old one's blocks: a disk write and a
        # discard of every artifact, tens of MB each for a session.
        with open(path, "w", encoding="utf-8", opener=_open_untruncated) as f:
            for start in range(0, len(text), _WRITE_CHUNK):
                f.write(text[start : start + _WRITE_CHUNK])
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoError(f"cannot write report {path!r}: {exc}") from exc


def run(cfg: RunConfig) -> int:
    """Dispatch one validated config and write its artifact."""
    results, header, rows = _RUNNERS[cfg.mode](cfg)
    envelope = {
        "schema": SCHEMA_TAG,
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "results": results,
    }
    emit_report(envelope, header, rows, cfg.output_format, cfg.output_path)
    return 0


# ---------------------------------------------------------------------------
# Built-in invariant battery (the `verify` subcommand)


def _verify_checks() -> list[tuple[str, Callable[[], None]]]:
    import numpy as np

    from .protocol import SiftedData, postprocess
    from .quantum_core import bell_pair, ideal_povm as _ideal

    uniform = ProtocolParams(
        p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
        n_det_ter=32, eps_s=1e-6, eps_c=1e-6, delta=0.1,
    )

    def check_povm() -> None:
        for povm in (_ideal(), detection_povm(0.9)):
            total = povm.m0z + povm.m1z + povm.m0x + povm.m1x + 2 * povm.m_fail
            if not np.allclose(total, 2 * np.eye(2), atol=1e-10):
                raise AssertionError("POVM completeness failed")

    def check_reference_values() -> None:
        res = finite_key.key_length(1000, 0.0, 1e-10, 1e-21, 0, 1e-10)
        if res.l != 898:
            raise AssertionError(f"key_length reference: {res.l} != 898")
        tail = finite_key.azuma_tail(1000, 0.1)
        if abs(tail.eta_single - math.exp(-5.0)) > 1e-15:
            raise AssertionError("azuma_tail reference drifted")
        bound = finite_key.phase_error_bound(30.0, 0.81, 0.01, 10000, 0.01)
        if abs(bound - 10630.0) > 1e-6:
            raise AssertionError(f"phase_error_bound reference: {bound} != 10630")

    def check_entropy() -> None:
        if finite_key.binary_entropy(0.5) != 1.0:
            raise AssertionError("h(1/2) != 1")
        for x in (0.01, 0.11, 0.3, 0.49):
            if abs(finite_key.binary_entropy(x) - finite_key.binary_entropy(1 - x)) > 1e-15:
                raise AssertionError(f"h({x}) asymmetric")

    def check_state() -> None:
        rho = bell_pair()
        if abs(rho.trace - 1.0) > 1e-12:
            raise AssertionError("maximally entangled state not normalized")

    def check_actual_virtual() -> None:
        eve = make_strategy(Depolarizing(p=0.2))
        counts_a: dict = {}
        counts_v: dict = {}
        small = dataclasses.replace(uniform, n_det_ter=4)
        for i in range(400):
            _, sa = run_actual(small, eve, derive_stream(11, i))
            _, sv, _ = run_virtual(small, eve, derive_stream(12, i))
            ka = (sa.n_z, sa.n_x, sa.x_error_weight())
            kv = (sv.n_z, sv.n_x, sv.x_error_weight())
            counts_a[ka] = counts_a.get(ka, 0) + 1
            counts_v[kv] = counts_v.get(kv, 0) + 1
        tv = 0.5 * sum(
            abs(counts_a.get(k, 0) - counts_v.get(k, 0)) / 400
            for k in set(counts_a) | set(counts_v)
        )
        if tv > 0.15:
            raise AssertionError(f"actual/virtual summary TV {tv:.3f} > 0.15")

    def check_martingale() -> None:
        eve = make_strategy(Depolarizing(p=0.1))
        for i in range(40):
            run_ = run_estimation(uniform, eve, derive_stream(13, i))
            trace = stats.build_trace(run_)
            if trace.x_ph[0] != 0.0 or trace.x_xerr[0] != 0.0:
                raise AssertionError("centered process does not start at 0")
            if len(trace.x_ph) != uniform.n_det_ter + 1:
                raise AssertionError("trace length wrong")
            for t in run_.t_phase:
                if abs(uniform.q_z * t / uniform.q_z - uniform.q_x * t / uniform.q_x) > 1e-12:
                    raise AssertionError("scaled error-probability identity broken")

    def check_bias() -> None:
        fair = stats.enumerate_bias(CountDetected(3), (0.5, 0.5), 3)
        if fair.tv_from_uniform > 1e-12:
            raise AssertionError(f"detected-count rule biased: {fair.tv_from_uniform}")
        skew = stats.enumerate_bias(CountPerBasis(1, 1), (0.5, 0.5), 6)
        if skew.tv_from_uniform <= 1e-9:
            raise AssertionError("per-basis rule shows no bias")

    def check_determinism() -> None:
        eve = make_strategy(IdentityLossy(p_loss=0.3))
        t1, s1 = run_actual(uniform, eve, derive_stream(7, 0))
        t2, s2 = run_actual(uniform, eve, derive_stream(7, 0))
        if transcript_to_json(t1) != transcript_to_json(t2) or sifted_to_json(
            s1
        ) != sifted_to_json(s2):
            raise AssertionError("same stream produced different sessions")

    def check_distillation() -> None:
        import random as _random

        big = ProtocolParams(
            p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
            n_det_ter=300_000, eps_s=1e-4, eps_c=1e-6, delta=0.012,
        )
        rng = _random.Random(5)
        n_z = n_x = 75_000
        s = np.array([rng.getrandbits(1) for _ in range(n_z)], dtype=np.uint8)
        sifted = SiftedData(
            s_az=s, s_bz=s.copy(),
            s_ax=np.zeros(n_x, dtype=np.uint8), s_bx=np.zeros(n_x, dtype=np.uint8),
            n_z=n_z, n_x=n_x,
        )
        keys = postprocess(sifted, big, _random.Random(6))
        if keys.aborted or len(keys.f_az) == 0:
            raise AssertionError("distillation aborted on a clean session")
        if not np.array_equal(keys.f_az, keys.f_bz):
            raise AssertionError("amplified keys disagree")

    return [
        ("povm-completeness", check_povm),
        ("reference-values", check_reference_values),
        ("entropy-symmetry", check_entropy),
        ("state-normalization", check_state),
        ("actual-virtual-agreement", check_actual_virtual),
        ("martingale-invariants", check_martingale),
        ("stopping-rule-bias", check_bias),
        ("stream-determinism", check_determinism),
        ("key-distillation", check_distillation),
    ]


def run_verify() -> int:
    """Run the invariant battery; print one PASS/FAIL line per check."""
    checks = _verify_checks()
    failures = 0
    for name, check in checks:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 — each failure must be reported
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"{'FAIL' if failures else 'OK'}: {failures} of {len(checks)} checks failed")
    return 1 if failures else 0


def run_bias_demo(out: str | None) -> int:
    """Contrast the two stopping rules on a uniform-basis session."""
    fair = stats.enumerate_bias(CountDetected(3), (0.5, 0.5), 3)
    skew = stats.enumerate_bias(CountPerBasis(1, 1), (0.5, 0.5), 6)
    print("stopping rule            tv_from_uniform  dependence  test_err  code_err")
    for label, rep in (("CountDetected(3)", fair), ("CountPerBasis(1,1)", skew)):
        print(
            f"{label:<24} {rep.tv_from_uniform:<16.6g} {str(rep.dependence_detected):<11}"
            f" {rep.test_error_rate:<9.4f} {rep.code_error_rate:<9.4f}"
        )
    print(
        "A fixed detected-count rule keeps test positions exchangeable; "
        "per-basis quotas do not."
    )
    if out is not None:
        payload = {
            "schema": SCHEMA_TAG,
            "results": {
                "count_detected": {
                    "tv_from_uniform": fair.tv_from_uniform,
                    "dependence_detected": fair.dependence_detected,
                },
                "count_per_basis": {
                    "tv_from_uniform": skew.tv_from_uniform,
                    "dependence_detected": skew.dependence_detected,
                },
            },
        }
        try:
            Path(out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise IoError(f"cannot write report {out!r}: {exc}") from exc
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates: dict[str, Any] = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.out is not None:
        updates["output_path"] = args.out
    if args.fmt is not None:
        updates["output_format"] = args.fmt
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--trials", type=int, default=None, help="override trial count")
    parser.add_argument("--out", default=None, help="output path ('-' = stdout)")
    parser.add_argument(
        "--format", dest="fmt", choices=("json", "csv"), default=None,
        help="override output format",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qkd-sift",
        description="Simulate and analyze iteratively sifted BB84 sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_flags(sub.add_parser("run", help="run the mode given in the config"))
    _add_run_flags(
        sub.add_parser("sweep", help="evaluate the key-length pipeline over a grid")
    )
    sub.add_parser("verify", help="run the built-in invariant battery")
    demo = sub.add_parser("bias-demo", help="contrast the two stopping rules")
    demo.add_argument("--out", default=None, help="optional JSON report path")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify()
        if args.command == "bias-demo":
            return run_bias_demo(args.out)
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "sweep":
            if cfg.sweep is None:
                raise ValidationError("sweep requires a 'sweep' section in the config")
            if cfg.mode != "keyrate-sweep":
                cfg = dataclasses.replace(cfg, mode="keyrate-sweep")
        return run(cfg)
    except QkdSiftError as exc:
        record = {
            "schema": SCHEMA_TAG,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
