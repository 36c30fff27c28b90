"""The four workloads: what one op does, how its output is checked.

Each op of a workload has the same size; ops differ only in the seed that
:func:`summary.op_seed` derives from the run seed and the op index.  ``run``
is the timed part of an op; ``check`` runs after the clock stops and returns
the checks that failed; ``rounds`` is the number of detected rounds the op
completed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import resource
import tracemalloc
from pathlib import Path
from typing import Any

from qkd_sift import cli, protocol, stats
from qkd_sift.adversary import AdaptiveBasisTracker, Depolarizing, make_strategy
from qkd_sift.protocol import CountDetected, CountPerBasis, ProtocolParams
from qkd_sift.quantum_core import detection_povm
from summary import nproc

SCHEMA = "qkd-sift/v1"
TRIALS = 32


def _params(n: int, eps_s: float, eps_c: float, delta: float) -> ProtocolParams:
    return ProtocolParams(
        p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
        n_det_ter=n, eps_s=eps_s, eps_c=eps_c, delta=delta,
    )


def _config(mode: str, params: ProtocolParams, strategy: dict, trials: int, eta_det: float = 1.0) -> dict:
    return {
        "mode": mode,
        "params": {
            "p_z_a": params.p_z_a, "p_z_b": params.p_z_b, "n_det_ter": params.n_det_ter,
            "eps_s": params.eps_s, "eps_c": params.eps_c, "delta": params.delta,
        },
        "strategy": strategy,
        "trials": trials,
        "eta_det": eta_det,
    }


def max_rss_mib() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""
    strategy = None  # an EveStrategy the op calls directly, if any

    def __init__(self, workdir: Path, traced: bool) -> None:
        self.workdir = workdir
        self.traced = traced  # this process is the traced run

    def setup(self) -> None:
        """Build the inputs; no qkd_sift work that an op repeats."""

    def warm_up(self) -> None:
        """Fill lazy caches with the smallest call that reaches them."""

    def run(self, seed: int) -> Any:
        raise NotImplementedError

    def check(self, out: Any, seed: int) -> list[str]:
        raise NotImplementedError

    def rounds(self, out: Any) -> int:
        raise NotImplementedError

    def after(self) -> list[str]:
        """Checks that need more than one op; a failure counts as one failed op."""
        return []

    def extras(self, seed: int) -> dict[str, float]:
        """Traced-run measurements that need a pass of their own."""
        return {}

    def _write_config(self, name: str, doc: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def _cli_run(self, config: str, seed: int, out: str) -> None:
        rc = cli.main(["run", "--config", config, "--seed", str(seed), "--out", out])
        if rc != 0:
            raise RuntimeError(f"qkd-sift run exited with {rc}")


class CoverageAdaptive(Workload):
    """32 estimation trials x n = 2000 under the adaptive tracker, via the API."""

    name = "coverage-adaptive"

    def setup(self) -> None:
        self.params = _params(2000, 1e-9, 1e-12, 0.05)
        self.strategy = make_strategy(AdaptiveBasisTracker(window=16))

    def warm_up(self) -> None:
        small = dataclasses.replace(self.params, n_det_ter=64)
        protocol.run_estimation(small, self.strategy, random.Random(0))

    def run(self, seed: int) -> Any:
        trial_stats = stats.coverage_trials(
            self.params, self.strategy, TRIALS, random.Random(seed), workers=1
        )
        return trial_stats, stats.coverage_report(trial_stats, self.params.delta)

    def check(self, out: Any, seed: int) -> list[str]:
        ts, report = out
        n, q_z, q_x = self.params.n_det_ter, self.params.q_z, self.params.q_x
        problems = []
        if report.trials != TRIALS or len(ts.n_z) != TRIALS:
            problems.append(f"{report.trials} trials reported, {TRIALS} run")
        if not 0 <= report.violations_ph <= TRIALS or not 0 <= report.violations_xerr <= TRIALS:
            problems.append("violation counts outside [0, trials]")
        for i in range(TRIALS):
            residual = ts.sum_p_ph[i] / q_z - ts.sum_p_xerr[i] / q_x
            if not abs(residual) < 1e-8:
                problems.append(f"trial {i}: relation residual {residual!r}")
            if ts.n_z[i] + ts.n_x[i] > n:
                problems.append(f"trial {i}: n_z + n_x = {ts.n_z[i] + ts.n_x[i]} > {n}")
            if ts.lambda_ph[i] > ts.n_z[i]:
                problems.append(f"trial {i}: lambda_ph {ts.lambda_ph[i]} > n_z {ts.n_z[i]}")
        return problems

    def rounds(self, out: Any) -> int:
        return out[0].n * len(out[0].n_z)


class CoverageLossy(Workload):
    """The CLI coverage mode, 32 trials x n = 2000, 90% loss.

    Untraced ops are timed on one thread.  On a shared two-vCPU host, run
    medians at two threads swung by up to 40% between runs while a
    single-threaded reference loop held steady, and no bound of at most 25%
    holds that.  The traced run, which has no bound, times the ops on the
    pool at ``min(2, nproc)`` threads so that the pool metrics describe the
    pool.  Either way the first op is replayed once, untimed, at the other
    thread count: artifacts must not depend on it.
    """

    name = "coverage-lossy"

    def setup(self) -> None:
        pool = str(min(2, nproc()))
        self.workers, self.replay_workers = (pool, "1") if self.traced else ("1", pool)
        os.environ["QKD_SIFT_THREADS"] = self.workers
        params = _params(2000, 1e-9, 1e-12, 0.05)
        strategy = {"kind": "depolarizing", "p": 0.15, "p_loss": 0.9}
        self.n = params.n_det_ter
        self.config = self._write_config("coverage.json", _config("coverage", params, strategy, TRIALS))
        self.warm_config = self._write_config(
            "warm.json", _config("coverage", dataclasses.replace(params, n_det_ter=16), strategy, 2)
        )
        self.out = str(self.workdir / "coverage-out.json")
        self.first: tuple[int, bytes] | None = None  # seed and artifact of the first op

    def warm_up(self) -> None:
        self._cli_run(self.warm_config, 0, self.out)

    def run(self, seed: int) -> Any:
        self._cli_run(self.config, seed, self.out)

    def check(self, out: Any, seed: int) -> list[str]:
        raw = Path(self.out).read_bytes()
        if self.first is None:
            self.first = seed, raw
        doc = json.loads(raw)
        problems = []
        if doc.get("schema") != SCHEMA:
            problems.append(f"schema {doc.get('schema')!r}")
        if doc.get("seed") != seed:
            problems.append(f"seed {doc.get('seed')!r} != {seed}")
        results = doc.get("results", {})
        if results.get("trials") != TRIALS:
            problems.append(f"trials {results.get('trials')!r}")
        for key in ("violations_ph", "violations_xerr"):
            if not 0 <= results.get(key, -1) <= TRIALS:
                problems.append(f"{key} {results.get(key)!r}")
        if results.get("eta_single") != math.exp(-self.n * 0.05**2 / 2.0):
            problems.append(f"eta_single {results.get('eta_single')!r}")
        return problems

    def rounds(self, out: Any) -> int:
        return TRIALS * self.n

    def after(self) -> list[str]:
        if self.first is None:
            return []
        seed, raw = self.first
        os.environ["QKD_SIFT_THREADS"] = self.replay_workers
        try:
            self._cli_run(self.config, seed, self.out)
        finally:
            os.environ["QKD_SIFT_THREADS"] = self.workers
        if Path(self.out).read_bytes() != raw:
            return [f"artifact at {self.replay_workers} threads differs from {self.workers}"]
        return []


class SessionArtifact(Workload):
    """One actual and one virtual n = 1e5 session via the CLI, then distillation."""

    name = "session-artifact"

    def setup(self) -> None:
        self.params = _params(100_000, 1e-4, 1e-12, 0.02)
        strategy = {"kind": "depolarizing", "p": 0.04, "p_loss": 0.5}
        self.configs = {
            mode: self._write_config(f"{mode}.json", _config(mode, self.params, strategy, 1, 0.8))
            for mode in ("actual", "virtual")
        }
        small = dataclasses.replace(self.params, n_det_ter=64)
        self.warm_configs = [
            self._write_config(f"warm-{mode}.json", _config(mode, small, strategy, 1, 0.8))
            for mode in ("actual", "virtual")
        ]
        self.outs = {mode: str(self.workdir / f"{mode}-out.json") for mode in self.configs}

    def warm_up(self) -> None:
        for config in self.warm_configs:
            self._cli_run(config, 0, self.outs["actual"])

    def run(self, seed: int) -> Any:
        for mode, config in self.configs.items():
            self._cli_run(config, seed, self.outs[mode])
        doc = json.loads(Path(self.outs["actual"]).read_text(encoding="utf-8"))
        sj = doc["results"]["per_trial"][0]["sifted"]
        bits = {
            part: protocol.hex_to_bits(sj[f"s_{part}_hex"], sj["n_z"] if part[1] == "z" else sj["n_x"])
            for part in ("az", "bz", "ax", "bx")
        }
        sifted = protocol.SiftedData(
            s_az=bits["az"], s_bz=bits["bz"], s_ax=bits["ax"], s_bx=bits["bx"],
            n_z=sj["n_z"], n_x=sj["n_x"],
        )
        keys = protocol.postprocess(sifted, self.params, random.Random(seed))
        return doc, bits, keys

    def check(self, out: Any, seed: int) -> list[str]:
        doc, bits, keys = out
        n = self.params.n_det_ter
        problems = []
        virtual = json.loads(Path(self.outs["virtual"]).read_text(encoding="utf-8"))
        for mode, d in (("actual", doc), ("virtual", virtual)):
            if d.get("schema") != SCHEMA:
                problems.append(f"{mode}: schema {d.get('schema')!r}")
            rec = d["results"]["per_trial"][0]
            if not rec["n_detected"] == rec["transcript"]["n_detected"] == n:
                problems.append(f"{mode}: n_detected {rec['n_detected']} != n_det_ter {n}")
            if rec["n_z"] + rec["n_x"] > n:
                problems.append(f"{mode}: n_z + n_x > n_det_ter")
        sj = doc["results"]["per_trial"][0]["sifted"]
        for part, b in bits.items():
            if protocol.bits_to_hex(b) != sj[f"s_{part}_hex"]:
                problems.append(f"s_{part}_hex does not round-trip")
        if int((bits["ax"] != bits["bx"]).sum()) != sj["x_error_weight"]:
            problems.append("x_error_weight disagrees with the sifted X strings")
        length = keys.meta["key_length"]
        if not length > 0 or len(keys.f_az) != length:
            problems.append(f"key length {length}")
        if not (keys.f_az == keys.f_bz).all():
            problems.append("f_az != f_bz")
        if keys.meta["tag_a"] != keys.meta["tag_b"]:
            problems.append("tag_a != tag_b")
        return problems

    def rounds(self, out: Any) -> int:
        return 2 * self.params.n_det_ter

    def extras(self, seed: int) -> dict[str, float]:
        strategy = make_strategy(Depolarizing(p=0.04, p_loss=0.5))
        povm = detection_povm(0.8)
        tracemalloc.start()
        try:
            transcript, _ = protocol.run_actual(
                self.params, strategy, protocol.derive_stream(seed, 0), povm=povm
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"protocol.bytes_per_emitted_round": peak / len(transcript.rounds)}


class BiasExact(Workload):
    """Exact stopping-rule bias: per-basis quotas at k = 11, detected count at k = 10.

    The enumeration is exact and has no random input, so every op is the same
    computation whatever the seed.
    """

    name = "bias-exact"
    CALLS = ((CountPerBasis(2, 2), 11), (CountDetected(10), 10))

    def warm_up(self) -> None:
        stats.enumerate_bias(CountDetected(2), (0.5, 0.5), 2)
        self.ready_rss_mib = max_rss_mib()

    def run(self, seed: int) -> Any:
        return [stats.enumerate_bias(rule, (0.5, 0.5), k) for rule, k in self.CALLS]

    def check(self, out: Any, seed: int) -> list[str]:
        per_basis, detected = out
        problems = []
        if not (detected.tv_from_uniform == 0.0 and not detected.dependence_detected):
            problems.append(
                f"CountDetected: tv {detected.tv_from_uniform!r}, "
                f"dependence {detected.dependence_detected}"
            )
        if len(detected.t_distribution) != 3**10 or detected.terminating_mass != 1.0:
            problems.append("CountDetected(10) must terminate on all 3^10 sequences")
        if not (per_basis.tv_from_uniform > 0.0 and per_basis.dependence_detected):
            problems.append(
                f"CountPerBasis: tv {per_basis.tv_from_uniform!r}, "
                f"dependence {per_basis.dependence_detected}"
            )
        for report in out:
            if abs(math.fsum(report.t_distribution.values()) - 1.0) > 1e-9:
                problems.append(f"{report.rule}: conditional law does not sum to 1")
        return problems

    def rounds(self, out: Any) -> int:
        # Rounds of the enumerated terminating sessions; all are detected.
        return sum(len(seq) for report in out for seq in report.t_distribution)

    def extras(self, seed: int) -> dict[str, float]:
        # Growth of the process's peak RSS over the ops, which run nothing but
        # the two enumerations; tracemalloc would slow them sixfold.
        return {"stats.enumerate_bias_peak_mib": max_rss_mib() - self.ready_rss_mib}


WORKLOADS = {w.name: w for w in (CoverageAdaptive, CoverageLossy, SessionArtifact, BiasExact)}
