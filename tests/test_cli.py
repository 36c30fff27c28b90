"""Config schema, report envelopes, CLI entry points, thread determinism."""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import oracles
from qkd_sift import adversary, cli
from qkd_sift.adversary import Depolarizing, IdentityLossy
from qkd_sift.cli import (
    MODES,
    SCHEMA_TAG,
    RunConfig,
    SweepSpec,
    config_from_dict,
    config_to_dict,
    keyrate_rows,
    load_config,
    main,
    render_report,
    rule_from_dict,
    rule_to_dict,
    run,
)
from qkd_sift import protocol
from qkd_sift.errors import ParseError, ValidationError
from qkd_sift.protocol import CountDetected, CountPerBasis, ProtocolParams

MINIMAL = {
    "mode": "estimation",
    "params": {
        "p_z_a": 0.5,
        "p_z_b": 0.5,
        "p_x_b": 0.5,
        "n_det_ter": 16,
        "eps_s": 1e-9,
        "eps_c": 1e-12,
        "delta": 0.05,
    },
    "strategy": {"kind": "identity_lossy", "p_loss": 0.0},
}


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


# -- parsing and defaults ------------------------------------------------------


def test_minimal_config_fills_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.trials == 1
    assert cfg.seed == 0
    assert cfg.output_path == "-"
    assert cfg.output_format == "json"
    assert cfg.eta_det == 1.0
    assert cfg.bias_max_rounds == 6
    assert cfg.params.f_ec == 1.16
    assert cfg.params.max_rounds == 16_000
    # p_x_a completed from p_z_a
    assert cfg.params.p_x_a == 0.5


def test_malformed_json_reports_position(tmp_path):
    path = _write(tmp_path, '{"mode": "estimation",\n  "params": }')
    with pytest.raises(ParseError, match=r"line 2, column"):
        load_config(path)


def test_unknown_mode_is_a_parse_error():
    doc = dict(MINIMAL, mode="simulate")
    with pytest.raises(ParseError, match="unknown mode"):
        config_from_dict(doc)


def test_unknown_fields_are_parse_errors():
    with pytest.raises(ParseError, match="unknown field"):
        config_from_dict(dict(MINIMAL, extra=1))
    bad_params = dict(MINIMAL, params=dict(MINIMAL["params"], nope=2))
    with pytest.raises(ParseError, match="unknown field"):
        config_from_dict(bad_params)
    with pytest.raises(ParseError, match="missing field"):
        config_from_dict({"mode": "estimation", "params": MINIMAL["params"]})


def _read_schema():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "config-schema.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _schema_objects():
    """Each object of a config as the schema and the dataclasses give it.

    Maps a name to the object's schema, its dataclass, and the fields that
    the parser fills when a config leaves them out.
    """
    root = _read_schema()
    props = root["properties"]
    by_kind = {
        item["properties"]["kind"]["const"]: item
        for key in ("strategy", "rule")
        for item in props[key]["oneOf"]
    }
    table = {
        "config": (root, RunConfig, ()),
        "params": (props["params"], ProtocolParams, ("p_x_a", "p_x_b")),
        "sweep": (props["sweep"], SweepSpec, ()),
    }
    for kind, cls in {**adversary._KIND_MAP, **cli._RULE_KINDS}.items():
        assert "kind" in by_kind[kind]["required"], kind
        table[kind] = (by_kind[kind], cls, ())
    return table


_SCHEMA_OBJECTS = _schema_objects()


@pytest.mark.parametrize("name", sorted(_SCHEMA_OBJECTS))
def test_the_schema_lists_the_fields_and_defaults_of_the_dataclasses(name):
    schema, cls, filled = _SCHEMA_OBJECTS[name]
    fields = dataclasses.fields(cls)
    props = {key: value for key, value in schema["properties"].items() if key != "kind"}
    assert set(props) == {f.name for f in fields}, name
    missing = {f.name for f in fields if f.default is dataclasses.MISSING}
    assert set(schema.get("required", ())) - {"kind"} == missing - set(filled), name
    # A default of None stands for a value worked out from others, or for
    # none at all, and the schema says which in words.
    defaults = {
        f.name: f.default
        for f in fields
        if f.default is not dataclasses.MISSING and f.default is not None
    }
    declared = {key: value["default"] for key, value in props.items() if "default" in value}
    assert declared == defaults, name


@pytest.mark.parametrize("field", _SCHEMA_OBJECTS["params"][0]["required"])
def test_a_config_without_a_required_param_names_it(field):
    params = dict(MINIMAL["params"])
    del params[field]
    with pytest.raises(ParseError, match=f"^missing field '{field}' in params$"):
        config_from_dict(dict(MINIMAL, params=params))


def test_a_config_root_or_params_that_is_no_object_is_a_parse_error():
    with pytest.raises(ParseError, match="^config root must be an object, got list$"):
        config_from_dict([])
    with pytest.raises(ParseError, match="^field 'params' must be an object$"):
        config_from_dict(dict(MINIMAL, params=1))


def test_inconsistent_basis_probabilities_fail_validation():
    doc = dict(MINIMAL, params=dict(MINIMAL["params"], p_z_a=0.5, p_x_a=0.4))
    with pytest.raises(ValidationError, match="basis probabilities"):
        config_from_dict(doc)


def test_bias_mode_requires_a_rule():
    with pytest.raises(ValidationError, match="rule"):
        config_from_dict(dict(MINIMAL, mode="bias"))


def test_run_config_refuses_a_bad_mode_format_or_missing_sweep():
    cfg = config_from_dict(MINIMAL)
    for field, value, match in (
        ("mode", "x", "mode must be one of"),
        ("output_format", "xml", "output_format must be"),
        ("mode", "keyrate-sweep", "requires a sweep spec"),
    ):
        with pytest.raises(ValidationError, match=match):
            dataclasses.replace(cfg, **{field: value})
    with pytest.raises(ParseError, match="must be an array"):
        config_from_dict(dict(MINIMAL, sweep={"axis": "delta", "values": 0.01}))


def test_rule_from_dict_errors():
    with pytest.raises(ParseError, match="kind"):
        rule_from_dict({"n": 4})
    with pytest.raises(ParseError, match="unknown rule kind"):
        rule_from_dict({"kind": "until_tuesday"})
    for kind in (["count_detected"], {}, None):  # no string, so no key of the kind table
        with pytest.raises(ParseError, match="unknown rule kind"):
            rule_from_dict({"kind": kind, "n": 4})
    with pytest.raises(ParseError, match="bad fields"):
        rule_from_dict({"kind": "count_detected", "m": 4})
    assert rule_from_dict({"kind": "count_detected", "n": 4}) == CountDetected(4)
    assert rule_from_dict(
        {"kind": "count_per_basis", "n_z_req": 2, "n_x_req": 1}
    ) == CountPerBasis(2, 1)
    for rule in (CountDetected(4), CountPerBasis(2, 1)):
        assert rule_from_dict(rule_to_dict(rule)) == rule
    with pytest.raises(ValidationError, match="unknown termination rule"):
        rule_to_dict(object())


def test_sweep_spec_validation():
    with pytest.raises(ValidationError, match="axis"):
        SweepSpec("frequency", (1.0, 2.0))
    with pytest.raises(ValidationError, match="non-empty"):
        SweepSpec("delta", ())
    with pytest.raises(ValidationError, match="strictly increasing"):
        SweepSpec("delta", (0.2, 0.1))
    for bad in ("0.01", True, None, math.inf, -math.inf, math.nan, 10**400, 2**1024 - 2**970):
        with pytest.raises(ValidationError, match="finite real"):
            SweepSpec("delta", (0.0, bad))
    SweepSpec("delta", (0.0, 2**1024 - 2**970 - 1))  # float() rounds it into the range
    # Each axis's limits are checked when the spec is built, naming the value.
    for axis, values, match in (
        ("q_ratio", (0, 1.0), "q_ratio sweep values must be > 0, got 0$"),
        ("n_det_ter", (0, 8), "integers >= 1, got 0$"),
        ("n_det_ter", (8, 10.5), "integers >= 1, got 10.5$"),
        ("depolarizing_p", (0.0, 1.5), "in \\[0, 1\\], got 1.5$"),
        ("depolarizing_p", (-0.5, 0.5), "in \\[0, 1\\], got -0.5$"),
    ):
        with pytest.raises(ValidationError, match=match):
            SweepSpec(axis, values)
    assert SweepSpec("n_det_ter", (1, 2.0)).values == (1, 2.0)
    assert SweepSpec("depolarizing_p", (0, 1)).values == (0, 1)


def test_config_round_trips_through_dict_and_file(tmp_path):
    doc = dict(
        MINIMAL,
        mode="bias",
        rule={"kind": "count_per_basis", "n_z_req": 2, "n_x_req": 1},
        trials=3,
        seed=99,
        eta_det=0.8,
        output_format="csv",
        sweep={"axis": "delta", "values": [0.01, 0.02]},
    )
    cfg = config_from_dict(doc)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    path = str(tmp_path / "echo.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config_to_dict(cfg), f, indent=2)
    assert load_config(path) == cfg


# -- reports ---------------------------------------------------------------------


def _run_to_file(tmp_path, doc, name="out"):
    cfg = config_from_dict(doc)
    path = str(tmp_path / name)
    cfg = RunConfig(**{**cfg.__dict__, "output_path": path})
    assert run(cfg) == 0
    return (tmp_path / name).read_text()


def test_json_envelope_shape(tmp_path):
    text = _run_to_file(tmp_path, dict(MINIMAL, trials=2, seed=5))
    doc = json.loads(text)
    assert doc["schema"] == SCHEMA_TAG
    assert doc["seed"] == 5
    assert doc["config"]["mode"] == "estimation"
    per_trial = doc["results"]["per_trial"]
    assert [r["trial"] for r in per_trial] == [0, 1]
    for rec in per_trial:
        assert rec["n_detected"] == 16
        assert rec["relation_residual"] == 0.0


def test_session_mode_attaches_detail_only_for_single_trials(tmp_path):
    single = json.loads(_run_to_file(tmp_path, dict(MINIMAL, mode="actual"), "a"))
    multi = json.loads(
        _run_to_file(tmp_path, dict(MINIMAL, mode="actual", trials=2), "b")
    )
    assert "transcript" in single["results"]["per_trial"][0]
    assert "sifted" in single["results"]["per_trial"][0]
    assert "transcript" not in multi["results"]["per_trial"][0]


def test_estimation_csv_columns(tmp_path):
    text = _run_to_file(
        tmp_path, dict(MINIMAL, output_format="csv", trials=3), "est.csv"
    )
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "trial", "n_detected", "n_z", "n_x", "lambda_ph", "lambda_xerr",
        "sum_p_ph", "sum_p_xerr", "relation_residual",
    ]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]


def test_coverage_csv_columns(tmp_path):
    doc = dict(MINIMAL, mode="coverage", trials=50)
    text = _run_to_file(tmp_path, dict(doc, output_format="csv"), "cov.csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["trials", "violations_ph", "violations_xerr", "eta_single"]
    assert len(rows) == 2
    assert rows[1][0] == "50"


# delta**2 raised OverflowError from 1.35e154 on: a traceback and no record.
@pytest.mark.parametrize(
    "delta,eta_single",
    [(0.05, math.exp(-16 * 0.05**2 / 2.0)), (1e154, 0.0), (1.35e154, 0.0), (1e300, 0.0)],
)
def test_coverage_eta_single_is_zero_once_delta_squared_overflows(
    tmp_path, capsys, delta, eta_single
):
    out = tmp_path / "cov.json"
    doc = _with(dict(MINIMAL, mode="coverage", trials=2), "params", delta=delta)
    assert main(["run", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["results"]["eta_single"] == eta_single


def test_bias_csv_lists_the_conditional_distribution(tmp_path):
    doc = dict(
        MINIMAL,
        mode="bias",
        rule={"kind": "count_detected", "n": 2},
        output_format="csv",
    )
    text = _run_to_file(tmp_path, doc, "bias.csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["sequence", "probability"]
    assert len(rows) == 1 + 9  # all length-2 words over {Z, X, M}
    assert sum(float(r[1]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-12)


def test_render_report_with_no_rows_is_header_only():
    text = render_report({}, ["a", "b"], [], "csv")
    assert text == "a,b\n"


# -- transcripts written from their columns -----------------------------------

_reference_report = functools.partial(
    oracles.render_report_reference, default=protocol.transcript_to_json
)

_SESSION_CASES = {
    "lossy": {"strategy": {"kind": "depolarizing", "p": 0.1, "p_loss": 0.6}},
    "batched": {"params": {"batch_size": 7}},
    "eta0.8": {"eta_det": 0.8},
    "trials3": {"trials": 3, "eta_det": 0.8, "params": {"batch_size": 7}},
    "one-round": {"params": {"n_det_ter": 1}},
}


def _session_doc(mode, case, **extra):
    overrides = _SESSION_CASES[case]
    doc = {**MINIMAL, "mode": mode, "seed": 4, **overrides, **extra}
    doc["params"] = {**MINIMAL["params"], **overrides.get("params", {})}
    return doc


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(_SESSION_CASES))
@pytest.mark.parametrize("mode", ["actual", "virtual"])
def test_session_artifacts_match_the_generic_encoder(tmp_path, monkeypatch, mode, case, fmt):
    config = _write(tmp_path, _session_doc(mode, case, output_format=fmt))
    # The path is echoed in the config: a rounds key, control characters and
    # non-ASCII text.
    out = tmp_path / 'x "rounds": [\x01\t\u00fc\u2192\n.json'

    def artifact():
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        return out.read_bytes()

    written = artifact()
    monkeypatch.setattr(cli, "render_report", _reference_report)
    assert artifact() == written


def test_session_artifact_on_stdout_matches_the_generic_encoder(tmp_path, monkeypatch, capsys):
    config = _write(tmp_path, _session_doc("actual", "trials3", trials=1))
    assert main(["run", "--config", config, "--out", "-"]) == 0
    written = capsys.readouterr().out
    assert json.loads(written)["results"]["per_trial"][0]["transcript"]["n_detected"] == 16
    monkeypatch.setattr(cli, "render_report", _reference_report)
    assert main(["run", "--config", config, "--out", "-"]) == 0
    assert capsys.readouterr().out == written


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_artifacts_written_in_slices_over_a_longer_file_are_the_rendered_text(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(cli, "_WRITE_CHUNK", 7)
    rendered = []

    def recorded(*args):
        rendered.append(render_report(*args))
        return rendered[-1]

    monkeypatch.setattr(cli, "render_report", recorded)
    config = _write(tmp_path, _session_doc("actual", "eta0.8", output_format=fmt))
    out = tmp_path / "\u00fc\u2192.out"
    out.write_text("an older, longer artifact\n" * 4000)
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    (text,) = rendered
    assert len(text) > 7 * 5  # several slices
    assert out.read_bytes() == text.encode("utf-8")


def test_artifact_to_a_device_is_not_truncated(tmp_path):
    config = _write(tmp_path, _session_doc("virtual", "lossy"))
    assert main(["run", "--config", config, "--out", os.devnull]) == 0


def test_rounds_marker_in_config_text_is_not_spliced(monkeypatch):
    # The first two salts' markers are strings of the envelope, so both are
    # skipped.
    path, other = (cli._ROUNDS_MARKER.format(salt) for salt in range(2))
    doc = dict(_session_doc("virtual", "eta0.8"), output_path=path)
    envelopes = []
    monkeypatch.setattr(cli, "emit_report", lambda envelope, *rest: envelopes.append(envelope))
    assert run(config_from_dict(doc)) == 0
    (envelope,) = envelopes
    transcript = envelope["results"]["per_trial"][0]["transcript"]
    # Two transcripts at different depths, and the marker beside them.
    envelope = {**envelope, "more": [{"marker": other, "again": transcript}], "text": path[1:]}
    text = render_report(envelope, [], [], "json")
    assert text == _reference_report(envelope, [], [], "json")
    assert json.loads(text)["config"]["output_path"] == path


def test_render_report_still_refuses_unknown_objects():
    with pytest.raises(TypeError, match="not JSON serializable"):
        render_report({"x": object()}, [], [], "json")


# -- keyrate sweep ----------------------------------------------------------------


def _sweep_cfg(axis, values, **params):
    base = dict(
        p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
        n_det_ter=200_000, eps_s=1e-4, eps_c=1e-6, delta=0.015,
    )
    base.update(params)
    return RunConfig(
        params=ProtocolParams(**base),
        strategy=Depolarizing(0.04),
        mode="keyrate-sweep",
        sweep=SweepSpec(axis, tuple(values)),
    )


def test_delta_sweep_has_an_interior_maximum():
    # small delta exhausts the smoothing budget, large delta swamps the
    # entropy term; the optimum sits strictly inside the grid
    values = [0.002 * k for k in range(1, 26)]
    rows = keyrate_rows(_sweep_cfg("delta", values))
    ls = [r["l"] for r in rows]
    best = ls.index(max(ls))
    assert 0 < best < len(ls) - 1
    assert max(ls) > 0
    assert ls[0] == 0 and ls[-1] == 0
    assert rows[0]["terms"] is None  # budget exhausted, not merely floored


def test_n_sweep_is_monotone_upward():
    rows = keyrate_rows(_sweep_cfg("n_det_ter", [100_000, 200_000, 400_000]))
    ls = [r["l"] for r in rows]
    assert ls == sorted(ls)
    assert ls[-1] > 0


def test_depolarizing_sweep_decreases_with_noise():
    rows = keyrate_rows(_sweep_cfg("depolarizing_p", [0.0, 0.01, 0.02, 0.04]))
    ls = [r["l"] for r in rows]
    assert ls[0] > ls[1] > ls[2] > ls[3] > 0


def test_q_ratio_sweep_covers_asymmetric_bases():
    rows = keyrate_rows(_sweep_cfg("q_ratio", [1.0, 4.0, 16.0]))
    assert all(r["l"] >= 0 for r in rows)
    # ratio 1 reproduces the symmetric case
    sym = keyrate_rows(_sweep_cfg("delta", [0.015]))[0]
    assert rows[0]["l"] == sym["l"]


def test_sweep_value_validation():
    with pytest.raises(ValidationError, match="integer"):
        keyrate_rows(_sweep_cfg("n_det_ter", [1000.5]))
    with pytest.raises(ValidationError, match="in \\[0, 1\\]"):
        keyrate_rows(_sweep_cfg("depolarizing_p", [1.5]))
    cfg = _sweep_cfg("delta", [0.01])
    bad = RunConfig(**{**cfg.__dict__, "strategy": IdentityLossy(0.0)})
    assert keyrate_rows(bad)[0]["l"] >= 0  # identity is allowed
    from qkd_sift.adversary import InterceptResend

    with pytest.raises(ValidationError, match="keyrate-sweep requires"):
        RunConfig(**{**cfg.__dict__, "strategy": InterceptResend()})
    # A config of another mode is held to the sweep's rules too.
    other = dataclasses.replace(cfg, mode="estimation", strategy=InterceptResend())
    with pytest.raises(ValidationError, match="keyrate-sweep requires"):
        keyrate_rows(other)


# -- main() ------------------------------------------------------------------------


def test_main_run_and_thread_count_determinism(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path, dict(MINIMAL, trials=6, seed=11))
    out = str(tmp_path / "report.json")
    outputs = []
    for workers in ("1", "2", "8"):
        monkeypatch.setenv("QKD_SIFT_THREADS", workers)
        assert main(["run", "--config", cfg_path, "--out", out]) == 0
        outputs.append((tmp_path / "report.json").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("mode", ["actual", "virtual", "estimation"])
def test_repeated_runs_of_one_config_build_laws_once(tmp_path, monkeypatch, mode):
    # Round laws are memoized by the value of the (POVM, op) pair, so the
    # fresh POVM and strategy that each run builds reuse the laws of run 1.
    protocol._actual_law.cache_clear()
    protocol._virtual_law.cache_clear()
    builds = []
    for name in ("channel_branches", "qubit_channel_branches"):
        branches = getattr(protocol, name)

        def counted(*args, branches=branches):
            builds.append(args)
            return branches(*args)

        monkeypatch.setattr(protocol, name, counted)
    strategy = {"kind": "depolarizing", "p": 0.07, "p_loss": 0.1}
    cfg_path = _write(tmp_path, dict(MINIMAL, mode=mode, eta_det=0.8, strategy=strategy))
    out = str(tmp_path / "report.json")
    per_run = []
    for _ in range(5):
        before = len(builds)
        assert main(["run", "--config", cfg_path, "--out", out]) == 0
        per_run.append(len(builds) - before)
    assert per_run[0] > 0
    assert per_run[1:] == [0, 0, 0, 0]


def test_main_flag_overrides(tmp_path):
    cfg_path = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "o.csv")
    assert (
        main(
            [
                "run", "--config", cfg_path, "--seed", "77",
                "--trials", "2", "--out", out, "--format", "csv",
            ]
        )
        == 0
    )
    rows = list(csv.reader(io.StringIO((tmp_path / "o.csv").read_text())))
    assert len(rows) == 3  # header + 2 trials


def test_main_sweep_subcommand(tmp_path):
    doc = dict(
        MINIMAL,
        mode="estimation",  # sweep subcommand retargets the mode
        sweep={"axis": "delta", "values": [0.005, 0.01, 0.02]},
        output_format="csv",
    )
    doc["params"] = dict(doc["params"], n_det_ter=100_000, eps_s=1e-4, eps_c=1e-6)
    doc["strategy"] = {"kind": "depolarizing", "p": 0.06}
    cfg_path = _write(tmp_path, doc)
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "sweep.csv").read_text())))
    assert rows[0] == ["delta", "eta", "e_ph_bar", "l"]
    assert len(rows) == 4


def test_main_sweep_without_spec_fails_cleanly(tmp_path, capsys):
    cfg_path = _write(tmp_path, MINIMAL)
    assert main(["sweep", "--config", cfg_path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["schema"] == SCHEMA_TAG
    assert err["error"]["type"] == "ValidationError"


def test_main_reports_config_errors_as_json(tmp_path, capsys):
    cfg_path = _write(tmp_path, dict(MINIMAL, mode="bias"))  # missing rule
    assert main(["run", "--config", cfg_path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"
    assert "rule" in err["error"]["message"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_main_rejects_a_non_finite_delta(tmp_path, capsys, token):
    # Python's json module reads the NaN token and overflows 1e400 to inf; the
    # schema allows only finite numbers.
    text = json.dumps(dict(MINIMAL, mode="coverage", trials=2))
    text = text.replace('"delta": 0.05', f'"delta": {token}')
    assert token in text
    cfg_path = _write(tmp_path, text)
    assert main(["run", "--config", cfg_path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["schema"] == SCHEMA_TAG
    assert err["error"]["type"] == "ParseError"
    assert token in err["error"]["message"]


_BIAS = dict(MINIMAL, mode="bias", rule={"kind": "count_detected", "n": 2})
_SWEEP = dict(MINIMAL, mode="keyrate-sweep", sweep={"axis": "n_det_ter", "values": [8, 16]})


def _with(base, key, **fields):
    return dict(base, **{key: {**base.get(key, {}), **fields}})


_DELTA_SWEEP = dict(_SWEEP, sweep={"axis": "delta", "values": [0.01, 0.02]})


# Each config once exited 0 with an artifact or died with a traceback.
_MALFORMED = {
    "n_det_ter-true": (_with(MINIMAL, "params", n_det_ter=True), "ValidationError"),
    "n_det_ter-float": (_with(MINIMAL, "params", n_det_ter=16.0), "ValidationError"),
    "max_rounds-true": (_with(MINIMAL, "params", max_rounds=True), "ValidationError"),
    "batch_size-true": (_with(MINIMAL, "params", batch_size=True), "ValidationError"),
    "trials-true": (dict(MINIMAL, trials=True), "ValidationError"),
    "seed-false": (dict(MINIMAL, seed=False), "ValidationError"),
    "bias_max_rounds-true": (dict(_BIAS, bias_max_rounds=True), "ValidationError"),
    "count_detected-2.5": (_with(_BIAS, "rule", n=2.5), "ValidationError"),
    "count_detected-true": (_with(_BIAS, "rule", n=True), "ValidationError"),
    "count_per_basis-true": (
        dict(_BIAS, rule={"kind": "count_per_basis", "n_z_req": True, "n_x_req": 1}),
        "ValidationError",
    ),
    "count_per_basis-1.5": (
        dict(_BIAS, rule={"kind": "count_per_basis", "n_z_req": 1, "n_x_req": 1.5}),
        "ValidationError",
    ),
    "window-2.5": (
        dict(MINIMAL, strategy={"kind": "adaptive_basis_tracker", "window": 2.5}),
        "ParseError",
    ),
    "window-true": (
        dict(MINIMAL, strategy={"kind": "adaptive_basis_tracker", "window": True}),
        "ParseError",
    ),
    "sweep-strings": (
        dict(_SWEEP, sweep={"axis": "delta", "values": ["0.01", "0.02"]}),
        "ValidationError",
    ),
    "sweep-true": (_with(_SWEEP, "sweep", values=[True, 2]), "ValidationError"),
    "sweep-1e400": (json.dumps(_SWEEP).replace("[8, 16]", "[1e400]"), "ParseError"),
    # f_ec * n_z * h(e) overflows, and math.ceil raised OverflowError.
    "sweep-f_ec-1e308": (
        _with(dict(_SWEEP, strategy={"kind": "depolarizing", "p": 0.1}), "params", f_ec=1e308),
        "DomainError",
    ),
    # round(n * q_z) raised OverflowError for a round count past the float range.
    "n_det_ter-10**400": (_with(_DELTA_SWEEP, "params", n_det_ter=10**400), "ValidationError"),
    "delta-true": (_with(MINIMAL, "params", delta=True), "ValidationError"),
    "f_ec-true": (_with(MINIMAL, "params", f_ec=True), "ValidationError"),
    "p_z_a-true": (_with(MINIMAL, "params", p_z_a=True), "ValidationError"),
    "p_z_a-string": (_with(MINIMAL, "params", p_z_a="0.5"), "ValidationError"),
    "eta_det-true": (dict(MINIMAL, eta_det=True), "ValidationError"),
    "p_loss-false": (
        dict(MINIMAL, strategy={"kind": "identity_lossy", "p_loss": False}),
        "ParseError",
    ),
    "depolarizing-p-true": (
        dict(MINIMAL, strategy={"kind": "depolarizing", "p": True}),
        "ParseError",
    ),
    "bias_gain-true": (
        dict(MINIMAL, strategy={"kind": "adaptive_basis_tracker", "bias_gain": True}),
        "ParseError",
    ),
    "kind-list": (dict(MINIMAL, strategy={"kind": ["identity_lossy"]}), "ParseError"),
    "kind-object": (dict(MINIMAL, strategy={"kind": {}}), "ParseError"),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_main_refuses_a_malformed_number(tmp_path, capsys, case):
    doc, error = _MALFORMED[case]
    out = tmp_path / "out.json"
    assert main(["run", "--config", _write(tmp_path, doc), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["schema"] == SCHEMA_TAG
    assert err["error"]["type"] == error
    assert not out.exists()


def test_round_counts_a_float_holds_still_write_an_artifact(tmp_path):
    out = tmp_path / "out.json"
    doc = _with(_DELTA_SWEEP, "params", n_det_ter=10**306)
    assert main(["run", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]["rows"]
    assert [row["l"] > 0 for row in rows] == [True, True]
    largest = 2**1024 - 2**970 - 1  # float() rounds one more past the range
    with pytest.raises(ValidationError, match="n_det_ter must fit a float"):
        _sweep_cfg("delta", [0.01], n_det_ter=largest + 1)
    assert _sweep_cfg("delta", [0.01], n_det_ter=largest).params.n_det_ter == largest


def test_a_sweep_with_an_unknown_field_is_a_parse_error(tmp_path, capsys):
    doc = _with(_SWEEP, "sweep", step=1)
    with pytest.raises(ParseError, match="^unknown field 'step' in sweep$"):
        config_from_dict(doc)
    out = tmp_path / "out.json"
    assert main(["run", "--config", _write(tmp_path, doc), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ParseError"
    assert not out.exists()


def _closed_objects(schema, name="config"):
    """The objects of ``schema`` that refuse unknown fields, by name: a
    property's name, or the ``kind`` of a tagged alternative."""
    if schema.get("additionalProperties") is False:
        yield name
    for key, sub in schema.get("properties", {}).items():
        yield from _closed_objects(sub, key)
    for sub in schema.get("oneOf", ()):
        yield from _closed_objects(sub, sub["properties"]["kind"]["const"])


# A valid config holding each closed object, and the keys that lead to it.
_CLOSED_EXAMPLES = {
    "config": (MINIMAL, ()),
    "params": (MINIMAL, ("params",)),
    "identity_lossy": (MINIMAL, ("strategy",)),
    "depolarizing": (dict(MINIMAL, strategy={"kind": "depolarizing", "p": 0.1}), ("strategy",)),
    "intercept_resend": (dict(MINIMAL, strategy={"kind": "intercept_resend"}), ("strategy",)),
    "adaptive_basis_tracker": (
        dict(MINIMAL, strategy={"kind": "adaptive_basis_tracker"}),
        ("strategy",),
    ),
    "count_detected": (_BIAS, ("rule",)),
    "count_per_basis": (
        dict(_BIAS, rule={"kind": "count_per_basis", "n_z_req": 1, "n_x_req": 1}),
        ("rule",),
    ),
    "sweep": (_SWEEP, ("sweep",)),
}


@pytest.mark.parametrize("name", sorted(set(_closed_objects(_read_schema()))))
def test_every_object_the_schema_closes_refuses_an_unknown_field(name):
    doc, keys = _CLOSED_EXAMPLES[name]
    config_from_dict(doc)
    doc = json.loads(json.dumps(doc))
    target = functools.reduce(lambda obj, key: obj[key], keys, doc)
    if "kind" in target:
        assert target["kind"] == name
    target["unknown_field"] = 1
    with pytest.raises(ParseError, match="unknown_field"):
        config_from_dict(doc)


@pytest.mark.parametrize("kind", ["descriptor", "null", "list"])
def test_main_refuses_an_output_path_that_is_no_string(tmp_path, capsys, kind):
    # open() takes an int as a file descriptor: the artifact went to that
    # descriptor, which was then closed.  A pipe stands in for it.
    read_end, write_end = os.pipe()
    path = {"descriptor": write_end, "null": None, "list": ["out.json"]}[kind]
    with os.fdopen(read_end, "rb") as pipe:
        try:
            assert main(["run", "--config", _write(tmp_path, dict(MINIMAL, output_path=path))]) == 1
        finally:
            with contextlib.suppress(OSError):  # closed already if main wrote to it
                os.close(write_end)
        assert pipe.read() == b""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "ValidationError"


def test_main_refuses_the_relation_residual_without_x_rounds(tmp_path, capsys):
    # p_z_a = 1 makes q_x = 0, and the residual divides by q_x.
    out = tmp_path / "out.json"
    doc = _with(MINIMAL, "params", p_z_a=1.0)
    assert main(["run", "--config", _write(tmp_path, doc), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "DomainError"
    assert not out.exists()


def test_main_reports_a_nul_byte_in_the_output_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = dict(MINIMAL, output_path="out\u0000x.json")
    assert main(["run", "--config", _write(tmp_path, doc)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "IoError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "argv",
    [["run", "--config", "cfg\u0000.json"], ["bias-demo", "--out", "demo\u0000.json"]],
    ids=["config", "bias-demo-out"],
)
def test_main_reports_a_nul_byte_in_a_path_argument(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "IoError"
    assert list(tmp_path.iterdir()) == []


def test_main_reports_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(json.dumps(MINIMAL).encode().replace(b'"estimation"', b'"estimation\xff"'))
    assert main(["run", "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ParseError"


def test_main_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "IoError"


def test_verify_subcommand_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out.replace("0 of", "")  # summary line says 0 failed
    assert out.count("PASS") >= 9


def test_bias_demo_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_path = str(tmp_path / "demo.json")
    assert main(["bias-demo", "--out", out_path]) == 0
    printed = capsys.readouterr().out
    assert "CountDetected(3)" in printed
    assert "CountPerBasis(1,1)" in printed
    written = (tmp_path / "demo.json").read_text()
    doc = json.loads(written)
    assert doc["results"]["count_detected"]["tv_from_uniform"] == 0.0
    assert doc["results"]["count_per_basis"]["dependence_detected"] is True
    # "-" means stdout, as for `run --out -`: the report follows the table,
    # and no file is made.
    assert main(["bias-demo", "--out", "-"]) == 0
    assert capsys.readouterr().out == printed + written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.json"]


def test_installed_entry_point_runs(tmp_path):
    cfg_path = _write(tmp_path, dict(MINIMAL, trials=1))
    out = str(tmp_path / "cli.json")
    proc = subprocess.run(
        [sys.executable, "-m", "qkd_sift.cli", "run", "--config", cfg_path, "--out", out],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "cli.json").read_text())["schema"] == SCHEMA_TAG


# -- the output docs describe the bytes ----------------------------------------


def _output_docs():
    """Each section of docs/output-formats.md by its heading: the field names
    of its ``| field | meaning |`` table in order, and its ``CSV column
    order:`` line as a list of columns, or None."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "output-formats.md")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    sections = {}
    for block in re.split(r"^#+ ", text, flags=re.M)[1:]:
        heading, _, body = block.partition("\n")
        first_cells = re.findall(r"^\| ([^|]+) \|", body, flags=re.M)
        fields = [name for cell in first_cells for name in re.findall(r"`([^`]+)`", cell)]
        columns = re.search(r"CSV column order:\s*`([^`]*)`", body)
        sections[heading] = fields, columns and columns.group(1).split(",")
    return sections


_SMALL_RUNS = {
    "actual": dict(MINIMAL, mode="actual"),
    "virtual": dict(MINIMAL, mode="virtual"),
    "estimation": MINIMAL,
    "coverage": dict(MINIMAL, mode="coverage", trials=5),
    "bias": _BIAS,
    "keyrate-sweep": _SWEEP,
}


def _documented(mode, results):
    """The objects of a mode's ``results`` that the docs list, by the heading
    of their table, the mode's own section first."""
    if mode in ("actual", "virtual", "estimation"):
        assert list(results) == ["per_trial"]
        record = results["per_trial"][0]
        if mode == "estimation":
            return {"Mode: `estimation`": record}
        return {
            "Mode: `actual` and `virtual`": record,
            "`transcript`": record["transcript"],
            "`sifted`": record["sifted"],
        }
    if mode == "keyrate-sweep":
        return {"Mode: `keyrate-sweep`": results, "`rows`": results["rows"][0]}
    return {f"Mode: `{mode}`": results}


@pytest.mark.parametrize("mode", MODES)
def test_the_output_docs_list_the_fields_and_columns_of_every_mode(tmp_path, mode):
    docs = _output_docs()
    cfg_path = _write(tmp_path, _SMALL_RUNS[mode])
    text = {}
    for fmt in ("json", "csv"):
        out = str(tmp_path / fmt)
        assert main(["run", "--config", cfg_path, "--out", out, "--format", fmt]) == 0
        with open(out, encoding="utf-8") as f:
            text[fmt] = f.read()
    artifact = json.loads(text["json"])
    assert list(artifact) == docs["JSON envelope"][0]
    documented = _documented(mode, artifact["results"])
    for heading, obj in documented.items():
        assert list(obj) == docs[heading][0], heading
    columns = docs[next(iter(documented))][1]
    sweep = artifact["config"].get("sweep")
    columns = [sweep["axis"] if c == "<axis>" else c for c in columns]
    assert next(csv.reader(io.StringIO(text["csv"]))) == columns


def test_the_output_docs_list_the_fields_of_the_error_record(tmp_path, capsys):
    assert main(["run", "--config", _write(tmp_path, "[]")]) == 1
    record = json.loads(capsys.readouterr().err)
    fields = []
    for key, value in record.items():
        fields += [f"{key}.{sub}" for sub in value] if isinstance(value, dict) else [key]
    assert fields == _output_docs()["Error record"][0]
