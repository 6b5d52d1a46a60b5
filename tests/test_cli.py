import datetime
import gc
import io
import json
import math
import subprocess
import sys
import threading
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nosignal
import nosignal.cli
import nosignal.gridsolver
import nosignal.protocol
from nosignal import (
    BoundaryLeakError,
    GridSpec,
    NormDriftError,
    SGConfig,
    asymptotic_error_fraction,
    branch_table,
)
from nosignal.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    SWEEP_COLUMNS,
    RunConfig,
    _FieldText,
    _grid_resolution,
    _json_text,
    _records_text,
    load_config,
    main,
    workflow_oracle,
    workflow_sweep,
    workflow_verify,
    write_sweep_csv,
)
from nosignal.protocol import ProtocolResult
from conftest import fresh_env, fresh_rusage


DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def write_config(path: Path, **overrides) -> str:
    cfg = {
        "schema_version": 1,
        "sg": {
            "mass": 1.0,
            "sigma0": 1.0,
            "moment": 1.0,
            "gradient": 210.4,
            "bias": 0.0,
            "transit": 0.002,
        },
        "omega_list": [math.pi / 2],
        "theta_list": [0.0, math.pi / 3, math.pi / 2],
        "model": "projected",
        "samples": 10_000,
        "root_seed": 11,
        "output_dir": str(path.parent / "runs"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def write_default_config(tmp_path: Path, times=None, **sg) -> str:
    """configs/default.json with some sg values and oracle times replaced."""
    payload = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
    payload["sg"].update(sg)
    if times is not None:
        payload["oracle"]["times"] = times
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    return str(cfg)


def run_default_oracle(tmp_path: Path, times=None, **sg) -> dict:
    """oracle.json of configs/default.json with some sg values and times replaced."""
    cfg = write_default_config(tmp_path, times, **sg)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
    return json.loads((out / "oracle.json").read_text())


def run_script(script: str, *args: str):
    """Run a Python script in a fresh interpreter; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=fresh_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestConfigHandling:
    @pytest.mark.parametrize("command", ["verify", "sweep", "estimate", "oracle"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--seed SEED root seed override (a non-negative integer)" in help_text

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "schema_version": 1,\n  "oops"\n}', encoding="utf-8")
        code = main(["verify", "--config", str(bad)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        payload = json.loads(cfg.read_text())
        payload["samples_per_axis"] = 10
        cfg.write_text(json.dumps(payload))
        code = main(["verify", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert "samples_per_axis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"model": "exact"}, "model"),
            ({"omega_list": [math.inf]}, "omega_list[0]"),
            ({"sg": {"transit": math.nan}}, "sg.transit"),
            ({"tolerances": {"residual": -1}}, "tolerances.residual"),
            ({"oracle": {"points": 1000}}, "oracle.points"),
            ({"oracle": {"extent": 0}}, "oracle.extent"),
            ({"oracle": {"dt": -1e-3}}, "oracle.dt"),
        ],
        ids=["model", "omega-infinity", "transit-nan", "negative-tolerance",
             "oracle-points", "oracle-extent", "oracle-dt"],
    )
    def test_bad_value_rejected(self, tmp_path, capsys, overrides, where):
        # json.dumps writes nan and inf as the NaN and Infinity that json.loads reads;
        # verify never runs the oracle grid but still rejects a bad one
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and where in err

    @pytest.mark.parametrize("section", ["sg", "tolerances", "oracle"])
    @pytest.mark.parametrize(
        "value", [[], None, "x", 1], ids=["array", "null", "string", "number"]
    )
    def test_non_object_section_rejected(self, tmp_path, capsys, section, value):
        # "sg": [] ended in a "'list' object is not a mapping" traceback, exit 1
        cfg = write_config(tmp_path / "cfg.json", **{section: value})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {section} must be a JSON object\n"
        assert not out.exists()

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        # a Latin-1 file ended in a UnicodeDecodeError traceback, exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes('{"schema_version": 1, "output_dir": "r\u00e9"}'.encode("latin-1"))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read config {cfg}: 'utf-8' codec can't decode"
        )
        assert not out.exists()

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        # JSON nested past the recursion limit ended in a RecursionError
        # traceback, exit 1
        cfg = tmp_path / "cfg.json"
        depth = 100_000
        cfg.write_text(
            '{"schema_version": 1, "model": ' + "[" * depth + "]" * depth + "}",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {cfg}: JSON nested too deeply\n"
        assert not out.exists()

    def test_oversized_integer_is_a_config_error(self, tmp_path, capsys):
        # an integer literal past int's 4300-digit limit made json.loads
        # raise a plain ValueError: a traceback, exit 1
        cfg = tmp_path / "cfg.json"
        text = json.dumps(json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8")))
        cfg.write_text(
            text.replace('"samples": 1000000', '"samples": ' + "9" * 5000),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert len(err) < 200
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"model": json.loads("[" * 300 + '"pure"' + "]" * 300)},
                "model must be one of ('pure', 'projected'), got a JSON array",
            ),
            (
                {"samples": -int("9" * 4000)},
                "samples must be a non-negative integer, got -" + "9" * 76 + "...",
            ),
        ],
        ids=["model-300-deep", "samples-4000-digits"],
    )
    def test_long_value_is_cut_in_the_message(self, tmp_path, capsys, overrides, message):
        # the whole value was echoed: a 663-character line for the model,
        # 4060 for the samples
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_wrong_schema_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", schema_version=99)
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert "schema_version" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["verify", "oracle", "sweep", "estimate"])
    def test_overflowing_derived_quantity_rejected(self, tmp_path, capsys, command):
        # every sg value is finite, but the kick moment * gradient * transit
        # overflows, and with it a; unchecked, such runs ended in an
        # AssertionError or a NaN ValueError ("density matrix not Hermitian")
        cfg = write_default_config(tmp_path, moment=1e200, gradient=1e200)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: sg: drift_ratio = 2 * moment * gradient * transit * "
            "sigma0 is not finite\n"
        )

    @pytest.mark.parametrize(
        "sg, times, code, message",
        [
            ({"sigma0": 1e200}, None, EXIT_CONFIG, "config error: sg: spreading_time "
             "= 2 mass sigma0**2 = inf is not finite and positive"),
            # spreading_time = 2e-320 is subnormal: tau = 120 / 2e-320 overflows
            ({"sigma0": 1e-160}, None, EXIT_CONFIG, "config error: sg: tau = t / "
             "spreading_time at oracle time 120 is not finite"),
            ({"gradient": 1e305, "transit": 1.0}, [1e-6], EXIT_NUMERICAL,
             "numerical failure: packet center 1e+299 at t = 1e-06 is beyond the "
             "grid's half-extent 512"),
        ],
        ids=["spreading-time-overflows", "tau-overflows", "kick-1e305"],
    )
    def test_oracle_alone_needs_a_flight_time(
        self, tmp_path, capsys, sg, times, code, message
    ):
        # oracle alone forms flight times, so it alone refuses a
        # spreading_time or a tau that is not finite.  load_config refused
        # the first and the last device for every command; verify, sweep and
        # estimate now run them (test_huge_width_runs_as_ideal_device)
        cfg = write_default_config(tmp_path, times, **sg)
        argv = ["oracle", "--config", cfg, "--out", str(tmp_path / "out")]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "estimate"])
    def test_samples_beyond_int64_rejected(self, tmp_path, capsys, command):
        # numpy's binomial takes an int64 count: 1e19 samples ended in an
        # OverflowError traceback from estimate
        cfg = write_config(tmp_path / "cfg.json", samples=10**19)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "samples" in err
        cfg = write_config(tmp_path / "cfg.json", samples=2**63 - 1)
        assert nosignal.cli.load_config(cfg).samples == 2**63 - 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["verify", "estimate"])
    def test_non_finite_injection_rejected(self, tmp_path, capsys, command, value):
        # nan ended in a "density matrix not Hermitian" traceback, inf in
        # json.dumps's "Out of range float values" one
        cfg = write_config(tmp_path / "cfg.json")
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        assert main(argv + ["--inject-violation", value]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "--inject-violation" in err

    @pytest.mark.parametrize(
        "out",
        ["a-file", "a-file/sub", "out"],
        ids=["file", "under-a-file", "data-file-is-a-directory"],
    )
    def test_unwritable_output_rejected(self, tmp_path, capsys, out):
        # a file named by --out ended in a FileExistsError or
        # NotADirectoryError traceback with exit 1
        (tmp_path / "a-file").write_text("", encoding="utf-8")
        (tmp_path / "out" / "report.json").mkdir(parents=True)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output to {tmp_path / out}: ")

    @pytest.mark.parametrize("command", ["verify", "sweep", "estimate"])
    @pytest.mark.parametrize(
        "sg",
        [{"sigma0": 1e50}, {"sigma0": 1e80}, {"moment": 1e150}, {"transit": 1e150},
         {"sigma0": 1e100}, {"sigma0": 1e200}, {"gradient": 1e305, "transit": 1.0}],
        ids=["sigma0-1e50", "sigma0-1e80", "moment-1e150", "transit-1e150",
             "sigma0-1e100", "sigma0-1e200", "kick-1e305"],
    )
    def test_huge_width_runs_as_ideal_device(self, tmp_path, capsys, command, sg):
        # at phase_settle_tau r = a tau / sqrt(1 + tau^2) is about
        # a = 2 kick sigma0 >= 8e49, so the coherence envelope exp(-r^2 / 2)
        # and E = Phi(-r) are 0: an ideal device.  From sigma0 1e80 on, the
        # packet variance sigma0**2 (1 + tau**2) there overflows, which the
        # (a, tau) forms never compute.  load_config refused the last three,
        # whose settle time t or spreading_time overflows; from a ~ 5.6e297
        # on (kick-1e305) tau itself is capped at the largest float
        cfg = write_default_config(tmp_path, **sg)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == {
            "verify": "PASS: max |residual| = 5.551e-17, phase-checked cells: 0/52 "
                      "(phase checks skipped: no branch carries a phase)\n",
            "sweep": f"wrote 52 rows to {out / 'sweep.csv'}\n",
            "estimate": "0/0 bounds consistent with zero\n",
        }[command]
        if command == "sweep":
            rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
            assert {row.split(",")[2] for row in rows} == {"0.0"}  # Es


class TestVerify:
    def test_passes_and_reports(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["max_abs_residual"] < 1e-9
        assert report["max_phase_sum_dev"] < 1e-9
        assert len(report["cells"]) == 3
        assert (out / "run_meta.json").exists()

    @pytest.mark.parametrize(
        "gradient, expected",
        [
            (210.4, "phase-checked cells: 3/3"),
            # an ideal device: no post-selected spin carries a phase, yet it passes
            (1e6, "phase-checked cells: 0/3 (phase checks skipped"),
        ],
    )
    def test_summary_line_counts_phase_checked_cells(
        self, tmp_path, capsys, gradient, expected
    ):
        cfg = write_config(tmp_path / "cfg.json", sg={"gradient": gradient})
        argv = ["verify", "--config", cfg, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert line.startswith("PASS: max |residual| = ")
        assert expected in line and "None" not in line

    def test_heavy_particle_drift_does_not_overflow(self, tmp_path, capsys):
        # at mass 1.5e302 the drift dp t / m at the settle time is finite
        # but dp t overflows; computed in that order it gave Es = 0 and no
        # phase, a PASS with no phase checked.  Es depends on 2 dp sigma0 only,
        # so mass 1e300 (no overflow) must give the same Es.
        reports = {}
        for mass in (1e300, 1.5e302):
            cfg = write_default_config(tmp_path, mass=mass, sigma0=1e-5, gradient=5e7)
            out = tmp_path / f"mass{mass:g}"
            assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
            assert "phase-checked cells: 52/52" in capsys.readouterr().out
            reports[mass] = json.loads((out / "report.json").read_text())["cells"]
        for light, heavy in zip(reports[1e300], reports[1.5e302]):
            assert abs(heavy["Es"] - light["Es"]) <= 1e-12

    def test_degenerate_device_still_passes_with_warning(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            sg={
                "mass": 1.0,
                "sigma0": 1.0,
                "moment": 1.0,
                "gradient": 0.0,
                "bias": 0.0,
                "transit": 0.002,
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert any("gradient" in w for w in report["warnings"])

    def test_pure_model_also_passes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", model="pure")
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True and report["model"] == "pure"

    @pytest.mark.parametrize("inject, code", [(0.0, EXIT_OK), (0.01, EXIT_CHECK_FAILED)])
    def test_nonzero_bias(self, tmp_path, inject, code):
        # the bias turns both phases alike: phi_+ - phi_- = pi still holds,
        # phi_+ + phi_- = pi does not
        cfg = write_config(tmp_path / "cfg.json", sg={"bias": 100.0})
        out = tmp_path / "out"
        argv = ["verify", "--config", cfg, "--out", str(out)]
        assert main(argv + ["--inject-violation", str(inject)]) == code
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is (code == EXIT_OK)
        if inject == 0.0:
            assert report["max_phase_sum_dev"] < 1e-9

    def test_injected_violation_fails(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        code = main(
            ["verify", "--config", cfg, "--out", str(out), "--inject-violation", "0.1"]
        )
        assert code == EXIT_CHECK_FAILED
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["max_abs_cos_sum"] > 0.05

    @pytest.mark.parametrize("model", ["projected", "pure"])
    def test_injection_moves_only_the_minus_branch(
        self, tmp_path, monkeypatch, model
    ):
        # injected cells are Born probabilities of the configured model, like
        # the uninjected ones: no cell comes from the closed form, and the
        # plus branch and the aligned setting keep their bits
        # (patched on cli, which imported the name, and on protocol, where a
        # call from inside the module would look it up)
        calls = []
        closed_form_rows = nosignal.protocol.closed_form_rows

        def counted(*args, **kwargs):
            calls.append(args)
            return closed_form_rows(*args, **kwargs)

        for module in (nosignal.cli, nosignal.protocol):
            monkeypatch.setattr(module, "closed_form_rows", counted)
        cfg = write_default_config(tmp_path)
        payload = json.loads(Path(cfg).read_text())
        payload["model"] = model
        Path(cfg).write_text(json.dumps(payload))
        reports = {}
        for inject, code in (("0", EXIT_OK), ("0.1", EXIT_CHECK_FAILED)):
            out = tmp_path / f"out-{inject}"
            argv = ["verify", "--config", cfg, "--out", str(out)]
            assert main(argv + ["--inject-violation", inject]) == code
            reports[inject] = json.loads((out / "report.json").read_text())
        assert calls == []
        plain, injected = reports["0"]["cells"], reports["0.1"]["cells"]
        assert len(plain) == len(injected) == 52
        for a, b in zip(plain, injected):
            for key in ("pA_plus", "PB_plus", "PB_minus", "PB_total"):
                assert a[key] == b[key], key
        assert reports["0.1"]["passed"] is False


class TestSweep:
    def test_rows_match_closed_forms(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "omega", "theta", "Es", "phi_plus", "phi_minus", "pA_plus",
            "pA_minus", "PA_total", "PB_plus", "PB_minus", "PB_total",
            "residual", "model",
        ]
        assert len(lines) == 4
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            es, theta = float(row["Es"]), float(row["theta"])
            # the paper's aligned- and rotated-setting totals
            base = 1 + (1 - 2 * es) * math.cos(theta)
            assert float(row["PB_total"]) == pytest.approx(0.25 * base, abs=1e-12)
            cos_sum = math.cos(float(row["phi_plus"])) + math.cos(
                float(row["phi_minus"])
            )
            coherence = (
                math.sqrt(es * (1 - es))
                * math.sin(float(row["omega"]))
                * math.sin(theta)
                * cos_sum
            )
            assert float(row["PA_total"]) == pytest.approx(
                0.25 * (base + coherence), abs=1e-12
            )

    def test_aligned_theta_row_has_zero_residual(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        lines = (out / "sweep.csv").read_text().splitlines()
        theta0 = [l for l in lines[1:] if l.split(",")[1] == "0.0"]
        assert theta0 and all(row.split(",")[11] == "0.0" for row in theta0)

    def test_ideal_device_residual_column_is_zero(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            sg={
                "mass": 1.0,
                "sigma0": 1.0,
                "moment": 1.0,
                "gradient": 10000.0,
                "bias": 0.0,
                "transit": 0.002,
            },
        )
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        lines = (out / "sweep.csv").read_text().splitlines()
        assert all(l.split(",")[11] == "0.0" for l in lines[1:])
        assert all(l.split(",")[2] == "0.0" for l in lines[1:])  # Es underflows

    # the field-by-field writer the cached one replaced
    @staticmethod
    def reference_csv(rows) -> str:
        def field(value) -> str:
            if value is None:
                return ""
            if isinstance(value, str):
                return value
            return repr(float(value))

        lines = [",".join(SWEEP_COLUMNS)]
        lines += [",".join(field(value) for value in row) for row in rows]
        return "\n".join(lines) + "\n"

    def test_rows_are_protocol_results_in_column_order(self):
        rows = workflow_sweep(load_config(str(DEFAULT_CONFIG))).payload
        assert len(rows) == 52
        assert all(type(row) is ProtocolResult for row in rows)

    def test_writer_matches_reference_on_mixed_rows(self, tmp_path):
        # 0.0 == -0.0 == 0 as dict keys, so zeros are kept by sign; an int
        # and its equal float write the same text
        rows = [
            (-0.0, 0.0, None, 1, 1.0, 0, -0.0, 0.5, 0.5, -0.5, 3, 1e-300, "pure"),
            (0.0, -0.0, 0.5, None, -1, 1.0, 0.0, 0, 0.5, 3.0, -0.5, -1e-300, "pure"),
            (0, -0.0, 0.5, None, None, 2**60, -0.0, 0.1, 0.1, 0.1, 0.0, 0, ""),
            (True, 0.5, -1e-300, 1e300, -1e300, 0.1 + 0.2, 0.3, 0.0, -0.0, -0.0,
             0.0, 0.5, "projected"),
        ]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        assert path.read_text(encoding="utf-8") == self.reference_csv(rows)

    @pytest.mark.parametrize(
        "model, sg",
        [
            ("projected", {}),
            ("pure", {}),
            ("projected", {"gradient": 0.0}),
            ("projected", {"gradient": 1e6}),
        ],
        ids=["default", "pure", "grad0", "grad1e6"],
    )
    def test_writer_matches_reference_on_sweep(self, tmp_path, model, sg):
        cfg = load_config(str(DEFAULT_CONFIG))
        cfg = cfg._replace(model=model, sg=cfg.sg._replace(**sg))
        rows = workflow_sweep(cfg).payload
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        assert path.read_text(encoding="utf-8") == self.reference_csv(rows)


class TestEstimate:
    def test_requires_enough_samples(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", samples=10)
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG

    def test_bound_contains_zero(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", samples=100_000)
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = [
            json.loads(l)
            for l in (out / "estimates.jsonl").read_text().splitlines()
        ]
        kinds = [l["kind"] for l in lines]
        assert kinds.count("record") == 4
        assert kinds.count("estimate") == 2
        bounds = [l for l in lines if l["kind"] == "bound"]
        assert len(bounds) == 1 and bounds[0]["consistent_with_zero"]

    def test_small_sample_interval_is_wider_but_consistent(self, tmp_path):
        widths = {}
        for n in (1000, 100_000):
            cfg = write_config(tmp_path / f"cfg{n}.json", samples=n)
            out = tmp_path / f"out{n}"
            assert main(["estimate", "--config", cfg, "--out", str(out)]) == EXIT_OK
            bound = [
                json.loads(l)
                for l in (out / "estimates.jsonl").read_text().splitlines()
                if json.loads(l)["kind"] == "bound"
            ][0]
            assert bound["consistent_with_zero"]
            widths[n] = bound["ci"][1] - bound["ci"][0]
        assert widths[1000] > widths[100_000]

    def test_injected_violation_excluded(self, tmp_path):
        # under "projected" the bound moves by the minus branch's visibility
        # |rho_ud| / sqrt(rho_uu rho_dd) times the injection
        cfg = write_config(tmp_path / "cfg.json", samples=1_000_000)
        run = nosignal.cli.load_config(cfg)
        ((_, branches),) = branch_table(run.sg, run.omega_list).rotated
        (uu, _), (du, dd) = branches[-1][1].rho.matrix
        visibility = abs(du) / math.sqrt(uu.real * dd.real)
        out = tmp_path / "out"
        code = main(
            [
                "estimate", "--config", cfg, "--out", str(out),
                "--inject-violation", "0.3",
            ]
        )
        assert code == EXIT_OK
        bound = [
            json.loads(l)
            for l in (out / "estimates.jsonl").read_text().splitlines()
            if json.loads(l)["kind"] == "bound"
        ][0]
        assert not bound["consistent_with_zero"]
        assert bound["point"] == pytest.approx(visibility * 0.3, abs=0.01)

    def test_injection_matches_verify(self, tmp_path):
        # one negative control: under "pure" estimate's minus-beam truth is
        # the phase verify moved the minus branch to
        cfg = write_default_config(tmp_path)
        payload = json.loads(Path(cfg).read_text())
        payload["model"] = "pure"
        Path(cfg).write_text(json.dumps(payload))
        inject = ["--inject-violation", "0.1"]
        out_v, out_e = tmp_path / "verify", tmp_path / "estimate"
        argv = ["--config", cfg, "--out"]
        assert main(["verify", *argv, str(out_v), *inject]) == EXIT_CHECK_FAILED
        assert main(["estimate", *argv, str(out_e), *inject]) == EXIT_OK
        phi_minus = {
            cell["omega"]: cell["phi_minus"]
            for cell in json.loads((out_v / "report.json").read_text())["cells"]
        }
        lines = (out_e / "estimates.jsonl").read_text().splitlines()
        truths = [
            line
            for line in map(json.loads, lines)
            if line["kind"] == "estimate" and line["beam"] == "minus"
        ]
        assert len(truths) == len(phi_minus) == 4
        for line in truths:
            assert line["truth"]["phase_on_0_pi"] == pytest.approx(
                phi_minus[line["omega"]], abs=1e-12
            )

    def test_seed_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", samples=10_000)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["estimate", "--config", cfg, "--out", str(out_a), "--seed", "1"])
        main(["estimate", "--config", cfg, "--out", str(out_b), "--seed", "2"])
        assert (out_a / "estimates.jsonl").read_bytes() != (
            out_b / "estimates.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize("model", ["projected", "pure"])
    @pytest.mark.parametrize("gradient", [1e6, 1500.0])
    def test_near_ideal_device_is_reported_degenerate(self, tmp_path, model, gradient):
        # at 1e6 no post-selected spin keeps a phase; at 1500 (E ~ 1e-9) they
        # do, but 10^4 samples per axis see no spin-down counts
        omegas = [math.pi / 6, math.pi / 2, 0.0]
        cfg = write_config(
            tmp_path / "cfg.json",
            sg={"gradient": gradient},
            model=model,
            omega_list=omegas,
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = [
            json.loads(l)
            for l in (out / "estimates.jsonl").read_text().splitlines()
        ]
        assert [l["kind"] for l in lines] == ["degenerate"] * len(omegas)
        assert [l["omega"] for l in lines] == omegas

    def test_degenerate_omega_is_reported(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", omega_list=[0.0], samples=10_000
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = [
            json.loads(l)
            for l in (out / "estimates.jsonl").read_text().splitlines()
        ]
        assert lines[0]["kind"] == "degenerate"


class TestOracle:
    def test_free_particle_agreement(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            sg={
                "mass": 1.0,
                "sigma0": 1.0,
                "moment": 1.0,
                "gradient": 0.0,
                "bias": 0.0,
                "transit": 0.0,
            },
            oracle={
                "extent": 256.0,
                "points": 4096,
                "dt": 1e-3,
                "times": [1.0, 5.0, 15.0],
            },
        )
        out = tmp_path / "out"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "oracle.json").read_text())
        assert report["max_l1_density_diff"] < 1e-6
        assert report["max_abs_E_diff"] < 1e-9

    def test_impulsive_device_agreement(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            oracle={
                "extent": 384.0,
                "points": 8192,
                "dt": 2e-4,
                "times": [2.0, 10.0, 30.0],
            },
        )
        out = tmp_path / "out"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "oracle.json").read_text())
        assert report["max_abs_E_diff"] < 1e-3
        assert report["max_coherence_mod_diff"] < 1e-3

    def test_non_impulsive_disagreement_is_reported(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            sg={
                "mass": 1.0,
                "sigma0": 1.0,
                "moment": 1.0,
                "gradient": 0.6,
                "bias": 0.0,
                "transit": 0.7,
            },
            oracle={
                "extent": 256.0,
                "points": 4096,
                "dt": 1e-3,
                "times": [2.0, 8.0],
            },
        )
        out = tmp_path / "out"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "oracle.json").read_text())
        assert any("impulsive" in note for note in report["notes"])
        assert report["max_abs_E_diff"] > 0

    def test_large_kick_writes_finite_coherence(self, tmp_path):
        # erfi overflows past x ~ 26.6; this kick reaches x ~ 34 at t = 0.05
        report = run_default_oracle(tmp_path, gradient=12000.0, times=[0.05, 0.1])
        for row in report["comparisons"]:
            assert all(math.isfinite(v) for v in row["coherence_analytic"])

    def test_under_resolved_grid_is_noted(self, tmp_path):
        # k = 2 * 12000 * 0.002 = 48 and dx = 0.0625: (k dx/2) cot(k dx/2) = 0.106
        report = run_default_oracle(tmp_path, gradient=12000.0, times=[0.05, 0.1])
        notes = [n for n in report["notes"] if "under-resolves" in n]
        assert len(notes) == 1
        assert "= 0.106 " in notes[0] and "oracle.points >= 524288" in notes[0]

    @pytest.mark.parametrize(
        "moment, gradient", [(1.0, 1e305), (1e200, 1e200)], ids=["huge", "overflow"]
    )
    def test_unresolvable_kick_needs_no_finite_grid(self, moment, gradient):
        # k dx/2 = 1e308 / points stays above 0.055 up to 2^1023 points;
        # 1e200 * 1e200 overflows the kick itself
        sg = SGConfig(
            mass=1.0, sigma0=1.0, moment=moment, gradient=gradient, bias=0.0, transit=1.0
        )
        _, points = _grid_resolution(sg, GridSpec(extent=1024.0, points=16384, dt=2e-4))
        assert points == math.inf

    def test_default_grid_resolves_the_kick(self, tmp_path):
        # the factor there is 1 - 2.3e-4, inside criterion 4's 1e-3; and
        # E(120) is 3.3e-5 from the saturated value, inside its tol 1e-4
        report = run_default_oracle(tmp_path)
        assert report["notes"] == []
        sg = SGConfig(**json.loads(DEFAULT_CONFIG.read_text())["sg"])
        assert report["saturation"] == {
            "tol": 1e-4, "value": asymptotic_error_fraction(sg)
        }

    def test_unsaturated_last_time_is_noted(self, tmp_path):
        report = run_default_oracle(tmp_path, times=[1, 3])
        gap = report["comparisons"][-1]["E_analytic"] - report["saturation"]["value"]
        assert 0.04 < gap < 0.045
        assert report["notes"] == [
            f"largest sampled time 3 is before saturation: E_analytic there is "
            f"{gap:.3g} from the saturated value, beyond tol = 0.0001"
        ]

    def test_zero_kick_is_saturated_from_the_start(self, tmp_path):
        # E(t) is 1/2 at every t, and so is its saturated value
        report = run_default_oracle(tmp_path, gradient=0.0)
        assert report["saturation"]["value"] == 0.5
        assert {row["E_analytic"] for row in report["comparisons"]} == {0.5}
        assert report["notes"] == []

    @staticmethod
    def forbid_grid_work(monkeypatch):
        """Make the grid solver's entry point fail the test if called."""
        def no_grid_work(*args, **kwargs):
            raise AssertionError("grid work started")

        monkeypatch.setattr(nosignal.gridsolver, "grid_solve", no_grid_work)

    def test_work_bound_refuses_long_transit(self, tmp_path, capsys, monkeypatch):
        # ceil(1000 / 2e-4) = 5e6 magnet steps x 16384 points: refused before
        # any grid work, while the analytic subcommands still run the config
        self.forbid_grid_work(monkeypatch)
        cfg = write_default_config(tmp_path, transit=1000.0)
        start = time.perf_counter()
        code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG and time.perf_counter() - start < 0.5
        assert "work bound" in capsys.readouterr().err
        for command in ("verify", "sweep", "estimate"):
            argv = [command, "--config", cfg, "--out", str(tmp_path / command)]
            assert main(argv) == EXIT_OK

    def test_work_bound_counts_a_zero_transit(self, tmp_path, capsys, monkeypatch):
        # no magnet step, but 2^40 points: (1 + 10 times) x 2^40 point-steps
        # are refused before any grid work, and the run leaves no directory
        self.forbid_grid_work(monkeypatch)
        payload = json.loads(Path(write_default_config(tmp_path, transit=0.0)).read_text())
        payload["oracle"]["points"] = 2**40
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "a" / "b"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: oracle: ") and "work bound" in err
        assert not (tmp_path / "a").exists()

    def test_packet_off_the_grid_is_refused(self, tmp_path, capsys, monkeypatch):
        # speed kick / mass = 1 carries the plus packet to z = 50 at t = 50,
        # round the periodic 64-wide grid, where no edge check would see it;
        # refused before any grid work, and no directory is left
        self.forbid_grid_work(monkeypatch)
        cfg = write_default_config(tmp_path, mass=100.0, gradient=5e4)
        payload = json.loads(Path(cfg).read_text(encoding="utf-8"))
        payload["oracle"].update(extent=64.0, points=2**17, dt=2e-4, times=[50, 1])
        Path(cfg).write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "a" / "b"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: packet center 50 at t = 50 is beyond the grid's "
            "half-extent 32 and wraps round the periodic grid; increase the grid "
            "extent\n"
        )
        assert not (tmp_path / "a").exists()

    def test_wrap_advice_ignores_the_packet_note(self, tmp_path, capsys, monkeypatch):
        # dx = 4 under-resolves sigma0 = 1, but more points cannot pull a
        # center of 2000 back inside a half-extent of 512: only extent helps
        self.forbid_grid_work(monkeypatch)
        cfg = write_default_config(tmp_path, gradient=1e6)
        payload = json.loads(Path(cfg).read_text(encoding="utf-8"))
        payload["oracle"]["points"] = 256
        Path(cfg).write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "a" / "b"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: packet center 2000 at t = 1 is beyond the grid's "
            "half-extent 512 and wraps round the periodic grid; increase the grid "
            "extent\n"
        )
        assert not (tmp_path / "a").exists()

    def test_negative_time_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        self.forbid_grid_work(monkeypatch)
        cfg = write_default_config(tmp_path, times=[3, -1])
        out = tmp_path / "a"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: oracle.times must be non-negative, got -1\n"
        )
        assert not out.exists()

    def test_memory_error_exits_config(self, tmp_path, capsys, monkeypatch):
        # an allocation that fails is bad input, reported without a traceback
        message = (
            "Unable to allocate 8.00 TiB for an array with shape "
            "(1099511627776,) and data type int64"
        )

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(nosignal.gridsolver, "grid_solve", out_of_memory)
        out = tmp_path / "a" / "b"
        argv = ["oracle", "--config", str(DEFAULT_CONFIG), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: out of memory: {message}\n"
        assert not (tmp_path / "a").exists()

    def test_overflowing_tau_squared_runs(self, tmp_path):
        # spreading_time = 4e-197: tau**2 and the packet variance overflow at
        # every oracle time, which the (a, tau) forms never compute.  With
        # a = 2.9e-112 the channels never part: E = C = 1/2, as on the grid
        cfg = write_config(
            tmp_path / "cfg.json",
            sg={"mass": 9.57e22, "sigma0": 1.45e-110, "moment": -1.02e-6,
                "gradient": -4.98e6},
            oracle={"points": 256},
        )
        out = tmp_path / "out"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "oracle.json").read_text())
        assert [row["t"] for row in report["comparisons"]] == load_config(cfg).oracle_times
        for row in report["comparisons"]:
            assert row["E_analytic"] == row["E_grid"] == 0.5
            assert row["coherence_analytic"][0] == row["coherence_grid"][0] == 0.5
        impulsive, packet = report["notes"]
        assert "outside the impulsive regime" in impulsive
        assert "under-resolves the packet" in packet
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_OK

    def test_under_resolved_packet_is_noted(self, tmp_path):
        # a heavy packet on 256 points: dx = 0.25 against sigma0 = 1e-160, so
        # z**2 / (4 sigma0**2) overflows off z = 0 without a warning, and
        # 64 / 2^538 = 7.1e-163 is the first power-of-two spacing below sigma0
        payload = json.loads(Path(write_default_config(
            tmp_path, mass=1e300, sigma0=1e-160, gradient=1e154, transit=1.0
        )).read_text())
        payload["oracle"].update(points=256, extent=64.0, dt=1e-3)
        cfg = tmp_path / "chirp.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "oracle.json").read_text())
        notes = [n for n in report["notes"] if "under-resolves the packet" in n]
        assert notes == [
            "the grid under-resolves the packet: dx = extent / points = 0.25 "
            f"exceeds sigma0 = 1e-160; oracle.points >= {2.0**538:.0f} keeps "
            "dx <= sigma0"
        ]

    def test_boundary_leak_exits_numerical(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            oracle={
                "extent": 24.0,
                "points": 256,
                "dt": 1e-3,
                "times": [60.0],
            },
        )
        code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        assert "increase the grid extent" in capsys.readouterr().err

    def test_leak_from_an_under_resolved_packet_names_the_points(
        self, tmp_path, capsys
    ):
        # dx = 1024 / 256 = 4 exceeds sigma0 = 1, and the packet leaks at the
        # edge; a wider extent only widens dx, 1024 points keep dx <= sigma0
        payload = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
        payload["oracle"]["points"] = 256
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: boundary density 4.02e-10 at t = 3 exceeds "
            "1e-10; the grid under-resolves the packet: dx = extent / points = "
            "4 exceeds sigma0 = 1; oracle.points >= 1024 keeps dx <= sigma0\n"
        )

    @pytest.mark.parametrize(
        "sg, code",
        [
            ({"gradient": 1e6}, EXIT_NUMERICAL),
            ({"transit": 1000.0}, EXIT_CONFIG),
            ({"sigma0": 1e80}, EXIT_NUMERICAL),
        ],
        ids=["boundary-leak", "work-bound", "packet-wider-than-grid"],
    )
    def test_failed_run_leaves_no_directory(self, tmp_path, sg, code):
        # main makes --out before the workflow runs, so that an unwritable one
        # is reported before any compute; a failed run removes what it made,
        # and a directory that was there before stays
        cfg = write_default_config(tmp_path, **sg)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "a" / "b")]) == code
        assert not (tmp_path / "a").exists()
        (tmp_path / "empty").mkdir()
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "empty")]) == code
        assert (tmp_path / "empty").is_dir()


class TestOracleThreads:
    """workflow_oracle compares the snapshot times one after another, each
    time's spin-down channel on a worker thread and its spin-up channel on
    the calling thread."""

    def test_payload_equals_one_thread(self, monkeypatch):
        cfg = load_config(str(DEFAULT_CONFIG))
        threaded = workflow_oracle(cfg).payload

        # the same channels one after the other, all on this thread
        monkeypatch.setattr(
            nosignal.gridsolver._Worker,
            "pair",
            lambda self, fn, here, there: (fn(here), fn(there)),
        )
        serial = workflow_oracle(cfg).payload
        assert [row["t"] for row in threaded["comparisons"]] == cfg.oracle_times
        assert json.dumps(threaded) == json.dumps(serial)

    def test_worker_error_is_raised_to_the_caller(self, monkeypatch):
        # the spin-down channel's reference density is made on the worker
        class WorkerFailure(Exception):
            pass

        caller = threading.get_ident()
        component_density = nosignal.cli.component_density
        made = []

        def component_density_failing_off_the_caller(config, t, s, weight, z, out=None):
            made.append((t, s, threading.get_ident() == caller))
            if threading.get_ident() != caller:
                raise WorkerFailure
            return component_density(config, t, s, weight, z, out=out)

        monkeypatch.setattr(
            nosignal.cli, "component_density", component_density_failing_off_the_caller
        )
        threads = threading.active_count()
        with pytest.raises(WorkerFailure):
            workflow_oracle(load_config(str(DEFAULT_CONFIG)))
        assert threading.active_count() == threads
        # the first time's two channels, and no later time
        assert sorted(made) == [(1.0, -1, False), (1.0, 1, True)]

    def test_earliest_leak_is_reported(self, monkeypatch):
        # a free packet (gradient 0) stays centred and spreads to the edge of
        # a 200-wide grid by t = 45 and 50: t = 45 is reported, with its
        # advice, and no time after it is flown
        free_phase = nosignal.gridsolver._free_phase
        flown = []

        def recorded(k2, t, mass, out=None):
            flown.append(t)
            return free_phase(k2, t, mass, out)

        monkeypatch.setattr(nosignal.gridsolver, "_free_phase", recorded)
        cfg = load_config(str(DEFAULT_CONFIG))
        cfg = cfg._replace(
            sg=cfg.sg._replace(gradient=0.0),
            oracle_grid={"extent": 200.0, "points": 4096, "dt": 2e-4},
            oracle_times=[1.0, 45.0, 50.0],
        )
        message = (
            r"^boundary density 9.07e-08 at t = 45 exceeds 1e-10; "
            r"increase the grid extent$"
        )
        with pytest.raises(BoundaryLeakError, match=message):
            workflow_oracle(cfg)
        # the magnet's kinetic phase, then both channels of t = 1 and t = 45
        assert flown == [2e-4, 1.0, 1.0, 45.0, 45.0]

    def test_earliest_norm_check_decides(self, monkeypatch):
        # every time would fail the norm check; the first time's failure
        # decides, and no later time is flown: each channel's inverse
        # four-step transform makes its two np.fft.ifft calls at t = 1 only
        caller = threading.get_ident()
        inverse = []

        def drifted(psi, *args, out=None, **kwargs):
            inverse.append(threading.get_ident() == caller)
            out[...] = math.nan
            return out

        cfg = load_config(str(DEFAULT_CONFIG))
        cfg = cfg._replace(
            oracle_grid={"extent": 64.0, "points": 256, "dt": 1e-3},
            oracle_times=[1.0, 2.0, 3.0],
        )
        exit_spectra = nosignal.gridsolver._exit_spectra

        def magnet_then_drift(*args):
            spectra = exit_spectra(*args)
            monkeypatch.setattr(np.fft, "ifft", drifted)
            return spectra

        monkeypatch.setattr(nosignal.gridsolver, "_exit_spectra", magnet_then_drift)
        with pytest.raises(NormDriftError, match=r"^norm drifted to nan at t = 1$"):
            workflow_oracle(cfg)
        assert sorted(inverse) == [False, False, True, True]

    def test_memory_does_not_grow_with_the_times(self):
        # each time is reduced before the next: at 16384 points the two
        # channels of one time hold 0.5 MiB, and 40 times peak within 1 MiB
        # of 20
        import tracemalloc

        cfg = load_config(str(DEFAULT_CONFIG))

        def peak(times) -> int:
            tracemalloc.start()
            try:
                workflow_oracle(cfg._replace(oracle_times=times))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        workflow_oracle(cfg)  # warm-up: imports and first-call caches
        few = peak([6.0 * (i + 1) for i in range(20)])
        many = peak([3.0 * (i + 1) for i in range(40)])
        assert many - few < 2**20

    def test_peak_rss_does_not_grow_with_the_times(self, tmp_path):
        # tracemalloc does not see pocketfft's scratch (C++ malloc); a fresh
        # process's peak resident set sees every allocation.  An oracle that
        # kept every snapshot grew by about 10 MiB from 20 to 40 times.
        payload = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))

        def least_peak_mib(k: int) -> float:
            payload["oracle"]["times"] = [3.0 * (i + 1) for i in range(k)]
            cfg = tmp_path / f"times{k}.json"
            cfg.write_text(json.dumps(payload), encoding="utf-8")
            argv = [sys.executable, "-m", "nosignal.cli", "oracle", "--config", str(cfg)]
            outs = [str(tmp_path / f"out{k}-{run}") for run in range(3)]
            return min(fresh_rusage(argv + ["--out", out], fresh_env())[0] for out in outs)

        assert least_peak_mib(40) - least_peak_mib(20) < 2.0


class TestRunRecord:
    # configs/default.json's data file and stdout line per command; {path}
    # is the data file's path
    SUMMARIES = {
        "verify": ("report.json", "PASS: max |residual| = 5.551e-17, max phase-sum "
                   "deviation = 0.000e+00, phase-checked cells: 52/52"),
        "sweep": ("sweep.csv", "wrote 52 rows to {path}"),
        "estimate": ("estimates.jsonl", "4/4 bounds consistent with zero"),
        "oracle": ("oracle.json", "max |E difference| = 4.990e-05, max coherence "
                   "phase difference = 3.355e-04"),
    }

    @pytest.mark.parametrize("command", list(SUMMARIES))
    def test_summary_data_file_and_run_meta(self, tmp_path, capsys, command):
        data_file, summary = self.SUMMARIES[command]
        out = tmp_path / "out"
        argv = [command, "--config", str(DEFAULT_CONFIG), "--out", str(out)]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == summary.format(path=out / data_file) + "\n"
        assert captured.err == ""
        assert (out / data_file).stat().st_size > 0
        meta = json.loads((out / "run_meta.json").read_text())
        keys = {"command", "config", "nosignal", "python", "timestamp_utc"}
        # numpy's version only where the run uses numpy
        assert set(meta) == keys | ({"numpy"} if command == "oracle" else set())
        assert meta["command"] == command and meta["config"] == str(DEFAULT_CONFIG)
        assert meta["nosignal"] == nosignal.__version__
        assert meta["python"] == "%d.%d.%d" % sys.version_info[:3]
        if command == "oracle":
            assert meta["numpy"] == np.__version__

    def test_timestamp_is_utc_now(self, tmp_path):
        out = tmp_path / "out"
        before = datetime.datetime.now(datetime.timezone.utc)
        argv = ["sweep", "--config", str(DEFAULT_CONFIG), "--out", str(out)]
        assert main(argv) == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        stamp = datetime.datetime.fromisoformat(meta["timestamp_utc"])
        assert stamp.utcoffset() == datetime.timedelta(0)
        assert abs(stamp - before) < datetime.timedelta(minutes=1)

    @pytest.mark.parametrize(
        "ns", [0, 1_700_000_000_123_456_789, 1_700_000_000_000_000_999]
    )
    def test_timestamp_text_is_isoformat_with_microseconds(self, monkeypatch, ns):
        # whole microseconds, as datetime.now floors them; six fractional
        # digits even when they are all zero
        monkeypatch.setattr(nosignal.cli.time, "time_ns", lambda: ns)
        epoch = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)
        now = epoch + datetime.timedelta(microseconds=ns // 1000)
        expected = now.isoformat(timespec="microseconds")
        assert nosignal.cli._utc_timestamp() == expected

    @pytest.mark.parametrize("command", ["verify", "estimate"])
    def test_injection_without_phase_warns(self, tmp_path, capsys, command):
        # on an ideal device no omega carries a phase to move: the negative
        # control does nothing, and the run says so rather than pass silently
        cfg = write_default_config(tmp_path, gradient=1e6)
        warning = "--inject-violation 0.1 not applied: no omega carries a phase"
        for inject, err in (("0", ""), ("0.1", f"warning: {warning}\n")):
            out = tmp_path / f"out-{inject}"
            argv = [command, "--config", cfg, "--out", str(out)]
            assert main(argv + ["--inject-violation", inject]) == EXIT_OK
            assert capsys.readouterr().err == err
        if command == "verify":
            report = json.loads((out / "report.json").read_text())
            assert report["warnings"][-1] == warning and report["passed"] is True


class TestEntryPoint:
    """run() is the process entry point of python -m nosignal.cli and of the
    console script: main's exit code, then gc.freeze().  main() leaves GC
    state alone, since tests and the in-process tracer call it repeatedly."""

    COMMANDS = list(TestRunRecord.SUMMARIES)

    @staticmethod
    def fresh(prefix: list, argv: list) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *prefix, *argv],
            capture_output=True, text=True, env=fresh_env(), timeout=120,
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_main_leaves_gc_state(self, tmp_path, command):
        state = gc.isenabled(), gc.get_freeze_count()
        argv = [command, "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert (gc.isenabled(), gc.get_freeze_count()) == state

    def test_run_returns_main_code_then_freezes(self, tmp_path, monkeypatch):
        argv = ["verify", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path),
                "--inject-violation", "0.1"]
        monkeypatch.setattr(sys, "argv", ["nosignal", *argv])
        assert gc.get_freeze_count() == 0
        try:
            assert nosignal.cli.run() == EXIT_CHECK_FAILED
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_console_script_is_run(self):
        pyproject = DEFAULT_CONFIG.parents[1] / "pyproject.toml"
        scripts = pyproject.read_text(encoding="utf-8").split("[project.scripts]\n")[1]
        assert scripts.startswith('nosignal = "nosignal.cli:run"\n')

    def test_module_run_freezes_after_main(self, tmp_path):
        # python -m nosignal.cli as runpy runs it; atexit handlers run after
        # sys.exit and before the exit-time collections
        probe = (
            "import atexit, gc, runpy\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "runpy.run_module('nosignal.cli', run_name='__main__', alter_sys=True)\n"
        )
        argv = ["verify", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path),
                "--inject-violation", "0.1"]
        proc = self.fresh(["-c", probe], argv)
        assert proc.returncode == EXIT_CHECK_FAILED, proc.stderr
        assert proc.stdout.splitlines()[-1] == "frozen True"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_module_run_writes_what_main_writes(self, tmp_path, capsys, command):
        data_file = tmp_path / TestRunRecord.SUMMARIES[command][0]
        argv = [command, "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        in_process, written = capsys.readouterr(), data_file.read_bytes()
        data_file.unlink()
        proc = self.fresh(["-m", "nosignal.cli"], argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (proc.stdout, proc.stderr) == (in_process.out, in_process.err)
        assert data_file.read_bytes() == written

    def test_exit_codes_come_through_run(self, tmp_path, capsys):
        # 3: the packet centre passes the grid's half-extent (CI's wrap.json)
        payload = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
        payload["sg"].update(mass=100, gradient=5e4)
        payload["oracle"].update(extent=64, points=2**17, dt=2e-4, times=[1, 50])
        wrap = tmp_path / "wrap.json"
        wrap.write_text(json.dumps(payload), encoding="utf-8")
        cases = [
            (EXIT_CHECK_FAILED,
             ["verify", "--config", str(DEFAULT_CONFIG), "--inject-violation", "0.1"]),
            (EXIT_CONFIG, ["verify", "--config", str(tmp_path / "missing.json")]),
            (EXIT_NUMERICAL, ["oracle", "--config", str(wrap)]),
        ]
        for i, (code, argv) in enumerate(cases):
            argv = argv + ["--out", str(tmp_path / str(i))]
            assert main(argv) == code
            in_process = capsys.readouterr()
            proc = self.fresh(["-m", "nosignal.cli"], argv)
            assert proc.returncode == code, proc.stderr
            assert "Traceback" not in proc.stderr
            assert (proc.stdout, proc.stderr) == (in_process.out, in_process.err)


def captured(call) -> tuple:
    """call()'s result, or ("exit", code) for a SystemExit; then its stdout
    and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def namespace_text(namespace) -> str:
    """vars(namespace) by name, as repr: nan equals nan, 5 differs from 5.0."""
    return repr(sorted(vars(namespace).items()))


ARGV_COMMANDS = ["verify", "sweep", "estimate", "oracle", "bogus"]
ARGV_FULL_FLAGS = ["--config", "--out", "--seed", "--inject-violation"]
ARGV_FLAGS = ARGV_FULL_FLAGS + [
    "--conf", "--o", "--se", "--inject",  # abbreviated
    "--config=5", "--out=", "--seed=5", "--inject-violation=-0.1",  # =-joined
    "--bogus", "--inject_violation", "-c", "-h", "--help",  # unknown, help
]
ARGV_VALUES = [
    "5", " 5", "5.0", "0x10", "1_000", "-0.1", "nan", "1e400", "", "x.json",
    "9" * 4301,  # past int's digit limit, and an inf to float
]


def command_and_pairs(flags: list):
    """A command, then up to three flag-value pairs."""
    return st.builds(
        lambda command, pairs: [command, *(token for pair in pairs for token in pair)],
        st.sampled_from(ARGV_COMMANDS),
        st.lists(
            st.tuples(st.sampled_from(flags), st.sampled_from(ARGV_VALUES)), max_size=3
        ),
    )


# the canonical shape with full flags, then with any flag, then any mix of
# commands, flags and values
argvs = st.one_of(
    command_and_pairs(ARGV_FULL_FLAGS),
    command_and_pairs(ARGV_FLAGS),
    st.lists(st.sampled_from(ARGV_COMMANDS + ARGV_FLAGS + ARGV_VALUES), max_size=5),
)


class TestCanonicalArgv:
    """main parses a subcommand and then --flag value pairs without argparse;
    argparse takes every other argv, and both give argparse's namespace."""

    @staticmethod
    def by_argparse(argv: list) -> tuple:
        return captured(
            lambda: namespace_text(nosignal.cli._build_parser().parse_args(argv))
        )

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(argv=argvs)
    def test_same_outcome_as_argparse(self, argv):
        expected = self.by_argparse(argv)
        fast = nosignal.cli._canonical_args(argv)
        if fast is not None:
            assert (namespace_text(fast), "", "") == expected
        parsed = captured(lambda: namespace_text(nosignal.cli._parse_args(argv)))
        assert parsed == expected
        if expected[0][0] == "exit":  # help or a usage error: main exits there
            assert captured(lambda: main(argv)) == expected

    @pytest.mark.parametrize(
        "argv, canonical",
        [
            (["verify", "--config", "c.json", "--out", "o"], True),
            (["estimate", "--seed", "7", "--seed", "8", "--inject-violation", "nan"],
             True),
            (["oracle"], True),
            (["sweep", "--out", " -o"], True),
            ([], False),
            (["verify", "--config=c.json"], False),
            (["verify", "--conf", "c.json"], False),
            (["verify", "--seed", "x"], False),
            (["verify", "--inject-violation", "-0.1"], False),
            (["sweep", "--inject-violation", "0.1"], False),
            (["verify", "--config"], False),
            (["verify", "-h"], False),
        ],
    )
    def test_which_argv_skips_argparse(self, argv, canonical):
        fast = nosignal.cli._canonical_args(argv)
        assert (fast is not None) == canonical
        if canonical:
            assert namespace_text(fast) == self.by_argparse(argv)[0]

    def test_invalid_int_is_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "x"])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["verify", "--seed", "9" * 5000], "invalid int value: '" + "9" * 76 + "..."),
            (["estimate", "--inject-violation", "x" * 5000],
             "invalid float value: '" + "x" * 76 + "..."),
        ],
        ids=["seed", "inject-violation"],
    )
    def test_rejected_value_is_cut(self, capsys, argv, shown):
        # argparse's words, with the value cut as the config errors cut it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:]
        assert lines[-1].endswith(f"argument {argv[1]}: {shown}")
        assert max(map(len, lines)) <= 200


def stdlib_json(value) -> str:
    """The data files' format: json.dumps(indent=2, sort_keys=True) and a newline."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


# text of any kind, and strings that JSON escapes or that look like the
# separators and brackets the writer places
json_strings = st.one_of(
    st.text(),
    st.sampled_from(["", "é", " ", "\x00\x1f\x7f", "\ud800", '"\\/',
                     "},\n  {", "},\n      {", "[\n]", ": "]),
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, -1, -1.0, True, False]),
    json_strings,
)
# keys that the data files hold, or ints, which json.dumps writes as strings;
# one kind per dict, since keys of mixed types do not sort
json_keys = st.sampled_from([json_strings, st.integers()])
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        json_keys.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
        # lists of dicts of scalars, the shape of report.json's cells
        st.lists(json_keys.flatmap(
            lambda keys: st.dictionaries(keys, json_scalars, max_size=4)
        ), max_size=4),
    ),
    max_leaves=40,
)


# lists of records that share one key set, the shape the record template
# writes: keys and strings that hold its "%" placeholders or need escapes,
# and values that are equal as dict keys but not as JSON (1, 1.0, True)
record_keys = st.one_of(
    st.text(max_size=3), st.sampled_from(["%", "%s", "%%", '"', "\\", 'a%"\\'])
)
record_template_values = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, "%s", "null", "%", "", '"\\']),
    st.text(max_size=3),
)
record_values = st.one_of(
    record_template_values,
    st.integers(),
    st.sampled_from([1, True, False, 0]),
)


@st.composite
def uniform_records(draw):
    """1 to 5 dicts with one key set, in a shuffled insertion order each; the
    values come from a small pool, so they repeat across records, and the
    pool may hold both zeros, which are equal as dict keys."""
    keys = draw(st.lists(record_keys, min_size=1, max_size=5, unique=True))
    scalars = draw(st.sampled_from([record_template_values, record_values]))
    pool = draw(st.lists(scalars, min_size=1, max_size=6))
    pool += draw(st.sampled_from([[], [0.0, -0.0], [-0.0, 0.0]]))
    return [
        {k: draw(st.sampled_from(pool)) for k in draw(st.permutations(keys))}
        for _ in range(draw(st.integers(1, 5)))
    ]


@st.composite
def payloads(draw):
    """A non-empty dict with str keys, as the workflows write: nested
    containers below, and one key holding uniform records or not."""
    payload = draw(st.dictionaries(json_strings, json_values, min_size=1, max_size=4))
    if draw(st.booleans()):
        payload[draw(json_strings)] = draw(uniform_records())
    return payload


class TestFieldText:
    """report.json's record values and sweep.csv's fields share one memo,
    which formats each distinct value once and keeps 0.0 and -0.0 apart."""

    VALUES = [0.0, -0.0, None, "a", 1.5, "a", -0.0, 0.0, 1.5, None, -2.25, 'b"c', 0.0]

    @staticmethod
    def expected(value, json_mode: bool) -> str:
        if json_mode:
            return json.dumps(value, allow_nan=False)
        if value is None:
            return ""
        return value if isinstance(value, str) else repr(float(value))

    @pytest.mark.parametrize("json_mode", [True, False], ids=["json", "csv"])
    def test_each_distinct_value_is_formatted_once(self, json_mode):
        memo = _FieldText(for_json=json_mode)
        texts = list(map(memo.__getitem__, self.VALUES))
        assert texts == [self.expected(v, json_mode) for v in self.VALUES]
        assert memo.zeros == {1.0: "0.0", -1.0: "-0.0"}
        assert set(memo) == {None, "a", 'b"c', 1.5, -2.25}
        # later lookups are served from the memo, zeros by their sign
        memo.zeros[-1.0] = "served"
        memo[1.5] = "served too"
        assert [memo[-0.0], memo[0.0], memo[1.5]] == ["served", "0.0", "served too"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float(self, bad):
        with pytest.raises(ValueError, match=f"^float {bad!r} is not JSON compliant$"):
            _FieldText(for_json=True)[bad]
        assert _FieldText(for_json=False)[bad] == repr(bad)


class TestJsonWriter:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(payload=payloads())
    def test_equals_stdlib_indented_json(self, payload):
        assert _json_text(payload) + "\n" == stdlib_json(payload)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(records=uniform_records())
    def test_uniform_records_equal_stdlib_indented_json(self, records):
        value = {"cells": records}
        assert _json_text(value) + "\n" == stdlib_json(value)

    def test_template_path_takes_float_str_and_none_only(self):
        assert _records_text([{"a": 1.0, "b": "x"}, {"b": None, "a": -0.0}]) == (
            '{\n      "a": 1.0,\n      "b": "x"\n    },\n'
            '    {\n      "a": -0.0,\n      "b": null\n    }'
        )
        for records in (
            [{"a": 1.0}, {"a": 1}],
            [{"a": 1.0}, {"a": True}],
            [{"a": 1.0}, {"a": [1.0]}],
            [{"a": 1.0}, {"b": 1.0}],
            [{"a": 1.0}, {"a": 1.0, "b": 1.0}],
            [{}, {}],
            [{1: 1.0}],
            [{"a": 1.0}, [1.0]],
        ):
            assert _records_text(records) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_in_a_later_record_raises_value_error(self, bad):
        value = {"cells": [{"a": 1.0, "b": "x"}, {"a": 2.0, "b": "y"}, {"a": bad, "b": "x"}]}
        with pytest.raises(ValueError):
            stdlib_json(value)
        with pytest.raises(ValueError):
            _json_text(value)

    def test_verify_cells_take_the_record_template(self):
        cells = workflow_verify(load_config(str(DEFAULT_CONFIG))).payload["cells"]
        assert _records_text(cells) is not None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises_value_error(self, bad):
        for value in ({"a": bad}, {"a": [bad]}, {"a": [{"a": 1, "b": bad}]},
                      {"a": 1.0, "b": {"c": [{"d": [bad]}]}}):
            with pytest.raises(ValueError):
                stdlib_json(value)
            with pytest.raises(ValueError):
                _json_text(value)


def log_magnitude(signed: bool):
    """10**e for e in [-300, 300], of either sign when signed."""
    magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    if not signed:
        return magnitude
    return st.tuples(st.sampled_from((1.0, -1.0)), magnitude).map(
        lambda pair: pair[0] * pair[1]
    )


# JSON values that are not objects, in place of a config section
NOT_AN_OBJECT = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    sg=st.fixed_dictionaries(
        {
            "mass": log_magnitude(False),
            "sigma0": log_magnitude(False),
            "moment": log_magnitude(True),
            "gradient": log_magnitude(True),
            "bias": log_magnitude(True),
            "transit": log_magnitude(False),
        }
    ),
    broken=st.sampled_from(("sg", "tolerances", "oracle")),
    value=NOT_AN_OBJECT,
    # a value that int and float reject, up to past int's 4300 digits
    long_value=st.integers(80, 6000).map(lambda digits: "9" * digits + "x"),
)
def test_exit_code_contract(tmp_path_factory, sg, broken, value, long_value):
    # every config ends in exit 0 (pass), 1 (verify's gate), 2 (config) or
    # 3 (numerical), never in a traceback; 16 magnet steps bound the oracle.
    # The same config with a section that is not a JSON object is a config
    # error, and leaves no directory.  An over-long value of a typed flag is
    # argparse's usage error, with one error line of at most 200 characters
    for flag in ("--seed", "--inject-violation"):
        result, _, err = captured(lambda: main(["verify", flag, long_value]))
        assert result == ("exit", EXIT_CONFIG)
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert max(len(line) for line in err.splitlines()) <= 200
    payload = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
    payload["sg"] = sg
    payload["oracle"].update(points=256, dt=sg["transit"] / 16)
    work = tmp_path_factory.mktemp("fuzz")
    cfg, bad = work / "cfg.json", work / "bad.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    bad.write_text(json.dumps({**payload, broken: value}), encoding="utf-8")
    for i, (command, *extra) in enumerate(
        (["verify"], ["verify", "--inject-violation", "0.1"], ["sweep"],
         ["estimate"], ["oracle"])
    ):
        out = work / str(i)
        code = main([command, "--config", str(cfg), "--out", str(out), *extra])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_NUMERICAL)
        # only the injected violation may fail verify's gate
        assert code != EXIT_CHECK_FAILED or extra == ["--inject-violation", "0.1"]
        wrote = (out / "run_meta.json").is_file()
        assert wrote is (code in (EXIT_OK, EXIT_CHECK_FAILED))
        out = work / f"bad-{i}"
        code = main([command, "--config", str(bad), "--out", str(out), *extra])
        assert code == EXIT_CONFIG and not out.exists()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(bias=st.floats(allow_nan=False, allow_infinity=False))
def test_bias_moves_no_aligned_total_and_no_residual(bias):
    # a uniform bias field turns both spin channels' phases (the Larmor
    # phase) and nothing else: the error fraction and the aligned setting's
    # totals keep their bits, and no-signalling holds at every bias
    cfg = load_config(str(DEFAULT_CONFIG))
    biased = cfg._replace(sg=SGConfig(**{**cfg.sg._asdict(), "bias": bias}))
    columns = ("Es", "PB_plus", "PB_minus", "PB_total")

    def aligned(run: RunConfig) -> list:
        # repr, as sweep.csv writes them: equal strings are equal bits
        rows = workflow_sweep(run).payload
        return [[repr(getattr(row, c)) for c in columns] for row in rows]

    assert aligned(biased) == aligned(cfg)
    record = workflow_verify(biased)
    assert record.passed
    assert record.payload["max_abs_residual"] <= cfg.residual_tol


def test_cli_runs_without_scipy(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        oracle={"extent": 384.0, "points": 4096, "dt": 2e-4, "times": [2.0, 10.0]},
    )
    script = (
        "import json, sys\n"
        "from nosignal.cli import main\n"
        "codes = [main([cmd, '--config', sys.argv[1], '--out', sys.argv[2] + cmd])\n"
        "         for cmd in ('verify', 'oracle')]\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    codes, loaded = run_script(script, cfg, str(tmp_path / "out-"))
    assert codes == [EXIT_OK, EXIT_OK]
    assert loaded == []


def test_verify_sweep_and_estimate_run_without_numpy(tmp_path):
    # the 2x2 spin algebra and the seeded binomial stream are plain Python;
    # only oracle needs numpy and the grid solver.  The value types are
    # NamedTuples: dataclasses would import inspect, ast, dis and tokenize.
    # The canonical argv is parsed without argparse, which imports gettext
    cfg = write_config(tmp_path / "cfg.json")
    script = (
        "import json, sys\n"
        "import nosignal.cli as cli\n"
        "def loaded():\n"
        "    unwanted = {'argparse', 'dataclasses', 'datetime', 'gettext', 'numpy',\n"
        "                'nosignal.gridsolver'}\n"
        "    return sorted(unwanted & set(sys.modules))\n"
        "cli.load_config(sys.argv[1])\n"
        "codes, seen = [], [loaded()]\n"
        "for i, argv in enumerate([['verify'], ['sweep'], ['estimate'],\n"
        "                          ['estimate', '--inject-violation', '0.1']]):\n"
        "    codes.append(cli.main(argv + ['--config', sys.argv[1],\n"
        "                                  '--out', sys.argv[2] + str(i)]))\n"
        "    seen.append(loaded())\n"
        "print(json.dumps([codes, seen]))\n"
    )
    codes, seen = run_script(script, cfg, str(tmp_path / "out-"))
    assert codes == [EXIT_OK] * 4
    assert seen == [[]] * 5


def test_canonical_oracle_imports_no_argparse(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        oracle={"extent": 384.0, "points": 4096, "dt": 2e-4, "times": [2.0, 10.0]},
    )
    script = (
        "import json, sys\n"
        "from nosignal.cli import main\n"
        "code = main(['oracle', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "loaded = sorted({'argparse', 'gettext'} & set(sys.modules))\n"
        "print(json.dumps([code, loaded]))\n"
    )
    code, loaded = run_script(script, cfg, str(tmp_path / "out"))
    assert code == EXIT_OK
    assert loaded == []


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_oracle_defaults_openblas_to_one_thread(tmp_path, preset, expected):
    # the oracle calls no BLAS routine; it sets OPENBLAS_NUM_THREADS before
    # numpy's first import, unless the user has set it.  Either way it writes
    # the oracle.json that this process writes with its own thread count
    cfg = write_config(
        tmp_path / "cfg.json",
        oracle={"extent": 384.0, "points": 4096, "dt": 2e-4, "times": [2.0, 10.0]},
    )
    script = (
        "import json, os, sys\n"
        "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
        "if sys.argv[3] != 'unset':\n"
        "    os.environ['OPENBLAS_NUM_THREADS'] = sys.argv[3]\n"
        "from nosignal.cli import main\n"
        "before = 'numpy' in sys.modules\n"
        "code = main(['oracle', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(json.dumps([code, before, os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    code, before, seen = run_script(script, cfg, str(tmp_path / "out"), preset or "unset")
    assert code == EXIT_OK
    assert not before
    assert seen == expected
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "here")]) == EXIT_OK
    assert (tmp_path / "out" / "oracle.json").read_bytes() == (
        tmp_path / "here" / "oracle.json"
    ).read_bytes()
