import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

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


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this nosignal."""
    src = str(Path(nosignal.__file__).resolve().parents[1])
    paths = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_script(script: str, *args: str):
    """Run a Python script in a fresh interpreter; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=fresh_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestConfigHandling:
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

    def test_wrong_schema_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", schema_version=99)
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert "schema_version" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["verify", "oracle", "sweep", "estimate"])
    @pytest.mark.parametrize(
        "sg, times, where",
        [
            ({"moment": 1e200, "gradient": 1e200}, None, "momentum_kick ="),
            ({"gradient": 1e305, "transit": 1.0}, [1e-6], "phase_settle_time is"),
            ({"sigma0": 1e-200}, None, "spreading_time ="),
            ({"sigma0": 1e200}, None, "spreading_time ="),
            ({"sigma0": 1e100}, None, "phase_settle_time is"),
            ({"mass": 1e300}, None, "phase_settle_time is"),
        ],
        ids=[
            "kick-overflows",
            "settle-time-overflows-gradient-1e305",
            "spreading-time-underflows",
            "spreading-time-overflows",
            "settle-time-overflows-sigma0-1e100",
            "settle-time-overflows-mass-1e300",
        ],
    )
    def test_overflowing_derived_quantity_rejected(
        self, tmp_path, capsys, command, sg, times, where
    ):
        # every sg value is finite and positive, but a product of them
        # overflows or underflows to 0; unchecked, these runs ended in an
        # AssertionError, a NaN ValueError ("density matrix not Hermitian"
        # too), an OverflowError, a ZeroDivisionError or a "horizon must be
        # positive" traceback
        cfg = write_default_config(tmp_path, times, **sg)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and where in err

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
        [{"sigma0": 1e50}, {"sigma0": 1e80}, {"moment": 1e150}, {"transit": 1e150}],
        ids=["sigma0-1e50", "sigma0-1e80", "moment-1e150", "transit-1e150"],
    )
    def test_huge_width_runs_as_ideal_device(self, tmp_path, capsys, command, sg):
        # at phase_settle_time r = a tau / sqrt(1 + tau^2) is about
        # a = 2 kick sigma0 >= 8e49, so the coherence envelope exp(-r^2 / 2)
        # and E = Phi(-r) are 0: an ideal device.  From sigma0 1e80 on, the
        # packet variance sigma0**2 (1 + tau**2) there overflows, which the
        # (a, tau) forms never compute
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
        # at mass 1.5e302 the drift dp t / m at phase_settle_time is finite
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
        # (closed_form_result calls closed_form_rows through protocol's globals)
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
        assert list(ProtocolResult._fields) == SWEEP_COLUMNS
        rows = workflow_sweep(load_config(str(DEFAULT_CONFIG))).payload
        assert len(rows) == 52
        assert all(type(row) is ProtocolResult for row in rows)

    def test_writer_matches_reference_on_mixed_rows(self, tmp_path):
        # a zero of either sign is never served from the cache: 0.0 == -0.0
        # == 0 as dict keys; an int and its equal float write the same text
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
        """Make the grid solver's entry points fail the test if called."""
        def no_grid_work(*args, **kwargs):
            raise AssertionError("grid work started")

        for entry in ("grid_evolve", "grid_snapshot"):
            monkeypatch.setattr(nosignal.gridsolver, entry, no_grid_work)

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

        monkeypatch.setattr(nosignal.gridsolver, "grid_evolve", out_of_memory)
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

    @staticmethod
    def run_chirp_oracle(tmp_path: Path):
        """oracle.json of a heavy, narrow packet (sigma0 1e-160) on a 256-point grid."""
        payload = json.loads(Path(write_default_config(
            tmp_path, mass=1e300, sigma0=1e-160, gradient=1e154, transit=1.0
        )).read_text())
        payload["oracle"].update(points=256, extent=64.0, dt=1e-3)
        cfg = tmp_path / "chirp.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        return payload, json.loads((out / "oracle.json").read_text())

    def test_overflowing_chirp_phase_stays_finite(self, tmp_path):
        # p * p * t overflows from t = 3 on, while the chirp p^2 t / 2m is
        # 1.5e8 there; the analytic densities took exp(1j * inf) = NaN and
        # writing oracle.json raised
        payload, report = self.run_chirp_oracle(tmp_path)
        assert len(report["comparisons"]) == len(payload["oracle"]["times"])
        for row in report["comparisons"]:
            assert all(math.isfinite(v) for v in row["coherence_analytic"])
            assert math.isfinite(row["l1_density_diff"])

    def test_under_resolved_packet_is_noted(self, tmp_path):
        # dx = 0.25 against sigma0 = 1e-160: z**2 / (4 sigma0**2) overflows off
        # z = 0 without a warning, and 64 / 2^538 = 7.1e-163 is the first
        # power-of-two spacing below sigma0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = self.run_chirp_oracle(tmp_path)
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
    """workflow_oracle compares the odd snapshot times on a worker thread and
    the even ones on the calling thread."""

    def test_payload_equals_one_thread(self, monkeypatch):
        cfg = load_config(str(DEFAULT_CONFIG))
        threaded = workflow_oracle(cfg).payload

        # the same comparisons in time order, all on this thread
        monkeypatch.setattr(
            nosignal.gridsolver, "map_in_order", lambda fn, items: [fn(i) for i in items]
        )
        serial = workflow_oracle(cfg).payload
        assert [row["t"] for row in threaded["comparisons"]] == cfg.oracle_times
        assert json.dumps(threaded) == json.dumps(serial)

    def test_worker_error_is_raised_to_the_caller(self, monkeypatch):
        class WorkerFailure(Exception):
            pass

        caller = threading.get_ident()
        free_propagate = nosignal.cli.free_propagate

        def free_propagate_failing_off_the_caller(*args, **kwargs):
            if threading.get_ident() != caller:
                raise WorkerFailure
            return free_propagate(*args, **kwargs)

        monkeypatch.setattr(
            nosignal.cli, "free_propagate", free_propagate_failing_off_the_caller
        )
        threads = threading.active_count()
        with pytest.raises(WorkerFailure):
            workflow_oracle(load_config(str(DEFAULT_CONFIG)))
        assert threading.active_count() == threads

    def test_earliest_leak_is_reported_when_it_is_the_workers(self, monkeypatch):
        # a free packet (gradient 0) stays centred and spreads to the edge of
        # a 200-wide grid by t = 45 and 50: t = 45 (index 1) fails on the
        # worker, t = 50 (index 2) on the caller, and the earlier time is the
        # one reported, with its advice
        caller = threading.get_ident()
        grid_snapshot = nosignal.gridsolver.grid_snapshot
        failed = []

        def recorded(source, t):
            try:
                return grid_snapshot(source, t)
            except BoundaryLeakError:
                failed.append((t, threading.get_ident() == caller))
                raise

        monkeypatch.setattr(nosignal.gridsolver, "grid_snapshot", recorded)
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
        assert sorted(failed) == [(45.0, False), (50.0, True)]

    def test_earliest_norm_check_decides(self, monkeypatch):
        # every time fails the norm check: t = 2 on the worker, t = 1 on the
        # caller, which then stops; the first time's failure decides
        caller = threading.get_ident()
        failed = []

        def drifted(source, t):
            failed.append((t, threading.get_ident() == caller))
            raise NormDriftError(f"norm drifted to nan at t = {t:g}")

        monkeypatch.setattr(nosignal.gridsolver, "grid_snapshot", drifted)
        cfg = load_config(str(DEFAULT_CONFIG))
        cfg = cfg._replace(
            oracle_grid={"extent": 64.0, "points": 256, "dt": 1e-3},
            oracle_times=[1.0, 2.0, 3.0],
        )
        with pytest.raises(NormDriftError, match=r"^norm drifted to nan at t = 1$"):
            workflow_oracle(cfg)
        assert sorted(failed) == [(1.0, True), (2.0, False)]

    def test_memory_does_not_grow_with_the_times(self):
        # each time's snapshot is dropped once compared: at 16384 points the
        # two channels' snapshots of one time hold 0.5 MiB, and 40 times
        # peak within 1 MiB of 20.  With only 2 times the two threads'
        # snapshots may not overlap, so that baseline would sit lower.
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
        to_mib = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss units

        def least_peak_mib(k: int) -> float:
            payload["oracle"]["times"] = [3.0 * (i + 1) for i in range(k)]
            cfg = tmp_path / f"times{k}.json"
            cfg.write_text(json.dumps(payload), encoding="utf-8")
            peaks = []
            for run in range(3):
                out = tmp_path / f"out{k}-{run}"
                argv = [sys.executable, "-m", "nosignal.cli", "oracle",
                        "--config", str(cfg), "--out", str(out)]
                pid = os.posix_spawn(
                    sys.executable, argv, fresh_env(),
                    file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
                )
                _, status, usage = os.wait4(pid, 0)
                assert os.waitstatus_to_exitcode(status) == EXIT_OK
                peaks.append(usage.ru_maxrss / to_mib)
            return min(peaks)

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
        assert set(meta) == {"command", "config", "timestamp_utc"}
        assert meta["command"] == command and meta["config"] == str(DEFAULT_CONFIG)

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
# keys that the data files may hold, and ints, which the writer refuses
json_keys = st.one_of(json_strings, st.integers())
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_keys, children, max_size=4),
        # lists of dicts of scalars, the shape of report.json's cells
        st.lists(st.dictionaries(json_keys, json_scalars, max_size=4), max_size=4),
    ),
    max_leaves=40,
)


def has_non_str_key(value) -> bool:
    if isinstance(value, dict):
        return not all(isinstance(k, str) for k in value) or any(
            map(has_non_str_key, value.values())
        )
    return isinstance(value, (list, tuple)) and any(map(has_non_str_key, value))


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


class TestJsonWriter:
    # about half the values hold an int key: 400 keep 200 or so to compare
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(value=json_values)
    def test_equals_stdlib_indented_json(self, value):
        # json.dumps writes an int key as a string; the writer refuses it
        if has_non_str_key(value):
            with pytest.raises(TypeError):
                _json_text(value)
        else:
            assert _json_text(value) + "\n" == stdlib_json(value)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(records=uniform_records(), nested=st.booleans())
    def test_uniform_records_equal_stdlib_indented_json(self, records, nested):
        value = {"cells": records} if nested else records
        assert _json_text(value) + "\n" == stdlib_json(value)

    def test_template_path_takes_float_str_and_none_only(self):
        assert _records_text([{"a": 1.0, "b": "x"}, {"b": None, "a": -0.0}], "") == (
            '{\n    "a": 1.0,\n    "b": "x"\n  },\n  {\n    "a": -0.0,\n    "b": null\n  }'
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
            assert _records_text(records, "") is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_in_a_later_record_raises_value_error(self, bad):
        value = [{"a": 1.0, "b": "x"}, {"a": 2.0, "b": "y"}, {"a": bad, "b": "x"}]
        with pytest.raises(ValueError):
            stdlib_json(value)
        with pytest.raises(ValueError):
            _json_text(value)

    def test_verify_cells_take_the_record_template(self):
        cells = workflow_verify(load_config(str(DEFAULT_CONFIG))).payload["cells"]
        assert _records_text(cells, "  ") is not None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises_value_error(self, bad):
        for value in (bad, [bad], {"a": bad}, [{"a": 1, "b": bad}], {"a": [{"b": [bad]}]}):
            with pytest.raises(ValueError):
                stdlib_json(value)
            with pytest.raises(ValueError):
                _json_text(value)

    @pytest.mark.parametrize("model", ["projected", "pure"])
    @pytest.mark.parametrize("inject", ["0", "0.1"])
    def test_verify_files(self, tmp_path, model, inject):
        payload = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
        payload["model"] = model
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["verify", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--inject-violation", inject]) in (EXIT_OK, EXIT_CHECK_FAILED)
        for name in ("report.json", "run_meta.json"):
            text = (out / name).read_text(encoding="utf-8")
            assert text == stdlib_json(json.loads(text))

    @pytest.mark.parametrize(
        "omegas, inject",
        [(None, "0"), (None, "0.1"), ([0.0, math.pi / 2], "0")],
        ids=["default", "injected", "degenerate-omega"],
    )
    def test_estimate_lines(self, tmp_path, omegas, inject):
        # one compact JSON record per line, as json.dumps writes it
        payload = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
        if omegas is not None:
            payload["omega_list"] = omegas
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["estimate", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--inject-violation", inject]) == EXIT_OK
        text = (out / "estimates.jsonl").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert text == "".join(line + "\n" for line in lines)
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True, allow_nan=False)
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds.count("degenerate") == (omegas is not None)

    def test_oracle_files(self, tmp_path):
        payload = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
        payload["oracle"].update(points=256, extent=64.0, times=[1, 3, 7])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for name in ("oracle.json", "run_meta.json"):
            text = (out / name).read_text(encoding="utf-8")
            assert text == stdlib_json(json.loads(text))


def log_magnitude(signed: bool):
    """10**e for e in [-300, 300], of either sign when signed."""
    magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    if not signed:
        return magnitude
    return st.tuples(st.sampled_from((1.0, -1.0)), magnitude).map(
        lambda pair: pair[0] * pair[1]
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
    )
)
def test_exit_code_contract(tmp_path_factory, sg):
    # every config ends in exit 0 (pass), 1 (verify's gate), 2 (config) or
    # 3 (numerical), never in a traceback; 16 magnet steps bound the oracle
    payload = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
    payload["sg"] = sg
    payload["oracle"].update(points=256, dt=sg["transit"] / 16)
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
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
    # NamedTuples: dataclasses would import inspect, ast, dis and tokenize
    cfg = write_config(tmp_path / "cfg.json")
    script = (
        "import json, sys\n"
        "import nosignal.cli as cli\n"
        "def loaded():\n"
        "    unwanted = {'dataclasses', 'numpy', 'nosignal.gridsolver'}\n"
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


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_oracle_defaults_openblas_to_one_thread(tmp_path, preset, expected):
    # the oracle calls no BLAS routine; it sets OPENBLAS_NUM_THREADS before
    # numpy's first import, unless the user has set it
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
