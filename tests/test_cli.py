"""Command-line runner: validation, artifacts, determinism, compare, verify."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import photonflow
from photonflow import cli, io
from photonflow.config import load_config
from photonflow.core import ConfigError
from photonflow.pipeline import PATH_DELAY_PS

from test_golden import cli_config_text

PROFILE_DIR = Path(__file__).resolve().parent.parent / "profiles"

HBT_CONFIG = """
[run]
experiment = hbt
n_pulses = 40000
seed = 31415
output_dir = {outdir}

[pulse_train]
rep_rate_mhz = 73.0
pulse_width_ps = 20.0

[emitter]
wavelength_nm = 945.0
lifetime_tau_ps = 271.0
p_emit = 0.4
p_multi = 0.01

[detector1]
efficiency = 0.9
irf_sigma_ps = 120.0
dead_time_ps = 25000
dark_rate_cps = 100.0

[detector2]
efficiency = 0.9
irf_sigma_ps = 120.0
dead_time_ps = 25000
dark_rate_cps = 100.0

[analysis]
bin_width_ps = 100
"""

SATURATION_CONFIG = """
[run]
experiment = saturation_scan
n_pulses = 1
seed = 7
output_dir = {outdir}

[conversion]
pump_power_mw = 327.0
eta_max = 0.417
p_sat_mw = 327.0

[saturation_scan]
n_points = 15
p_min_mw = 20.0
p_max_mw = 500.0
noise_fraction = 0.01
"""


def write_config(tmp_path, body, name="run.cfg", **fmt):
    path = tmp_path / name
    path.write_text(body.format(**fmt))
    return path


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        bad = HBT_CONFIG + "\n[emitter]\nlifetme_tau_ps = 3\n"
        # configparser collapses duplicate sections, so append inside emitter
        bad = HBT_CONFIG.replace("p_multi = 0.01", "p_multi = 0.01\nnonsense_key = 1")
        path = write_config(tmp_path, bad, outdir=tmp_path / "out")
        with pytest.raises(ConfigError, match="nonsense_key"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, HBT_CONFIG + "\n[mystery]\nx = 1\n", outdir=tmp_path / "out")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_unknown_experiment_rejected(self, tmp_path):
        path = write_config(
            tmp_path, HBT_CONFIG.replace("experiment = hbt", "experiment = banana"), outdir=tmp_path
        )
        with pytest.raises(ConfigError, match="banana"):
            load_config(path)

    def test_missing_required_section(self, tmp_path):
        body = HBT_CONFIG.split("[emitter]")[0]
        path = write_config(tmp_path, body, outdir=tmp_path / "out")
        with pytest.raises(ConfigError, match="emitter"):
            load_config(path)

    def test_bad_value_type(self, tmp_path):
        path = write_config(
            tmp_path, HBT_CONFIG.replace("p_emit = 0.4", "p_emit = often"), outdir=tmp_path
        )
        with pytest.raises(ConfigError, match="p_emit"):
            load_config(path)

    def test_cli_exit_code_on_bad_config(self, tmp_path, capsys):
        path = write_config(
            tmp_path, HBT_CONFIG.replace("p_emit = 0.4", "p_emit = 1.4"), outdir=tmp_path
        )
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_irf_jitter_must_fit_path_delay(self, tmp_path, capsys):
        # ten sigma of jitter must stay inside the path delay that keeps tags
        # positive; a wider jitter stops the run before it simulates
        limit = PATH_DELAY_PS / 10
        head, tail = HBT_CONFIG.rsplit("irf_sigma_ps = 120.0", 1)
        path = write_config(tmp_path, f"{head}irf_sigma_ps = {limit}{tail}", outdir=tmp_path / "out")
        assert load_config(path).det2.irf_sigma_ps == limit
        path = write_config(tmp_path, f"{head}irf_sigma_ps = {limit + 1}{tail}", outdir=tmp_path / "out")
        with pytest.raises(ConfigError, match=r"\[detector2\] irf_sigma_ps"):
            load_config(path)
        wide = HBT_CONFIG.replace("irf_sigma_ps = 120.0", "irf_sigma_ps = 2000000")
        path = write_config(tmp_path, wide, outdir=tmp_path / "out")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "irf_sigma_ps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", ["inf", "1e400"])
    def test_non_finite_int_rejected(self, tmp_path, capsys, raw):
        body = HBT_CONFIG.replace("n_pulses = 40000", f"n_pulses = {raw}")
        path = write_config(tmp_path, body, outdir=tmp_path / "out")
        with pytest.raises(ConfigError, match="n_pulses"):
            load_config(path)
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "n_pulses" in capsys.readouterr().err

    def test_run_needs_a_pulse(self, tmp_path, capsys):
        # an empty pulse train is rejected before the output directory exists
        body = HBT_CONFIG.replace("n_pulses = 40000", "n_pulses = 0")
        path = write_config(tmp_path, body, outdir=tmp_path / "out")
        with pytest.raises(ConfigError, match="n_pulses"):
            load_config(path)
        assert cli.main(["run", str(path), "--dry-run"]) == cli.EXIT_CONFIG
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "n_pulses" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["bin_width_ps", "lifetime_bin_width_ps"])
    def test_bin_width_must_be_positive(self, tmp_path, capsys, key):
        # a zero bin width is rejected at load, before the output directory exists
        body = HBT_CONFIG.replace("[analysis]\nbin_width_ps = 100", f"[analysis]\n{key} = 0")
        path = write_config(tmp_path, body, outdir=tmp_path / "out")
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert cli.main(["run", str(path), "--dry-run"]) == cli.EXIT_CONFIG
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integer_keys_read_exactly(self, tmp_path, capsys):
        # 2**53 + 1 has no float64; it must not be read through float
        seed = 2**53 + 1
        body = HBT_CONFIG.replace("seed = 31415", f"seed = {seed}")
        path = write_config(tmp_path, body, outdir=tmp_path / "out")
        assert load_config(path).seed.master_seed == seed
        assert cli.main(["run", str(path), "--dry-run"]) == cli.EXIT_OK
        assert f"run.seed = {seed}" in capsys.readouterr().out.splitlines()
        body = HBT_CONFIG.replace("n_pulses = 40000", "n_pulses = 4e4")
        assert load_config(write_config(tmp_path, body, outdir=tmp_path / "out")).n_pulses == 40000

    @pytest.mark.parametrize("n_points", [-1, 0, 3])
    def test_saturation_scan_needs_four_points(self, tmp_path, capsys, n_points):
        # the fit needs four points; fewer is a config error, caught before the run
        body = SATURATION_CONFIG.replace("n_points = 15", f"n_points = {n_points}")
        path = write_config(tmp_path, body, outdir=tmp_path / "out")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_seed_and_workers_override(self, tmp_path):
        path = write_config(tmp_path, HBT_CONFIG, outdir=tmp_path / "out")
        cfg = load_config(path, seed_override=999, workers_override=4)
        assert cfg.seed.master_seed == 999
        assert cfg.workers == 4


class TestDryRun:
    def test_prints_resolved_config_without_artifacts(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        path = write_config(tmp_path, HBT_CONFIG, outdir=outdir)
        assert cli.main(["run", str(path), "--dry-run"]) == cli.EXIT_OK
        printed = capsys.readouterr().out
        assert "run.experiment = hbt" in printed
        assert "emitter.p_emit = 0.4" in printed
        assert not outdir.exists()

    @pytest.mark.parametrize("name", [p.name for p in sorted(PROFILE_DIR.glob("*.cfg"))])
    def test_printed_config_reloads_to_the_same_run(self, tmp_path, capsys, name):
        # the dry run prints every resolved key; written back as a config file
        # it describes the same run.  A key left unset prints as None and is
        # left out of the rewritten file.
        original = load_config(PROFILE_DIR / name, seed_override=5, workers_override=2)
        assert cli.main(["run", str(PROFILE_DIR / name), "--dry-run", "--seed", "5", "--workers", "2"]) == 0
        sections: dict[str, list[str]] = {}
        for line in capsys.readouterr().out.splitlines():
            key, value = line.split(" = ", 1)
            section, key = key.split(".", 1)
            lines = sections.setdefault(section, [])
            if value != "None":
                lines.append(f"{key} = {value}")
        assert len(sections["run"]) == 5
        rewritten = tmp_path / "resolved.cfg"
        rewritten.write_text("".join(f"[{s}]\n" + "\n".join(ls) + "\n" for s, ls in sections.items()))
        reloaded = load_config(rewritten)
        assert replace(reloaded, source_text="") == replace(original, source_text="")


class TestRunArtifacts:
    def test_hbt_run_writes_everything(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        path = write_config(tmp_path, HBT_CONFIG, outdir=outdir)
        assert cli.main(["run", str(path)]) == cli.EXIT_OK
        names = {p.name for p in outdir.iterdir()}
        assert {
            "tags_ch0.pftg",
            "tags_ch1.pftg",
            "correlation.csv",
            "correlation.svg",
            "report.txt",
            "manifest.json",
        } <= names
        report = io.read_report(outdir / "report.txt")
        assert report["experiment"] == "hbt"
        assert "g2" in report and "g2_err" in report
        svg = (outdir / "correlation.svg").read_text()
        assert svg.startswith("<svg") and "<!-- data" in svg

    def test_verify_detects_tampering(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        path = write_config(tmp_path, HBT_CONFIG, outdir=outdir)
        cli.main(["run", str(path)])
        assert cli.main(["verify", str(outdir)]) == cli.EXIT_OK
        (outdir / "report.txt").write_text("experiment = hbt\n")
        assert cli.main(["verify", str(outdir)]) == cli.EXIT_RUNTIME

    @pytest.mark.parametrize(
        "body",
        [
            '{"artifacts": ',
            "{}",
            "[]",
            '{"artifacts": {"report.txt": 5}}',
            '{"artifacts": {"/etc/hostname": "0"}}',
            '{"artifacts": {"../report.txt": "0"}}',
            '{"artifacts": {"report\\u0000.txt": "0"}}',
        ],
    )
    def test_verify_rejects_malformed_manifest(self, tmp_path, capsys, body):
        (tmp_path / "manifest.json").write_text(body)
        assert cli.main(["verify", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "manifest.json" in capsys.readouterr().err

    def test_output_under_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        path = write_config(tmp_path, SATURATION_CONFIG, outdir=tmp_path / "unused")
        assert cli.main(["run", str(path), "--output", str(blocker / "out")]) == cli.EXIT_RUNTIME
        assert "cannot write" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        path = write_config(tmp_path, HBT_CONFIG, outdir=tmp_path / "unused")
        assert cli.main(["run", str(path), "--output", str(out_a)]) == cli.EXIT_OK
        assert cli.main(["run", str(path), "--output", str(out_b)]) == cli.EXIT_OK
        for name in ("tags_ch0.pftg", "tags_ch1.pftg", "correlation.csv", "report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        ma = json.loads((out_a / "manifest.json").read_text())
        mb = json.loads((out_b / "manifest.json").read_text())
        ma.pop("created_utc")
        mb.pop("created_utc")
        assert ma == mb

    def test_format_csv_skips_plots(self, tmp_path):
        outdir = tmp_path / "out"
        path = write_config(tmp_path, HBT_CONFIG, outdir=outdir)
        cli.main(["run", str(path), "--format", "csv"])
        names = {p.name for p in outdir.iterdir()}
        assert "correlation.csv" in names
        assert "correlation.svg" not in names

    def test_env_var_overrides_output(self, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("PHOTONFLOW_OUTPUT", str(env_out))
        path = write_config(tmp_path, HBT_CONFIG, outdir=tmp_path / "cfg_out")
        assert cli.main(["run", str(path)]) == cli.EXIT_OK
        assert (env_out / "report.txt").exists()
        assert not (tmp_path / "cfg_out").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHOTONFLOW_OUTPUT", str(tmp_path / "env_out"))
        flag_out = tmp_path / "flag_out"
        path = write_config(tmp_path, HBT_CONFIG, outdir=tmp_path / "cfg_out")
        cli.main(["run", str(path), "--output", str(flag_out)])
        assert (flag_out / "report.txt").exists()
        assert not (tmp_path / "env_out").exists()

    def test_saturation_run(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        path = write_config(tmp_path, SATURATION_CONFIG, outdir=outdir)
        assert cli.main(["run", str(path)]) == cli.EXIT_OK
        assert (outdir / "saturation.csv").read_text().startswith("pump_mw,eta_measured,eta_fit")
        report = io.read_report(outdir / "report.txt")
        assert abs(report["eta_max"] - 0.417) < 0.01
        assert abs(report["p_sat_mw"] - 327.0) / 327.0 < 0.05

    def test_saturation_run_at_full_noise(self, tmp_path, capsys):
        # measured efficiencies above 1 must not stop the fit with a traceback;
        # this seed's best fit is a sin^2 with P_sat far below the 20 mW first
        # scan point, oscillating between the scan points, so it is flagged
        text = (PROFILE_DIR / "saturation.cfg").read_text()
        path = write_config(tmp_path, text.replace("noise_fraction = 0.01", "noise_fraction = 1.0"))
        outdir = tmp_path / "out"
        assert cli.main(["run", str(path), "--seed", "1", "--output", str(outdir)]) == cli.EXIT_FLAGGED
        err = capsys.readouterr().err
        assert "below the smallest scan power, 20 mW" in err
        assert "corrected value" not in err
        assert io.read_report(outdir / "report.txt")["p_sat_mw"] < 20.0

    def test_flagged_result_exits_3(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, HBT_CONFIG, outdir=tmp_path / "out")

        def fake_runner(cfg, art):
            return {"experiment": "hbt", "seed": 0, "n_pulses": 0}, "a fake reason"

        monkeypatch.setitem(cli._RUNNERS, "hbt", fake_runner)
        assert cli.main(["run", str(path)]) == cli.EXIT_FLAGGED
        assert "result flagged: a fake reason" in capsys.readouterr().err


class TestCompare:
    def write_report_dir(self, path, items):
        path.mkdir(parents=True, exist_ok=True)
        io.write_report(path / "report.txt", items)
        return path

    def test_identical_runs_all_zero(self, tmp_path, capsys):
        items = {"experiment": "hbt", "g2": 0.02, "g2_err": 0.003}
        a = self.write_report_dir(tmp_path / "a", items)
        b = self.write_report_dir(tmp_path / "b", items)
        assert cli.main(["compare", str(a), str(b)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "consistent" in out

    def test_paper_style_g2_comparison(self, tmp_path, capsys):
        a = self.write_report_dir(tmp_path / "a", {"experiment": "hbt", "g2": 0.020, "g2_err": 0.003})
        b = self.write_report_dir(tmp_path / "b", {"experiment": "hbt", "g2": 0.024, "g2_err": 0.002})
        assert cli.main(["compare", str(a), str(b)]) == cli.EXIT_OK

    def test_inconsistent_detected(self, tmp_path, capsys):
        a = self.write_report_dir(tmp_path / "a", {"experiment": "hbt", "g2": 0.020, "g2_err": 0.001})
        b = self.write_report_dir(tmp_path / "b", {"experiment": "hbt", "g2": 0.030, "g2_err": 0.001})
        assert cli.main(["compare", str(a), str(b)]) == cli.EXIT_RUNTIME
        assert "INCONSISTENT" in capsys.readouterr().out

    def test_mismatched_experiments_error(self, tmp_path, capsys):
        a = self.write_report_dir(tmp_path / "a", {"experiment": "hbt", "g2": 0.02, "g2_err": 0.01})
        b = self.write_report_dir(tmp_path / "b", {"experiment": "lifetime", "tau_ps": 270.0, "tau_ps_err": 1.0})
        assert cli.main(["compare", str(a), str(b)]) == cli.EXIT_CONFIG

    def test_lifetime_before_after_consistency(self, tmp_path):
        a = self.write_report_dir(
            tmp_path / "a", {"experiment": "lifetime", "tau_ps": 271.0, "tau_ps_err": 16.0}
        )
        b = self.write_report_dir(
            tmp_path / "b", {"experiment": "lifetime", "tau_ps": 269.0, "tau_ps_err": 4.0}
        )
        assert cli.main(["compare", str(a), str(b)]) == cli.EXIT_OK

    @pytest.mark.parametrize(
        "body",
        [
            "experiment = hbt\n= 3\n",
            "experiment = hbt\ng2 0.02\n",
            "experiment = hbt\ng2 = abc\ng2_err = 0.001\n",
        ],
    )
    def test_malformed_report_exits_2(self, tmp_path, capsys, body):
        a = self.write_report_dir(tmp_path / "a", {"experiment": "hbt", "g2": 0.02, "g2_err": 0.001})
        b = tmp_path / "b"
        b.mkdir()
        (b / "report.txt").write_text(body)
        assert cli.main(["compare", str(a), str(b)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")


class TestProfiles:
    @pytest.mark.parametrize("name", [p.name for p in sorted(PROFILE_DIR.glob("*.cfg"))])
    def test_profiles_validate(self, name):
        cfg = load_config(PROFILE_DIR / name)
        assert cfg.experiment in (
            "lifetime",
            "hbt",
            "hom_co",
            "hom_cross",
            "hom_paired",
            "rate",
            "saturation_scan",
        )


# Runs in a fresh interpreter: imports the CLI, runs each profile and lists the
# scipy modules loaded after each step, then imports scipy as a control.
SCIPY_PROBE = """
import contextlib, io, json, sys
from photonflow import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = {"import": [0, scipy_modules()]}
for name, config, outdir in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", config, "--output", outdir])
    steps[name] = [code, scipy_modules()]
import scipy.optimize  # the control: a scipy import does show in the list
steps["control"] = [0, scipy_modules()]
print(json.dumps(steps))
"""


class TestColdStart:
    def test_scipy_stays_off_the_run_path(self, tmp_path):
        # the package runs on numpy alone: importing the CLI and running any
        # profile loads no scipy module
        runs = []
        for name in ("hbt_930", "hom_930", "lifetime_1550", "rate_1550", "saturation"):
            config = tmp_path / f"{name}.cfg"
            config.write_text(cli_config_text(name))
            runs.append((name, str(config), str(tmp_path / name)))
        src = Path(photonflow.__file__).resolve().parent.parent
        path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, json.dumps(runs)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        steps = json.loads(proc.stdout)
        assert "scipy.optimize" in steps.pop("control")[1]
        assert steps == {step: [cli.EXIT_OK, []] for step in ("import", *(run[0] for run in runs))}
