import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathamp
import same_outputs
from pathamp import _cli_argparse, cli
from pathamp.cli import main
from test_cli_golden import GOLDEN_ARGV
from test_cli_properties import _argv, _mutated


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReflectCommand:
    def test_benchmark_values(self, capsys):
        code, out, _ = run_cli(["reflect", "--n2", "1.5"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["outputs"]["rho_path"] == pytest.approx(1 / 36, rel=1e-9)
        assert summary["outputs"]["rho_fresnel"] == pytest.approx(0.04, rel=1e-9)
        assert summary["outputs"]["phase"] == "pi"

    def test_inputs_are_echoed(self, capsys):
        _, out, _ = run_cli(["reflect", "--n2", "1.5"], capsys)
        summary = json.loads(out)
        assert summary["inputs"] == {"n1": 1.0, "n2": 1.5}
        assert summary["argv"][0] == "reflect"


class TestUnitEnforcement:
    def test_missing_unit_rejected(self, capsys):
        code, out, err = run_cli(["michelson", "--arm", "0.5", "--d", "25cm",
                                  "--tau", "10ns"], capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "UnitError"
        assert "--arm" in payload["message"]

    def test_unknown_unit_rejected(self, capsys):
        code, _, err = run_cli(["michelson", "--arm", "50furlong",
                                "--d", "25cm", "--tau", "10ns"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "UnitError"

    @pytest.mark.parametrize("value", [".", "..", "1.2.3", "1..5", "+.e5"])
    @pytest.mark.parametrize("argv,flag,suffix", [
        (["reflect", "--n2", "{}"], "--n2", ""),
        (["snell", "--n1", "1.5", "--n2", "1", "--theta-i", "{}"], "--theta-i", "deg"),
        (["propagator", "--r", "{}", "--beta", "0.5"], "--r", "m"),
        (["oracle", "--op", "half-zone", "--x1", "{}"], "--x1", "m"),
    ], ids=["bare", "angle", "length", "oracle-length"])
    def test_malformed_number_rejected(self, capsys, argv, flag, suffix, value):
        text = value + suffix
        code, out, err = run_cli([text if a == "{}" else a for a in argv], capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "UnitError"
        assert payload["message"].startswith(f"{flag}: ")
        assert repr(text) in payload["message"]

    def test_physical_precondition_becomes_error_json(self, capsys):
        code, _, err = run_cli(["refract-series", "--dphi", "1.0",
                                "--betal", "1000"], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "PreconditionError"


class TestMichelsonCommand:
    def test_asymptote_and_curve(self, capsys, tmp_path):
        csv_path = tmp_path / "fig.csv"
        code, out, _ = run_cli(["michelson", "--L", "50cm", "--d", "25cm",
                                "--tau", "10ns", "--curve", str(csv_path)],
                               capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["outputs"]["visibility_asymptote"] \
            == pytest.approx(0.920, abs=1e-3)
        header = csv_path.read_text().splitlines()[0]
        assert header == "t_max_ns,visibility"


class TestNeutrinoCommand:
    def test_pion_source_near_half_oscillation(self, capsys):
        code, out, _ = run_cli(["neutrino", "--source", "pion",
                                "--dm2", "2e-3eV2", "--L", "6879m"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["outputs"]["p0_mev_c"] == pytest.approx(29.79, rel=1e-3)
        assert abs(summary["outputs"]["phi_path"]) \
            == pytest.approx(math.pi, rel=1e-3)
        assert summary["flagged_discrepancies"]


class TestRoundTrip:
    def test_summary_reingestion_is_bit_identical(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        code, first, _ = run_cli(["--out", str(out_file), "oracle", "--op",
                                  "mc-volume", "--order", "4",
                                  "--length", "1m", "--samples", "20000",
                                  "--seed", "42"], capsys)
        assert code == 0
        code, second, _ = run_cli(["--config", str(out_file)], capsys)
        assert code == 0
        assert second == first

    def test_replay_with_output_file(self, capsys, tmp_path):
        first_file = tmp_path / "s.json"
        replay_file = tmp_path / "t.json"
        code, first, _ = run_cli(["--out", str(first_file), "snell",
                                  "--n1", "1.5", "--n2", "1.0",
                                  "--theta-i", "30deg", "--search"], capsys)
        assert code == 0
        code, second, err = run_cli(["--config", str(first_file),
                                     "--out", str(replay_file)], capsys)
        assert code == 0, err
        assert second == first
        assert replay_file.read_bytes() == first_file.read_bytes()

    @pytest.mark.parametrize("out_form,config_form", [
        (lambda p: [f"--out={p}"], lambda p: ["--config", p]),
        (lambda p: ["--ou", p], lambda p: ["--config", p]),
        (lambda p: ["--out", p], lambda p: [f"--config={p}"]),
    ], ids=["out-equals", "out-abbreviated", "config-equals"])
    def test_stored_argv_starts_at_the_subcommand(self, capsys, tmp_path,
                                                  out_form, config_form):
        # the stored argv once kept "--out=PATH" and "--ou PATH", so the
        # replay wrote over PATH and never wrote the file --out named
        first_file, replay_file = str(tmp_path / "s.json"), str(tmp_path / "t.json")
        physics = ["reflect", "--n2", "1.5"]
        code, first, err = run_cli(out_form(first_file) + physics, capsys)
        assert code == 0, err
        assert json.loads(first)["argv"] == physics
        code, second, err = run_cli(config_form(first_file) + ["--out", replay_file],
                                    capsys)
        assert code == 0, err
        assert second == first
        with open(replay_file, "rb") as a, open(first_file, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("argv", [
        ["--out=a.json", "reflect", "--n2", "1.5"],
        ["--ou", "a.json", "reflect", "--n2", "1.5"],
        [],
    ], ids=["out-equals", "out-abbreviated", "empty"])
    def test_replayed_argv_must_start_at_a_subcommand(self, capsys, tmp_path, argv,
                                                      monkeypatch):
        # a summary written before the stored argv started at the subcommand
        # kept "--out=a.json" first: its replay wrote over a.json, never
        # wrote the file --out named, and exited 0
        monkeypatch.chdir(tmp_path)
        stored, replay_file = tmp_path / "a.json", tmp_path / "b.json"
        stored.write_text(json.dumps({"argv": argv}))
        first = argv[0] if argv else ""
        before = stored.read_bytes()
        code, out, err = run_cli(["--config", str(stored), "--out", str(replay_file)],
                                 capsys)
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert f"starts at {first!r}, not at a subcommand" in payload["message"]
        assert stored.read_bytes() == before
        assert not replay_file.exists()

    def test_seed_changes_output(self, capsys):
        _, a, _ = run_cli(["oracle", "--op", "mc-volume", "--order", "4",
                           "--length", "1m", "--samples", "20000",
                           "--seed", "1"], capsys)
        _, b, _ = run_cli(["oracle", "--op", "mc-volume", "--order", "4",
                           "--length", "1m", "--samples", "20000",
                           "--seed", "2"], capsys)
        assert json.loads(a)["outputs"]["estimate"] \
            != json.loads(b)["outputs"]["estimate"]


class TestReproduceRecipes:
    def test_fig9(self, capsys, tmp_path):
        csv_path = tmp_path / "fig9.csv"
        code, out, _ = run_cli(["reproduce", "--recipe", "fig9",
                                "--csv", str(csv_path)], capsys)
        assert code == 0
        summary = json.loads(out)
        asym = summary["outputs"]["asymptotes"]
        assert asym["d=12.5cm"] == pytest.approx(0.959, abs=1e-3)
        assert asym["d=25cm"] == pytest.approx(0.920, abs=1e-3)
        assert asym["d=50cm"] == pytest.approx(0.846, abs=1e-3)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t_max_ns,V_A,V_B,V_C"
        # before the d=50cm long-arm arrival the V_C cell is empty
        assert lines[1].endswith(",")

    def test_table1_flags_sodium(self, capsys):
        code, out, _ = run_cli(["reproduce", "--recipe", "table1"], capsys)
        summary = json.loads(out)
        assert code == 0
        assert any("Na" in f["quantity"]
                   for f in summary["flagged_discrepancies"])

    def test_table2_ratios(self, capsys):
        code, out, _ = run_cli(["reproduce", "--recipe", "table2-ratios"],
                               capsys)
        summary = json.loads(out)
        assert summary["outputs"]["ratio_10mev_to_1gev"] \
            == pytest.approx(6.27 / 2.8, rel=0.01)

    def test_table3(self, capsys):
        code, out, _ = run_cli(["reproduce", "--recipe", "table3"], capsys)
        rows = json.loads(out)["outputs"]["rows"]
        assert set(rows) == {"photon-ydse", "electron-ydse", "kaon", "neutrino"}

    def test_reflection_recipe(self, capsys):
        code, out, _ = run_cli(["reproduce", "--recipe", "eq7.8"], capsys)
        outputs = json.loads(out)["outputs"]
        assert outputs["rho_path"] == pytest.approx(0.027778, rel=1e-4)

    def test_oscillation_length_recipe(self, capsys):
        code, out, _ = run_cli(["reproduce", "--recipe", "eq9.65"], capsys)
        outputs = json.loads(out)["outputs"]
        assert outputs["half_oscillation_distance_times_dm2_m_ev2"] \
            == pytest.approx(13.76, rel=0.005)
        assert outputs["cos_argument_at_that_distance_rad"] \
            == pytest.approx(math.pi, rel=1e-9)


class TestPropagatorCommand:
    def test_photon_covariant(self, capsys):
        code, out, _ = run_cli(["propagator", "--r", "2m"], capsys)
        assert code == 0
        amp = json.loads(out)["outputs"]["amplitude"]
        assert amp["modulus"] == pytest.approx(0.5, rel=1e-12)
        assert amp["phase_rad"] == 0.0

    def test_temporal_two_lifetimes(self, capsys):
        code, out, _ = run_cli(["propagator", "--mode", "temporal",
                                "--wavelength", "589.3nm", "--tau", "16.2ns",
                                "--dtau", "32.4ns"], capsys)
        amp = json.loads(out)["outputs"]["amplitude"]
        assert amp["modulus"] == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_energy_mode_peak(self, capsys):
        code, out, _ = run_cli(["propagator", "--mode", "energy",
                                "--energy", "2eV", "--energy0", "2eV",
                                "--width", "1e-7eV"], capsys)
        amp = json.loads(out)["outputs"]["amplitude"]
        assert amp["modulus"] == pytest.approx(2 * 6.582119569e-16 / 1e-7,
                                               rel=1e-9)

    def test_missing_mode_argument(self, capsys):
        code, _, err = run_cli(["propagator", "--mode", "temporal"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "UnitError"


class TestOtherCommands:
    def test_diffraction_normal_incidence(self, capsys):
        code, out, _ = run_cli(["diffraction", "--wavelength", "589.3nm"],
                               capsys)
        amp = json.loads(out)["outputs"]["amplitude_per_m"]
        assert amp["modulus"] == pytest.approx(1
                                               / 589.3e-9, rel=1e-9)
        assert amp["phase_rad"] == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_refract_index_forward_and_inverse(self, capsys):
        _, out, _ = run_cli(["refract-index", "--wavelength", "589.3nm",
                             "--density", "2.5e27m-3", "--n", "1.5"], capsys)
        outputs = json.loads(out)["outputs"]
        assert outputs["n_roundtrip"] == pytest.approx(1.5, rel=1e-12)
        _, out2, _ = run_cli(["refract-index", "--wavelength", "589.3nm",
                              "--density", "2.5e27m-3", "--scattering-length",
                              f"{outputs['scattering_length_m']}m"], capsys)
        assert json.loads(out2)["outputs"]["n"] == pytest.approx(1.5, rel=1e-6)

    def test_refract_series(self, capsys):
        code, out, _ = run_cli(["refract-series", "--dphi", "0.0",
                                "--betal", "5.0"], capsys)
        outputs = json.loads(out)["outputs"]
        assert outputs["factor"]["re"] == 1.0 and outputs["factor"]["im"] == 0.0
        assert outputs["regime"].startswith("fully-annulled")

    def test_annulment_command(self, capsys):
        code, out, _ = run_cli(["annulment", "--radius", "5cm",
                                "--axis-distance", "200cm",
                                "--wavelength", "590nm",
                                "--block-length", "40cm",
                                "--n", "1.5", "--tau", "54ns"], capsys)
        summary = json.loads(out)
        assert summary["outputs"]["delta_s_max_m"] == pytest.approx(625e-6,
                                                                    rel=1e-9)
        assert summary["flagged_discrepancies"]

    def test_snell_with_search(self, capsys):
        code, out, _ = run_cli(["snell", "--n1", "1.5", "--n2", "1.0",
                                "--theta-i", "30deg", "--search"], capsys)
        outputs = json.loads(out)["outputs"]
        assert outputs["theta_o_deg"] == pytest.approx(48.59, abs=0.01)
        assert outputs["theta_o_stationary_rad"] \
            == pytest.approx(outputs["theta_o_rad"], abs=1e-6)

    def test_snell_search_at_normal_incidence(self, capsys):
        # the stationary point lies below the search window's lower edge
        code, out, _ = run_cli(["snell", "--n1", "1.5", "--n2", "1.0",
                                "--theta-i", "0deg", "--search"], capsys)
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert abs(outputs["theta_o_stationary_rad"]) <= 1e-12

    def test_snell_total_internal_reflection_error(self, capsys):
        code, _, err = run_cli(["snell", "--n1", "1.5", "--n2", "1.0",
                                "--theta-i", "80deg"], capsys)
        assert code == 2
        assert "critical" in json.loads(err)["message"]

    def test_ydse_photon_curve(self, capsys, tmp_path):
        csv_path = tmp_path / "ydse.csv"
        code, out, _ = run_cli(["ydse", "--kind", "photon",
                                "--wavelength", "589.3nm",
                                "--curve", str(csv_path)], capsys)
        outputs = json.loads(out)["outputs"]
        assert outputs["fringe_spacing_m"] == pytest.approx(29.5e-6, rel=0.01)
        assert csv_path.read_text().splitlines()[0] == "y_m,probability"

    def test_ydse_electron_reports_both_reference_figures(self, capsys):
        code, out, _ = run_cli(["ydse", "--kind", "electron"], capsys)
        summary = json.loads(out)
        assert summary["outputs"]["reference_coeffs"] == [1.7e-9, 1.9e-6]
        assert summary["flagged_discrepancies"]

    def test_kaon_command(self, capsys):
        code, out, _ = run_cli(["kaon", "--p", "194MeV/c", "--tau", "0s"],
                               capsys)
        outputs = json.loads(out)["outputs"]
        assert outputs["p_plus"] == pytest.approx(4.0, rel=1e-12)
        assert outputs["p_minus"] == 0.0
        assert outputs["dp_over_p_equal_velocity"] == pytest.approx(1.8e-14,
                                                                    rel=0.01)

    def test_classify_command(self, capsys):
        code, out, _ = run_cli(["classify", "--kind", "kaon"], capsys)
        outputs = json.loads(out)["outputs"]
        assert outputs["wavelength_ratio"] == "2 (p_bar/(m_S c))^2"

    def test_oracle_half_zone(self, capsys):
        code, out, _ = run_cli(["oracle", "--op", "half-zone",
                                "--wavelength", "589.3nm", "--x1", "1m",
                                "--rho-over-kappa", "1e-7"], capsys)
        outputs = json.loads(out)["outputs"]
        assert outputs["relative_difference"] < 0.02

    def test_oracle_nested(self, capsys):
        code, out, _ = run_cli(["oracle", "--op", "nested", "--order", "3",
                                "--dphi", "2.0"], capsys)
        outputs = json.loads(out)["outputs"]
        assert outputs["relative_difference"] < 1e-6

    def test_beta_mode_emits_strict_json(self, capsys):
        code, out, _ = run_cli(["neutrino", "--source", "beta",
                                "--dm2", "2e-3eV2", "--L", "100m",
                                "--beta-energy", "1MeV",
                                "--p-nu", "0.3MeV/c"], capsys)
        assert code == 0
        summary = json.loads(out)   # strict parse: no bare NaN tokens
        assert summary["outputs"]["phi_compact"] is None
        assert summary["outputs"]["phi_path"] > 0

    @pytest.mark.parametrize("samples", [["--samples", "0"], ["--samples=-5"]])
    def test_oracle_refuses_non_positive_samples(self, capsys, samples):
        code, out, err = run_cli(["oracle", "--op", "mc-volume", *samples],
                                 capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert "samples" in payload["message"]

    def test_unknown_flag_yields_error_json(self, capsys):
        code, out, err = run_cli(["reflect", "--n2", "1.5", "--bogus", "1"],
                                 capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ArgumentError"
        assert "--bogus" in payload["message"]


class TestFloatRange:
    """A quantity that is not a finite double once parsed and scaled to its
    unit is refused with UnitError, exit 2; a literal zero is accepted."""

    @pytest.mark.parametrize("argv,flag", [
        (["reflect", "--n2", "1e400"], "--n2"),
        (["snell", "--n1", "1.5", "--n2", "1e400", "--theta-i", "10deg"], "--n2"),
        (["refract-series", "--dphi=-1e309", "--betal", "5"], "--dphi"),
        (["kaon", "--p", "2e305GeV"], "--p"),
        (["diffraction", "--wavelength", "1e-320A"], "--wavelength"),
        (["michelson", "--L", "1e400cm", "--d", "25cm", "--tau", "10ns"], "--arm"),
        (["reflect", "--n2", "1e-400"], "--n2"),
        (["propagator", "--mode", "temporal", "--wavelength", "589.3nm",
          "--tau", "16ns", "--dtau", "0.5e-330ns"], "--dtau"),
    ], ids=["bare-overflow", "snell-bare-overflow", "negative-overflow",
            "unit-overflow", "unit-underflow", "alias-overflow", "bare-underflow",
            "mantissa-underflow"])
    def test_out_of_range_value_refused(self, capsys, argv, flag):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "UnitError"
        assert payload["message"].startswith(f"{flag}: ")
        assert "outside the range of a double" in payload["message"]

    @pytest.mark.parametrize("dtau", ["0ns", "0.0ns", "-0s", "0e5ps", "00.000us"])
    def test_literal_zero_accepted(self, capsys, dtau):
        code, out, _ = run_cli(["propagator", "--mode", "temporal",
                                "--wavelength", "589.3nm", "--tau", "16ns",
                                f"--dtau={dtau}"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["inputs"]["dtau_s"] == 0.0
        assert summary["outputs"]["amplitude"]["modulus"] == 1.0

    def test_subnormal_after_scaling_accepted(self, capsys):
        # 1e-313 m is subnormal but not zero: kept as given
        code, out, _ = run_cli(["reflect", "--n2", "1.5", "--film-thickness",
                                "1e-304nm", "--wavelength", "500nm"], capsys)
        assert code == 0
        assert json.loads(out)["outputs"]["rho_film"] >= 0.0


class TestModeFlags:
    """Flags a handler needs but argparse cannot require give UnitError."""

    @pytest.mark.parametrize("argv,flag", [
        (["refract-index", "--wavelength", "500nm", "--density", "1e25m-3"],
         "--scattering-length"),
        (["neutrino", "--source", "beta", "--dm2", "1eV2", "--L", "1m"],
         "--beta-energy"),
        (["neutrino", "--source", "beta", "--dm2", "1eV2", "--L", "1m",
          "--beta-energy", "1MeV"], "--p-nu"),
    ])
    def test_missing_mode_flag(self, capsys, argv, flag):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "UnitError",
                                   "message": f"{flag} is required for this mode"}

    def test_zero_density_inverse_refused(self, capsys):
        code, out, err = run_cli(["refract-index", "--wavelength", "500nm",
                                  "--density", "0m-3", "--n", "1.5"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"


class TestTypedRefusals:
    """A value that would reach a division by zero, or a result that leaves
    float64, is a typed refusal with exit 2, not a traceback."""

    @pytest.mark.parametrize("argv,kind", [
        (["diffraction", "--wavelength", "0nm"], "DomainError"),
        (["michelson", "--L", "50cm", "--d", "25cm", "--tau", "10ns",
          "--wavelength", "0nm"], "DomainError"),
        (["ydse", "--wavelength", "0nm"], "DomainError"),
        (["oracle", "--op", "half-zone", "--wavelength", "0nm"], "DomainError"),
        (["propagator", "--r", "1m", "--beta", "0"], "DomainError"),
        (["kaon", "--p", "0MeV/c"], "DomainError"),
        (["neutrino", "--source", "beta", "--dm2", "2e-3eV2", "--L", "100m",
          "--beta-energy", "1MeV", "--p-nu", "0MeV/c"], "DomainError"),
        (["diffraction", "--wavelength", "1e-300A"], "DomainError"),
        (["kaon", "--p", "2.2250738585072014e-308MeV/c", "--distance", "1m"],
         "DomainError"),
        (["oracle", "--op", "half-zone", "--x1", "1e150mm"], "ConvergenceError"),
        (["oracle", "--op", "half-zone", "--wavelength", "1e300cm"], "ConvergenceError"),
        (["oracle", "--op", "half-zone", "--x1", "500000m", "--rho-over-kappa", "1e3"],
         "ConvergenceError"),
        (["reflect", "--n1", "1e300", "--n2", "1"], "OverflowError"),
        (["neutrino", "--source", "beta", "--dm2", "2e-3eV2", "--L", "100m",
          "--beta-energy", "2MeV", "--p-nu", "1MeV"], "DomainError"),
        (["neutrino", "--dm2", "1e-150eV2", "--L", "1e-300cm"], "DomainError"),
        (["refract-index", "--wavelength", "1e-300um", "--density", "1m-3",
          "--n", "1.5"], "DomainError"),
        (["michelson", "--L", "50cm", "--d", "25cm", "--tau", "1e20s",
          "--tmax", "700ns"], "DomainError"),
        (["reflect", "--n2", "1.5", "--thsm", "5e-324"], "DomainError"),
        (["ydse", "--tau", "5e-324s"], "DomainError"),
        (["ydse", "--source-distance", "1e300um", "--wavelength", "1e300um"],
         "DomainError"),
        (["ydse", "--kind", "electron", "--sigma-p", "1e-310MeV/c"], "DomainError"),
        (["neutrino", "--source", "beta", "--dm2", "2e-3eV2", "--L", "100m",
          "--beta-energy", "1MeV", "--p-nu", "1e-300MeV/c"], "DomainError"),
        (["oracle", "--op", "mc-volume", "--order", "2.9", "--samples", "1000"],
         "DomainError"),
        (["oracle", "--op", "nested", "--order", "1.5"], "DomainError"),
        (["oracle", "--op", "mc-volume", "--samples", "1000", "--seed", "-1"],
         "DomainError"),
        (["reflect", "--n2", "1.5", "--film-thickness", "100nm",
          "--wavelength", "1e-320m"], "DomainError"),
        (["annulment", "--radius", "5cm", "--axis-distance", "2m",
          "--wavelength", "1e-320m", "--block-length", "1cm", "--n", "1.5",
          "--tau", "10ns"], "DomainError"),
        (["propagator", "--mode", "temporal", "--wavelength", "500nm",
          "--tau", "10ns", "--dtau", "1e300s"], "DomainError"),
        (["propagator", "--mode", "covariant", "--mass", "1e300MeV",
          "--beta", "0.5", "--r", "1m"], "DomainError"),
        (["kaon", "--tau", "1e300s"], "DomainError"),
        (["neutrino", "--source", "kaon", "--dm2", "1e300eV2", "--L", "1e300A"],
         "DomainError"),
        (["reflect", "--n2", "1.5", "--film-thickness", "1e308m",
          "--wavelength", "500nm"], "DomainError"),
        (["michelson", "--L", "1m", "--d", "1e10m", "--tau", "1s",
          "--wavelength", "1e-300m", "--tmax", "1000s"], "DomainError"),
        (["oracle", "--op", "half-zone", "--wavelength", "1e-300m", "--x1", "1e300m"],
         "DomainError"),
        (["ydse", "--kind", "electron", "--screen-distance", "1e-300mm",
          "--sigma-p", "1e-300MeV"], "DomainError"),
        (["kaon", "--p", "1e-300MeV/c", "--distance", "1e300m"], "DomainError"),
        (["kaon", "--p", "1e-10MeV/c", "--distance", "1e300m"], "DomainError"),
        (["kaon", "--distance=-2m"], "DomainError"),
        (["neutrino", "--source", "beta", "--dm2", "2e-3eV2", "--L", "100m",
          "--beta-energy=-1MeV", "--p-nu", "0.3MeV/c"], "DomainError"),
        (["neutrino", "--source", "beta", "--dm2", "2e-3eV2", "--L", "100m",
          "--beta-energy", "0MeV", "--p-nu", "0.3MeV/c"], "DomainError"),
    ], ids=["diffraction", "michelson", "ydse", "half-zone", "propagator-beta", "kaon",
            "neutrino-beta-p", "subnormal-wavelength", "subnormal-kaon-p",
            "half-zone-far", "half-zone-overflow", "half-zone-unconverged-tail",
            "reflect-overflow",
            "neutrino-beta-no-phase", "neutrino-phase-underflow",
            "refract-index-underflow", "michelson-zero-over-zero",
            "reflect-thsm-underflow", "ydse-damping-overflow", "ydse-spacing-overflow",
            "ydse-electron-scale-overflow", "neutrino-beta-tiny-p",
            "mc-volume-fractional-order", "nested-fractional-order",
            "mc-volume-negative-seed", "reflect-film-subnormal-wavelength",
            "annulment-subnormal-wavelength", "temporal-phase-overflow",
            "covariant-phase-overflow", "kaon-phase-overflow",
            "neutrino-phase-overflow", "film-phase-overflow",
            "michelson-phase-overflow", "half-zone-phase-overflow",
            "ydse-electron-damping-underflow", "kaon-proper-time-overflow",
            "kaon-lab-phase-overflow", "kaon-negative-distance",
            "neutrino-beta-negative-energy", "neutrino-beta-zero-energy"])
    def test_refused(self, capsys, argv, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == kind

    def test_michelson_curve_starting_on_the_arrival_refused(self, capsys, tmp_path):
        # at --tau 0.1ns the 400 gates are 3e-3 ns apart, below the spacing
        # of doubles at the long-arm arrival of these arms, so gate times
        # would repeat (at 5e13 m the first would also be the arrival itself);
        # at --tau 1e-220s all 12 tau lie within one spacing of doubles
        path = tmp_path / "curve.csv"
        for arm, tau, spacing, span in (("2e12m", "0.1ns", "0.00390625", "1.2"),
                                        ("5e13m", "0.1ns", "0.125", "1.2"),
                                        ("0.5m", "1e-220s", "1.77636e-15", "1.2e-210")):
            code, out, err = run_cli(["michelson", "--L", arm, "--d", "1m",
                                      "--tau", tau, "--curve", str(path)], capsys)
            assert code == 2
            assert out == ""
            payload = json.loads(err)
            assert payload["error"] == "DomainError"
            assert f"a {float(arm[:-1]):g} m arm" in payload["message"]
            assert f"{spacing} ns apart" in payload["message"]
            assert f"12 tau = {span} ns" in payload["message"]
            assert not path.exists()

    @pytest.mark.parametrize("arm", ["1e14m", "5e13m"])
    def test_michelson_curve_at_a_far_arm_starts_past_the_arrival(self, capsys, tmp_path,
                                                                   arm):
        # the 0.05 ns offset rounds away here, so the grid starts 4 ulps
        # past the arrival instead
        path = tmp_path / "curve.csv"
        code, out, _ = run_cli(["michelson", "--L", arm, "--d", "1m",
                                "--tau", "10ns", "--curve", str(path)], capsys)
        assert code == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        gates = [float(t) for t, _ in rows]
        assert len(rows) == 400
        assert all(a < b for a, b in zip(gates, gates[1:]))
        long_path = json.loads(out)["outputs"]["long_path_m"]
        assert gates[0] * 1e-9 > long_path / pathamp.CONSTANTS.c
        assert all(0.0 < float(v) < 1.0 for _, v in rows)

    @pytest.mark.parametrize("tau", ["1ps", "4ps"])
    def test_michelson_curve_at_a_short_lifetime_runs_forward(self, capsys, tmp_path,
                                                              tau):
        # 0.05 ns after the arrival is past the last gate, 12 tau after
        # it, so the first gate must come sooner
        path = tmp_path / "curve.csv"
        code, out, _ = run_cli(["michelson", "--L", "50cm", "--d", "1mm",
                                "--tau", tau, "--curve", str(path)], capsys)
        assert code == 0
        gates = [float(line.split(",")[0])
                 for line in path.read_text().splitlines()[1:]]
        assert len(gates) == 400
        assert all(a < b for a, b in zip(gates, gates[1:]))
        arrival = json.loads(out)["outputs"]["long_path_m"] / pathamp.CONSTANTS.c
        assert gates[0] * 1e-9 > arrival
        assert gates[-1] * 1e-9 == pytest.approx(arrival + 12 * float(tau[:-2]) * 1e-12,
                                                 rel=1e-12)

    @pytest.mark.parametrize("dphi", ["0", "-0", "0.0"])
    def test_nested_oracle_at_zero_budget_refused(self, capsys, dphi):
        # the closed form is exactly 0 there, so a relative difference has
        # no value; no numpy 0/0 warning is raised on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["oracle", "--op", "nested", "--order", "2",
                                      f"--dphi={dphi}"], capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert "relative difference is undefined" in payload["message"]

    def test_nested_oracle_near_zero_closed_form_refused(self, capsys):
        # order 1 at dphi = 2*pi: the closed form is ~2e-16, below the
        # quadrature's own error estimate of ~2e-14
        code, out, err = run_cli(["oracle", "--op", "nested", "--order", "1",
                                  "--dphi", repr(2 * math.pi)], capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert "error estimate" in payload["message"]
        closed, estimate = (float(v) for v in
                            re.findall(r"\(([0-9.e+-]+)", payload["message"]))
        assert 0 < closed <= estimate < 1e-12
        # a closed form of 4.7e-6 near the zero is still compared
        code, out, _ = run_cli(["oracle", "--op", "nested", "--order", "1",
                                "--dphi", "6.28319"], capsys)
        assert code == 0
        assert json.loads(out)["outputs"]["relative_difference"] < 1e-6

    def test_nested_oracle_at_a_tiny_budget_agrees_to_rounding(self, capsys):
        # K_4(1e-3) ~ 4e-14: the forward form 1 - e^{i dphi} sum_{k<4}
        # was 8.0e-4 off there, and the printed difference was its error
        code, out, _ = run_cli(["oracle", "--op", "nested", "--order", "4",
                                "--dphi", "0.001"], capsys)
        assert code == 0
        assert json.loads(out)["outputs"]["relative_difference"] < 1e-13

    @pytest.mark.parametrize("argv", [
        ["michelson", "--L", "50cm", "--d", "25cm", "--tau=--"],
        ["classify", "--kind=--"],
        ["oracle", "--op", "mc-volume", "--samples=--"],
    ])
    def test_double_dash_value_refused(self, capsys, argv):
        # argparse hands "--flag=--" over as [] without its type or choices check
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        flag = argv[-1][:-3]
        assert json.loads(err) == {"error": "ArgumentError",
                                   "message": f"argument {flag}: expected one argument"}

    def test_value_that_only_ends_in_double_dash_is_read(self, capsys):
        # only a value that is exactly "--" is refused before the parsers;
        # "1.5=--" is --n2's value, which the handler refuses as a quantity
        code, out, err = run_cli(["reflect", "--n2=1.5=--"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "UnitError",
            "message": "--n2: expected a bare dimensionless number, got '1.5=--'"}


class TestRecipeRoundTrip:
    def test_recipe_summary_replays_identically(self, capsys, tmp_path):
        out_file = tmp_path / "recipe.json"
        code, first, _ = run_cli(["--out", str(out_file), "reproduce",
                                  "--recipe", "eq9.65"], capsys)
        assert code == 0
        code, second, _ = run_cli(["--config", str(out_file)], capsys)
        assert code == 0
        assert second == first


class TestErrorContract:
    """Bad run configurations and unwritable output files exit 2 with an
    error object, no traceback."""

    def _assert_config_error(self, code, out, err, needle):
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "ConfigError"
        assert needle in payload["message"]

    def test_config_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(["--config", str(tmp_path / "none.json")],
                                 capsys)
        self._assert_config_error(code, out, err, "cannot read")

    @pytest.mark.parametrize("text,needle", [
        ("not json", "is not JSON"),
        ('["reflect", "--n2", "1.5"]', "no JSON object"),
        ("{}", "no 'argv' list"),
        ('{"argv": ["reflect", 1.5]}', "no 'argv' list"),
    ], ids=["not-json", "not-object", "no-argv", "argv-not-strings"])
    def test_config_unusable_summary(self, capsys, tmp_path, text, needle):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(["--config", str(path)], capsys)
        self._assert_config_error(code, out, err, needle)

    def test_config_naming_another_config(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"argv": ["--config", str(path)]}))
        code, out, err = run_cli(["--config", str(path)], capsys)
        self._assert_config_error(code, out, err, "another --config")

    def test_config_refuses_a_subcommand_beside_it(self, capsys, tmp_path):
        # the snell arguments were once dropped without a word and the
        # stored reflect run replayed
        path = tmp_path / "r.json"
        code, _, _ = run_cli(["--out", str(path), "reflect", "--n2", "1.5"], capsys)
        assert code == 0
        code, out, err = run_cli(["--config", str(path), "snell", "--n1", "1.5",
                                  "--n2", "1.0", "--theta-i", "30deg"], capsys)
        self._assert_config_error(code, out, err, "--config replays a whole run")
        assert "'snell'" in json.loads(err)["message"]

    @pytest.mark.parametrize("argv", [
        ["--out", "{path}", "reflect", "--n2", "1.5"],
        ["michelson", "--L", "50cm", "--d", "25cm", "--tau", "10ns",
         "--curve", "{path}"],
        ["reproduce", "--recipe", "fig9", "--csv", "{path}"],
    ], ids=["out", "curve", "csv"])
    def test_unwritable_output_file(self, capsys, tmp_path, argv):
        path = str(tmp_path / "missing-dir" / "x.out")
        code, out, err = run_cli([path if a == "{path}" else a for a in argv],
                                 capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "OutputError"
        assert path in payload["message"]

    def test_replay_reads_only_the_argv(self, capsys, tmp_path):
        # the stored argv is the whole run: a stored seed its argv does not
        # name, and a stored outputs block, are not read, so this replays
        # as the seed-0 run
        argv = ["oracle", "--op", "mc-volume", "--order", "3", "--samples", "1000"]
        code, seeded, _ = run_cli([*argv, "--seed", "7"], capsys)
        assert code == 0
        code, direct, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(direct)["seed"] == 0
        assert json.loads(direct)["outputs"] != json.loads(seeded)["outputs"]
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"argv": argv, "seed": 7,
                                    "outputs": json.loads(seeded)["outputs"]}))
        code, replayed, _ = run_cli(["--config", str(path)], capsys)
        assert code == 0
        assert replayed == direct


def _child_env():
    """The environment of a fresh interpreter that imports this package."""
    src_dir = os.path.dirname(os.path.dirname(pathamp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def _loaded_modules(argv, tmp_path=None):
    """Exit code of main(argv) in a fresh interpreter (None when argv is
    None: import only) and the names in its sys.modules afterwards.  A
    fresh interpreter, so modules the test suite imported cannot mask what
    the command line itself pulls in."""
    if tmp_path is not None:
        argv = [str(tmp_path / "curve.csv") if a == "{csv}" else a for a in argv]
    script = ("import contextlib, io, json, sys\n"
              "from pathamp.cli import main\n"
              "argv = json.loads(sys.argv[1])\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = None if argv is None else main(argv)\n"
              "print(json.dumps([code, sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


_HEAVY = {"numpy", "mpmath", "scipy"}
# what only an argv the exact reader declines loads
_ARGPARSE_SIDE = {"argparse", "pathamp._cli_argparse"}
# the package defines its value classes without dataclasses, whose import
# pulls in inspect (numpy imports inspect itself)
_INTROSPECTION = {"dataclasses", "inspect"}

_SCALAR_ARGV = [
    pytest.param(["reflect", "--n2", "1.5"], id="reflect"),
    pytest.param(["snell", "--n1", "1.5", "--n2", "1.0", "--theta-i", "30deg"],
                 id="snell"),
    pytest.param(["snell", "--n1", "1.5", "--n2", "1.0", "--theta-i", "30deg",
                  "--search"], id="snell-search"),
    pytest.param(["classify", "--kind", "kaon"], id="classify"),
    pytest.param(["diffraction", "--wavelength", "589.3nm"], id="diffraction"),
    pytest.param(["refract-index", "--wavelength", "589.3nm",
                  "--density", "2.5e27m-3", "--n", "1.5"], id="refract-index"),
    pytest.param(["refract-series", "--dphi", "2", "--betal", "5"],
                 id="refract-series"),
    pytest.param(["annulment", "--radius", "5cm", "--axis-distance", "200cm",
                  "--wavelength", "590nm", "--block-length", "40cm",
                  "--n", "1.5", "--tau", "54ns"], id="annulment"),
    pytest.param(["propagator", "--r", "2m"], id="propagator-covariant"),
    pytest.param(["propagator", "--mode", "temporal", "--wavelength", "589.3nm",
                  "--tau", "16.2ns", "--dtau", "32.4ns"], id="propagator-temporal"),
    pytest.param(["propagator", "--mode", "energy", "--energy", "2eV",
                  "--energy0", "2eV", "--width", "1e-7eV"], id="propagator-energy"),
    pytest.param(["michelson", "--L", "50cm", "--d", "25cm", "--tau", "10ns",
                  "--tmax", "20ns"], id="michelson"),
    pytest.param(["michelson", "--L", "50cm", "--d", "25cm", "--tau", "10ns",
                  "--curve", "{csv}"], id="michelson-curve"),
    pytest.param(["ydse", "--kind", "photon"], id="ydse-photon"),
    pytest.param(["ydse", "--kind", "electron"], id="ydse-electron"),
    pytest.param(["ydse", "--kind", "photon", "--curve", "{csv}"], id="ydse-curve"),
    pytest.param(["ydse", "--kind", "electron", "--curve", "{csv}"],
                 id="ydse-electron-curve"),
    pytest.param(["oracle", "--op", "mc-volume", "--order", "1"], id="oracle-mc-order-1"),
    pytest.param(["kaon", "--tau", "1ns", "--distance", "1cm"], id="kaon"),
    pytest.param(["kaon", "--curve", "{csv}"], id="kaon-curve"),
    pytest.param(["neutrino", "--dm2", "2e-3eV2", "--L", "100m"], id="neutrino"),
    pytest.param(["neutrino", "--dm2", "2e-3eV2", "--L", "100m", "--curve", "{csv}"],
                 id="neutrino-curve"),
] + [
    pytest.param(["reproduce", "--recipe", recipe, "--csv", "{csv}"],
                 id=f"reproduce-{recipe}")
    for recipe in ("fig9", "table1", "table2-ratios", "table3", "eq7.8", "eq9.65")
]


# one argv per subcommand, for the cold-process guards below
_ONE_PER_SUBCOMMAND = {
    "propagator": ["propagator", "--r", "2m"],
    "diffraction": ["diffraction", "--wavelength", "589.3nm"],
    "refract-index": ["refract-index", "--wavelength", "589.3nm",
                      "--density", "2.5e27m-3", "--n", "1.5"],
    "refract-series": ["refract-series", "--dphi", "2", "--betal", "5"],
    "annulment": ["annulment", "--radius", "5cm", "--axis-distance", "200cm",
                  "--wavelength", "590nm", "--block-length", "40cm",
                  "--n", "1.5", "--tau", "54ns"],
    "snell": ["snell", "--n1", "1.5", "--n2", "1.0", "--theta-i", "30deg"],
    "reflect": ["reflect", "--n2", "1.5"],
    "michelson": ["michelson", "--L", "50cm", "--d", "25cm", "--tau", "10ns"],
    "ydse": ["ydse", "--kind", "electron"],
    "kaon": ["kaon", "--tau", "1ns"],
    "neutrino": ["neutrino", "--dm2", "2e-3eV2", "--L", "100m"],
    "classify": ["classify", "--kind", "kaon"],
    "oracle": ["oracle", "--op", "nested", "--order", "1"],
    "reproduce": ["reproduce", "--recipe", "eq7.8"],
}


def _importtime_modules(argv):
    """Exit code of a fresh `python -X importtime -m pathamp.cli argv`, and
    the modules its import-time report lists."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "pathamp.cli", *argv],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:") and "|" in line}
    return proc.returncode, modules


class TestImportGuard:
    """A one-shot process imports only what its subcommand runs."""

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_cold_call_compiles_cli_once_and_one_command_module(self, name):
        # under -m, cli runs as __main__: an import of pathamp.cli by a
        # command module would compile it a second time
        code, modules = _importtime_modules(_ONE_PER_SUBCOMMAND[name])
        assert code == 0
        assert "pathamp.cli" not in modules
        assert {m for m in modules if m.startswith("pathamp.commands.")} \
            == {f"pathamp.commands.{cli._COMMANDS[name]}"}
        # the exact reader reads it: the argparse side is not compiled
        assert not modules & _ARGPARSE_SIDE

    def test_cli_import_loads_only_core(self):
        _, modules = _loaded_modules(None)
        assert not modules & _HEAVY
        assert not modules & _INTROSPECTION
        assert "argparse" not in modules
        assert {m for m in modules if m.startswith("pathamp")} \
            == {"pathamp", "pathamp.cli", "pathamp.core_num"}

    @pytest.mark.parametrize("argv", _SCALAR_ARGV)
    def test_subcommand_loads_no_numpy_or_mpmath(self, argv, tmp_path):
        code, modules = _loaded_modules(argv, tmp_path)
        assert code == 0
        assert not modules & _HEAVY
        assert not modules & _INTROSPECTION
        # the exact reader reads every valid argv here from the flag rows
        assert not modules & _ARGPARSE_SIDE

    @pytest.mark.parametrize("argv,expected", [
        pytest.param(["--help"], 0, id="help"),
        pytest.param(GOLDEN_ARGV["bad-choice"], 2, id="bad-choice"),
        pytest.param(["diffraction", "--wave", "589nm"], 0, id="abbreviated"),
        pytest.param(["--config", "{config}"], 0, id="config-replay"),
    ])
    def test_argparse_loads_for_help_and_errors(self, argv, expected, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"argv": ["reflect", "--n2", "1.5"]}))
        code, modules = _importtime_modules(
            [str(config) if a == "{config}" else a for a in argv])
        assert code == expected
        assert modules >= _ARGPARSE_SIDE
        # the argparse side is handed what it needs: it does not import
        # pathamp.cli, which runs as __main__
        assert "pathamp.cli" not in modules

    @pytest.mark.parametrize("argv", [
        pytest.param(["oracle", "--op", "nested", "--order", "5"], id="nested-order-5"),
        pytest.param(["oracle", "--op", "mc-volume", "--order", "9"],
                     id="mc-volume-order-9"),
        pytest.param(["oracle", "--op", "mc-volume", "--samples", "0"],
                     id="mc-volume-no-samples"),
        pytest.param(["oracle", "--op", "nested", "--order", "2.5"],
                     id="nested-fractional-order"),
    ])
    def test_oracle_refusal_loads_no_numpy(self, argv):
        # the oracle checks its arguments before it imports numpy
        code, modules = _loaded_modules(argv)
        assert code == 2
        assert not modules & _HEAVY

    @pytest.mark.parametrize("argv,other", [
        pytest.param(["oracle", "--op", "nested", "--order", "2"], "pathamp.wave_optics",
                     id="oracle-nested"),
        pytest.param(["oracle", "--op", "half-zone"], "pathamp.refraction", id="half-zone"),
        pytest.param(["oracle", "--op", "mc-volume"], "pathamp.wave_optics", id="mc-volume"),
    ])
    def test_array_work_still_loads_numpy(self, argv, other, tmp_path):
        code, modules = _loaded_modules(argv, tmp_path)
        assert code == 0
        assert "numpy" in modules
        assert "dataclasses" not in modules
        # only oracle.series_sum_highprec needs mpmath, and no command calls it
        assert "mpmath" not in modules
        # the oracle builds its own Gauss rules, and an op loads only the
        # closed-form module it checks
        assert "numpy.polynomial" not in modules
        assert other not in modules


def _argparse_vars(argv):
    """vars() of the namespace argparse builds for argv; None where it
    refuses argv."""
    parser = _cli_argparse._build_parser(cli._COMMANDS, cli._command)
    try:
        return vars(parser.parse_args(argv, cli._Args()))
    except _cli_argparse.ArgumentError:
        return None


def _assert_readers_agree(argv):
    """Wherever the exact reader answers, its namespace is argparse's."""
    exact = cli._read_exact(argv)
    if exact is not None:
        assert vars(exact) == _argparse_vars(argv), argv
    return exact


# tokens that lie near the line between the exact reader and argparse
_STRAYS = ["--help", "-h", "--", "", "x", "-1", "--search", "--search=x", "--out",
           "o.json", "--config", "--kind=--", "--curve=--", "--n2=1.5=2",
           "--n2=1.5=--"]


@st.composite
def _near_exact(draw):
    """An argv of test_cli_properties, then up to two edits: a repeated
    flag and value, a dropped or shortened token, or a stray token."""
    argv = [a.replace("{csv}", "curve.csv") for a in draw(st.one_of(_argv(), _mutated()))]
    for _ in range(draw(st.integers(0, 2))):
        if not argv:
            break
        i = draw(st.integers(0, len(argv) - 1))
        edit = draw(st.sampled_from(["repeat", "drop", "shorten", "insert"]))
        if edit == "repeat":
            argv += argv[i:i + 2]
        elif edit == "drop":
            del argv[i]
        elif edit == "shorten":
            argv[i] = argv[i][:-1]
        else:
            argv.insert(i, draw(st.sampled_from(_STRAYS)))
    return argv


class TestExactReader:
    """cli._read_exact reads an exact argv from the flag rows, and leaves
    every other argv to argparse; where it answers, it must build the
    namespace argparse builds."""

    def test_agrees_on_every_recorded_argv(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        recorded = [*GOLDEN_ARGV.values(), *same_outputs.deck(root)]
        answered = [argv for argv in recorded if _assert_readers_agree(argv) is not None]
        # the reader is no shortcut unless it answers most valid runs
        assert len(answered) > len(recorded) // 2

    @settings(max_examples=300, derandomize=True)
    @given(argv=_near_exact())
    def test_agrees_on_generated_argv(self, argv):
        _assert_readers_agree(argv)

    @pytest.mark.parametrize("argv", [
        *_ONE_PER_SUBCOMMAND.values(),
        ["snell", "--n1=1.5", "--n2", "1.0", "--theta-i=30deg", "--search", "--search"],
        ["neutrino", "--dm2", "2e-3eV2", "--L", "1m", "--baseline", "100m"],
        ["refract-series", "--dphi=-1", "--betal=5"],
        ["reflect", "--n2="],
    ])
    def test_answers_an_exact_argv(self, argv):
        assert _assert_readers_agree(argv) is not None

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["reflect", "--help"],
        [],
        ["--out", "o.json", "reflect", "--n2", "1.5"],
        ["diffraction", "--wave", "589nm"],                 # abbreviated
        ["snell", "--n1", "1.5", "--n2", "1.0", "--theta-i", "30deg", "--search", "x"],
        ["snell", "--n1", "1.5", "--n2", "1.0", "--theta-i", "30deg", "--search=x"],
        ["reflect", "--n2"],                                # no value
        ["reflect", "--n2", "1.5", "--bogus", "1"],
        ["michelson", "--d", "1cm"],                        # required flags absent
        ["classify", "--kind", "muon"],
        ["oracle", "--op", "mc-volume", "--samples", "many"],
        ["oracle", "--op", "mc-volume", "--samples=--"],
        ["kaon", "--curve=--"],                             # argparse (3.11) reads []
    ])
    def test_leaves_the_rest_to_argparse(self, argv):
        assert cli._read_exact(argv) is None

    def test_argparse_reads_a_spaced_negative_value(self):
        # argparse takes "-1" for a value, since no flag looks like a
        # number; the exact reader leaves that to argparse, and reads
        # "--dphi=-1" itself
        spaced = ["refract-series", "--dphi", "-1", "--betal", "5"]
        assert cli._read_exact(spaced) is None
        assert _argparse_vars(spaced)["dphi"] == "-1"
        joined = ["refract-series", "--dphi=-1", "--betal", "5"]
        assert _assert_readers_agree(joined).dphi == "-1"

    def test_a_row_option_it_does_not_know_goes_to_argparse(self, monkeypatch, capsys):
        from pathamp.commands import reflection
        argv = ["reflect", "--n2", "1.5"]
        expected = run_cli(argv, capsys)
        handler, rows = reflection.COMMANDS["reflect"]
        monkeypatch.setitem(reflection.COMMANDS, "reflect",
                            (handler, (*rows, ("--extra", None, {"nargs": "?"}))))
        assert cli._read_exact(argv) is None
        assert _argparse_vars(argv)["extra"] is None
        assert run_cli(argv, capsys) == expected


class TestPackaging:
    def test_command_modules_are_packaged(self):
        # the installed `pathamp` script dispatches to pathamp.commands
        setuptools = pytest.importorskip("setuptools")
        src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        assert "pathamp.commands" in setuptools.find_packages(src_dir)
