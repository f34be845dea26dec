"""Golden transcript of the command line.

Each argv below runs in process through ``cli.main``; its exit code,
stdout, stderr and the sha256 of any CSV it writes must equal the
recorded transcript in ``data/cli_golden.json`` byte for byte.  The list
covers every subcommand and mode, every recipe with ``--csv``, the four
``--curve`` variants, and argv with two bad flags, which pin the order in
which errors are reported.

Re-record (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")
CSV = "out.csv"

GOLDEN_ARGV = {
    # propagator, every mode
    "propagator-covariant": ["propagator", "--r", "2m"],
    "propagator-covariant-massive": ["propagator", "--mass", "0.511MeV", "--beta", "0.5",
                                     "--r", "1m", "--width", "1keV",
                                     "--dt", "6.671281903963041ns"],
    "propagator-covariant-inconsistent": ["propagator", "--r", "3m", "--dt", "10ns"],
    "propagator-temporal": ["propagator", "--mode", "temporal", "--wavelength", "589.3nm",
                            "--tau", "16.2ns", "--dtau", "32.4ns"],
    "propagator-temporal-zero": ["propagator", "--mode", "temporal", "--wavelength", "589.3nm",
                                 "--tau", "16.2ns", "--dtau", "0ns"],
    "propagator-energy": ["propagator", "--mode", "energy", "--energy", "2.1eV",
                          "--energy0", "2eV", "--width", "1e-7eV"],
    # E - E0 past the double range refuses, where it printed amplitude 0
    "propagator-energy-detuning-overflow": [
        "propagator", "--mode", "energy", "--energy", "1e308eV", "--energy0=-1e308eV",
        "--width", "1e-7eV"],
    # diffraction, refraction
    "diffraction": ["diffraction", "--wavelength", "589.3nm"],
    "diffraction-oblique": ["diffraction", "--wavelength", "500nm", "--alpha", "20deg",
                            "--alpha1", "0.3rad"],
    "refract-index-forward": ["refract-index", "--wavelength", "589.3nm",
                              "--density", "2.5e25m-3", "--scattering-length", "3e-10m"],
    "refract-index-inverse": ["refract-index", "--wavelength", "589.3nm",
                              "--density", "2.5e27m-3", "--n", "1.5"],
    "refract-index-inverse-cm3": ["refract-index", "--wavelength", "0.5um",
                                  "--density", "1e19cm-3", "--n", "1.0003"],
    # past the double range: wavelength^2, the column wavelength^2 * density
    # and the result each refuse, with no OverflowError, inf or 0.0
    "refract-index-wavelength-squared-overflow": [
        "refract-index", "--wavelength", "1e200m", "--density", "1e-20m-3",
        "--scattering-length", "1e200m"],
    "refract-index-column-overflow": [
        "refract-index", "--wavelength", "1e150m", "--density", "1e10m-3",
        "--scattering-length", "1e10m"],
    "refract-index-inverse-column-overflow": [
        "refract-index", "--wavelength", "1e10m", "--density", "1e300m-3", "--n", "1.5"],
    "refract-index-inverse-overflow": [
        "refract-index", "--wavelength", "1e-150m", "--density", "1e-10m-3", "--n", "1.5"],
    "refract-series": ["refract-series", "--dphi", "2", "--betal", "5"],
    "refract-series-annulled": ["refract-series", "--dphi", "0", "--betal", "5"],
    "refract-series-disagreement": ["refract-series", "--dphi", "1", "--betal", "40"],
    "refract-series-limit": ["refract-series", "--dphi", "1", "--betal", "60"],
    "annulment": ["annulment", "--radius", "5cm", "--axis-distance", "200cm",
                  "--wavelength", "590nm", "--block-length", "40cm", "--n", "1.5",
                  "--tau", "54ns"],
    "annulment-wide": ["annulment", "--radius", "300cm", "--axis-distance", "200cm",
                       "--wavelength", "590nm", "--block-length", "40cm", "--n", "1.5",
                       "--tau", "54ns"],
    # ray optics and reflection
    "snell": ["snell", "--n1", "1.0", "--n2", "1.5", "--theta-i", "30deg"],
    "snell-search": ["snell", "--n1", "1.5", "--n2", "1.0", "--theta-i", "30deg", "--search"],
    "snell-tir": ["snell", "--n1", "1.5", "--n2", "1.0", "--theta-i", "80deg"],
    "reflect": ["reflect", "--n2", "1.5"],
    "reflect-all": ["reflect", "--n1", "1.2", "--n2", "1.7", "--thsm", "0.5",
                    "--film-thickness", "100nm", "--wavelength", "600nm"],
    "reflect-equal": ["reflect", "--n1", "1.5", "--n2", "1.5"],
    "reflect-below-one": ["reflect", "--n2", "0.5"],
    # past the double range: n1^2 and the amplitude's denominator each
    # refuse, with no OverflowError and no rho_path of 0.0
    "reflect-n1-squared-overflow": ["reflect", "--n1", "1e300", "--n2", "1"],
    "reflect-denominator-overflow": ["reflect", "--n1", "1.2e154", "--n2", "2"],
    # interferometry
    "michelson": ["michelson", "--L", "50cm", "--d", "25cm", "--tau", "10ns"],
    "michelson-tmax": ["michelson", "--arm", "40cm", "--d", "10cm", "--tau", "5ns",
                       "--wavelength", "656.3nm", "--tmax", "12ns"],
    "michelson-curve": ["michelson", "--L", "50cm", "--d", "25cm", "--tau", "10ns",
                        "--curve", CSV],
    "michelson-early-gate": ["michelson", "--L", "50cm", "--d", "25cm", "--tau", "10ns",
                             "--tmax", "1ns"],
    "ydse-photon": ["ydse"],
    "ydse-photon-curve": ["ydse", "--kind", "photon", "--wavelength", "500nm", "--tau", "3ns",
                          "--curve", CSV],
    "ydse-electron": ["ydse", "--kind", "electron"],
    "ydse-electron-curve": ["ydse", "--kind", "electron", "--p", "100MeV/c",
                            "--sigma-p", "1e-4MeV/c", "--slit-width", "2mm", "--curve", CSV],
    "ydse-electron-gamma-squared-overflow": [
        "ydse", "--kind", "electron", "--p", "1e200MeV/c", "--sigma-p", "1e190MeV/c"],
    # flavour
    "kaon": ["kaon"],
    "kaon-tau-distance": ["kaon", "--p", "1GeV", "--tau", "0.3ns", "--distance", "2m"],
    "kaon-curve": ["kaon", "--p", "500MeV/c", "--curve", CSV],
    "neutrino-pion": ["neutrino", "--dm2", "2e-3eV2", "--L", "6879m"],
    "neutrino-kaon": ["neutrino", "--source", "kaon", "--dm2", "2.5e-3eV2",
                      "--baseline", "300m", "--theta12", "30deg"],
    "neutrino-beta": ["neutrino", "--source", "beta", "--dm2", "2e-3eV2", "--L", "100m",
                      "--beta-energy", "1MeV", "--p-nu", "0.3MeV/c"],
    "neutrino-pion-curve": ["neutrino", "--dm2", "7.5e-5eV2", "--L", "180000m",
                            "--curve", CSV],
    "neutrino-beta-curve": ["neutrino", "--source", "beta", "--dm2", "2e-3eV2", "--L", "1000m",
                            "--beta-energy", "3MeV", "--p-nu", "2MeV/c", "--curve", CSV],
    "neutrino-beta-momentum-squared-overflow": [
        "neutrino", "--source", "beta", "--dm2", "1e-3eV2", "--L", "1m",
        "--beta-energy", "1e300MeV", "--p-nu", "1e200MeV/c"],
    "classify-kaon": ["classify", "--kind", "kaon"],
    "classify-photon": ["classify", "--kind", "photon-ydse"],
    # oracle
    "oracle-mc-volume": ["oracle", "--op", "mc-volume", "--order", "4", "--length", "2m",
                         "--samples", "20000", "--seed", "3"],
    "oracle-mc-volume-default-seed": ["oracle", "--op", "mc-volume", "--samples", "5000"],
    "oracle-half-zone": ["oracle", "--op", "half-zone", "--wavelength", "589.3nm",
                         "--x1", "1m", "--rho-over-kappa", "1e-7"],
    "oracle-nested-1": ["oracle", "--op", "nested", "--order", "1", "--dphi", "0.7"],
    "oracle-nested-2": ["oracle", "--op", "nested", "--order", "2"],
    "oracle-nested-3": ["oracle", "--op", "nested", "--order", "3", "--dphi", "5.5"],
    "oracle-nested-4": ["oracle", "--op", "nested", "--order", "4", "--dphi", "9.5"],
    "oracle-nested-5": ["oracle", "--op", "nested", "--order", "5"],
    "oracle-samples-zero": ["oracle", "--op", "mc-volume", "--samples", "0"],
    # literal zeros that would reach a division
    "zero-diffraction-wavelength": ["diffraction", "--wavelength", "0nm"],
    "zero-michelson-wavelength": ["michelson", "--L", "50cm", "--d", "25cm", "--tau", "10ns",
                                  "--wavelength", "0nm"],
    "zero-ydse-wavelength": ["ydse", "--wavelength", "0nm"],
    "zero-oracle-half-zone-wavelength": ["oracle", "--op", "half-zone", "--wavelength", "0nm"],
    "zero-oracle-nested-dphi": ["oracle", "--op", "nested", "--order", "2", "--dphi", "0"],
    "zero-propagator-beta": ["propagator", "--r", "1m", "--beta", "0"],
    "zero-kaon-p": ["kaon", "--p", "0MeV/c"],
    # recipes
    **{f"reproduce-{r}": ["reproduce", "--recipe", r, "--csv", CSV]
       for r in ("fig9", "table1", "table2-ratios", "table3", "eq7.8", "eq9.65")},
    "reproduce-table1-no-csv": ["reproduce", "--recipe", "table1"],
    # argparse refusals and help
    "no-subcommand": [],
    "help": ["--help"],
    "help-reflect": ["reflect", "--help"],
    "help-oracle": ["oracle", "--help"],
    "unknown-subcommand": ["bogus"],
    "unknown-flag": ["reflect", "--n2", "1.5", "--bogus", "1"],
    "missing-required": ["michelson", "--d", "1cm"],
    "missing-op": ["oracle"],
    "bad-choice": ["classify", "--kind", "muon"],
    "bad-int": ["oracle", "--op", "mc-volume", "--samples", "many"],
    "bad-seed": ["oracle", "--op", "mc-volume", "--seed", "1.5"],
    # two bad flags: the first reported error is pinned
    "bad2-michelson": ["michelson", "--L", "50", "--d", "2furlong", "--tau", "10ns"],
    "bad2-propagator-mass-beta": ["propagator", "--mass", "1kg", "--beta", "2x", "--r", "1m"],
    "bad2-propagator-required": ["propagator", "--mode", "temporal", "--wavelength", "5",
                                 "--tau", "1kg"],
    "bad2-propagator-energy": ["propagator", "--mode", "energy", "--energy", "1",
                               "--energy0", "1eV"],
    "bad2-reflect-n1-n2": ["reflect", "--n2", "1.5cm", "--n1", "x"],
    "bad2-reflect-thsm-film": ["reflect", "--n2", "1.5", "--thsm", "2",
                               "--film-thickness", "1kg"],
    "bad2-reflect-film-wavelength": ["reflect", "--n2", "1.5", "--film-thickness", "1kg"],
    "bad2-ydse-geometry-p": ["ydse", "--kind", "electron", "--source-distance", "1kg",
                             "--p", "1x"],
    "bad2-ydse-photon-ignores-p": ["ydse", "--kind", "photon", "--p", "1x",
                                   "--wavelength", "1y"],
    "bad2-kaon": ["kaon", "--p", "1x", "--tau", "2y"],
    "bad2-kaon-tau-distance": ["kaon", "--tau", "2y", "--distance", "3z"],
    "bad2-neutrino-theta-baseline": ["neutrino", "--dm2", "1eV2", "--L", "1x",
                                     "--theta12", "1y"],
    "bad2-neutrino-beta": ["neutrino", "--source", "beta", "--dm2", "1eV2", "--L", "1m",
                           "--beta-energy", "1x", "--p-nu", "1y"],
    "bad2-neutrino-pion-ignores-beta": ["neutrino", "--dm2", "1eV2", "--L", "1m",
                                        "--beta-energy", "1x"],
    "bad2-oracle-mc": ["oracle", "--op", "mc-volume", "--order", "3x", "--length", "1kg"],
    "bad2-oracle-half-zone": ["oracle", "--op", "half-zone", "--wavelength", "1",
                              "--x1", "1kg"],
    "bad2-oracle-nested": ["oracle", "--op", "nested", "--order", "2", "--dphi", "2rad",
                           "--length", "1kg"],
    "bad2-annulment": ["annulment", "--radius", "5", "--axis-distance", "200cm",
                       "--wavelength", "590nm", "--block-length", "40cm", "--n", "1.5x",
                       "--tau", "54ns"],
    "bad2-snell": ["snell", "--n1", "1x", "--n2", "1y", "--theta-i", "1z"],
    "bad2-refract-index": ["refract-index", "--wavelength", "1", "--density", "1",
                           "--n", "x"],
    "bad2-refract-series": ["refract-series", "--dphi", "1rad", "--betal", "x"],
    "bad2-diffraction": ["diffraction", "--wavelength", "5", "--alpha", "1kg"],
}


def run_golden(argv):
    """Exit code (or the SystemExit code a help request raises), stdout,
    stderr and CSV sha256 of one in-process run in the current directory."""
    from pathamp.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
    digest = None
    if os.path.exists(CSV):
        with open(CSV, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        os.remove(CSV)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "csv_sha256": digest}


def _pin_environment(setenv):
    # the help text's line width
    setenv("COLUMNS", "80")
    setenv("LINES", "24")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_argv(golden):
    assert set(golden) == set(GOLDEN_ARGV)


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_transcript_is_byte_identical(name, golden, tmp_path, monkeypatch):
    _pin_environment(monkeypatch.setenv)
    monkeypatch.chdir(tmp_path)
    assert run_golden(GOLDEN_ARGV[name]) == golden[name]


def _record():
    import tempfile

    def setenv(key, value):
        os.environ[key] = value

    _pin_environment(setenv)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            golden = {name: run_golden(argv) for name, argv in sorted(GOLDEN_ARGV.items())}
        finally:
            os.chdir(here)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} transcripts to {GOLDEN_PATH}")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
