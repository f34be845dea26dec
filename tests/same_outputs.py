"""Same outputs: run one argv deck against two source trees and report
every argv whose exit code, stdout, stderr or CSV differs.

    python tests/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository.  The deck is
``perfbench.inputs.cli_deck`` at seeds 1 and 2 for 3 cycles (read from
PARENT_TREE's perfbench/, which is left unchanged), plus every
``reproduce`` recipe with ``--csv``, ``oracle --op nested`` at orders 1
to 4 (the deck draws orders 1 to 3 only), the argv of BOUNDARY, those of
SERIES and those of REFUSALS: 217 argv.  Each argv runs in a
fresh ``python -m pathamp.cli`` process with the tree's src/ on PYTHONPATH
and PYTHONDONTWRITEBYTECODE=1, in a temporary directory that receives its
CSV, so neither tree gains files.  A CSV is compared by its sha256.  Exits
1 if any argv differs, 0 otherwise.
"""

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile

RECIPES = ("fig9", "table1", "table2-ratios", "table3", "eq7.8", "eq9.65")
CSV = "out.csv"  # relative, so the stdout that names it is the same for both trees
# argv at the line between the command line's exact reader and argparse:
# each is read by one of them, so a change to either is compared here
BOUNDARY = [
    ["snell", "--n1", "1.5", "--n2", "1.0", "--theta-i", "30deg", "--search"],
    ["snell", "--n1", "1.5", "--n2", "1.0", "--theta-i", "30deg", "--search", "x"],
    ["snell", "--n1", "1.5", "--n2", "1.0", "--theta-i", "30deg", "--search=x"],
    ["reflect", "--n2=1.5", "--n1=1.2"],
    ["michelson", "--L=50cm", "--d", "25cm", "--tau=10ns", "--curve={csv}"],
    ["oracle", "--op=mc-volume", "--samples=2000", "--seed=5"],
    ["reflect", "--n2", "1.2", "--n2", "1.5"],          # the last repeat wins
    ["refract-series", "--dphi=-1", "--betal", "5"],
    ["refract-series", "--dphi", "-1", "--betal", "5"],
    ["diffraction", "--wave", "589nm"],                 # abbreviated
    ["--out", "{csv}", "reflect", "--n2", "1.5"],       # the summary goes to the CSV
    ["reflect", "--n2=1.5=--"],                         # a value that only ends in "--"
]

# refract-series across the budget factor's trig route, whose cost grows as
# n_terms^2: long series, a large beta_l, the golden SeriesDisagreement and
# PreconditionError, and the float64 overflow past delta_phi ~ 710
SERIES = [
    ["refract-series", "--dphi", "300", "--betal", "10"],
    ["refract-series", "--dphi", "650", "--betal", "1"],
    ["refract-series", "--dphi", "3", "--betal", "25"],
    ["refract-series", "--dphi", "1", "--betal", "40"],
    ["refract-series", "--dphi", "1", "--betal", "60"],
    ["refract-series", "--dphi", "720", "--betal", "0.5"],
]

# library refusals that reach the command line: a square, a column or a
# result past the largest double, which only extreme flag values give
REFUSALS = [
    ["refract-index", "--wavelength", "1e200m", "--density", "1e-20m-3",
     "--scattering-length", "1e200m"],
    ["refract-index", "--wavelength", "1e150m", "--density", "1e10m-3",
     "--scattering-length", "1e10m"],
    ["refract-index", "--wavelength", "1e10m", "--density", "1e300m-3", "--n", "1.5"],
    ["refract-index", "--wavelength", "1e-150m", "--density", "1e-10m-3", "--n", "1.5"],
    ["ydse", "--kind", "electron", "--p", "1e200MeV/c", "--sigma-p", "1e190MeV/c"],
    ["neutrino", "--source", "beta", "--dm2", "1e-3eV2", "--L", "1m",
     "--beta-energy", "1e300MeV", "--p-nu", "1e200MeV/c"],
    ["reflect", "--n1", "1e300", "--n2", "1"],
    ["reflect", "--n1", "1.2e154", "--n2", "2"],
    ["propagator", "--mode", "energy", "--energy", "1e308eV", "--energy0=-1e308eV",
     "--width", "1e-7eV"],
]


def deck(tree: str) -> list:
    """The argv to compare, with "{csv}" replaced by CSV."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(tree, "perfbench", "inputs.py"))
    inputs = importlib.util.module_from_spec(spec)
    # loading perfbench/inputs.py must not leave its bytecode in the tree
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(inputs)
    finally:
        sys.dont_write_bytecode = saved
    argvs = [argv for seed in (1, 2) for argv, _valid in inputs.cli_deck(seed, 3)]
    argvs += [["reproduce", "--recipe", r, "--csv", "{csv}"] for r in RECIPES]
    argvs += [["oracle", "--op", "nested", "--order", str(n), "--dphi", "9.5"]
              for n in range(1, 5)]
    argvs += BOUNDARY + SERIES + REFUSALS
    return [[a.replace("{csv}", CSV) for a in argv] for argv in argvs]


def run(tree: str, argv: list, work: str) -> dict:
    """Exit code, stdout, stderr and CSV sha256 (None if none was written)
    of one fresh process running argv from tree's src/ in work."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pathamp.cli", *argv], cwd=work,
                          env=env, capture_output=True, text=True)
    path = os.path.join(work, CSV)
    digest = None
    if os.path.exists(path):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        os.remove(path)
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "csv sha256": digest}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    args = parser.parse_args()
    argvs = deck(args.parent_tree)
    differ = 0
    with tempfile.TemporaryDirectory() as work:
        for argv in argvs:
            before = run(args.parent_tree, argv, work)
            after = run(args.change_tree, argv, work)
            fields = [k for k in before if before[k] != after[k]]
            if fields:
                differ += 1
                print(f"{' '.join(argv)}: {', '.join(fields)} differ")
    print(f"{differ} of {len(argvs)} argv differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
