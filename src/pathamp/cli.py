"""Command-line front end.

Every physical flag takes a value with an explicit unit suffix
("--d 25cm", "--tau 10ns", "--dm2 2e-3eV2"); bare numbers are accepted
only for dimensionless quantities.  Each run prints a JSON summary with
the inputs echoed verbatim, the computed outputs, provenance tags and any
flagged discrepancies against commonly quoted reference figures. An
emitted summary can be re-ingested with --config to reproduce the run
bit for bit.  Curves go to CSV via --csv; nothing is ever plotted.

The subcommands live in pathamp.commands, one module per pathamp module
they drive.  _COMMANDS names each subcommand's module, and a run imports
only the module of the subcommand it runs, which in turn imports only the
pathamp modules it calls (and numpy only where an oracle computes).
A valid run's exact argv is read straight from its flag rows
(_read_exact), so it loads no argparse.  Every other argv goes to
pathamp._cli_argparse, imported only then: its argparse parser writes all
help, usage and error text, and it reads --config and loads the replayed
summary.
"""

from __future__ import annotations

import json
import math
import re
import sys

# a decimal float literal (at least one digit, at most one point), then
# an optional unit suffix
_QUANTITY_RE = re.compile(
    r"^\s*([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)\s*"
    r"([A-Za-z][A-Za-z/0-9-]*|)\s*$")

# the unit tables the flag rows name; "bare" is a number with no unit suffix
_UNITS = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9, "A": 1e-10},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12},
    "angle": {"rad": 1.0, "deg": math.pi / 180.0},
    "energy": {"GeV": 1e3, "MeV": 1.0, "keV": 1e-3, "eV": 1e-6},
    "momentum": {"GeV/c": 1e3, "MeV/c": 1.0, "keV/c": 1e-3,
                 "GeV": 1e3, "MeV": 1.0, "keV": 1e-3},
    "dm2": {"eV2": 1.0, "meV2": 1e-6},
    "density": {"m-3": 1.0, "cm-3": 1e6},
}

# subcommand -> its module in pathamp.commands, named after the pathamp
# module it drives; in the order --help lists them
_COMMANDS = {
    "propagator": "propagators", "diffraction": "wave_optics",
    "refract-index": "refraction", "refract-series": "refraction",
    "annulment": "refraction", "snell": "ray_optics", "reflect": "reflection",
    "michelson": "michelson", "ydse": "flavour", "kaon": "flavour",
    "neutrino": "flavour", "classify": "flavour", "oracle": "oracle",
    "reproduce": "reproduce",
}


def _command(name: str):
    """(handler, flag rows) of a subcommand, from its command module."""
    module = __import__(f"pathamp.commands.{_COMMANDS[name]}", fromlist=["COMMANDS"])
    return module.COMMANDS[name]


class UnitError(ValueError):
    pass


class OutputError(ValueError):
    """An output file (--out, --curve, --csv) that cannot be written."""


def _quantity(text: str, unit: str, flag: str) -> float:
    """The value of a flag: a number with a unit suffix from the named unit
    table, or a bare number when the unit is "bare".  A value that is not a
    finite non-zero double once scaled is refused, unless the literal is
    zero."""
    m = _QUANTITY_RE.match(text)
    if unit == "bare":
        if not m or m.group(2):
            raise UnitError(f"{flag}: expected a bare dimensionless number, got {text!r}")
        value = float(m.group(1))
    else:
        table = _UNITS[unit]
        if not m:
            raise UnitError(f"{flag}: cannot parse quantity {text!r}")
        number, suffix = m.groups()
        if suffix == "":
            raise UnitError(
                f"{flag}: missing unit on {text!r}; expected one of {sorted(table)}")
        if suffix not in table:
            raise UnitError(
                f"{flag}: unknown unit {suffix!r}; expected one of {sorted(table)}")
        value = float(number) * table[suffix]
    if not math.isfinite(value) or (
            value == 0.0 and m.group(1).lower().split("e")[0].strip("+-.0")):
        raise UnitError(f"{flag}: {text!r} is outside the range of a double")
    return value


_REQUIRED = object()


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


class _Args:
    """Parsed flags.  A quantity is converted only when a handler asks for
    it, so flags a mode ignores stay unparsed, and errors are reported in
    the order the handler reads its flags."""

    def quantity(self, flag: str, default=_REQUIRED):
        """The flag's value in the unit its table row names; `default`
        when the flag is absent or empty, if a default is given."""
        text = getattr(self, _dest(flag))
        if default is not _REQUIRED and not text:
            return default
        if text is None:
            raise UnitError(f"{flag} is required for this mode")
        rows = _command(self.subcommand)[1]
        return _quantity(text, next(r[1] for r in rows if r[0].split()[0] == flag), flag)

    def require(self, *flags: str) -> None:
        """Refuse the first absent flag, before any of them is converted."""
        for flag in flags:
            if getattr(self, _dest(flag)) is None:
                raise UnitError(f"{flag} is required for this mode")

    @staticmethod
    def write_csv(path: str, header: list[str], rows) -> None:
        """Write a header row and the rows to path; NaN cells are empty."""
        import csv
        try:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow(["" if isinstance(v, float) and math.isnan(v) else v
                                     for v in row])
        except OSError as exc:
            raise OutputError(f"cannot write {path!r}: {exc.strerror}") from None


def _json_safe(obj):
    """Strict-JSON form: non-finite floats become None / 'inf' strings."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _emit(summary: dict, out_path: str | None) -> None:
    """Print the summary, after writing it to out_path first, so a file that
    cannot be written leaves nothing on stdout."""
    text = json.dumps(_json_safe(summary), indent=2, sort_keys=True,
                      allow_nan=False)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise OutputError(f"cannot write {out_path!r}: {exc.strerror}") from None
    print(text)


def _error_exit(kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return 2


# the row options the exact reader understands (action only as
# "store_true"); metavar and help shape only the text argparse writes
_EXACT_OPTIONS = {"default", "required", "choices", "type", "action", "metavar", "help"}


def _typed(value, options):
    """value through the row's type, as argparse converts it; None where
    argparse would refuse it."""
    try:
        return options["type"](value) if "type" in options else value
    except Exception:   # argparse then reads argv, and reports or raises it
        return None


def _read_exact(argv: list[str]) -> _Args | None:
    """The flags of an exact argv, read from its subcommand's flag rows as
    argparse would read them, or None when argparse must read argv.

    An exact argv starts at a subcommand and names each flag by one of its
    row names, as "--flag value" (a value not starting with "-") or
    "--flag=value", or bare for a store_true row.  Its values pass the
    rows' type and choices checks, every required row is given, and a
    repeated flag keeps its last value.  Anything else (help, an unknown
    or abbreviated flag, a missing or refused value, an option before the
    subcommand) is left to argparse, which alone writes usage, help and
    error text."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    rows = _command(argv[0])[1]
    for _names, _unit, options in rows:
        if (not options.keys() <= _EXACT_OPTIONS
                or options.get("action", "store_true") != "store_true"):
            return None
    by_name = {name: row for row in rows for name in row[0].split()}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if name not in by_name:
            return None
        names, _unit, options = by_name[name]
        if "action" in options:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, "-")
                if value.startswith("-"):   # none, or one argparse may read as a flag
                    return None
            elif value == "--":             # argparse (3.11) reads it as []
                return None
            value = _typed(value, options)
            choices = options.get("choices")
            if value is None or (choices is not None and value not in choices):
                return None
        given[names] = value
    args = _Args()
    args.config = args.out = None
    args.subcommand, args.argv = argv[0], list(argv)
    for names, _unit, options in rows:
        if names in given:
            value = given[names]
        elif options.get("required"):
            return None
        else:
            value = options.get("default", False if "action" in options else None)
            if isinstance(value, str):   # argparse converts a str default
                value = _typed(value, options)
                if value is None:
                    return None
        setattr(args, _dest(names.split()[0]), value)
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a value that is exactly "--" ("--tau=--"): argparse (3.11) turns it
    # into [] and skips its type and choices checks
    for a in argv:
        flag, _eq, value = a.partition("=")
        if a.startswith("-") and value == "--":
            return _error_exit("ArgumentError", f"argument {flag}: expected one argument")
    args = _read_exact(argv)
    try:
        if args is None:
            # every other argv goes to argparse, which writes help and
            # errors, and reads --config; only such a run loads it
            from pathamp import _cli_argparse
            args = _cli_argparse._parse(argv, _Args(), _COMMANDS, _command)
            if args is None:                # help was printed
                return 1
            if isinstance(args, list):      # the argv a --config replay runs
                return main(args)

        inputs, outputs, provenance, flags = _command(args.subcommand)[0](args)
        summary = {
            "command": args.subcommand,
            "argv": args.argv,
            "inputs": inputs,
            "outputs": outputs,
            "provenance": ({k: "computed" for k in outputs}
                           if provenance is None else provenance),
            "flagged_discrepancies": flags,
        }
        if getattr(args, "seed", None) is not None:
            summary["seed"] = args.seed
        _emit(summary, args.out)
    # OverflowError: a float power or math function left the range of a double
    except (ValueError, RuntimeError, OverflowError) as exc:
        return _error_exit(type(exc).__name__, str(exc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
