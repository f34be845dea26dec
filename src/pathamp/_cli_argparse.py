"""The command line's argparse side: every argv that the exact reader of
pathamp.cli declines, with the help, usage and error text argparse
writes, and the --config replay.

pathamp.cli imports this module only when its exact reader returns None,
so a valid run compiles none of it and loads no argparse.  It never
imports pathamp.cli: under ``python -m pathamp.cli`` that module runs as
``__main__``, and an import would compile it a second time, with a second
_Args and second exception classes.  So cli passes in what it needs: an
empty _Args to parse into, its subcommand table and its command lookup.
"""

from __future__ import annotations

import argparse
import json


class ArgumentError(ValueError):
    """Raised instead of argparse's usage-text exit so the command line can
    emit a machine-readable error object for unknown flags or values."""


class ConfigError(ValueError):
    """A --config summary that cannot be read or replayed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgumentError(message)


class _LazyParser:
    """A subcommand's parser as the subparsers action holds it (its
    parser_class).  The real parser is built from the subcommand's flag
    rows only when it parses, so a run imports and builds just the one it
    runs."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs      # prog, from add_parser
        self.name = self.command = None

    def parse_known_args(self, args, namespace=None):
        # args are the tokens argparse routed to this subcommand, so the
        # summary's argv starts at the subcommand and holds no global option
        parser = _Parser(**self.kwargs)
        parser.set_defaults(argv=[self.name, *args])
        for names, _unit, options in self.command(self.name)[1]:
            parser.add_argument(*names.split(), **options)
        return parser.parse_known_args(args, namespace)


def _build_parser(commands, command) -> _Parser:
    """The command-line parser, one subparser per subcommand of commands
    (cli._COMMANDS); command(name) is its (handler, flag rows)."""
    p = _Parser(
        prog="pathamp",
        description="Path-amplitude optics and flavour-oscillation calculator")
    p.add_argument("--config", help="re-run from an emitted JSON summary")
    p.add_argument("--out", help="also write the JSON summary to this file")
    sub = p.add_subparsers(dest="subcommand", parser_class=_LazyParser)
    for name in commands:
        lazy = sub.add_parser(name)
        lazy.name, lazy.command = name, command
    return p


def _load_replay(path: str, commands) -> list[str]:
    """The argv of an emitted summary."""
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"--config: {path!r} is not JSON: {exc}") from None
    if not isinstance(stored, dict):
        raise ConfigError(f"--config: {path!r} holds no JSON object")
    argv = stored.get("argv")
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise ConfigError(f"--config: {path!r} has no 'argv' list of strings")
    first = argv[0] if argv else ""
    if first.startswith("--config"):
        raise ConfigError("--config: a replayed summary cannot name another --config")
    if first not in commands:
        raise ConfigError(f"--config: {path!r} stores an argv that starts at {first!r},"
                          " not at a subcommand")
    return argv


def _parse(argv: list[str], args, commands, command):
    """argv read by argparse into args: the parsed args of a subcommand
    run; for --config, the argv to run in its place (the stored argv, after
    any --out); None, once help is printed, for no subcommand.  Raises
    ArgumentError for what argparse refuses, ConfigError for a replay it
    cannot make."""
    parser = _build_parser(commands, command)
    args = parser.parse_args(argv, args)
    if args.config:
        if args.subcommand:
            raise ConfigError(f"--config replays a whole run: drop the"
                              f" {args.subcommand!r} subcommand given beside it")
        # the stored argv is the whole run; it starts at its subcommand,
        # so it names no --config
        return ((["--out", args.out] if args.out else [])
                + _load_replay(args.config, commands))
    if not args.subcommand:
        parser.print_help()
        return None
    return args
