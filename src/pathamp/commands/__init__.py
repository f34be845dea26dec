"""The subcommands of the command line, one module per pathamp module
they drive, and ``reproduce`` with its recipes.

Each module's ``COMMANDS`` maps a subcommand to ``(handler, flag rows)``.
A row is ``(names, unit, argparse options)``: names are the flag and its
aliases; the unit names a unit table of ``pathamp.cli`` ("length",
"time", "angle", "energy", "momentum", "dm2", "density"), or is "bare"
for a number without a unit, or None for a value used as parsed.

The rows feed both parsers: the exact reader of ``pathamp.cli``, which
reads a valid run's argv without loading argparse, and the argparse
parser of ``pathamp._cli_argparse``, which reads every other argv, writes
help and errors, and reads ``--config`` replays.  The
reader understands the options ``default``, ``required``, ``choices``,
``type`` and ``action="store_true"``, and ``metavar`` and ``help``, which
shape only argparse's text; a row with any other option makes it leave
the subcommand's every argv to argparse.

A handler takes the parsed flags and returns ``(inputs, outputs,
provenance, flags)``; provenance None tags every output "computed".  It
reads a quantity with ``args.quantity(flag, default)``, which converts
the flag with its row's unit only when asked, refuses absent flags with
``args.require(*flags)``, and writes CSV with ``args.write_csv``.

A command module imports the physics modules it drives inside its
handlers, and never imports ``pathamp.cli``: under ``python -m
pathamp.cli`` that module runs as ``__main__``, and an import would
compile it a second time.
"""
