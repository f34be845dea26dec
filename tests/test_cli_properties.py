"""The command-line contract over generated argv.

Half the argv name one of the 14 subcommands (every recipe for
``reproduce``) and a random subset of its flags, under a random alias and
in either ``--flag value`` or ``--flag=value`` form.  Values are numbers
from zero to beyond the range of a double, with a suffix from the flag's
unit table, a wrong or missing suffix, or plain garbage; now and then an
unknown flag is added.  The flags come from the subcommands' own flag
rows, so a new flag is covered as soon as it exists.  The other half take
an argv of the golden transcript, most of which run, and replace one or
two of its values, so that an odd value also meets otherwise valid input.

Every run, in process through ``cli.main``, must either exit 0 with one
strict-JSON summary on stdout and replay byte for byte through
``--config`` and ``--out``, or exit 2 with one ``{"error", "message"}``
object on stderr and nothing on stdout.  That error is typed: never the
bare ``ValueError`` or ``RuntimeError`` of a value that slipped past
every check (``OverflowError`` is the documented refusal of a result
that leaves the range of a double).  No run may raise out of ``main``
(a traceback in a real process) or raise a numpy ``RuntimeWarning``.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathamp import cli
from test_cli_golden import CSV, GOLDEN_ARGV

_NUMBERS = st.one_of(
    st.floats(0.1, 10).map(lambda x: f"{x:.6g}"),
    st.floats(1e-12, 1e12).map(lambda x: f"{x:.4g}"),
    st.floats(-1e3, 1e3, allow_nan=False).map(lambda x: f"{x:.6g}"),
    st.sampled_from(["0", "-0", "0.0", "1", "-1", "0.5", "2", "10", "1e-300",
                     "1e300", "-1e300", "1e400", "1e-400", "5e-324"]),
)
_GARBAGE = st.sampled_from(["", "x", "1kg", "1 2", "nan", "inf", "--", "1e", "."])


def _mostly(good, bad):
    """good nine times in ten, else bad."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


# Oracle runs are bounded by cost, not by validity: the default million
# Monte Carlo samples take ~0.07 s, so sample counts are drawn small.  A
# nested run of any accepted order (1-4) takes a few ms; orders past 4
# (8 for Monte Carlo) are still drawn and must be refused.
_ORACLE_ORDER = st.sampled_from(["1", "2", "3", "4", "5", "9", "0", "-1", "2.5", "3x"])
_ORACLE_SAMPLES = st.integers(-2, 2000).map(str)


def _quantity(unit):
    if unit == "bare":
        suffixes = _mostly(st.just(""), st.just("cm"))
    else:
        suffixes = _mostly(st.sampled_from(sorted(cli._UNITS[unit])),
                           st.sampled_from(["", "furlong"]))
    return _mostly(st.builds(str.__add__, _NUMBERS, suffixes), _GARBAGE)


def _value(name, flag, unit, options):
    if name == "oracle" and flag == "--order":
        return _ORACLE_ORDER
    if name == "oracle" and flag == "--samples":
        return _ORACLE_SAMPLES
    if unit is not None:
        return _quantity(unit)
    if "choices" in options:
        return _mostly(st.sampled_from(options["choices"]), st.just("bogus"))
    if options.get("type") is int:
        return st.one_of(st.integers(-(2**70), 2**70).map(str), _GARBAGE)
    return st.just("{csv}")        # --curve, --csv: a file in the output directory


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = [name]
    for names, unit, options in cli._command(name)[1]:
        flag = names.split()[0]
        # the default sample count would make a Monte Carlo run slow
        present = _mostly(st.just(True), st.just(False)) \
            if options.get("required") or (name, flag) == ("oracle", "--samples") \
            else st.booleans()
        if not draw(present):
            continue
        alias = draw(st.sampled_from(names.split()))
        if options.get("action") == "store_true":
            argv.append(alias)
            continue
        value = draw(_value(name, flag, unit, options))
        argv += [f"{alias}={value}"] if draw(st.booleans()) else [alias, value]
    if draw(st.integers(0, 9)) == 0:
        argv += ["--bogus", "1"]
    return argv


_BASES = sorted(["{csv}" if a == CSV else a for a in argv]
                for argv in GOLDEN_ARGV.values()
                if argv and argv[0] in cli._COMMANDS and "--help" not in argv)


@st.composite
def _mutated(draw):
    argv = list(draw(st.sampled_from(_BASES)))
    rows = {name: row for row in cli._command(argv[0])[1] for name in row[0].split()}
    for _ in range(draw(st.integers(1, 2))):
        # flags given as "--flag value" whose row takes a value
        spots = [i for i, a in enumerate(argv[:-1])
                 if a in rows and rows[a][2].get("action") != "store_true"]
        if not spots:
            break
        i = draw(st.sampled_from(spots))
        names, unit, options = rows[argv[i]]
        argv[i + 1] = draw(_value(argv[0], names.split()[0], unit, options))
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-properties")


@settings(max_examples=200, derandomize=True)
@given(argv=st.one_of(_argv(), _mutated()))
def test_every_argv_keeps_the_contract(argv, out_dir):
    argv = [a.replace("{csv}", str(out_dir / "curve.csv")) for a in argv]
    first = out_dir / "summary.json"
    code, out, err = _run(["--out", str(first), *argv])
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == ""
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert payload["error"] not in ("ValueError", "RuntimeError"), payload
        return
    summary = json.loads(out, parse_constant=_reject_constant)
    assert summary["command"] == argv[0]
    replayed = out_dir / "replay.json"
    assert _run(["--config", str(first), "--out", str(replayed)]) == (code, out, err)
    assert replayed.read_bytes() == first.read_bytes()
