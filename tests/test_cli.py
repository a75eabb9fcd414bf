import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import math
import os
import shlex
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhsim import channels, cli, sweep
from unruhsim.cli import EXIT_INVARIANT, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from unruhsim.errors import DimensionMismatch


def test_parse_angle_forms():
    assert cli.parse_angle("0.5") == 0.5
    assert cli.parse_angle("pi") == pytest.approx(math.pi)
    assert cli.parse_angle("pi/4") == pytest.approx(math.pi / 4)
    assert cli.parse_angle("3*pi/10") == pytest.approx(0.3 * math.pi)
    assert cli.parse_angle(" Pi/6 ") == pytest.approx(math.pi / 6)
    for bad in ("tau", "pi/zero", "pie/4"):
        with pytest.raises(cli.UsageError):
            cli.parse_angle(bad)


# None marks a text that is not an angle.
@pytest.mark.parametrize("text, expected", [
    ("pi/", None), ("*pi", None), ("2*pi*pi", None), ("pi/2*pi", None),
    ("pi/0", None), ("pi/-0", None), ("-pi/4", None), ("2pi", None),
    ("nan*pi", math.nan), ("1_0*pi/40", math.pi / 4),
    (" 3 * PI / 10 ", 0.9424777960769379), ("pi/1e3", math.pi / 1e3),
    ("pi/-4", -math.pi / 4), ("inf", math.inf),
])
def test_angle_grammar(text, expected):
    if expected is None:
        with pytest.raises(cli.UsageError, match="cannot parse angle"):
            cli.parse_angle(text)
    elif math.isnan(expected):
        assert math.isnan(cli.parse_angle(text))
    else:
        assert cli.parse_angle(text) == expected


def test_readme_command_line_examples_parse():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["unruhsim"]:
            commands.append(words[1:])
        elif words[:3] == ["python", "-m", "unruhsim"]:
            commands.append(words[3:])
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    for argv in commands:
        cli._build_parser().parse_args(argv)


_KINDS = ["bit-trit-flip", "bit-trit-phase-flip", "dephasing", "phase-flip"]
_COUPLINGS = ["global", "ml", "multilocal"]
_MODES = ["correlated", "product"]
_VARIANTS = ["as-printed", "corrected"]
_EVERY = {"help": (["-h", "--help"], argparse.SUPPRESS, None, False),
          "config": (["--config"], None, None, False)}
_CHANNEL = {"channel": (["--channel"], None, _KINDS, True),
            "coupling": (["--coupling"], None, _COUPLINGS, True),
            "global_mode": (["--global-mode"], "product", _MODES, False)}

# dest: (option strings, default, choices, required) of every flag.
_FLAGS = {
    "state": {**_EVERY, "r": (["--r"], "0", None, False)},
    "check-channels": {
        **_EVERY,
        "variant": (["--variant"], None, _VARIANTS, False),
        "p": (["--p"], "11", None, False),
    },
    "negativity": {
        **_EVERY, **_CHANNEL,
        "variant": (["--variant"], "corrected", _VARIANTS, False),
        "p": (["--p"], 0.0, None, False),
        "p1": (["--p1"], None, None, False),
        "p2": (["--p2"], None, None, False),
        "r": (["--r"], None, None, True),
    },
    "sweep": {
        **_EVERY, **_CHANNEL,
        "variant": (["--variant"], "corrected", _VARIANTS, False),
        "axis": (["--axis"], None, ["p", "r", "grid"], True),
        "r": (["--r"], "0", None, False),
        "p": (["--p"], 0.0, None, False),
        "steps": (["--steps"], 101, None, False),
        "out": (["--out"], None, None, True),
        "plot_data": (["--plot-data"], False, None, False),
    },
    "esd": {
        **_EVERY, **_CHANNEL,
        "r": (["--r"], None, None, True),
        "tol": (["--tol"], 1e-6, None, False),
    },
    "verify": {
        **_EVERY,
        "channel": (["--channel"], None, ["phase-flip", "dephasing"], False),
        "coupling": (["--coupling"], None, _COUPLINGS, False),
        "global_mode": (["--global-mode"], None, _MODES, False),
        "grid": (["--grid"], None, None, False),
        "csv": (["--csv"], None, None, False),
        "out_dir": (["--out-dir"], None, None, False),
    },
    "repro": {
        **_EVERY,
        "figure": (["--figure"], None, [*sweep.FIGURES, "all"], True),
        "out_dir": (["--out-dir"], None, None, True),
    },
}


def test_flag_surface_is_frozen():
    (subparsers,) = [action for action in cli._build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(_FLAGS)
    for command, parser in subparsers.choices.items():
        flags = {a.dest: (a.option_strings, a.default, a.choices, a.required)
                 for a in parser._actions}
        assert flags == _FLAGS[command], command


def test_state_prints_matrix(capsys):
    assert main(["state", "--r", "0"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert lines[1].split(",")[1] == "0.5"
    assert lines[1].split(",")[3] == "0.5"


def test_negativity_bell_point(capsys):
    code = main([
        "negativity", "--channel", "phase-flip", "--coupling", "multilocal",
        "--r", "0",
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.5"


def test_negativity_with_noise(capsys):
    code = main([
        "negativity", "--channel", "phase-flip", "--coupling", "ml",
        "--p", "0.5", "--r", "0",
    ])
    assert code == EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(0.125)


def test_esd_reports_none(capsys):
    code = main([
        "esd", "--channel", "dephasing", "--coupling", "multilocal",
        "--r", "pi/4",
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "none"


def test_esd_reports_threshold(capsys):
    code = main([
        "esd", "--channel", "bit-trit-flip", "--coupling", "multilocal",
        "--r", "pi/4", "--tol", "1e-4",
    ])
    assert code == EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(0.53013, abs=1e-3)


def test_check_channels_table(capsys):
    code = main(["check-channels", "--variant", "corrected", "--p", "3"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "channel,side,variant,p,completeness_defect"
    # 4 kinds x 1 variant x 3 p values x 2 sides
    assert len(lines) == 1 + 24
    assert all(float(line.split(",")[4]) <= 1e-12 for line in lines[1:])


def test_check_channels_reports_defects(capsys):
    main(["check-channels", "--variant", "as-printed", "--p", "0,0.6"])
    out = capsys.readouterr().out
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    deph = [r for r in rows if r[0] == "dephasing" and r[1] == "qutrit"]
    assert any(r[4] == "2" for r in deph)
    bpf = [
        r for r in rows
        if r[0] == "bit_trit_phase_flip" and r[1] == "qutrit" and r[3] == "0.6"
    ]
    assert float(bpf[0][4]) == pytest.approx(0.2)


def test_check_channels_bad_p_prints_no_partial_table(capsys):
    assert main(["check-channels", "--p", "0,2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: decoherence parameter p=2.0 outside [0, 1]\n"


def test_usage_errors_exit_one(capsys):
    assert main(["negativity", "--channel", "phase-flip"]) == EXIT_USAGE
    assert main([
        "negativity", "--channel", "phase-flip", "--coupling", "ml",
        "--r", "2.0",
    ]) == EXIT_USAGE
    assert main(["sweep", "--channel", "nope", "--coupling", "ml",
                 "--axis", "p", "--out", "x.csv"]) == EXIT_USAGE
    capsys.readouterr()


def test_invariant_violation_exits_two(capsys):
    code = main([
        "negativity", "--channel", "phase-flip", "--coupling", "global",
        "--p", "0.5", "--r", "0", "--global-mode", "correlated",
    ])
    assert code == EXIT_INVARIANT
    assert "invariant violation" in capsys.readouterr().err


def test_other_package_errors_exit_two(monkeypatch, capsys):
    def fail(args):
        raise DimensionMismatch("probe")

    monkeypatch.setitem(cli._COMMANDS, "state", fail)
    assert main(["state", "--r", "0"]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: probe\n")
    assert "Traceback" not in captured.err


def test_io_failure_exits_three(tmp_path, capsys):
    code = main([
        "sweep", "--channel", "phase-flip", "--coupling", "ml",
        "--axis", "p", "--steps", "3",
        "--out", str(tmp_path / "missing_dir" / "o.csv"),
    ])
    assert code == EXIT_IO
    assert "i/o failure" in capsys.readouterr().err


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main([
        "sweep", "--channel", "dephasing", "--coupling", "ml",
        "--axis", "p", "--r", "pi/6", "--steps", "11", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == sweep.CSV_HEADER
    assert len(lines) == 12


def test_sweep_plot_data(tmp_path):
    out = tmp_path / "s.dat"
    code = main([
        "sweep", "--channel", "phase-flip", "--coupling", "ml",
        "--axis", "r", "--steps", "5", "--out", str(out), "--plot-data",
    ])
    assert code == EXIT_OK
    assert out.read_text().startswith("# phase_flip multilocal")


_PINNED = ["--p", "0.3", "--r", "pi/5", "--steps", "7"]
_CORRELATED = ["--global-mode", "correlated", "--axis", "r", "--p", "0", "--steps", "7"]
# sha256 of `sweep --channel bit-trit-phase-flip` output as written when a
# result held one linked spec per row.  The figure digests cover product mode
# alone and no multilocal grid; these pin the correlated-mode label and the
# multilocal rows (p1 = p2 = 0.3, p printed as 0) as the CLI writes them.
SWEEP_SHA256 = {
    ("ml", "p", "csv"): "0916ce50a799843d6db209d104e27ed8bce8135f799a52fc80fafa67023f50e8",
    ("ml", "p", "dat"): "e06f4bf773860dc158cfc78aa7d4e8a3e5b38b7bfc7b3f5890f1d708901687fa",
    ("ml", "r", "csv"): "ded2f6b6c038e272f8501e9f95eda8db7b281a031ee172ae685d1846220200f5",
    ("ml", "r", "dat"): "7bb27ddf7a607d58d439dba60425be350c81591bbd40ad0b2e0f798ada2aab1d",
    ("ml", "grid", "csv"): "9cb9112712a0ac151c9e6ca80099584b7d7746cc840bd88edc96debdbdfa8a9c",
    ("ml", "grid", "dat"): "e6d49584f5258678b10ad4155b7db453e3ba95e7096f95a9d408941a8b91ecc4",
    ("global", "p", "csv"): "8c81d17c68dd06b0dcd5a1b613c5da59eeab23bc7404596870e2694c0acaf63a",
    ("global", "p", "dat"): "c68d14f57fde4e9e3e4f8b884aff67b02f9fba6c1a4a862f0149f6d18c6eda20",
    ("global", "r", "csv"): "cffaba18079bef625a4cf92f0b3ddd394bc8a867e6a64df174abd2502c18098e",
    ("global", "r", "dat"): "aa2b063878ad1edc44a663705736dbf98e6a2e727e91215f74a40b87f7f9c630",
    ("global", "grid", "csv"): "d85acc49630059e1cc909d0a02574654d7d921dac470be9481870baf7c385955",
    ("global", "grid", "dat"): "7eb1ba450c7718ee8c991bec4356a774ceeaad258283d058e1ddb168958d22ca",
    ("global", "correlated", "csv"):
        "9c92c8e92014805c8860a6c824d66635e2c057d3d72a3656f049558b8ce246f3",
    ("global", "correlated", "dat"):
        "99fc08850f7b6f6e8ec3850fb6572a1a671e37b0f6607181787cd4d437608517",
}


@pytest.mark.parametrize("coupling, axis, fmt", SWEEP_SHA256,
                         ids=["-".join(key) for key in SWEEP_SHA256])
def test_sweep_bytes_are_pinned(tmp_path, capsys, coupling, axis, fmt):
    out = tmp_path / "s.out"
    flags = _CORRELATED if axis == "correlated" else ["--axis", axis, *_PINNED]
    code = main(["sweep", "--channel", "bit-trit-phase-flip", "--coupling", coupling,
                 *flags, "--out", str(out), *(["--plot-data"] if fmt == "dat" else [])])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SWEEP_SHA256[coupling, axis, fmt]


_STDOUT_ARGV = {
    "state-0": ["state", "--r", "0"],
    "state-pi/6": ["state", "--r", "pi/6"],
    "state-pi/4": ["state", "--r", "pi/4"],
    "check-channels": ["check-channels"],
    "check-channels-as-printed": ["check-channels", "--variant", "as-printed",
                                  "--p", "0,0.6"],
}
# sha256 of the stdout of each command above; other tests read only a few
# fields of it.  The check-channels defects come from zgemm, so those digests
# hold on the OpenBLAS kernel they were recorded with (SkylakeX, AVX-512), as
# the figure digests do: under Haswell or Prescott the default grid's digest
# changes, the as-printed one does not.
STDOUT_SHA256 = {
    "state-0": "b8659c127e11c611256b2c1b6231b7ae7ed268c157c333c57d45d562462d0371",
    "state-pi/6": "d85b61851fdb69eac51f9874324aec5417d5c651f80c6b13feb43a54d4858331",
    "state-pi/4": "958ab1fb0da3e85eefe702990357ceacb2feec6f3816b5657fd96b14f878e757",
    "check-channels":
        "c097625edf3cbe73a84f5c25e821251771cab36e7b4cca34bda801ac978470fb",
    "check-channels-as-printed":
        "9d77adde33fc205a35cf0ba14e376c670eb90016d80928c0d5d65fdfbb0a648b",
}


@pytest.mark.parametrize("case", STDOUT_SHA256)
def test_state_and_check_channels_stdout_is_pinned(capsys, case):
    assert main(_STDOUT_ARGV[case]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[case]


def test_verify_report_output(capsys):
    code = main([
        "verify", "--channel", "phase-flip", "--coupling", "multilocal",
        "--grid", "5",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict:           match" in out


def test_verify_csv_side_output(tmp_path, capsys):
    dest = tmp_path / "report.csv"
    code = main([
        "verify", "--channel", "dephasing", "--coupling", "multilocal",
        "--grid", "4", "--csv", str(dest),
    ])
    assert code == EXIT_OK
    lines = dest.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[-1] == "mismatch"
    capsys.readouterr()


@pytest.mark.parametrize("argv, missing", [
    (["verify"], "--channel, --coupling"),
    (["verify", "--channel", "dephasing"], "--coupling"),
])
def test_verify_without_out_dir_needs_channel_and_coupling(capsys, argv, missing):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: the following arguments are required: {missing}\n")


def test_repro_writes_dataset(tmp_path, capsys):
    code = main(["repro", "--figure", "1a", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    csv_lines = (tmp_path / "fig1a.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 4 * 101  # four channels, 101 points each
    dat = (tmp_path / "fig1a.dat").read_text()
    assert dat.count("# ") == 4
    capsys.readouterr()


def test_esd_rejects_non_finite_tolerance(capsys):
    for tol in ("nan", "inf"):
        code = main([
            "esd", "--channel", "bit-trit-flip", "--coupling", "multilocal",
            "--r", "pi/4", "--tol", tol,
        ])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p_tol" in captured.err


def test_repro_all_matches_single_figures(tmp_path, capsys):
    assert main(["repro", "--figure", "all", "--out-dir", str(tmp_path / "all")]) == EXIT_OK
    for figure in sweep.FIGURES:
        code = main(["repro", "--figure", figure, "--out-dir", str(tmp_path / "one")])
        assert code == EXIT_OK
    names = sorted(os.listdir(tmp_path / "one"))
    assert len(names) == 18
    assert sorted(os.listdir(tmp_path / "all")) == names
    for name in names:
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    capsys.readouterr()


_SWEEP = ["sweep", "--channel", "phase-flip", "--coupling", "ml", "--out", "s.out"]
_ESD = ["esd", "--channel", "bit-trit-flip", "--coupling", "global", "--r", "pi/4"]

# (argv, key, value, other): a config line ``key = value`` acts as the flag,
# and the flag on the command line beats ``key = other``.
_CONFIG_PARITY = [
    pytest.param(["negativity", "--channel", "phase-flip", "--coupling", "ml",
                  "--r", "0"], "p", "0.5", "0", id="negativity-p"),
    pytest.param(_SWEEP + ["--axis", "p"], "steps", "3", "7", id="sweep-steps"),
    pytest.param(_ESD, "tol", "0.01", "1e-6", id="esd-tol"),
    # correlated mode exits 2: no trace-preserving set
    pytest.param(_ESD, "global-mode", "correlated", "product", id="esd-global-mode"),
    pytest.param(["state"], "r", "pi/4", "0", id="state-r"),
    pytest.param(_SWEEP + ["--axis", "p", "--steps", "3"], "plot-data", "on", "off",
                 id="sweep-plot-data"),
]


def _as_flags(key, value):
    if value in ("on", "off"):  # a switch
        return [f"--{key}"] * (value == "on")
    return [f"--{key}", value]


def _run(capsys, argv, config=None):
    """Exit code, stdout, stderr and the bytes of ``s.out``, if written."""
    if config is not None:
        with open("run.cfg", "w") as fh:
            fh.write(config + "\n")
        argv = argv + ["--config", "run.cfg"]
    code = main(argv)
    out, err = capsys.readouterr()
    written = None
    if os.path.exists("s.out"):
        with open("s.out", "rb") as fh:
            written = fh.read()
        os.remove("s.out")
    return code, out, err, written


@pytest.mark.parametrize("argv, key, value, other", _CONFIG_PARITY)
def test_config_file_overrides_defaults(tmp_path, monkeypatch, capsys,
                                        argv, key, value, other):
    monkeypatch.chdir(tmp_path)
    expected = _run(capsys, argv + _as_flags(key, value))
    assert _run(capsys, argv, f"# example configuration\n{key} = {value}") == expected
    assert _run(capsys, argv) != expected


@pytest.mark.parametrize("argv, key, value, other", [
    *_CONFIG_PARITY,
    # A required flag comes from the command line, so a config line can only lose.
    pytest.param(_SWEEP, "axis", "p", "r", id="sweep-axis"),
])
def test_explicit_flag_beats_config(tmp_path, monkeypatch, capsys,
                                    argv, key, value, other):
    monkeypatch.chdir(tmp_path)
    expected = _run(capsys, argv + _as_flags(key, value))
    assert _run(capsys, argv + _as_flags(key, value), f"{key} = {other}") == expected
    assert _run(capsys, argv + _as_flags(key, other)) != expected


# argparse checks the flags it marks required on the command line, before the
# config file is read, so no config line can supply one.  verify's --channel
# and --coupling are not marked required (--out-dir needs neither); they are
# checked after the file is read, so config lines supply them like any
# optional flag.
@pytest.mark.parametrize("argv, config, code, stdout_of, err", [
    pytest.param(["sweep", "--coupling", "ml", "--axis", "p", "--out", "s.out"],
                 "channel = phase-flip", EXIT_USAGE, None,
                 "error: the following arguments are required: --channel\n",
                 id="sweep-required-channel"),
    pytest.param(["verify"], "channel = phase-flip\ncoupling = ml\ngrid = 3", EXIT_OK,
                 ["verify", "--channel", "phase-flip", "--coupling", "ml", "--grid", "3"],
                 "", id="verify-conditional-channel"),
])
def test_config_supplies_no_flag_argparse_requires(tmp_path, monkeypatch, capsys,
                                                   argv, config, code, stdout_of, err):
    monkeypatch.chdir(tmp_path)
    stdout = "" if stdout_of is None else _run(capsys, stdout_of)[1]
    assert _run(capsys, argv, config) == (code, stdout, err, None)


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("banana = 1\n")
    code = main([
        "negativity", "--channel", "phase-flip", "--coupling", "ml",
        "--r", "0", "--config", str(cfg),
    ])
    assert code == EXIT_USAGE
    assert "banana" in capsys.readouterr().err


def test_config_missing_file_rejected(capsys):
    code = main(["state", "--r", "0", "--config", "/no/such/file.cfg"])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_config_value_of_wrong_type_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = abc\n")
    code = main([
        "sweep", "--channel", "phase-flip", "--coupling", "ml", "--axis", "p",
        "--out", str(tmp_path / "s.csv"), "--config", str(cfg),
    ])
    assert code == EXIT_USAGE
    assert "abc" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["negativity", "--channel", "dephasing", "--coupling", "ml", "--r", "0",
      "--p", "0.3"], "variant"),
    (_ESD, "global-mode"),
    (_SWEEP + ["--axis", "p"], "axis"),  # loses to the flag, but is still checked
], ids=["negativity-variant", "esd-global-mode", "sweep-axis"])
def test_config_value_outside_choices_exits_one(tmp_path, monkeypatch, capsys,
                                                argv, key):
    monkeypatch.chdir(tmp_path)
    code, out, err, written = _run(capsys, argv, f"{key} = bogus")
    assert (code, out, written) == (EXIT_USAGE, "", None)
    # argparse's own message, as for the flag on the command line
    assert err == _run(capsys, argv + [f"--{key}", "bogus"])[2]
    assert f"argument --{key}: invalid choice: 'bogus'" in err


_NEGATIVITY = ["negativity", "--channel", "phase-flip", "--coupling", "ml",
               "--r", "0"]


@pytest.mark.parametrize("argv, config", [
    (_NEGATIVITY + ["--p1", "abc"], None),
    (_NEGATIVITY + ["--p", "abc"], None),
    (_NEGATIVITY, b"p2 = abc\n"),
    (["sweep", "--channel", "phase-flip", "--coupling", "ml", "--axis", "r",
      "--p", "abc", "--out", "s.csv"], None),
    (_NEGATIVITY, b"p = \xff\n"),  # not UTF-8
    (_NEGATIVITY, b"p2\n"),
    # 10**20 points fail inside numpy before anything is allocated.
    (["sweep", "--channel", "phase-flip", "--coupling", "ml", "--axis", "p",
      "--steps", str(10**20), "--out", "s.csv"], None),
    (["verify", "--channel", "dephasing", "--coupling", "ml",
      "--grid", str(10**20)], None),
    (["check-channels", "--p", str(10**20)], None),
    # Axes numpy can build, whose result arrays it refuses before allocating.
    (["verify", "--channel", "dephasing", "--coupling", "global",
      "--grid", "50000"], None),
    (["verify", "--channel", "dephasing", "--coupling", "multilocal",
      "--grid", "3000000"], None),
    # More (p1, p2, p) rows than an int64 counts: numpy's broadcast refuses them.
    (["verify", "--channel", "dephasing", "--coupling", "global",
      "--grid", "2500000"], None),
], ids=["p1", "p", "config-p2", "sweep-p", "config-not-utf8", "config-no-equals",
        "sweep-steps-huge",
        "verify-grid-huge", "check-channels-huge", "verify-global-results-huge",
        "verify-multilocal-results-huge", "verify-global-rows-past-int64"])
def test_bad_input_exits_one_without_traceback(
    tmp_path, monkeypatch, capsys, argv, config
):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_bytes(config)
        argv = argv + ["--config", "run.cfg"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if config == b"p2\n":
        assert captured.err == "error: run.cfg:1: expected 'key = value'\n"
    # Refused for its size, not by a value check.
    points = {str(10**20): 10**20, "50000": 50000**4, "3000000": 3000000**3,
              "2500000": 2500000**4}
    for size in set(argv) & points.keys():
        assert captured.err == f"error: a grid of {points[size]} points is too large\n"
    assert not (tmp_path / "s.csv").exists()


class _NoRoom:
    """numpy as ``sweep`` sees it when no array of more than 10**5 entries
    can be allocated; nothing that large is ever allocated."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, *args, **kwargs):
        if math.prod(shape) > 10**5:
            raise MemoryError(f"cannot allocate an array of shape {shape}")
        return np.empty(shape, *args, **kwargs)


class _NoRows(_NoRoom):
    """``_NoRoom``, where building a grid's (p1, p2, p) rows fails the test."""

    @staticmethod
    def broadcast_arrays(*axes):
        raise AssertionError(f"built rows from {len(axes)} axes")

    stack = broadcast_arrays


@pytest.mark.parametrize("argv, points", [
    # 400 p x 400 r points: each axis fits, their result arrays do not.
    (["sweep", "--channel", "dephasing", "--coupling", "ml", "--axis", "grid",
      "--steps", "400", "--out", "s.csv"], 400 * 400),
    # 20**3 (p1, p2, p) specs x 20 r.
    (["verify", "--channel", "dephasing", "--coupling", "global",
      "--grid", "20"], 20**4),
], ids=["sweep-grid", "verify-global"])
def test_result_arrays_that_do_not_fit_exit_one(
    tmp_path, monkeypatch, capsys, argv, points
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sweep, "np", _NoRoom())
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a grid of {points} points is too large\n"
    assert not (tmp_path / "s.csv").exists()


def test_sweep_grid_too_large_is_refused_before_its_states_exist(
    tmp_path, monkeypatch, capsys
):
    def no_states(r):
        raise AssertionError(f"built {len(r)} states")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sweep, "unruh_state", no_states)
    argv = ["sweep", "--channel", "dephasing", "--coupling", "ml", "--axis", "grid",
            "--steps", "100000", "--out", "s.csv"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a grid of 10000000000 points is too large\n"
    assert not (tmp_path / "s.csv").exists()


def test_sweep_grid_too_large_is_refused_before_its_rows_exist(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sweep, "np", _NoRows())
    argv = ["sweep", "--channel", "dephasing", "--coupling", "ml", "--axis", "grid",
            "--steps", "100000", "--out", "s.csv"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a grid of 10000000000 points is too large\n"
    assert not (tmp_path / "s.csv").exists()


def test_running_out_of_memory_exits_one_without_traceback(
    tmp_path, monkeypatch, capsys
):
    def no_room(r):
        raise MemoryError(f"cannot allocate {len(r)} states")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sweep, "unruh_state", no_room)
    argv = ["sweep", "--channel", "phase-flip", "--coupling", "ml", "--axis", "r",
            "--steps", "11", "--out", "s.csv"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: out of memory\n")
    assert "Traceback" not in captured.err
    assert os.listdir(tmp_path) == []


def test_verify_grid_too_large_is_refused_with_only_its_template_spec(
    monkeypatch, capsys
):
    # The report's one template spec exists; no row, state or evolve call does.
    def none_of(what):
        def refuse(*args, **kwargs):
            raise AssertionError(f"built {what}")
        return refuse

    built = []
    spec = channels.ChannelSpec
    monkeypatch.setattr(channels, "ChannelSpec",
                        lambda *args, **kwargs: built.append(args) or spec(*args, **kwargs))
    monkeypatch.setattr(sweep, "np", _NoRows())
    monkeypatch.setattr(sweep, "unruh_state", none_of("states"))
    monkeypatch.setattr(channels, "evolve", none_of("evolved rows"))
    argv = ["verify", "--channel", "dephasing", "--coupling", "global", "--grid", "120"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a grid of 207360000 points is too large\n"
    assert len(built) == 1


@pytest.mark.parametrize("value, written", [
    ("ture", None), ("ON", "# phase_flip"), ("off", sweep.CSV_HEADER),
])
def test_config_switch_takes_only_known_values(tmp_path, capsys, value, written):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"plot_data = {value}\n")
    out = tmp_path / "s.out"
    code = main([
        "sweep", "--channel", "phase-flip", "--coupling", "ml", "--axis", "p",
        "--steps", "3", "--out", str(out), "--config", str(cfg),
    ])
    captured = capsys.readouterr()
    if written is None:
        assert code == EXIT_USAGE
        assert captured.err.startswith("error: ") and value in captured.err
        assert not out.exists()
    else:
        assert code == EXIT_OK
        assert out.read_text().startswith(written)


def test_check_channels_config_key_is_the_flag_name(tmp_path, capsys):
    assert main(["check-channels", "--p", "3"]) == EXIT_OK
    expected = capsys.readouterr().out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 3\n")
    assert main(["check-channels", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_abbreviated_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 7\n")
    out = tmp_path / "s.csv"
    code = main([
        "sweep", "--channel", "phase-flip", "--coupling", "ml", "--axis", "p",
        "--ste", "3", "--out", str(out), "--config", str(cfg),
    ])
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 3
    capsys.readouterr()


def test_verify_csv_to_an_empty_path_is_an_io_failure(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--channel", "phase-flip", "--coupling", "ml", "--grid", "3"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main([*argv, "--csv", ""]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o failure: cannot write ''")
    assert list(tmp_path.iterdir()) == []


def test_verify_csv_failed_write_keeps_previous_file(tmp_path, monkeypatch, capsys):
    dest = tmp_path / "report.csv"
    dest.write_text("previous\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    code = main([
        "verify", "--channel", "dephasing", "--coupling", "multilocal",
        "--grid", "3", "--csv", str(dest),
    ])
    assert code == EXIT_IO
    assert dest.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
    capsys.readouterr()


def _child_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


@pytest.mark.parametrize("module", ["unruhsim", "unruhsim.cli"])
def test_module_entry_points(module):
    done = subprocess.run(
        [sys.executable, "-m", module, "state", "--r", "0"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.strip().splitlines()) == 6


_BROKEN_PIPE = b"i/o failure: cannot write to stdout: Broken pipe\n"


def test_a_reader_that_stops_early_is_an_io_failure():
    # As `check-channels --p 2000 | head -1`: far more than a pipe buffer holds.
    child = subprocess.Popen(
        [sys.executable, "-m", "unruhsim", "check-channels", "--p", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    with child:
        assert child.stdout.readline() == b"channel,side,variant,p,completeness_defect\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == EXIT_IO
    assert err == _BROKEN_PIPE  # one line, no traceback


def test_a_pipe_with_no_reader_is_an_io_failure():
    # Buffered, the few lines of `state` fail at the flush, not inside a print.
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "unruhsim", "state", "--r", "pi/4"],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert done.returncode == EXIT_IO
    assert done.stderr == _BROKEN_PIPE  # one line, no traceback


# --- the grid commands keep glibc's heap -----------------------------------------

class _Libc:
    """Stands in for ctypes.CDLL: a C library whose mallopt records its
    calls, or, with ``missing``, one without it: no such symbol
    (AttributeError) or no handle at all (OSError; TypeError, as on Windows)."""

    def __init__(self, calls, missing=None):
        self.calls, self.missing = calls, missing

    def __call__(self, name):
        self.calls.append(("open", name))
        if self.missing in (OSError, TypeError):
            raise self.missing("no handle for the C library")

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1
        return types.SimpleNamespace(**({} if self.missing else {"mallopt": mallopt}))


@pytest.fixture
def heap_calls(monkeypatch):
    """The calls a fake C library meets, from a fresh once-per-process cache."""
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", _Libc(calls))
    cli._keep_heap.cache_clear()
    yield calls
    cli._keep_heap.cache_clear()


_GRID_ARGVS = [
    ["sweep", "--channel", "phase-flip", "--coupling", "ml", "--axis", "grid",
     "--steps", "3", "--out", "s.csv"],
    ["verify", "--channel", "dephasing", "--coupling", "global", "--grid", "3"],
    ["verify", "--out-dir", "reports"],
    ["repro", "--figure", "2c", "--out-dir", "figures"],
    ["sweep", "--channel", "dephasing", "--coupling", "ml", "--variant", "as-printed",
     "--axis", "p", "--steps", "3", "--out", "bad.csv"],
    ["sweep", "--channel", "phase-flip", "--coupling", "ml", "--axis", "p",
     "--steps", "0", "--out", "none.csv"],
]


def test_only_the_grid_commands_keep_the_heap_once_per_process(
    tmp_path, monkeypatch, capsys, heap_calls
):
    monkeypatch.chdir(tmp_path)
    assert "ctypes" not in vars(cli)  # imported on the first grid command only
    for argv in (["esd", "--channel", "phase-flip", "--coupling", "ml", "--r", "0.3"],
                 ["negativity", "--channel", "phase-flip", "--coupling", "ml",
                  "--r", "0.3"],
                 ["state", "--r", "pi/6"], ["check-channels", "--p", "3"]):
        assert main(argv) == EXIT_OK
    assert heap_calls == []
    for argv in _GRID_ARGVS * 2:
        main(argv)
    capsys.readouterr()
    assert heap_calls == [("open", None), (cli._M_MMAP_THRESHOLD, 32 << 20),
                          (cli._M_TRIM_THRESHOLD, 256 << 20)]
    assert (cli._M_MMAP_THRESHOLD, cli._M_TRIM_THRESHOLD) == (-3, -1)  # malloc.h


def test_without_mallopt_the_grid_commands_write_the_same(
    tmp_path, monkeypatch, capsys, heap_calls
):
    def run_all(where, libc):
        where.mkdir()
        monkeypatch.chdir(where)
        monkeypatch.setattr(ctypes, "CDLL", libc)
        cli._keep_heap.cache_clear()
        streams = []
        for argv in _GRID_ARGVS:
            code = main(argv)
            streams.append((code, *capsys.readouterr()))
        files = {str(p.relative_to(where)): p.read_bytes()
                 for p in sorted(where.rglob("*")) if p.is_file()}
        return streams, files

    kept = run_all(tmp_path / "kept", _Libc(heap_calls))
    assert [code for code, *_ in kept[0]] == [EXIT_OK] * 4 + [EXIT_INVARIANT, EXIT_USAGE]
    assert len(kept[1]) == 9  # s.csv, six reports, fig2c.csv and fig2c.dat
    for missing in (AttributeError, OSError, TypeError):
        calls = []
        assert run_all(tmp_path / missing.__name__, _Libc(calls, missing)) == kept
        assert calls == [("open", None)]


# --- checked where the input enters ---------------------------------------------

_SWEEP_3 = ["sweep", "--channel", "phase-flip", "--coupling", "ml", "--steps", "3",
            "--out", "s.out"]


@pytest.mark.parametrize("axis, r, shown", [
    ("r", "nan", "nan"), ("grid", "5", "5.0"), ("p", "-0.1", "-0.1"),
])
def test_the_fixed_r_is_checked_on_every_axis(tmp_path, monkeypatch, capsys,
                                              axis, r, shown):
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, _SWEEP_3 + ["--axis", axis, "--r", r]) == (
        EXIT_USAGE, "", f"error: acceleration parameter r={shown} outside [0, pi/4]\n",
        None)
    assert list(tmp_path.iterdir()) == []


_GLOBAL_3 = ["sweep", "--channel", "phase-flip", "--coupling", "global", "--steps", "3",
             "--out", "s.out"]


# -0 is 0: read from a flag or a config line, it writes the bytes 0 writes.
@pytest.mark.parametrize("config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv, key, tail", [
    pytest.param(_GLOBAL_3 + ["--axis", "r"], "p", "", id="sweep-p-csv"),
    pytest.param(_GLOBAL_3 + ["--axis", "r", "--plot-data"], "p", "", id="sweep-p-dat"),
    pytest.param(_GLOBAL_3 + ["--axis", "p"], "r", "", id="sweep-r-csv"),
    pytest.param(_GLOBAL_3 + ["--axis", "p", "--plot-data"], "r", "", id="sweep-r-dat"),
    pytest.param(["state"], "r", "", id="state-r"),
    pytest.param(["check-channels"], "p", ",1", id="check-channels-p"),
])
def test_minus_zero_writes_the_bytes_of_zero(tmp_path, monkeypatch, capsys,
                                             argv, key, tail, config):
    monkeypatch.chdir(tmp_path)
    runs = []
    for value in ("-0" + tail, "0" + tail):
        runs.append(_run(capsys, argv, f"{key} = {value}") if config
                    else _run(capsys, argv + [f"--{key}={value}"]))
    assert runs[0][0] == EXIT_OK
    assert runs[0] == runs[1]


def test_every_minus_zero_parameter_reads_as_zero():
    args = cli._build_parser().parse_args([
        "negativity", "--channel", "phase-flip", "--coupling", "global", "--r", "0",
        "--p", "-0", "--p1", "-0", "--p2", "-0"])
    spec = cli._channel_spec(args)
    angles = [cli.parse_angle(text) for text in ("-0", "-0.0", "-0*pi", "pi/-inf")]
    for x in (spec.p1, spec.p2, spec.p, *angles, *cli._parse_p_grid("-0,-0.0")):
        assert math.copysign(1.0, x) == 1.0


# The p flags each command takes, and the overrides the spec test gives them.
_SPEC_COMMANDS = {
    "negativity": (["negativity", "--r", "0.3", "--variant", "as-printed"],
                   {"p", "p1", "p2"}),
    "sweep": (["sweep", "--axis", "r", "--out", "x.csv", "--variant", "as-printed"],
              {"p"}),
    "esd": (["esd", "--r", "0.3"], set()),
}
_SPEC_OVERRIDES = {
    "none": {}, "p": {"p": "0.3"}, "p1": {"p": "0.3", "p1": "0.2"},
    "p2": {"p": "0.3", "p2": "0.7"}, "p1-p2": {"p": "0.3", "p1": "0.2", "p2": "0.7"},
    "p-minus-0": {"p": "-0"}, "p1-minus-0": {"p": "0.3", "p1": "-0"},
    "p2-minus-0": {"p": "0.3", "p2": "-0"},
    "all-minus-0": {"p": "-0", "p1": "-0", "p2": "-0"},
}


@pytest.mark.parametrize("coupling", ["ml", "global"])
@pytest.mark.parametrize("command, flags", [
    pytest.param(command, flags, id=f"{command}-{name}")
    for command, (_, taken) in _SPEC_COMMANDS.items()
    for name, flags in _SPEC_OVERRIDES.items() if set(flags) <= taken
])
def test_the_cli_spec_is_the_linked_row_with_its_overrides(command, flags, coupling):
    head, _ = _SPEC_COMMANDS[command]
    args = cli._build_parser().parse_args(
        head + ["--channel", "dephasing", "--coupling", coupling,
                "--global-mode", "correlated"]
        + [f"--{key}={value}" for key, value in flags.items()])
    template = channels.ChannelSpec(
        channels.DEPHASING, cli._COUPLING_FLAGS[coupling],
        global_mode=channels.CORRELATED,
        variant=channels.AS_PRINTED if "--variant" in head else channels.CORRECTED)
    linked = sweep._linked_row(template, float(flags.get("p", 0.0)) + 0.0)
    expected = dict(zip(("p1", "p2", "p"), linked),
                    **{key: float(flags[key]) for key in ("p1", "p2") if key in flags})
    spec = cli._channel_spec(args)
    for field in dataclasses.fields(channels.ChannelSpec):
        want = expected.get(field.name, getattr(template, field.name))
        assert getattr(spec, field.name) == want, field.name
    for x in (spec.p1, spec.p2, spec.p):
        assert math.copysign(1.0, x) == 1.0  # every p is >= 0, and a zero is +0


def test_an_override_is_refused_after_the_linked_p_it_leaves(capsys):
    assert main(["negativity", "--channel", "phase-flip", "--coupling", "global",
                 "--r", "0", "--p", "2", "--p1", "0.1"]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: decoherence parameter p2=2.0 outside [0, 1]\n")


def test_an_empty_config_path_is_read_and_refused(capsys):
    assert main(["state", "--config", "", "--r", "0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read config file '': ")


@pytest.mark.parametrize("argv", [
    ["sweep", "--channel", "phase-flip", "--coupling", "ml", "--axis", "p", "--out"],
    ["verify", "--channel", "phase-flip", "--coupling", "ml", "--grid", "3", "--csv"],
], ids=["sweep", "verify"])
@pytest.mark.parametrize("where, reason", [
    ("missing/x.csv", "No such file or directory"), ("file/x.csv", "Not a directory"),
    ("dir", "Is a directory"),
], ids=["missing-dir", "file-as-dir", "dir-as-file"])
def test_an_unwritable_destination_fails_before_any_work(tmp_path, monkeypatch, capsys,
                                                         argv, where, reason):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    monkeypatch.setattr(channels, "evolve", lambda *a, **k: pytest.fail("evolved"))
    dest = str(tmp_path / where)
    assert main(argv + [dest]) == EXIT_IO
    # the destination the user gave, not a temp file, and the OS reason alone
    assert capsys.readouterr() == ("", f"i/o failure: cannot write {dest!r}: {reason}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.mark.parametrize("argv, taken", [
    (["repro", "--figure", "1a"], "fig1a.csv"),
    (["repro", "--figure", "1a"], "fig1a.dat"),
    (["repro", "--figure", "all"], "fig3.dat"),
    (["verify"], "verify_dephasing_global_correlated.txt"),
], ids=["repro-csv", "repro-dat", "repro-all", "verify"])
def test_an_out_dir_file_that_is_a_directory_fails_before_any_work(
        tmp_path, monkeypatch, capsys, argv, taken):
    (tmp_path / taken).mkdir()
    monkeypatch.setattr(channels, "evolve", lambda *a, **k: pytest.fail("evolved"))
    assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_IO
    dest = str(tmp_path / taken)
    assert capsys.readouterr() == ("", f"i/o failure: cannot write {dest!r}: "
                                       "Is a directory\n")
    assert [p.name for p in tmp_path.iterdir()] == [taken]


@pytest.mark.parametrize("figure", ["1a", "2c", "3"])
def test_repro_writes_the_bytes_of_the_two_writers(tmp_path, capsys, figure):
    # repro formats each value once for both files; the writers, called
    # one at a time, give the same bytes (test_acceptance pins the figures').
    assert main(["repro", "--figure", figure, "--out-dir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    results = [sweep.run_sweep(s) for s in sweep.figure_sweeps(figure)]
    assert sweep.write_csv(results, str(tmp_path / "alone.csv")) == 4 * 101 ** (
        2 if figure == "3" else 1)
    assert sweep.write_plot_data(results, str(tmp_path / "alone.dat")) == 4
    for ext in ("csv", "dat"):
        assert (tmp_path / f"fig{figure}.{ext}").read_bytes() == (
            tmp_path / f"alone.{ext}").read_bytes()


@pytest.mark.parametrize("config, err", [
    ("csv = a\0b.csv", "i/o failure: cannot write 'a\\x00b.csv': embedded null byte\n"),
    ("out_dir = a\0b", "i/o failure: cannot create 'a\\x00b': embedded null byte\n"),
], ids=["csv", "out-dir"])
def test_a_nul_in_a_configured_path_is_an_io_failure(tmp_path, monkeypatch, capsys,
                                                     config, err):
    monkeypatch.chdir(tmp_path)
    argv = ["verify"] + (["--channel", "phase-flip", "--coupling", "ml", "--grid", "3"]
                         if config.startswith("csv") else [])
    assert _run(capsys, argv, config) == (EXIT_IO, "", err, None)
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--channel", "phase-flip", "--coupling", "ml", "--axis", "p",
     "--out", "s.out", "--steps"],
    ["verify", "--channel", "dephasing", "--coupling", "ml", "--grid"],
    ["check-channels", "--p"],
], ids=["sweep-steps", "verify-grid", "check-channels-p"])
@pytest.mark.parametrize("count", [2**63 - 1, 2**63], ids=["2**63-1", "2**63"])
def test_counts_numpy_cannot_index_exit_one(tmp_path, monkeypatch, capsys, argv, count):
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, argv + [str(count)]) == (
        EXIT_USAGE, "", f"error: a grid of {count} points is too large\n", None)


@pytest.mark.parametrize("argv, err", [
    (["check-channels", "--p", "abc"], "error: cannot parse p grid 'abc'\n"),
    (["check-channels", "--p", "1"], "error: p grid needs at least 2 points\n"),
    (["verify", "--channel", "phase-flip", "--coupling", "ml", "--grid", "1"],
     "error: grid_points must be at least 2\n"),
], ids=["check-channels-p-text", "check-channels-p-one", "verify-grid-one"])
def test_unreadable_or_one_point_grids_exit_one(tmp_path, monkeypatch, capsys, argv, err):
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, argv) == (EXIT_USAGE, "", err, None)


# --- the exit-code contract, drawn from the documented grammar -----------------

_ANGLES = ["0", "0.3", "pi/6", "pi/4", "3*pi/10"]
_PS = ["0", "0.25", "0.5", "1"]
# Output paths, hostile ones included, all inside the working directory, where
# "file" is a regular file and "sub" a directory: no call writes outside it.
_PATHS = ["s.out", "missing/s.out", "file/s.out", "sub", ".", "", "\udcff.out",
          "a\0b"]
_CHANNEL_GRAMMAR = {"channel": _KINDS, "coupling": _COUPLINGS, "global-mode": _MODES}
# Flag values by subcommand, None for a switch.  Counts stay small; repro
# leaves out figures 3 and all, and verify leaves out --out-dir.
_GRAMMAR = {
    "state": {"r": _ANGLES},
    "check-channels": {"variant": _VARIANTS, "p": ["2", "3", "0,0.5,1", "0.25"]},
    "negativity": {**_CHANNEL_GRAMMAR, "variant": _VARIANTS, "p": _PS, "p1": _PS,
                   "p2": _PS, "r": _ANGLES},
    "sweep": {**_CHANNEL_GRAMMAR, "variant": _VARIANTS, "axis": ["p", "r", "grid"],
              "r": _ANGLES, "p": _PS, "steps": ["1", "2", "5"], "out": _PATHS,
              "plot-data": None},
    "esd": {**_CHANNEL_GRAMMAR, "r": _ANGLES, "tol": ["1e-6", "1e-3"]},
    "verify": {"channel": ["phase-flip", "dephasing"], "coupling": _COUPLINGS,
               "global-mode": _MODES, "grid": ["2", "3"], "csv": _PATHS},
    "repro": {"figure": ["1a", "1c", "2b", "2d"], "out-dir": _PATHS},
}
# Counts and values no grammar allows, drawn for every flag but the output
# paths; "\udcff" is the byte 0xff, not UTF-8, as Python decodes it from argv
# (and writes it back into a config file).
_HOSTILE = ["nan", "inf", "-inf", "", "/", "-0.1", "1e400", "\udcff", "a\0b",
            str(10**20), str(2**63), "-1", "0"]


@st.composite
def _invocations(draw):
    """argv and the bytes of ``run.cfg`` (or None) of one call."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    grammar = _GRAMMAR[command]
    # verify needs --channel and --coupling when --out-dir is not given.
    required = {dest.replace("_", "-") for dest, (_, _, _, needed)
                in _FLAGS[command].items() if needed} | {"channel", "coupling"}

    def one_in(n):
        return draw(st.integers(1, n)) == 1

    def value(flag):
        hostile = grammar[flag] is not _PATHS and one_in(8)
        return draw(st.sampled_from(_HOSTILE if hostile else grammar[flag]))

    argv = [command]
    for flag in draw(st.permutations(sorted(grammar))):
        if not one_in(10) if flag in required else one_in(3):
            argv += [f"--{flag}"] if grammar[flag] is None else [f"--{flag}", value(flag)]
    lines = []
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        key = draw(st.sampled_from(sorted(grammar)))
        text = "on" if grammar[key] is None else value(key)
        line = f"{key} = {text}"
        if one_in(8):  # a key no subcommand has, or no '='
            line = draw(st.sampled_from([f"banana = {text}", f"config = {text}",
                                         f"{key} {text}"]))
        lines.append(line)
    config = None
    if lines:
        config = "\n".join(lines).encode("utf-8", "surrogateescape")
        argv += ["--config", "run.cfg"]
    elif draw(st.integers(0, 9)) == 0:
        argv += ["--config", draw(st.sampled_from(["", "/", "sub", "missing.cfg"]))]
    return argv, config


@settings(max_examples=150, deadline=None)
@given(call=_invocations())
def test_every_call_keeps_the_exit_code_contract(tmp_path_factory, call):
    argv, config = call
    workdir = tmp_path_factory.mktemp("cli")
    (workdir / "file").write_text("")
    (workdir / "sub").mkdir()
    if config is not None:
        (workdir / "run.cfg").write_bytes(config)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT, EXIT_IO)
    assert "Traceback" not in err.getvalue()
    if code != EXIT_OK:
        assert out.getvalue() == ""
    assert list(workdir.rglob("*.tmp")) == []
