"""Command-line interface: outputs, determinism, exit codes."""

import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meqlab
from meqlab import cli
from meqlab.cli import _fmt_row, main
from meqlab.generators import lme_drift


SMALL_SCAN = [
    "--set", "scan.resolution=[6,8]",
    "--set", "scan.k=[0.0, 8e-5]",
]


def run(args):
    return main(args)


def test_scan_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["scan-ep", *SMALL_SCAN, "--out", str(out1), "--threads", "2"]) == 0
    assert run(["scan-ep", *SMALL_SCAN, "--out", str(out2), "--threads", "1"]) == 0
    for name in ("scan_LME.csv", "scan_GME.csv", "scan_Redfield.csv"):
        first = (out1 / name).read_bytes()
        second = (out2 / name).read_bytes()
        assert first == second  # byte-identical across runs and thread counts
        header = first.decode().splitlines()[0]
        assert header == "omega,k,kappa,block"
    meta = json.loads((out1 / "scan.meta.json").read_text())
    assert meta["command"] == "scan-ep"
    assert "config" in meta and "version" in meta


def test_fmt_row_spells_special_values():
    values = [float("nan"), -float("nan"), float("inf"), -float("inf"), 0.1, -0.0, 3]
    assert _fmt_row(values) == ["nan", "nan", "inf", "-inf", "0.10000000000000001", "-0", "3"]
    assert _fmt_row(np.array(values).tolist())[:4] == ["nan", "nan", "inf", "-inf"]


def test_fmt_row_spells_floats_as_format():
    # '%.17g' % (the tables' template) and '{:.17g}'.format spell every
    # float alike, numpy's included
    values = [float("nan"), -float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
              5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 0.1, 3.0]
    expected = ["{:.17g}".format(v) for v in values]
    assert _fmt_row(values) == expected
    assert _fmt_row(np.array(values)) == expected


def test_scan_single_point(tmp_path):
    assert run([
        "scan-ep", "--out", str(tmp_path),
        "--set", "scan.resolution=[1,1]",
        "--set", "scan.omega=[1.0,1.0]",
        "--set", "scan.k=[2e-5,2e-5]",
        "--set", 'generators=["LME"]',
    ]) == 0
    lines = (tmp_path / "scan_LME.csv").read_text().splitlines()
    assert len(lines) == 2  # header + single row


def test_scan_rejects_negative_resolution(tmp_path):
    code = run(["scan-ep", "--out", str(tmp_path),
                "--set", "scan.resolution=[-3,10]"])
    assert code == 2


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"systm": {"k": 1e-5}}')
    assert run(["ep-line", "--config", str(config)]) == 2


def test_malformed_json_reports_line(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"system": {"k": 1e-5,}}')
    assert run(["ep-line", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_epline_prints_both_modes(capsys):
    assert run(["ep-line"]) == 0
    out = capsys.readouterr().out
    # the correctly rounded 0.5 (1e-4 - 1e-8) 1e6 / (1e6 + 1), whose repr is
    # the default system.k
    assert "k_exceptional_exact = 4.9994950005049998e-05" in out
    assert "k_exceptional_large_cutoff = 4.9995000000000005e-05" in out


def test_epline_rejects_detuning(capsys):
    # the exceptional line is resonant at omega_h; a detuned config is
    # refused, not answered with the resonant coupling
    assert run(["ep-line", "--set", "system.omega_c=1.05"]) == 2
    captured = capsys.readouterr()
    assert "system.omega_c" in captured.err
    assert "k_exceptional" not in captured.out


def test_hot_bath_keeps_both_routes_together(tmp_path):
    # at T/omega = 1e8 a drift written as a difference of two decay rates
    # is off by about 2e-8 of itself, and build() and the heat-current
    # check would refuse their closed forms
    for command in ("matrices", "steady"):
        assert run([command, "--out", str(tmp_path),
                    "--set", "baths.cold.temperature=1e8"]) == 0


def test_transient_columns_and_metadata(tmp_path):
    assert run(["transient", "--out", str(tmp_path),
                "--set", "transient.points=5",
                "--set", "transient.t_max_factor=0.5"]) == 0
    lines = (tmp_path / "transient.csv").read_text().splitlines()
    assert lines[0] == "t,Q_hot_L,Q_hot_G,Q_hot_R,Q_cold_L,Q_cold_G,Q_cold_R"
    assert len(lines) == 6
    meta = json.loads((tmp_path / "transient.meta.json").read_text())
    assert "steady_currents" in meta["extras"]
    assert "time_unit" in meta["extras"]


def test_transient_single_point(tmp_path):
    assert run(["transient", "--out", str(tmp_path),
                "--set", "transient.points=1"]) == 0
    lines = (tmp_path / "transient.csv").read_text().splitlines()
    assert len(lines) == 2


def test_unstable_coupling_exits_3(tmp_path):
    assert run(["transient", "--out", str(tmp_path),
                "--set", "system.k=2.0"]) == 3


def test_steady_sweep(tmp_path):
    assert run(["steady", "--out", str(tmp_path),
                "--set", "steady.points=4",
                "--set", "steady.k_min=1e-6",
                "--set", "steady.k_max=5e-5"]) == 0
    lines = (tmp_path / "steady.csv").read_text().splitlines()
    assert lines[0] == "k,Qh_L,Qc_L,Qh_G,Qc_G,Qh_R,Qc_R"
    assert len(lines) == 5
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")]
        assert abs(values[1] + values[2]) < 1e-10 * max(1e-30, abs(values[1]))
        assert abs(values[5] + values[6]) < 1e-10 * max(1e-30, abs(values[5]))


def test_steady_k_zero_lme_currents_vanish(tmp_path):
    assert run(["steady", "--out", str(tmp_path),
                "--set", "steady.points=1",
                "--set", "steady.k_min=0.0",
                "--set", "steady.k_max=0.0",
                "--set", 'steady.spacing="linear"']) == 0
    line = (tmp_path / "steady.csv").read_text().splitlines()[1]
    values = [float(v) for v in line.split(",")]
    assert abs(values[1]) < 1e-20 and abs(values[2]) < 1e-20


def test_rigidity_output(tmp_path):
    assert run(["rigidity", "--out", str(tmp_path),
                "--set", "rigidity.points=21",
                "--set", 'generators=["LME","GME"]',
                "--set", "rigidity.k_min=2e-5",
                "--set", "rigidity.k_max=8e-5"]) == 0
    lines = (tmp_path / "rigidity.csv").read_text().splitlines()
    assert lines[0] == "k,phi_LME_1,phi_LME_2,phi_LME_3,phi_LME_4," \
                       "phi_GME_1,phi_GME_2,phi_GME_3,phi_GME_4"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # minimum LME rigidity dips near the exceptional coupling
    k_at_min = data[np.argmin(data[:, 1:5].min(axis=1)), 0]
    assert abs(k_at_min - 4.9994950005e-05) < (data[1, 0] - data[0, 0])
    assert np.abs(1.0 - data[:, 5:]).max() < 1e-4


def test_rigidity_rejects_detuning(tmp_path, capsys):
    # the sweep is resonant at omega_h; a detuned config is refused, not
    # silently run at resonance
    assert run(["rigidity", "--out", str(tmp_path), "--set", "system.omega_c=1.05"]) == 2
    assert "system.omega_c" in capsys.readouterr().err
    assert not (tmp_path / "rigidity.csv").exists()


def test_matrices_dump_matches_fixture(tmp_path):
    assert run(["matrices", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "matrices_LME.json").read_text())
    block1 = np.array([[float(v) for v in row] for row in payload["block1"]])
    delta_h = -1e-8 * (1e6 / (1.0 + 1e6))
    delta_c = -1e-4 * (1e6 / (1.0 + 1e6))
    expected = lme_drift(1.0, 1.0, 4.999495000505e-05, delta_h, delta_c)
    assert np.abs(block1 - expected).max() < 1e-12
    assert payload["frame"] == "local-quadratures"


def test_json_format(tmp_path):
    assert run(["steady", "--out", str(tmp_path), "--format", "json",
                "--set", "steady.points=2"]) == 0
    payload = json.loads((tmp_path / "steady.json").read_text())
    assert payload["header"][0] == "k"
    assert len(payload["rows"]) == 2


def test_json_rows_are_the_csv_cells(tmp_path):
    # one row template spells both formats: each JSON row is its CSV line
    # split at the commas
    for command, settings in (
        ("scan-ep", [*SMALL_SCAN, "--set", 'scan.blocks=["first","second"]']),
        ("transient", ["--set", "transient.points=7"]),
        ("steady", ["--set", "steady.points=3"]),
        ("rigidity", ["--set", "rigidity.points=5"]),
    ):
        tables = {}
        for fmt in ("csv", "json"):
            assert run([command, "--out", str(tmp_path / fmt), "--format", fmt, *settings]) == 0
            tables[fmt] = sorted(path for path in (tmp_path / fmt).glob(f"*.{fmt}")
                                 if not path.name.endswith(".meta.json"))
        assert tables["csv"] and [t.stem for t in tables["csv"]] == [t.stem for t in tables["json"]]
        for csv_path, json_path in zip(tables["csv"], tables["json"]):
            lines = csv_path.read_text().splitlines()
            payload = json.loads(json_path.read_text())
            assert payload["header"] == lines[0].split(",")
            assert payload["rows"] == [line.split(",") for line in lines[1:]]
            assert len(payload["rows"]) > 1


def test_commands_take_only_the_flags_they_read(tmp_path, capsys):
    for args in (["steady", "--threads", "2"], ["ep-line", "--out", str(tmp_path)],
                 ["matrices", "--format", "csv"]):
        with pytest.raises(SystemExit) as exit_info:
            run([*args, "--set", "steady.points=1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert run(["scan-ep", *SMALL_SCAN, "--out", str(tmp_path), "--threads", "1"]) == 0


def test_set_override_roundtrip(tmp_path):
    assert run(["ep-line", "--set", "system.omega_h=2.0",
                "--set", "system.omega_c=2.0"]) == 0


def test_bad_set_path_rejected(tmp_path):
    # --set merges by the --config rules; bad values exit with a code,
    # never a traceback
    assert run(["ep-line", "--set", "nope.nope=1"]) == 2
    assert run(["ep-line", "--set", "system=5"]) == 2
    assert run(["ep-line", "--set", "baths.hot={}"]) == 0  # merges to a no-op
    assert run(["steady", "--out", str(tmp_path), "--set", 'steady={"k_min":1}']) == 3
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for bad_dir in ("5", "null", str(a_file)):
        assert run(["matrices", "--set", f"output.dir={bad_dir}"]) == 2
    for bad_frame in ('"bogus"', "[1]"):
        assert run(["matrices", "--out", str(tmp_path),
                    "--set", f"matrices.frame={bad_frame}"]) == 2
    # a frequency or cutoff whose square overflows is refused by its spec
    for huge in ("cutoff=1e300", "system.omega_h=1e200", "system.omega_c=1e200"):
        assert run(["matrices", "--out", str(tmp_path), "--set", huge]) == 2


COMMANDS = ("scan-ep", "transient", "steady", "rigidity", "ep-line", "matrices")


@pytest.mark.parametrize("setting", [
    "transient.points=0", 'scan.blocks=["bogus"]', 'steady.spacing="cubic"',
    'output.format="xml"', 'generators=["LME","LME"]', "generators=[]",
    'scan.blocks=["first","first"]', "scan.blocks=[]", "rigidity.points=1",
    'matrices.frame="bogus"', 'matrices.label="bogus"', "output.dir=5",
    pytest.param("steady.k_min=1" + "0" * 400, id="int-beyond-float"),
])
def test_every_command_checks_the_whole_config(tmp_path, capsys, setting):
    # a config is valid or not whatever command reads it; lists are
    # non-empty and distinct
    for command in COMMANDS:
        capsys.readouterr()
        argv = [command, "--set", setting] + (["--out", str(tmp_path)] if command != "ep-line" else [])
        assert run(argv) == 2, command
        assert setting.split("=")[0] in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_every_setting_has_one_rule():
    def leaves(node, prefix=""):
        for key, value in node.items():
            path = prefix + key
            yield from leaves(value, path + ".") if isinstance(value, dict) else [path]
    assert sorted(cli._RULES) == sorted(leaves(cli.DEFAULT_CONFIG))


def test_parse_physics_reads_ints_as_floats():
    as_ints = ["system.omega_h=2", "system.omega_c=3", "system.k=1", "cutoff=1000",
               "baths.hot.lambda_sq=1", "baths.hot.temperature=10",
               "baths.cold.lambda_sq=2", "baths.cold.temperature=5"]
    as_floats = [setting + ".0" for setting in as_ints]
    ints = cli.parse_physics(cli.load_config(None, as_ints))
    floats = cli.parse_physics(cli.load_config(None, as_floats))
    assert ints == floats
    assert all(type(getattr(spec, name)) is float for spec in ints
               for name in spec.__dataclass_fields__)


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| command | flags |\n| --- | --- |\n")[1].split("\n\n")[0]
    documented = {}
    for line in table.splitlines():
        commands, flags = line.strip("|").split("|")
        for command in re.findall(r"`([a-z-]+)`", commands):
            documented[command] = sorted(re.findall(r"`(--[a-z-]+)", flags))
    subparsers = next(action for action in cli.make_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    actual = {
        name: sorted(option for action in parser._actions for option in action.option_strings
                     if option not in ("-h", "--help", "--config", "--set"))
        for name, parser in subparsers.choices.items()
    }
    assert documented == actual


def test_numerical_failure_exit_code(monkeypatch):
    from meqlab.errors import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("synthetic kernel failure")

    monkeypatch.setattr(cli, "scan", boom)
    assert run(["scan-ep", *SMALL_SCAN]) == 4


def test_malformed_ranges_rejected(tmp_path, capsys):
    # a range is two finite numbers: anything else is a validation error,
    # never a traceback or a silently coerced value
    for override in ("scan.omega=5", 'scan.omega=["a","b"]', "scan.k=[1]",
                     "scan.omega=[true, 2]"):
        assert run(["scan-ep", *SMALL_SCAN, "--out", str(tmp_path),
                    "--set", override]) == 2
    # and the rigidity sweep stays inside |k| < omega^2, like the scan
    assert run(["rigidity", "--out", str(tmp_path), "--set", "rigidity.k_max=2"]) == 2
    # log spacing needs both ends of the steady sweep positive
    for k_max in ("0", "-1e-5"):
        capsys.readouterr()
        assert run(["steady", "--out", str(tmp_path),
                    "--set", f"steady.k_max={k_max}"]) == 2
        assert "steady.k_max" in capsys.readouterr().err
    # each integer setting names itself in one fixed message
    for command, path, message, values in (
        ("scan-ep", "scan.resolution", "two integers >= 1",
         ("5", "[6]", "[6, 8, 2]", "[0, 8]", "[6, 2.5]", "[true, 8]", '"6,8"')),
        ("transient", "transient.points", "an integer >= 1", ("0", "2.5", "true", "[5]")),
        ("steady", "steady.points", "an integer >= 1", ("0", "-3", "4.0", "false")),
        ("rigidity", "rigidity.points", "an integer >= 2", ("1", "21.5", "true", "null")),
    ):
        for value in values:
            capsys.readouterr()
            assert run([command, "--out", str(tmp_path), "--set", f"{path}={value}"]) == 2
            assert capsys.readouterr().err == f"error: {path} must be {message}\n"


def test_hot_bath_at_high_temperature(tmp_path):
    # the Redfield cold current cancels from terms ~1e5 times larger; the
    # cross-check's tolerance follows those terms, so the sweep completes
    assert run(["steady", "--out", str(tmp_path),
                "--set", "baths.hot.temperature=1e5"]) == 0


def test_cli_import_leaves_scipy_linalg_out(tmp_path):
    # meqlab needs no scipy: neither importing the cli nor refine_ep nor a
    # rigidity, transient or steady run pulls in any part of it
    code = (
        "import sys, meqlab.cli\n"
        "from meqlab.bath import BathSpec\n"
        "from meqlab.epscan import exceptional_line, refine_ep\n"
        "seen = ['scipy' in sys.modules]\n"
        "hot, cold = BathSpec(1e-8, 10.0, 1e3), BathSpec(1e-4, 5.0, 1e3)\n"
        "k = exceptional_line(1.0, hot, cold)\n"
        "refine_ep('LME', 'first', 1.0, (0.5 * k, 1.5 * k), hot, cold)\n"
        "seen.append('scipy' in sys.modules)\n"
        "codes = []\n"
        "for command, setting in (('rigidity', 'rigidity.points=2'),\n"
        "                         ('transient', 'transient.points=5'),\n"
        "                         ('steady', 'steady.points=2')):\n"
        "    codes.append(meqlab.cli.main([command, '--out', sys.argv[1],\n"
        "                                  '--set', setting]))\n"
        "    seen.append('scipy' in sys.modules)\n"
        "print(*codes, *seen)\n"
    )
    src = str(Path(meqlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 0 0 False False False False False"
    for table in ("rigidity.csv", "transient.csv", "steady.csv"):
        assert (tmp_path / table).is_file()


def test_no_module_imports_scipy():
    # the import guard above sees only the paths it runs; the source sees all
    for path in sorted(Path(meqlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name


@pytest.mark.parametrize("module", sorted(
    "meqlab" if path.stem == "__init__" else f"meqlab.{path.stem}"
    for path in Path(meqlab.__file__).parent.glob("*.py")
))
def test_module_exports_resolve(module):
    # a name left in __all__ after its definition is deleted breaks `import *`
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, missing
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(exported) <= namespace.keys()
