"""Command-line interface: outputs, determinism, exit codes."""

import argparse
import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import meqlab
from meqlab import cli
from meqlab.cli import _fmt_row, main
from meqlab.epscan import exceptional_line
from meqlab.errors import MeqlabError
from meqlab.generators import FRAME_NAMES, GENERATOR_LABELS, lme_drift
from test_caches import MEMOISED


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
    # the scan's whole metadata, its worker count included
    assert sorted(meta["extras"]) == ["ep_kappa_threshold", "nan_points", "norm", "threads"]
    assert meta["extras"]["threads"] == 2


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


def test_transient_decides_stationary_states_before_propagating(tmp_path, monkeypatch, capsys):
    # at omega_c = 1000 the LME drift misses the Hurwitz threshold: that
    # stationary state is refused before any trajectory is propagated
    def no_call(*args, **kwargs):
        raise AssertionError("transient propagated before deciding its stationary states")

    monkeypatch.setattr(cli, "transient_currents", no_call)
    assert run(["transient", "--out", str(tmp_path), "--set", "system.omega_c=1000"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "physics error: LME block1 is not Hurwitz (max Re eigenvalue -5e-09 is not below "
        "-1e-14 * ||block1||_F = -1e-08); no steady state"]


def test_near_edge_commands_exit_0(tmp_path):
    codes = [
        run(["steady", "--out", str(tmp_path), "--set", "steady.k_min=0.99",
             "--set", "steady.k_max=0.9999", "--set", "steady.points=2"]),
        run(["transient", "--out", str(tmp_path), "--set", "system.k=0.9999"]),
    ]
    assert codes == [0, 0]


def test_non_conserving_steady_exits_4(tmp_path, capsys):
    # closer to the edge the LME stationary currents break energy
    # conservation, and steady refuses them rather than print them
    assert run(["steady", "--out", str(tmp_path), "--set", "steady.spacing=linear",
                "--set", "steady.k_min=0.99999999", "--set", "steady.k_max=0.99999999",
                "--set", "steady.points=1"]) == 4
    assert "LME stationary heat currents do not conserve energy" in capsys.readouterr().err
    assert not (tmp_path / "steady.csv").exists()


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


def test_detuned_decoupled_steady_writes_no_nan(tmp_path):
    # the hot bath's noise coefficient overflows at omega_c, which only
    # modes of zero weight would rate at k = 0: every current is finite
    assert run(["steady", "--out", str(tmp_path),
                "--set", "system.omega_c=1e-6", "--set", "system.k=0",
                "--set", 'steady.spacing="linear"', "--set", "steady.k_min=0",
                "--set", "steady.k_max=0", "--set", "steady.points=1",
                "--set", "baths.hot.lambda_sq=100",
                "--set", "baths.hot.temperature=1e300"]) == 0
    line = (tmp_path / "steady.csv").read_text().splitlines()[1]
    assert np.isfinite([float(v) for v in line.split(",")]).all(), line


@pytest.mark.parametrize("label", ["GME", "Redfield"])
def test_overflowing_channel_table_is_a_numerical_error(tmp_path, capsys, label):
    # one ulp inside the edge at omega = 1e-150 the soft mode's frequency
    # is about 1e-158, and its jump-operator coefficients square past the
    # float range: one typed line, exit 4, no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["matrices", "--out", str(tmp_path),
                    "--set", "system.omega_h=1e-150", "--set", "system.omega_c=1e-150",
                    "--set", "system.k=9.999999999999999e-301",
                    "--set", f"matrices.label={label}"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.splitlines() == [f"numerical error: {label} hot bath's channel table "
                                f"overflows at mode frequency 1.2875594012283935e-158"]
    assert not any(tmp_path.iterdir())


def test_first_failing_channel_decides_the_error(tmp_path, capsys):
    # the hot bath's soft mode overflows its table before the cold bath,
    # whose noise coefficient is past the float range at T = 1e300, is
    # rated: the hot bath's numerical error, not the cold bath's refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["matrices", "--out", str(tmp_path),
                    "--set", "system.omega_h=1e-150", "--set", "system.omega_c=1e-150",
                    "--set", "system.k=9.999999999999999e-301",
                    "--set", "matrices.label=GME", "--set", "baths.cold.temperature=1e300"])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [
        "numerical error: GME hot bath's channel table overflows at mode frequency "
        "1.2875594012283935e-158"]


def test_underflowed_frequency_ratio_is_a_validation_error(tmp_path, capsys):
    # omega/T underflows to zero in the cold bath: its rates take their
    # limit and the noise coefficient they give overflows, a typed refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["matrices", "--out", str(tmp_path),
                    "--set", "system.omega_h=1e-30", "--set", "system.omega_c=1e-30",
                    "--set", "system.k=0", "--set", "baths.cold.temperature=1e300"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: noise coefficient of BathSpec(lambda_sq=0.0001, temperature=1e+300, "
        "cutoff=1000.0) at omega = 1e-30 is not finite"]
    assert not any(tmp_path.iterdir())


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


def test_sidecar_records_the_flags(tmp_path, monkeypatch):
    # a given --out and --format win over the config, and the sidecar's
    # config records them; --out 123 stays a string
    monkeypatch.chdir(tmp_path)
    assert run(["steady", "--set", "steady.points=2", "--set", 'output.format="csv"',
                "--out", "123", "--format", "json"]) == 0
    meta = json.loads((tmp_path / "123" / "steady.meta.json").read_text())
    assert meta["config"]["output"] == {"dir": "123", "format": "json"}
    assert meta["outputs"] == ["steady.json"]


def test_the_parser_is_built_once_and_keeps_no_settings(monkeypatch):
    # main parses with one cached parser; a --set list of one call does
    # not reach the next, which reads the default config
    assert cli.make_parser() is cli.make_parser()
    configs = []
    monkeypatch.setitem(cli.COMMANDS, "matrices", lambda cfg, args: configs.append(cfg) or 0)
    assert run(["matrices", "--set", "system.k=1e-5"]) == 0
    assert run(["matrices"]) == 0
    assert configs[0]["system"]["k"] == 1e-5
    assert configs[1] == cli.DEFAULT_CONFIG
    assert cli.make_parser().parse_args(["matrices"]).set == []


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
    # every leaf of DEFAULT_CONFIG comes from exactly one SETTINGS path and
    # equals its default, which obeys its own rule
    def leaves(node, prefix=""):
        for key, value in node.items():
            path = prefix + key
            yield from leaves(value, path + ".") if isinstance(value, dict) else [(path, value)]
    found = list(leaves(cli.DEFAULT_CONFIG))
    assert sorted(path for path, _ in found) == sorted(cli.SETTINGS)
    for path, value in found:
        default, rule = cli.SETTINGS[path]
        assert value == default and type(value) is type(default), path
        rule(default, path)


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


def test_readme_config_reference_is_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config reference\n")[1]
    block = section.split("```json\n")[1].split("```")[0]
    assert json.loads(block) == cli.DEFAULT_CONFIG


def test_readme_library_example_runs(capsys):
    # the example's code block runs against the current API, and its
    # currents are equal and opposite to 1e-10 of the natural current scale
    from meqlab.thermo import current_scale

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example\n")[1]
    code = section.split("```python\n")[1].split("```")[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    sample, scale = namespace["sample"], current_scale(
        namespace["system"], namespace["hot"], namespace["cold"])
    assert abs(sample.q_hot + sample.q_cold) <= 1e-10 * scale
    assert capsys.readouterr().out.strip() == f"{sample.q_hot} {sample.q_cold}"


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


#: a frequency whose libm square is an ulp below its product: omega**2 <
#: omega*omega
MISROUNDED = 0.8683284008647664


def _region_sites(omega, k, monkeypatch):
    """What the library's region checks say of the coupling k at resonant
    omega, as {site: None (accepted) or the refusal's type}: SystemSpec,
    normal_modes, every label's closed form in each frame it has, the scan
    grid and the refine_ep bracket reaching k. The scan and refine_ep stop
    at their first kernel call, which only an accepted range reaches."""
    import meqlab.epscan as emod
    from meqlab.bath import BathSpec
    from meqlab.generators import LME, LOCAL_FRAME, NORMAL_FORMS, NORMAL_FRAME, closed_form_drift
    from meqlab.model import SystemSpec, normal_modes

    hot, cold = BathSpec(1e-8, 10.0, 1e3), BathSpec(1e-4, 5.0, 1e3)

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    def answer(site):
        try:
            site()
        except Reached:
            pass
        except MeqlabError as exc:
            return type(exc).__name__
        return None

    answers = {"SystemSpec": answer(lambda: SystemSpec(omega, omega, k))}
    if answers["SystemSpec"] is None:
        answers["normal_modes"] = answer(lambda: normal_modes(SystemSpec(omega, omega, k)))
    for label in GENERATOR_LABELS:
        for frame in (LOCAL_FRAME, NORMAL_FRAME) if label in NORMAL_FORMS else (LOCAL_FRAME,):
            answers[f"{label}/{frame}"] = answer(
                lambda: closed_form_drift(label, omega, omega, k, hot, cold, frame))
    with monkeypatch.context() as patch:
        patch.setattr(emod, "grid_block_matrices", reached)
        answers["scan"] = answer(lambda: emod.scan(
            [LME], ["first"], (omega, omega), (0.5 * k, k), (1, 2), hot, cold, threads=1))
        answers["refine_ep"] = answer(
            lambda: emod.refine_ep(LME, "first", omega, (0.5 * k, k), hot, cold))
    return answers


def _assert_one_rule(omega, monkeypatch):
    """Every region check accepts the coupling one ulp inside omega*omega
    and refuses omega*omega itself, each with its own error type."""
    edge = omega * omega
    accepted = _region_sites(omega, float(np.nextafter(edge, 0.0)), monkeypatch)
    assert set(accepted.values()) == {None}, (omega, accepted)
    refused = _region_sites(omega, edge, monkeypatch)
    assert refused.pop("SystemSpec") == "StabilityError", omega
    assert refused.pop("scan") == refused.pop("refine_ep") == "ValidationError", omega
    assert set(refused.values()) == {"DomainError"}, (omega, refused)


def test_every_site_reads_one_stability_rule(tmp_path, monkeypatch):
    # at a frequency whose pow square is an ulp below its product, the
    # coupling one ulp inside |k| < omega*omega is accepted everywhere and
    # the edge itself refused everywhere: SystemSpec with StabilityError
    # (exit 3), the closed forms with DomainError, the scan and refine_ep
    # ranges with ValidationError, and rigidity's range exits 2
    from meqlab.bath import BathSpec
    from meqlab.generators import build
    from meqlab.model import SystemSpec

    omega = MISROUNDED
    edge = omega * omega
    inside = float(np.nextafter(edge, 0.0))
    assert omega**2 == inside  # pow misrounds here
    _assert_one_rule(omega, monkeypatch)

    hot, cold = BathSpec(1e-8, 10.0, 1e3), BathSpec(1e-4, 5.0, 1e3)
    for label in GENERATOR_LABELS:
        build(label, SystemSpec(omega, omega, inside), hot, cold)
    resonant = ["--set", f"system.omega_h={omega!r}", "--set", f"system.omega_c={omega!r}"]
    for k, matrices_code, rigidity_code in ((inside, 0, 0), (edge, 3, 2)):
        for label in GENERATOR_LABELS:
            assert run(["matrices", "--out", str(tmp_path), *resonant,
                        "--set", f"system.k={k!r}", "--set", f"matrices.label={label}"]
                       ) == matrices_code
        assert run(["rigidity", "--out", str(tmp_path), *resonant,
                    "--set", f"rigidity.k_max={k!r}", "--set", "rigidity.points=5"]
                   ) == rigidity_code


def test_misrounded_squares_keep_one_stability_rule(monkeypatch):
    # about 50 seeded frequencies across the float range whose pow square
    # differs from their product: the same agreement as at MISROUNDED
    rng = np.random.default_rng(32)
    omegas = []
    while len(omegas) < 50:
        omega = float(10.0 ** rng.uniform(-150.0, 150.0))
        if omega**2 != omega * omega:
            omegas.append(omega)
    for omega in omegas:
        _assert_one_rule(omega, monkeypatch)


def _tool(name: str):
    """The module tools/<name>.py, which pytest does not collect."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _battery_runs() -> list[tuple[str, ...]]:
    """The argument tuples of tools/cli_battery.py's runs."""
    return list(_tool("cli_battery")._runs().values())


def test_cli_battery_covers_every_command_label_and_frame():
    # the byte-identity battery runs every subcommand and dumps every
    # generator label in both frames, so a new one cannot miss it
    runs = _battery_runs()
    assert set(cli.COMMANDS) <= {args[0] for args in runs}
    dumped = set()
    for args in runs:
        settings = dict(value.split("=", 1) for flag, value in zip(args, args[1:])
                        if flag == "--set")
        if args[0] == "matrices" and {"matrices.label", "matrices.frame"} <= settings.keys():
            dumped.add((settings["matrices.label"], settings["matrices.frame"]))
    assert dumped == {(label, frame) for label in GENERATOR_LABELS for frame in FRAME_NAMES}


def test_cli_battery_pins_the_scan_workers():
    # scan.meta.json records the worker count, which must not be the host's
    scans = [args for args in _battery_runs() if args[0] == "scan-ep"]
    assert len(scans) == 8
    assert all(args[1:3] == ("--threads", "2") for args in scans)


def test_region_census_counts_every_draw():
    # a small seeded census: each region and label row counts its draws
    # once, over the five outcomes, and the same seed prints the same table
    census = _tool("region_census")
    tables = [census.table(census.census(12, 0)) for _ in range(2)]
    assert tables[0] == tables[1]
    rows = [line.strip("|").split(" | ") for line in tables[0].splitlines()[2:]]
    assert len(rows) == (len(census.REGIONS) + 1) * 3
    for region, label, draws, *outcomes in (map(str.strip, row) for row in rows):
        assert int(draws) == sum(map(int, outcomes)), (region, label)
        if region == "all":
            assert int(draws) == 12
    assert sum(int(row[2]) for row in rows[:-3]) == 3 * 12


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


def test_no_module_squares_with_pow():
    # ** calls libm pow on floats and numpy scalars, which may round a
    # square an ulp away from the correctly rounded product; every square
    # in the package is written as a product, so the stability rule and
    # the formulas read the same bits
    found = []
    for path in sorted(Path(meqlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and isinstance(node.right, ast.Constant) and node.right.value == 2):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_tables_are_spelled_by_one_module():
    # every float of a table goes through meqlab.spell, which alone may
    # hold '%.17g' or a '%' row template such as '%s,%s' in its code;
    # docstrings, which format nothing, may name them
    template = re.compile(r"%\.17g|%[^%,]*,%")
    found = []
    for path in sorted(Path(meqlab.__file__).parent.glob("*.py")):
        if path.stem == "spell":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {id(body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and (body := node.body) and isinstance(body[0], ast.Expr)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))
                    and id(node) not in docstrings and template.search(str(node.value))):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_argument_taking_caches_are_bounded():
    # a functools cache keeps an entry per distinct call, so over a sweep
    # or a scan an unbounded one grows without end: every cache of a
    # function that takes arguments has a finite maxsize, an int literal
    # or a module-level int constant. Argument-free ones hold one entry
    # (spell's constant tables, cli.make_parser) and are exempt
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(meqlab.__file__).parent.glob("*.py"))}
    constants = {target.id: node.value.value for tree in trees.values() for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 for target in node.targets if isinstance(target, ast.Name)}

    def cache_kind(node):
        """'cache' or 'lru_cache' for functools.cache, functools.lru_cache
        and calls of either, else None."""
        node = node.func if isinstance(node, ast.Call) else node
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools" and node.attr in ("cache", "lru_cache")):
            return node.attr
        return None

    def bounded(node):
        if cache_kind(node) == "cache":
            return False
        if not isinstance(node, ast.Call):
            return True  # a bare lru_cache keeps its default, 128
        sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
        if not sizes:
            return True
        size = sizes[0]
        value = size.value if isinstance(size, ast.Constant) else constants.get(
            getattr(size, "id", None))
        return type(value) is int and value > 0

    seen, unbounded = set(), []
    for stem, tree in trees.items():
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded.append(f"{stem}:{node.lineno} imports from functools by name")
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in filter(cache_kind, node.decorator_list):
                decorators.add(id(deco))
                a = node.args
                if a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg:
                    seen.add(f"{stem}.{node.name}")
                    if not bounded(deco):
                        unbounded.append(f"{stem}.{node.name}")
        for node in ast.walk(tree):
            # a cache made by a call, of a function it cannot see
            if isinstance(node, ast.Call) and cache_kind(node) and id(node) not in decorators:
                seen.add(f"{stem}:{node.lineno}")
                if not bounded(node):
                    unbounded.append(f"{stem}:{node.lineno}")
    assert not unbounded, unbounded
    # a new cache is added deliberately: tests/test_caches.py checks each
    # of these for bits, bound, threads and the sign of a zero coupling
    assert seen == MEMOISED, seen


def test_flow_overflow_in_build_is_one_typed_error(tmp_path, capsys):
    # the normal-frame block2 passes the float range: a validation error,
    # with no numpy warning before it (warnings are errors under pytest)
    code = run(["matrices", "--out", str(tmp_path),
                "--set", "system.omega_h=8.94427190999916e+153",
                "--set", "system.omega_c=8.94427190999916e+153",
                "--set", "system.k=7e307", "--set", "matrices.label=GME"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: block2 contains non-finite entries"]


def test_hurwitz_threshold_of_huge_drifts_warns_nothing(tmp_path, capsys):
    # the drift's norm, about 1e300, squares past the float range unless
    # scaled; the Hurwitz refusal itself is unchanged
    code = run(["steady", "--out", str(tmp_path), "--set", "system.omega_h=1e150",
                "--set", "system.omega_c=1e150", "--set", "steady.points=3"])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "physics error: LME block1 is not Hurwitz (max Re eigenvalue -0 is not below "
        "-1e-14 * ||block1||_F = -1.41421e+286); no steady state"]


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


def test_scan_defaults_k_to_the_exceptional_line(tmp_path):
    # with scan.k null, k runs from 0 to 1.5 k* at the top of the omega range
    assert run(["scan-ep", "--out", str(tmp_path), "--threads", "1",
                "--set", "scan.resolution=[2,3]", "--set", 'generators=["LME"]']) == 0
    _, hot, cold = cli.parse_physics(cli.load_config(None, []))
    k_hi = 1.5 * exceptional_line(1.5, hot, cold)
    rows = (tmp_path / "scan_LME.csv").read_text().splitlines()[1:]
    assert sorted({float(row.split(",")[1]) for row in rows}) == [0.0, 0.5 * k_hi, k_hi]
    meta = json.loads((tmp_path / "scan.meta.json").read_text())
    assert meta["config"]["scan"]["k"] is None


def test_config_refusals_name_their_cause(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for argv, message in (
        (["ep-line", "--set", "system.k"], "--set expects key=value, got 'system.k'"),
        (["ep-line", "--set", "system.omega_h=0"], "'system.omega_h' must be positive, got 0.0"),
        (["ep-line", "--set", "cutoff=-1"], "'cutoff' must be positive, got -1.0"),
        (["ep-line", "--config", str(tmp_path / "missing.json")], "cannot read config"),
        (["ep-line", "--config", str(listed)], "config root must be a JSON object"),
    ):
        capsys.readouterr()
        assert run(argv) == 2
        assert message in capsys.readouterr().err


def test_a_bare_package_error_exits_4(monkeypatch, capsys):
    # an error of the base class alone, which no narrower handler takes,
    # still exits with a code and its message, never a traceback
    def boom(cfg, args):
        raise MeqlabError("synthetic package error")

    monkeypatch.setitem(cli.COMMANDS, "ep-line", boom)
    assert run(["ep-line"]) == 4
    assert capsys.readouterr().err == "error: synthetic package error\n"


def test_line_coverage_lists_the_lines_a_run_missed():
    # one test file under the tracer: its module runs whole, a module it
    # never imports is listed, and the exit status says lines were missed
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "line_coverage.py"), "-q", "-p", "no:cacheprovider",
         str(root / "tests" / "test_bath.py")],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"\d+ line\(s\) of src/meqlab never ran", lines[-1])
    assert any(line.startswith("src/meqlab/cli.py: ") for line in lines)
    assert not any(line.startswith("src/meqlab/bath.py") for line in lines)
