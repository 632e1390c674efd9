"""Command-line harness: exit codes, CSV schemas, determinism, overwrite
protection, and the stdout-only cost printouts.

All invocations go through ``cli.main(argv)`` in-process so exit codes and
output are observable without spawning subprocesses.
"""

from __future__ import annotations

import configparser
import csv
import io
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from revfuse import cli
from revfuse.coupling import RevBlockSpec, SiloSpec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TOY_MODEL = """
    [model]
    channels = 16, 16, 16, 16
    extra_depth = 1
    resolution = 32
    num_classes = 3
    in_channels = 1
    init_seed = 0
"""

VERIFY_INI = dedent("""
    [verify-inverse]
    seed = 3
    trials = 2
    init = random
    precisions = double, single
    components = revblock, silo
    tolerance_double = 1e-11
    tolerance_single = 1e-5

    [silo]
    levels = 3
    channels = 8, 16, 24
    depth = 2
    spatial = 8
    batch = 1

    [revblock]
    channels_a = 8
    channels_b = 8
    kernel = 3
    expansion = 2
    depth = 2
    spatial = 8
    batch = 1
""")

MEM_INI = dedent("""
    [mem-sweep]
    seed = 2
    axis = depth
    values = 1, 2
    modes = stored, recompute
    batch = 1
    precision = single
""") + dedent(TOY_MODEL)

TRAIN_INI = dedent("""
    [train-toy]
    seed = 4
    mode = both
    steps = 3
    lr = 0.05
    batch_size = 4
    precision = double

    [dataset]
    classes = 3
    samples = 12
    noise = 0.25
""") + dedent(TOY_MODEL)

COST_INI = dedent("""
    [cost]
    seed = 0
""") + dedent(TOY_MODEL)

GRAD_INI = dedent("""
    [grad-check]
    seed = 6
    precision = double
    batch = 1
    fd_step = 2.5e-5
    fd_probes_per_param = 1
    tolerance_fd = 1e-4
    tolerance_modes = 1e-10
    fd_floor = 1e-5
    modes_floor = 1e-3
""") + dedent(TOY_MODEL).replace("extra_depth = 1", "extra_depth = 0")


def _write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _run_twice(tmp_path, argv_base):
    """Run a command into two output files; return (codes, bytes_a, bytes_b)."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli.main(argv_base + ["--out", str(a)])
    code_b = cli.main(argv_base + ["--out", str(b)])
    return (code_a, code_b), a.read_bytes(), b.read_bytes()


# ---------------------------------------------------------------------------
# verify-inverse
# ---------------------------------------------------------------------------

def test_verify_inverse_passes_and_is_deterministic(tmp_path):
    cfgp = _write(tmp_path, "v.ini", VERIFY_INI)
    codes, raw_a, raw_b = _run_twice(tmp_path, ["verify-inverse", "--config", cfgp])
    assert codes == (0, 0)
    assert raw_a == raw_b
    rows = _rows(tmp_path / "a.csv")
    assert set(rows[0]) == {"component", "precision", "depth",
                            "max_rel_reconstruction_err"}
    assert {(r["component"], r["precision"]) for r in rows} == \
        {("revblock", "double"), ("revblock", "single"),
         ("silo", "double"), ("silo", "single")}
    for r in rows:
        limit = 1e-11 if r["precision"] == "double" else 1e-5
        assert float(r["max_rel_reconstruction_err"]) < limit


def test_verify_inverse_strict_tolerance_exits_one(tmp_path, capsys):
    strict = VERIFY_INI.replace("tolerance_double = 1e-11",
                                "tolerance_double = 1e-30")
    cfgp = _write(tmp_path, "strict.ini", strict)
    code = cli.main(["verify-inverse", "--config", cfgp,
                     "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "TOLERANCE BREACH" in capsys.readouterr().err
    assert (tmp_path / "s.csv").exists()      # rows still written on breach


def test_verify_inverse_unknown_component_is_usage_error(tmp_path):
    bad = VERIFY_INI.replace("components = revblock, silo",
                             "components = warpdrive")
    cfgp = _write(tmp_path, "bad.ini", bad)
    assert cli.main(["verify-inverse", "--config", cfgp,
                     "--out", str(tmp_path / "x.csv")]) == 64


def test_verify_inverse_nan_reconstruction_exits_two(tmp_path, monkeypatch, capsys):
    invert_chain = cli.invert_chain

    def nan_copy(blocks, p_out):     # a reconstruction is a new array
        rec = invert_chain(blocks, p_out)
        for t in getattr(rec, "levels", [rec]):
            t.data[...] = np.nan
        return rec

    monkeypatch.setattr(cli, "invert_chain", nan_copy)
    cfgp = _write(tmp_path, "v.ini", VERIFY_INI)
    assert cli.main(["verify-inverse", "--config", cfgp,
                     "--out", str(tmp_path / "v.csv")]) == 2
    assert "numeric failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors shared by every command
# ---------------------------------------------------------------------------

def test_missing_config_exits_64(tmp_path):
    assert cli.main(["verify-inverse", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "x.csv")]) == 64


def test_missing_seed_exits_64(tmp_path, capsys):
    cfgp = _write(tmp_path, "noseed.ini",
                  VERIFY_INI.replace("seed = 3\n", ""))
    assert cli.main(["verify-inverse", "--config", cfgp,
                     "--out", str(tmp_path / "x.csv")]) == 64
    assert "seed" in capsys.readouterr().err


def test_existing_output_requires_force(tmp_path):
    cfgp = _write(tmp_path, "c.ini", COST_INI)
    out = tmp_path / "cost.csv"
    assert cli.main(["cost", "--config", cfgp, "--out", str(out)]) == 0
    assert cli.main(["cost", "--config", cfgp, "--out", str(out)]) == 64
    assert cli.main(["cost", "--config", cfgp, "--out", str(out),
                     "--force"]) == 0


def test_default_output_directory_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REVFUSE_OUT_DIR", str(tmp_path / "artifacts"))
    cfgp = _write(tmp_path, "c.ini", COST_INI)
    assert cli.main(["cost", "--config", cfgp]) == 0
    assert (tmp_path / "artifacts" / "cost.csv").exists()


def test_unknown_flag_exits_64(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cost", "--frobnicate"])
    assert exc.value.code == 64


def _set(text: str, section: str, key: str, value: str) -> str:
    """``text`` as an INI file with ``[section] key`` set to ``value``."""
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    cfg[section][key] = value
    out = io.StringIO()
    cfg.write(out)
    return out.getvalue()


# (command, config, section, key, value, the compute the command must not
# reach): a count below 1 would make the command check nothing and pass
@pytest.mark.parametrize("command,ini,section,key,value,compute", [
    ("verify-inverse", VERIFY_INI, "verify-inverse", "trials", "0", ["_roundtrip"]),
    ("verify-inverse", VERIFY_INI, "silo", "depth", "0", ["_roundtrip"]),
    ("verify-inverse", VERIFY_INI, "revblock", "depth", "0", ["_roundtrip"]),
    ("grad-check", GRAD_INI, "grad-check", "fd_probes_per_param", "0", ["build"]),
    ("grad-check", GRAD_INI, "grad-check", "fd_probes_per_param", "-1", ["build"]),
    ("train-toy", TRAIN_INI, "train-toy", "steps", "0",
     ["make_synthetic_dataset", "train_toy"]),
], ids=["trials", "silo-depth", "revblock-depth", "fd-probes-0", "fd-probes-neg",
        "steps"])
def test_a_count_below_one_exits_64_before_any_compute(
        tmp_path, monkeypatch, capsys, command, ini, section, key, value, compute):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{command} computed with {key} = {value}")

    for name in compute:
        monkeypatch.setattr(cli, name, unreachable)
    cfgp = _write(tmp_path, "z.ini", _set(ini, section, key, value))
    out = tmp_path / "z.csv"
    assert cli.main([command, "--config", cfgp, "--out", str(out)]) == 64
    assert key in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# mem-sweep
# ---------------------------------------------------------------------------

def test_mem_sweep_schema_and_recompute_flatness(tmp_path):
    cfgp = _write(tmp_path, "m.ini", MEM_INI)
    codes, raw_a, raw_b = _run_twice(
        tmp_path, ["mem-sweep", "--config", cfgp, "--values", "1,2,4"])
    assert codes == (0, 0)
    assert raw_a == raw_b
    rows = _rows(tmp_path / "a.csv")
    assert set(rows[0]) == {"axis_value", "mode", "peak_activation_bytes"}
    stored = {int(r["axis_value"]): int(r["peak_activation_bytes"])
              for r in rows if r["mode"] == "stored"}
    recomp = {int(r["axis_value"]): int(r["peak_activation_bytes"])
              for r in rows if r["mode"] == "recompute"}
    assert sorted(stored) == [1, 2, 4]
    assert stored[4] > stored[2] > stored[1]          # grows with depth
    assert len(set(recomp.values())) == 1             # flat


def test_mem_sweep_resolution_axis(tmp_path):
    cfgp = _write(tmp_path, "m.ini", MEM_INI)
    code = cli.main(["mem-sweep", "--config", cfgp, "--axis", "resolution",
                     "--values", "32,64", "--modes", "recompute",
                     "--out", str(tmp_path / "r.csv")])
    assert code == 0
    rows = _rows(tmp_path / "r.csv")
    peaks = {int(r["axis_value"]): int(r["peak_activation_bytes"]) for r in rows}
    ratio = peaks[64] / peaks[32]
    assert 3.4 < ratio < 4.6                          # ~4x per resolution double


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

def test_train_toy_both_modes_with_parity_column(tmp_path):
    cfgp = _write(tmp_path, "t.ini", TRAIN_INI)
    codes, raw_a, raw_b = _run_twice(tmp_path, ["train-toy", "--config", cfgp])
    assert codes == (0, 0)
    assert raw_a == raw_b
    rows = _rows(tmp_path / "a.csv")
    stored = [r for r in rows if r["mode"] == "stored"]
    recomp = [r for r in rows if r["mode"] == "recompute"]
    assert len(stored) == len(recomp) == 3
    assert all(r["loss_parity_rel"] == "" for r in stored)
    for r in recomp:
        assert float(r["loss_parity_rel"]) < 1e-9     # double-precision parity
    for r in rows:
        assert float(r["loss"]) > 0.0
        assert int(r["peak_bytes"]) > 0
    # recompute replays the forward during backward: twice the block evals
    assert int(recomp[0]["fwd_evals"]) == 2 * int(stored[0]["fwd_evals"])
    assert int(recomp[0]["fwd_evals"]) == int(recomp[-1]["fwd_evals"])


def test_train_toy_divergence_exits_two(tmp_path, capsys):
    # batch norm makes the network scale-invariant in its weights, so a
    # merely large step can stay finite; an overflowing one cannot
    diverge = TRAIN_INI.replace("lr = 0.05", "lr = 1e200") \
                       .replace("mode = both", "mode = stored") \
                       .replace("steps = 3", "steps = 12")
    cfgp = _write(tmp_path, "d.ini", diverge)
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["train-toy", "--config", cfgp,
                         "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def test_cost_ratio_stdout(tmp_path, capsys):
    assert cli.main(["cost", "--ratio", "S6", "S1"]) == 0
    out = capsys.readouterr().out
    assert "activation_ratio S6/S1 = 23.7039 (~23.7x)" in out


def test_cost_ratio_unknown_row_exits_64(tmp_path):
    assert cli.main(["cost", "--ratio", "S6", "S99"]) == 64


def test_cost_scale_table_stdout(capsys):
    assert cli.main(["cost", "--scale-table"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,m_w,d,resolution,channels"
    assert len(lines) == 8
    assert lines[1].startswith("S0,1.0,2,224,48/64/80/160")
    assert lines[2].startswith("S1,1.3,2,256,64/80/112/208")
    assert lines[7].startswith("S6,6.7,5,352,")


def test_cost_csv_components_sum_to_total(tmp_path):
    cfgp = _write(tmp_path, "c.ini", COST_INI)
    codes, raw_a, raw_b = _run_twice(tmp_path, ["cost", "--config", cfgp])
    assert codes == (0, 0)
    assert raw_a == raw_b
    rows = _rows(tmp_path / "a.csv")
    total = next(r for r in rows if r["component"] == "total")
    parts = [r for r in rows if r["component"] != "total"]
    assert int(total["macs"]) == sum(int(r["macs"]) for r in parts)
    assert int(total["params"]) == sum(int(r["params"]) for r in parts)


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------

def test_grad_check_small_model_passes(tmp_path):
    cfgp = _write(tmp_path, "g.ini", GRAD_INI)
    code = cli.main(["grad-check", "--config", cfgp,
                     "--out", str(tmp_path / "g.csv")])
    assert code == 0
    rows = _rows(tmp_path / "g.csv")
    assert set(rows[0]) == {"param", "rel_err_fd", "rel_err_modes"}
    assert len(rows) > 100                            # one row per tensor
    assert max(float(r["rel_err_fd"]) for r in rows) <= 1e-4
    assert max(float(r["rel_err_modes"]) for r in rows) <= 1e-10


def test_grad_check_nan_finite_difference_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_loss_only", lambda model, images, labels: float("nan"))
    cfgp = _write(tmp_path, "g.ini", GRAD_INI)
    assert cli.main(["grad-check", "--config", cfgp,
                     "--out", str(tmp_path / "g.csv")]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_grad_check_refuses_an_existing_output_before_any_compute(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("step_gradients ran before the output path was checked")

    monkeypatch.setattr(cli, "step_gradients", unreachable)
    out = tmp_path / "g.csv"
    out.write_text("kept\n")
    cfgp = _write(tmp_path, "g.ini", GRAD_INI)
    assert cli.main(["grad-check", "--config", cfgp, "--out", str(out)]) == 64
    assert out.read_text() == "kept\n"


# ---------------------------------------------------------------------------
# config sections and the shipped configs
# ---------------------------------------------------------------------------

def _section(text: str, name: str):
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    return cfg[name]


def test_silo_spec_ini_round_trip():
    spec = SiloSpec(levels=3, channels=(8, 16, 24), expansion=(1, 2, 3),
                    se_ratio=0.25, se_levels=(0, 1))
    sec = _section("[silo]\nlevels = 3\nchannels = 8, 16, 24\n"
                   "expansion = 1, 2, 3\nse_ratio = 0.25\nse_levels = 0, 1\n", "silo")
    assert cli._silo_spec(sec) == spec


def test_revblock_spec_ini_round_trip():
    spec = RevBlockSpec(channels_a=8, channels_b=16, kernel=5, expansion=3,
                        se_ratio=0.5)
    sec = _section("[revblock]\nchannels_a = 8\nchannels_b = 16\nkernel = 5\n"
                   "expansion = 3\nse_ratio = 0.5\n", "revblock")
    assert cli._revblock_spec(sec) == spec


# grad_check.ini is left out: its full finite-difference audit takes about
# 40 s, and test_grad_check_small_model_passes runs the same command
@pytest.mark.parametrize("name", ["cost", "mem_sweep", "train_toy", "verify_inverse"])
def test_shipped_config_runs(tmp_path, name):
    command = name.replace("_", "-")
    out = tmp_path / f"{name}.csv"
    assert cli.main([command, "--config", str(CONFIGS / f"{name}.ini"),
                     "--out", str(out)]) == 0
    assert out.exists()
