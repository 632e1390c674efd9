"""Experiment command line.

Five subcommands drive the library end to end and write deterministic CSV
artifacts: ``verify-inverse`` (round-trip reconstruction error),
``grad-check`` (stored vs recompute vs finite differences), ``mem-sweep``
(peak live activation bytes over depth or resolution), ``train-toy``
(toy SGD runs, optionally both modes), and ``cost`` (analytic MAC/param
counts plus the scale-ladder printouts).

Configs are INI files (``key = value`` under sections); one canonical
example per command ships under ``configs/``.  Every command requires a seed
and refuses to overwrite an existing output file unless ``--force`` is
given.  Exit codes: 0 pass, 1 tolerance breach, 2 numeric failure, 64 bad
usage.  The default output directory is ``$REVFUSE_OUT_DIR`` (else
``./out``).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig, build, image_pyramid, step_gradients, train_toy
from .costmodel import (activation_ratio, mac_count, model_costs, param_count,
                        scale_row, scale_table)
from .coupling import (FeaturePyramid, RevBlock, RevBlockSpec, Silo, SiloSpec,
                       pyramid_max_rel_diff, randomize_parameters)
from .dataset import make_synthetic_dataset
from .engine import Tape, invert_chain
from .errors import AccountingError, ConfigurationError, DivergenceError
from .tensor import Tensor, assert_finite, precision_dtype

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64

OUT_DIR_ENV = "REVFUSE_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage with exit code 64."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _out_path(args, command: str) -> Path:
    if args.out:
        path = Path(args.out)
    else:
        base = Path(os.environ.get(OUT_DIR_ENV, "out"))
        path = base / f"{command.replace('-', '_')}.csv"
    if path.exists() and not args.force:
        raise UsageError(f"output file {path} exists; pass --force to overwrite")
    return path


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str | None) -> configparser.ConfigParser:
    if not path:
        raise UsageError("this command requires --config")
    if not Path(path).is_file():
        raise UsageError(f"config file not found: {path}")
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.read(path)
    return cfg


def _section(cfg: configparser.ConfigParser, name: str):
    if name not in cfg:
        raise UsageError(f"config is missing the [{name}] section")
    return cfg[name]


def _seed(section) -> int:
    if "seed" not in section:
        raise UsageError("seed is mandatory in the command section")
    return int(section["seed"])


def _count(section, key: str, default: int) -> int:
    """A count that must be at least 1: with none, a command would check
    nothing and pass."""
    value = int(section.get(key, str(default)))
    if value < 1:
        raise UsageError(f"{key} must be at least 1, got {value}")
    return value


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.replace(",", " ").split())


def _names(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _model_config(cfg: configparser.ConfigParser, precision: str,
                  section: str = "model") -> BackboneConfig:
    sec = _section(cfg, section)
    res = _ints(sec["resolution"])
    return BackboneConfig(
        channels=_ints(sec["channels"]),
        width_multiplier=float(sec.get("width_multiplier", "1.0")),
        extra_depth=int(sec.get("extra_depth", "2")),
        resolution=res[0] if len(res) == 1 else (res[0], res[1]),
        num_classes=int(sec.get("num_classes", "4")),
        in_channels=int(sec.get("in_channels", "3")),
        precision=precision,
        seed=int(sec.get("init_seed", "0")),
    )


def _silo_spec(sec) -> SiloSpec:
    """A ``[silo]`` section's spec; absent optional keys take ``SiloSpec``'s defaults."""
    optional = {key: _ints(sec[key]) for key in ("expansion", "se_levels") if key in sec}
    if "se_ratio" in sec:
        optional["se_ratio"] = float(sec["se_ratio"])
    return SiloSpec(levels=int(sec["levels"]), channels=_ints(sec["channels"]), **optional)


def _revblock_spec(sec) -> RevBlockSpec:
    se = sec.get("se_ratio", "")
    return RevBlockSpec(
        channels_a=int(sec["channels_a"]),
        channels_b=int(sec["channels_b"]),
        kernel=int(sec.get("kernel", "3")),
        expansion=int(sec.get("expansion", "1")),
        se_ratio=float(se) if se else None,
    )


# ---------------------------------------------------------------------------
# verify-inverse
# ---------------------------------------------------------------------------

COMPONENTS = ("revblock", "silo", "backbone")


def _roundtrip(cfg, component: str, seed_parts, precision: str,
               fresh: bool) -> tuple[int, float]:
    """Forward a randomized ``component`` chain and invert it; returns the
    chain's depth and the worst per-level reconstruction error relative to
    the input (a RevBlock chain's tensor is compared as a one-level
    pyramid).  A non-finite error raises ``FloatingPointError``."""
    rng = np.random.default_rng(seed_parts)
    dtype = precision_dtype(precision)
    if component == "backbone":
        mc = _model_config(cfg, precision)
        blocks = build(replace(mc, seed=int(rng.integers(2 ** 31)))).blocks
        shapes = [(2, mc.in_channels, *mc.resolution_hw)]
    else:
        sec = _section(cfg, component)
        depth, batch = _count(sec, "depth", 1), int(sec.get("batch", "2"))
        if component == "silo":
            spec, n = _silo_spec(sec), int(sec.get("spatial", "16"))
            blocks = [Silo.build(spec, name=f"silo{i}", rng=rng, dtype=dtype)
                      for i in range(depth)]
            shapes = [(batch, c, n >> k, n >> k) for k, c in enumerate(spec.channels)]
        else:
            spec, n = _revblock_spec(sec), int(sec.get("spatial", "8"))
            blocks = [RevBlock.build(spec, name=f"rb{i}", rng=rng, dtype=dtype)
                      for i in range(depth)]
            shapes = [(batch, spec.channels_a + spec.channels_b, n, n)]
    if not fresh:
        for b in blocks:
            randomize_parameters(b.parameters(), rng)
    p = FeaturePyramid([Tensor(rng.standard_normal(s).astype(dtype)) for s in shapes])
    cur = p.levels[0] if component == "revblock" else p
    for b in blocks:
        cur, _ = b.forward(cur)
    rec = invert_chain(blocks, cur)
    err = pyramid_max_rel_diff(FeaturePyramid([rec]) if component == "revblock" else rec, p)
    assert_finite(err, f"the {component} round trip ({precision})")
    return len(blocks), err


def cmd_verify_inverse(args) -> int:
    out = _out_path(args, "verify-inverse")
    cfg = _load_config(args.config)
    sec = _section(cfg, "verify-inverse")
    seed = _seed(sec)
    trials = _count(sec, "trials", 5)
    fresh = sec.get("init", "random") == "fresh"
    precisions = _names(sec.get("precisions", "double, single"))
    components = _names(sec.get("components", ", ".join(COMPONENTS)))
    tol = {"double": float(sec.get("tolerance_double", "1e-11")),
           "single": float(sec.get("tolerance_single", "1e-5"))}
    for comp in components:
        if comp not in COMPONENTS:
            raise UsageError(f"unknown component {comp!r} in config")
        if comp != "backbone":      # refused before any round trip runs
            _count(_section(cfg, comp), "depth", 1)
    rows, failures = [], []
    for ci, comp in enumerate(components):
        for pi, prec in enumerate(precisions):
            worst = 0.0
            for t in range(trials):
                depth, err = _roundtrip(cfg, comp, [seed, ci, pi, t], prec, fresh)
                worst = max(worst, err)
            rows.append((comp, prec, depth, worst))
            if worst > tol[prec]:
                failures.append(rows[-1])
    _write_csv(out, ["component", "precision", "depth", "max_rel_reconstruction_err"], rows)
    print(f"wrote {out} ({len(rows)} rows)")
    for row in failures:
        print(f"TOLERANCE BREACH: component={row[0]} precision={row[1]} "
              f"depth={row[2]} err={row[3]!r}", file=sys.stderr)
    return EXIT_TOLERANCE if failures else EXIT_OK


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------

def _loss_only(model, images, labels) -> float:
    tape = Tape(model.blocks, mode="recompute")
    out = tape.forward(image_pyramid(images, model.config.dtype), step_key=0)
    logits, _ = model.head.forward(out, None)
    from .backbone import softmax_cross_entropy
    loss, _ = softmax_cross_entropy(logits, labels)
    tape.discard()
    return loss


def _richardson_fd(loss_fn, flat: np.ndarray, idx: int, step: float) -> float:
    """Richardson-extrapolated central difference of ``loss_fn`` wrt one
    element of ``flat`` (restored afterwards): combines steps ``step`` and
    ``step/2`` to cancel the O(step^2) truncation term."""
    orig = flat[idx]
    samples = {}
    for offset in (step, -step, step / 2.0, -step / 2.0):
        flat[idx] = orig + offset
        samples[offset] = loss_fn()
    flat[idx] = orig
    coarse = (samples[step] - samples[-step]) / (2.0 * step)
    fine = (samples[step / 2.0] - samples[-step / 2.0]) / step
    return (4.0 * fine - coarse) / 3.0


def cmd_grad_check(args) -> int:
    """Audit gradients three ways and write one row per parameter tensor.

    ``rel_err_modes`` is the elementwise gap between stored-mode and
    recompute-mode gradients; ``rel_err_fd`` compares sampled elements of the
    stored gradient against central finite differences of the loss.  Both
    error metrics carry an absolute floor in the denominator: some shift
    parameters (the offset of a transform's final normalization) have a true
    gradient of exactly zero, because a per-channel constant added to a
    fused stream is absorbed by the batch statistics of every downstream
    normalization, so both measurements there are rounding noise and a bare
    relative error would compare noise against noise.  The mode gap is
    normalized by no less than ``modes_floor`` times the largest gradient
    magnitude in the model; the finite-difference gap by no less than
    ``fd_floor`` (central differences of the loss resolve gradients down to
    about machine-epsilon times loss over step, ~1e-11, three decades below
    the default floor).

    Finite differences use Richardson extrapolation over steps ``fd_step``
    and ``fd_step/2``: third derivatives of the loss through stacks of
    batch-normalized transforms are large enough that a bare central
    difference at the contract step carries visible O(step^2) truncation
    error; the extrapolation cancels that term at the cost of four loss
    evaluations per probe.  The remaining O(step^4) term still reaches 1e-3
    at step 1e-4 for the stiffest normalization scales (fourth/fifth loss
    derivatives of order 1e14), so the default step sits at 2.5e-5, where
    that term is ~1e-5 and double-precision roundoff in the quotient
    (~machine-epsilon x loss / step ~ 1e-11) is still negligible.
    """
    out = _out_path(args, "grad-check")
    cfg = _load_config(args.config)
    sec = _section(cfg, "grad-check")
    seed = _seed(sec)
    fd_step = float(sec.get("fd_step", "2.5e-5"))
    fd_floor = float(sec.get("fd_floor", "1e-5"))
    modes_floor = float(sec.get("modes_floor", "1e-3"))
    probes = _count(sec, "fd_probes_per_param", 2)
    tol_fd = float(sec.get("tolerance_fd", "1e-4"))
    tol_modes = float(sec.get("tolerance_modes", "1e-10"))
    batch = int(sec.get("batch", "2"))
    mc = _model_config(cfg, sec.get("precision", "double"))

    rng = np.random.default_rng(seed)
    model = build(replace(mc, seed=seed))
    randomize_parameters(model.parameters(), rng)
    h, _ = mc.resolution_hw
    ds = make_synthetic_dataset(mc.num_classes, batch, h, mc.in_channels, seed=seed)
    images, labels = ds.images[:batch], ds.labels[:batch]

    _, grads_stored, _, _ = step_gradients(model, "stored", images, labels)
    _, grads_recomp, _, _ = step_gradients(model, "recompute", images, labels)
    grad_scale = max(float(np.max(np.abs(g))) for g in grads_stored.values())

    rows, failures = [], []
    for name, arr in model.parameters():
        gs, gr = grads_stored[name], grads_recomp[name]
        denom = max(float(np.max(np.abs(gs))), float(np.max(np.abs(gr))),
                    modes_floor * grad_scale, 1e-30)
        err_modes = float(np.max(np.abs(gs - gr))) / denom
        flat = arr.reshape(-1)
        gflat = gs.reshape(-1)
        k = min(probes, flat.size)
        idxs = rng.choice(flat.size, size=k, replace=False)
        err_fd = 0.0
        for idx in idxs:
            fd = _richardson_fd(
                lambda: _loss_only(model, images, labels), flat, idx, fd_step)
            an = float(gflat[idx])
            err = abs(fd - an) / max(abs(fd), abs(an), fd_floor)
            assert_finite(err, f"the finite-difference check of {name}")
            err_fd = max(err_fd, err)
        rows.append((name, err_fd, err_modes))
        if err_fd > tol_fd or err_modes > tol_modes:
            failures.append(rows[-1])

    _write_csv(out, ["param", "rel_err_fd", "rel_err_modes"], rows)
    print(f"wrote {out} ({len(rows)} rows)")
    for row in failures:
        print(f"TOLERANCE BREACH: param={row[0]} fd={row[1]!r} modes={row[2]!r}",
              file=sys.stderr)
    return EXIT_TOLERANCE if failures else EXIT_OK


# ---------------------------------------------------------------------------
# mem-sweep
# ---------------------------------------------------------------------------

def cmd_mem_sweep(args) -> int:
    out = _out_path(args, "mem-sweep")
    cfg = _load_config(args.config)
    sec = _section(cfg, "mem-sweep")
    seed = _seed(sec)
    axis = args.axis or sec.get("axis", "depth")
    if axis not in ("depth", "resolution"):
        raise UsageError(f"axis must be depth or resolution, got {axis!r}")
    values = _ints(args.values) if args.values else _ints(sec["values"])
    modes = _names(args.modes) if args.modes else _names(sec.get("modes", "stored, recompute"))
    batch = int(sec.get("batch", "2"))
    mc = _model_config(cfg, sec.get("precision", "single"))

    rows = []
    for value in values:
        cfg_v = (replace(mc, extra_depth=value) if axis == "depth"
                 else replace(mc, resolution=value))
        model = build(replace(cfg_v, seed=seed))
        h, _ = cfg_v.resolution_hw
        ds = make_synthetic_dataset(cfg_v.num_classes, batch, h,
                                    cfg_v.in_channels, seed=seed)
        for mode in modes:
            try:
                _, _, registry, _ = step_gradients(model, mode, ds.images, ds.labels)
                rows.append((value, mode, registry.peak))
            except MemoryError:
                rows.append((value, mode, "oom"))
    _write_csv(out, ["axis_value", "mode", "peak_activation_bytes"], rows)
    print(f"wrote {out} ({len(rows)} rows, axis={axis})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

def cmd_train_toy(args) -> int:
    out = _out_path(args, "train-toy")
    cfg = _load_config(args.config)
    sec = _section(cfg, "train-toy")
    seed = _seed(sec)
    mode = sec.get("mode", "both")
    steps = _count(sec, "steps", 20)
    lr = float(sec.get("lr", "0.05"))
    batch_size = int(sec.get("batch_size", "8"))
    mc = _model_config(cfg, sec.get("precision", "double"))
    dsec = _section(cfg, "dataset")
    h, _ = mc.resolution_hw
    ds = make_synthetic_dataset(
        num_classes=int(dsec.get("classes", str(mc.num_classes))),
        samples=int(dsec.get("samples", "64")),
        image_size=h, channels=mc.in_channels,
        noise=float(dsec.get("noise", "0.25")), seed=seed,
    )
    modes = ["stored", "recompute"] if mode == "both" else [mode]
    records = {m: train_toy(mc, ds, m, steps, seed, lr=lr, batch_size=batch_size)
               for m in modes}

    rows = []
    for m in modes:
        for s in records[m].steps:
            parity = ""
            if len(modes) == 2 and m == "recompute":
                ref = records["stored"].steps[s.step].loss
                parity = repr(abs(s.loss - ref) / max(abs(ref), 1e-30))
            # total block-function evaluations: the recompute surcharge shows
            # up as a doubled count (forward phase plus backward-phase replay)
            rows.append((s.step, m, s.loss, s.peak_bytes,
                         s.forward_evals + s.backward_evals, parity))
    _write_csv(out, ["step", "mode", "loss", "peak_bytes", "fwd_evals", "loss_parity_rel"],
               rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def cmd_cost(args) -> int:
    if args.ratio:
        a, b = (scale_row(name) for name in args.ratio)
        value = activation_ratio(a.as_cfg(), b.as_cfg())
        print(f"activation_ratio {a.name}/{b.name} = {value:.4f} (~{value:.1f}x)")
        return EXIT_OK
    if args.scale_table:
        print("name,m_w,d,resolution,channels")
        for row in scale_table():
            print(f"{row.name},{row.displayed_m_w},{row.d},{row.resolution},"
                  f"{'/'.join(str(c) for c in row.channels())}")
        return EXIT_OK
    out = _out_path(args, "cost")
    cfg = _load_config(args.config)
    sec = _section(cfg, "cost")
    _seed(sec)  # uniform contract: every config names its seed
    mc = _model_config(cfg, sec.get("precision", "single"))
    model = build(mc)
    items = model_costs(model)
    rows = [(it.component, it.macs, it.params) for it in items]
    rows.append(("total", mac_count(model), param_count(model)))
    _write_csv(out, ["component", "macs", "params"], rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="revfuse", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI experiment config")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--force", action="store_true",
                       help="overwrite an existing output file")

    common(sub.add_parser("verify-inverse", help="round-trip reconstruction error"))
    common(sub.add_parser("grad-check", help="stored vs recompute vs finite differences"))
    p = sub.add_parser("mem-sweep", help="peak live activation bytes over depth/resolution")
    common(p)
    p.add_argument("--axis", choices=["depth", "resolution"])
    p.add_argument("--values", help="comma-separated sweep values")
    p.add_argument("--modes", help="comma-separated backward modes")
    common(sub.add_parser("train-toy", help="toy SGD runs"))
    p = sub.add_parser("cost", help="analytic MAC/param counts and scale ladder")
    common(p)
    p.add_argument("--ratio", nargs=2, metavar=("ROW_A", "ROW_B"),
                   help="print the activation ratio of two scale rows")
    p.add_argument("--scale-table", action="store_true",
                   help="print the seven-row scale ladder")
    return parser


COMMANDS = {
    "verify-inverse": cmd_verify_inverse,
    "grad-check": cmd_grad_check,
    "mem-sweep": cmd_mem_sweep,
    "train-toy": cmd_train_toy,
    "cost": cmd_cost,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except UsageError as e:
        print(f"revfuse {args.command}: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigurationError as e:
        print(f"revfuse {args.command}: configuration error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, FloatingPointError, AccountingError) as e:
        print(f"revfuse {args.command}: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
