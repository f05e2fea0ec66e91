"""Command-line entry point for the reconstruction and rate-study pipeline.

Configuration is line-oriented ``key = value`` under ``[subcommand]``
section headers; command-line flags override file values, and defaults
fill the rest. Unknown sections or keys, and repeated keys, are hard
errors. Every run writes a manifest capturing the effective configuration
(defaults materialized), and re-running a subcommand from its manifest
reproduces the outputs.

Exit codes: 0 success, 1 invalid configuration or arguments, or a file
that cannot be read or written, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import experiment
from .errors import NumericalFailureError, check_positive, naming_path
from .grid import ImageGrid, shepp_logan, write_imgf, write_pgm16
from .mlp import MlpArchitecture, save_params
from .nnsolver import NnReconstructionConfig, reconstruct_nn
# radon_forward is not called here: perfbench's tracer looks it up in this module
from .radon import SinogramGrid, radon_forward, write_sinf  # noqa: F401
from .tikhonov import TikhonovProblem, check_converged, solve_tikhonov

def _parse_int_list(s):
    """Comma-separated integers; every field must be one, so "6,,6" and "4," are refused."""
    return tuple(int(p) for p in s.split(","))


def _optional(parse):
    """``parse``, except that "none" (any case) parses to None."""

    def parse_optional(s):
        if s.strip().lower() == "none":
            return None
        return parse(s)

    return parse_optional


def _serialize(value):
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# the [sweep] keys that SweepConfig carries, with their defaults
_SWEEP = {f.name: f.default for f in dataclasses.fields(experiment.SweepConfig)
          if f.name != "deltas"}

# the grid and geometry keys of every scene command: sinogram, tikhonov,
# nn-reconstruct and sweep (phantom takes n alone)
_GEOMETRY = {
    "n": (int, _SWEEP["n"], "grid size per axis"),
    "angles": (int, _SWEEP["angles"], "number of projection angles in [0, pi)"),
    "det_halfwidth": (float, _SWEEP["det_halfwidth"], "detector half-extent"),
}

# the noise keys of sinogram, tikhonov and nn-reconstruct
_NOISE = {
    "delta": (float, 0.0, "noise scale (0 for clean data)"),
    "seed": (int, 0, "noise seed (nn-reconstruct: also the init seed)"),
}

# the noisy-problem keys of tikhonov and nn-reconstruct
_PROBLEM = {**_GEOMETRY, "alpha": (float, 1e-2, "regularization weight"), **_NOISE}

# subcommand -> ordered {key: (parser, default, help)}
SCHEMAS = {
    "phantom": {
        "n": _GEOMETRY["n"],
        "out": (str, "phantom.pgm", "output image (.pgm or .imgf)"),
    },
    "sinogram": {
        **_GEOMETRY,
        **_NOISE,
        "out": (str, "sinogram.sinf", "output sinogram (.sinf)"),
    },
    "tikhonov": {
        **_PROBLEM,
        "tol": (float, _SWEEP["cg_tol"], "CG relative tolerance"),
        "max_iter": (int, _SWEEP["cg_max_iter"], "CG iteration cap"),
        "out": (str, "reconstruction.imgf", "output image (.imgf or .pgm)"),
    },
    "nn-reconstruct": {
        **_PROBLEM,
        "hidden": (_parse_int_list, _SWEEP["nn_hidden"], "hidden layer widths"),
        "iterations": (int, _SWEEP["nn_iterations"], "optimizer steps"),
        "learning_rate": (float, _SWEEP["nn_learning_rate"], "Adam learning rate"),
        "weight_bound": (_optional(float), _SWEEP["nn_weight_bound"],
                         "weight box half-width (none = unbounded)"),
        "out": (str, "nn_reconstruction.imgf", "output image (.imgf or .pgm)"),
        "trace": (_optional(str), None, "objective trace output path"),
        "checkpoint": (_optional(str), None, "parameter checkpoint output (.mlpw)"),
    },
    "sweep": {
        "method": (str, _SWEEP["method"],
                   f"reconstruction method: {' or '.join(experiment.METHODS)}"),
        **_GEOMETRY,
        "snr_min_db": (float, 16.6, "noisiest SNR level, dB"),
        "snr_max_db": (float, 42.6, "cleanest SNR level, dB"),
        "n_deltas": (int, 6, "number of noise levels"),
        "realizations": (int, _SWEEP["realizations"], "noise realizations per level"),
        "n_alphas": (int, _SWEEP["n_alphas"], "alpha grid size per level"),
        "alpha_span_decades": (float, _SWEEP["alpha_span_decades"],
                               "alpha grid half-span around alpha = delta"),
        "seed": (int, _SWEEP["seed"], "base seed of the substream hierarchy"),
        "cg_tol": (float, _SWEEP["cg_tol"], "CG relative tolerance"),
        "cg_max_iter": (int, _SWEEP["cg_max_iter"], "CG iteration cap"),
        "nn_hidden": (_parse_int_list, _SWEEP["nn_hidden"], "hidden widths (nn method)"),
        "nn_iterations": (int, _SWEEP["nn_iterations"], "optimizer steps (nn method)"),
        "nn_learning_rate": (float, _SWEEP["nn_learning_rate"], "Adam learning rate (nn method)"),
        "nn_weight_bound": (_optional(float), _SWEEP["nn_weight_bound"],
                            "weight box half-width (nn method)"),
        "out": (str, "sweep_out", "output directory"),
    },
    "oracle-linear": {
        "mu": (float, 1.0, "source-condition exponent in [1/2, 1]"),
        "n_dim": (int, 200, "operator dimension"),
        "delta_min": (float, 1e-6, "smallest noise level"),
        "delta_max": (float, 1e-2, "largest noise level"),
        "n_deltas": (int, 9, "number of noise levels (log-spaced)"),
        "seed": (int, 0, "base seed"),
        "out": (_optional(str), None, "optional output directory for tables"),
    },
    "rate-fit": {
        "table": (str, "aggregate.csv", "input table (aggregate or delta,error)"),
        "out": (_optional(str), None, "optional output directory for the fits table"),
    },
    "plot": {
        "table": (str, "aggregate.csv", "input table (aggregate or delta,error)"),
        "reference_exponent": (float, 2.0 / 3.0, "dashed reference slope"),
        "out": (str, "errors.svg", "output SVG path"),
    },
}


def parse_config_file(path, subcommand):
    """Read the [subcommand] section of an INI-style file.

    Returns a dict of parsed values. Unknown sections, and unknown or
    repeated keys in the active section, are errors; sections of other
    subcommands are allowed and ignored.
    """
    schema = SCHEMAS[subcommand]
    values = {}
    key_lines = {}
    section = None
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith(("#", ";")):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in SCHEMAS:
                    raise ValueError(f"{path}:{lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            if section is None:
                raise ValueError(f"{path}:{lineno}: key outside of any [section]")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if section != subcommand:
                continue
            if key not in schema:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
            if key in key_lines:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {key_lines[key]}")
            key_lines[key] = lineno
            with naming_path(f"{path}:{lineno}: bad value for {key!r}"):
                values[key] = schema[key][0](value)
    return values


def serialize_config(subcommand, cfg):
    """Render an effective configuration as INI text (the manifest body)."""
    lines = [f"[{subcommand}]"]
    for key in SCHEMAS[subcommand]:
        lines.append(f"{key} = {_serialize(cfg[key])}")
    return "\n".join(lines) + "\n"


def resolve_config(subcommand, args):
    """Defaults, then config file values, then explicit flags."""
    schema = SCHEMAS[subcommand]
    cfg = {key: default for key, (_, default, _) in schema.items()}
    if args.config:
        cfg.update(parse_config_file(args.config, subcommand))
    for key, (parser, _, _) in schema.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            with naming_path(f"bad value for {key!r}"):
                cfg[key] = parser(flag_value)
    return cfg


def _write_text(path, text):
    with open(path, "w") as f:
        f.write(text)


def _write_manifest(subcommand, cfg, path):
    _write_text(path, serialize_config(subcommand, cfg))


def _write_tables(subcommand, cfg, tables):
    """Write each {file name: CSV text} of ``tables``, then manifest.ini, into ``cfg["out"]``."""
    os.makedirs(cfg["out"], exist_ok=True)
    for name, text in tables.items():
        _write_text(os.path.join(cfg["out"], name), text)
    _write_manifest(subcommand, cfg, os.path.join(cfg["out"], "manifest.ini"))


def _write_image(path, image: ImageGrid):
    if str(path).endswith(".pgm"):
        write_pgm16(path, image)
    else:
        write_imgf(path, image)


def cmd_phantom(cfg):
    image = shepp_logan(cfg["n"], cfg["n"])
    _write_image(cfg["out"], image)
    _write_manifest("phantom", cfg, str(cfg["out"]) + ".manifest")
    print(f"wrote {cfg['out']} ({cfg['n']}x{cfg['n']})")
    return 0


def cmd_sinogram(cfg):
    sc = experiment.scene(cfg["n"], cfg["angles"], cfg["det_halfwidth"])
    write_sinf(cfg["out"], SinogramGrid(sc.geometry, sc.noisy(cfg["delta"], cfg["seed"])))
    _write_manifest("sinogram", cfg, str(cfg["out"]) + ".manifest")
    print(f"wrote {cfg['out']} ({sc.geometry.n_bins}x{sc.geometry.n_angles} bins x angles)")
    return 0


def cmd_tikhonov(cfg):
    sc = experiment.scene(cfg["n"], cfg["angles"], cfg["det_halfwidth"])
    problem = TikhonovProblem(sc.operator, sc.noisy(cfg["delta"], cfg["seed"]), cfg["alpha"])
    result = solve_tikhonov(problem, tol=cfg["tol"], max_iter=cfg["max_iter"])
    check_converged(cfg["alpha"], result, cfg["tol"], "tol")
    _write_image(cfg["out"], ImageGrid(nx=cfg["n"], ny=cfg["n"], values=result.x))
    _write_manifest("tikhonov", cfg, str(cfg["out"]) + ".manifest")
    print(f"wrote {cfg['out']}  cg_iterations={result.iterations}  error={sc.error(result.x):.6g}")
    return 0


def cmd_nn_reconstruct(cfg):
    sc = experiment.scene(cfg["n"], cfg["angles"], cfg["det_halfwidth"])
    recon = reconstruct_nn(NnReconstructionConfig(
        architecture=MlpArchitecture(hidden_widths=cfg["hidden"]), operator=sc.operator,
        data=sc.noisy(cfg["delta"], cfg["seed"]), nx=cfg["n"], ny=cfg["n"],
        **{k: cfg[k] for k in ("alpha", "iterations", "learning_rate", "seed", "weight_bound")}))
    if cfg["trace"] is not None:
        _write_text(cfg["trace"], "# iteration objective\n" + "".join(
            f"{it} {v!r}\n" for it, v in enumerate(recon.objective_trace.tolist())))
    _write_image(cfg["out"], recon.image)
    if cfg["checkpoint"] is not None:
        save_params(cfg["checkpoint"], recon.params)
    _write_manifest("nn-reconstruct", cfg, str(cfg["out"]) + ".manifest")
    print(f"wrote {cfg['out']}  objective={recon.final_objective:.6g} "
          f"(iteration {recon.best_iteration})  error={sc.error(recon.image.values):.6g}")
    return 0


def sweep_config(settings):
    """The SweepConfig that ``sweep`` runs for the ``[sweep]`` settings ``settings``."""
    deltas = experiment.sweep_deltas(settings["n"], settings["angles"], settings["snr_min_db"],
                                     settings["snr_max_db"], settings["n_deltas"],
                                     settings["det_halfwidth"])
    return experiment.SweepConfig(deltas=deltas, **{key: settings[key] for key in _SWEEP})


def cmd_sweep(cfg, threads):
    check_positive("--threads", threads)
    sweep_cfg = sweep_config(cfg)
    os.makedirs(cfg["out"], exist_ok=True)  # so an unusable out fails before the first cell
    result = experiment.run_sweep(sweep_cfg, threads=threads)
    tables = experiment.sweep_tables(result, cfg["method"])
    _write_tables("sweep", cfg, tables)

    for failure in result.failures:
        print(f"cell failed: delta={failure.delta:.6g} seed={failure.seed}: {failure.message}",
              file=sys.stderr)
    if result.failed_deltas:
        print(f"excluded noise levels with no surviving cells: {result.failed_deltas}",
              file=sys.stderr)
    slope = f"{result.fit.slope:.6f}" if result.fit else "n/a"
    print(f"wrote {cfg['out']}/{' '.join(tables)} manifest.ini  slope={slope}")
    return 0


def cmd_oracle_linear(cfg):
    for key in ("delta_min", "delta_max"):
        check_positive(key, cfg[key])
    deltas = np.logspace(
        math.log10(cfg["delta_min"]), math.log10(cfg["delta_max"]), cfg["n_deltas"]
    )
    result = experiment.linear_oracle(cfg["mu"], cfg["n_dim"], deltas, seed=cfg["seed"])
    print(f"mu={cfg['mu']}  slope={result.fit.slope:.6f}  intercept={result.fit.intercept:.6f}")
    if cfg["out"] is not None:
        _write_tables("oracle-linear", cfg, experiment.oracle_tables(result, cfg["mu"]))
    return 0


def cmd_rate_fit(cfg):
    series = experiment.table_series(cfg["table"])
    fits = []
    for method, (deltas, errors, _) in series.items():
        fit = experiment.fit_rate(deltas, errors)
        fits.append((method, fit))
        prefix = f"{method}: " if len(series) > 1 else ""
        print(f"{prefix}slope = {fit.slope:.6f}")
    if cfg["out"] is not None:
        _write_tables("rate-fit", cfg, {"fits.csv": experiment.fits_csv(fits)})
    return 0


def cmd_plot(cfg):
    from .svgplot import render_plot  # imported here: no other command renders SVG

    _write_text(cfg["out"], render_plot(experiment.table_series(cfg["table"]),
                                        cfg["reference_exponent"]))
    _write_manifest("plot", cfg, str(cfg["out"]) + ".manifest")
    print(f"wrote {cfg['out']}")
    return 0


COMMANDS = {
    "phantom": cmd_phantom,
    "sinogram": cmd_sinogram,
    "tikhonov": cmd_tikhonov,
    "nn-reconstruct": cmd_nn_reconstruct,
    "sweep": cmd_sweep,
    "oracle-linear": cmd_oracle_linear,
    "rate-fit": cmd_rate_fit,
    "plot": cmd_plot,
}


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage errors via exit code 1."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(prog="compact-tik", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file; flags override its values")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes (default: 1)")
        for key, (_, default, help_text) in schema.items():
            p.add_argument(
                f"--{key.replace('_', '-')}",
                dest=key,
                default=None,
                help=f"{help_text} (default: {_serialize(default)})",
            )
    return parser


def _check_shared_settings(cfg):
    """Range checks of the settings that several commands have, by their keys."""
    if "n" in cfg:
        check_positive("n", cfg["n"])
    if "n_deltas" in cfg and cfg["n_deltas"] < 2:
        raise ValueError(f"n_deltas must be at least 2, got {cfg['n_deltas']}")
    for key in ("out", "trace", "checkpoint", "table"):
        if cfg.get(key) == "":
            raise ValueError(f"{key} must not be empty")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args.subcommand, args)
        _check_shared_settings(cfg)
        options = {"threads": args.threads} if "threads" in args else {}
        return COMMANDS[args.subcommand](cfg, **options)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
