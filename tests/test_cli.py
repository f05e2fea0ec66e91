import dataclasses
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from compact_tik import cli, experiment
from compact_tik.cli import SCHEMAS, main, parse_config_file, serialize_config
from compact_tik.svgplot import render_plot

REPO = Path(__file__).resolve().parent.parent
REFERENCE_DIR = REPO / "reference_runs" / "ct32"


def run_cli(*argv):
    return main(list(argv))


def test_phantom_pgm(tmp_path, capsys):
    out = tmp_path / "p.pgm"
    assert run_cli("phantom", "--n", "32", "--out", str(out)) == 0
    raw = out.read_bytes()
    assert raw.startswith(b"P5\n32 32\n65535\n")
    assert (tmp_path / "p.pgm.manifest").exists()


def test_phantom_imgf_reference_size(tmp_path):
    out = tmp_path / "p.imgf"
    assert run_cli("phantom", "--n", "128", "--out", str(out)) == 0
    from compact_tik.grid import read_imgf

    img = read_imgf(out)
    assert img.nx == img.ny == 128


def test_sinogram_and_tikhonov(tmp_path):
    sino = tmp_path / "s.sinf"
    assert run_cli("sinogram", "--n", "16", "--angles", "8", "--out", str(sino)) == 0
    from compact_tik.radon import RadonGeometry, read_sinf

    back = read_sinf(sino)
    assert back.geometry == RadonGeometry.for_grid(16, 8)

    rec = tmp_path / "x.imgf"
    code = run_cli(
        "tikhonov", "--n", "16", "--angles", "8", "--alpha", "0.1",
        "--delta", "0.01", "--out", str(rec),
    )
    assert code == 0
    from compact_tik.grid import read_imgf

    assert read_imgf(rec).nx == 16


def test_tikhonov_unconverged_exit_2_writes_nothing(tmp_path, capsys):
    rec = tmp_path / "x.imgf"
    code = run_cli(
        "tikhonov", "--n", "16", "--angles", "8", "--delta", "0.05", "--max-iter", "2",
        "--out", str(rec),
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: CG did not converge at alpha=0.01: 2 iterations, "
        "normal residual 1.420e+00 > tol * ||rhs|| = 1.858e-09\n")
    assert not rec.exists()
    assert not (tmp_path / "x.imgf.manifest").exists()


def test_nn_reconstruct(tmp_path):
    out = tmp_path / "nn.imgf"
    trace = tmp_path / "trace.txt"
    ckpt = tmp_path / "net.mlpw"
    code = run_cli(
        "nn-reconstruct", "--n", "8", "--angles", "4", "--alpha", "0.05",
        "--hidden", "6,6", "--iterations", "10", "--out", str(out),
        "--trace", str(trace), "--checkpoint", str(ckpt),
    )
    assert code == 0
    assert trace.exists() and ckpt.exists()
    from compact_tik.grid import read_imgf

    assert np.all(read_imgf(out).values >= 0.0)


def test_nn_reconstruct_trace_file(tmp_path, monkeypatch):
    reconstruct = cli.reconstruct_nn
    runs = []

    def recording_reconstruct(cfg):
        runs.append(reconstruct(cfg))
        return runs[-1]

    monkeypatch.setattr(cli, "reconstruct_nn", recording_reconstruct)
    trace = tmp_path / "trace.txt"
    assert run_cli("nn-reconstruct", "--n", "8", "--angles", "4", "--hidden", "6",
                   "--iterations", "10", "--out", str(tmp_path / "nn.imgf"),
                   "--trace", str(trace)) == 0
    (recon,) = runs
    assert len(recon.objective_trace) == 11
    want = "# iteration objective\n" + "".join(
        f"{it} {v!r}\n" for it, v in enumerate(recon.objective_trace.tolist()))
    assert trace.read_bytes() == want.encode("ascii")


def test_rate_fit_exact_power_law(tmp_path, capsys):
    table = tmp_path / "agg.csv"
    deltas = np.logspace(-4, -1, 6)
    lines = ["delta,mean_error,std_error,method"]
    lines += [f"{float(d)!r},{float(d) ** (2.0 / 3.0)!r},0.0,tikhonov" for d in deltas]
    table.write_text("\n".join(lines) + "\n")
    assert run_cli("rate-fit", "--table", str(table)) == 0
    out = capsys.readouterr().out
    assert "slope = 0.666667" in out


def test_rate_fit_plain_error_column(tmp_path, capsys):
    table = tmp_path / "errors.csv"
    table.write_text("delta,error\n0.1,1.0\n0.01,0.1\n")
    assert run_cli("rate-fit", "--table", str(table)) == 0
    assert "slope = 1.000000" in capsys.readouterr().out


def test_rate_fit_single_distinct_delta_exit_1(tmp_path, capsys):
    table = tmp_path / "errors.csv"
    table.write_text("delta,error\n0.1,1\n0.1,2\n0.1,3\n")
    assert run_cli("rate-fit", "--table", str(table), "--out", str(tmp_path / "out")) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need at least two distinct deltas, got only 0.1\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["rate-fit", "plot"])
def test_per_alpha_results_table_is_refused(tmp_path, capsys, command):
    # fitting every alpha's error gives slope 0.240487 here; the sweep's
    # oracle-error fit in fits.csv is 0.181085
    table = REPO / "reference_runs" / "ct32" / "tikhonov" / "results.csv"
    assert run_cli(command, "--table", str(table), "--out", str(tmp_path / "out")) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {table}: has an 'alpha' column")
    assert "use the sweep's aggregate.csv" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["rate-fit", "plot"])
@pytest.mark.parametrize("text, where", [
    ("", ":"),  # empty file
    ("delta,mean_error,std_error,method\n", ":"),  # header only
    ("delta,mean_error,std_error,method\n0.1,1.0,0.0,tikhonov\n\n0.01\n", ":4:"),  # ragged
])
def test_bad_table_exit_1_names_path_and_line(tmp_path, capsys, command, text, where):
    table = tmp_path / "agg.csv"
    table.write_text(text)
    assert run_cli(command, "--table", str(table), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith(f"error: {table}{where}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["rate-fit", "plot"])
@pytest.mark.parametrize("header, message", [
    ("d,mean_error,std_error,method", "no 'delta' column"),
    ("delta,mean,std_error,method", "no 'error' or 'mean_error' column"),
])
def test_table_without_a_needed_column_exit_1(tmp_path, capsys, command, header, message):
    table = tmp_path / "agg.csv"
    table.write_text(f"{header}\n0.1,1.0,0.0,t\n0.01,0.3,0.0,t\n")
    assert run_cli(command, "--table", str(table), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {table}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["rate-fit", "plot"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_table_values_exit_1(tmp_path, capsys, command, bad):
    table = tmp_path / "agg.csv"
    for row in (f"{bad},1.0,0.0,tikhonov", f"0.1,{bad},0.0,tikhonov"):
        table.write_text(f"delta,mean_error,std_error,method\n{row}\n0.01,0.3,0.0,tikhonov\n")
        assert run_cli(command, "--table", str(table), "--out", str(tmp_path / "out")) == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text", [
    ("rate-fit", "delta,error\n0.1,abc\n"),
    ("plot", "delta,mean_error,std_error,method\n0.1,abc,0.0,tikhonov\n"),
])
def test_non_numeric_table_field_exit_1_names_path_and_line(tmp_path, capsys, command, text):
    table = tmp_path / "agg.csv"
    table.write_text(text)
    assert run_cli(command, "--table", str(table), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith(f"error: {table}:2: not a number: 'abc'")
    assert not (tmp_path / "out").exists()


# rate-fit and plot read a table through one reader, so every refusal holds for both
@pytest.mark.parametrize("command", ["rate-fit", "plot"])
@pytest.mark.parametrize("text, message", [
    ("delta,error\n0.1,1.0\n-0.01,0.3\n", ":3: delta must be positive and finite, got -0.01"),
    ("delta,error\n0.1,1.0\nnan,0.3\n", ":3: delta must be positive and finite, got nan"),
    ("delta,error\n0.1,0.0\n0.01,0.3\n", ":2: error must be positive and finite, got 0.0"),
    ("delta,mean_error,std_error,method\n0.1,-1.0,0.0,t\n0.01,0.3,0.0,t\n",
     ":2: mean_error must be positive and finite, got -1.0"),
])
def test_out_of_range_value_names_path_and_line(tmp_path, capsys, command, text, message):
    table = tmp_path / "agg.csv"
    table.write_text(text)
    assert run_cli(command, "--table", str(table), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {table}{message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["rate-fit", "plot"])
@pytest.mark.parametrize("row, message", [
    ("0.1,1.0,-5.0,t", "std_error must be nonnegative and finite, got -5.0"),
    ("0.1,1.0,nan,t", "std_error must be nonnegative and finite, got nan"),
    ("0.0,1.0,0.0,t", "delta must be positive and finite, got 0.0"),
    ("nan,1.0,0.0,t", "delta must be positive and finite, got nan"),
    ("0.1,-1.0,0.0,t", "mean_error must be positive and finite, got -1.0"),
])
def test_out_of_range_aggregate_row_names_path_and_line(tmp_path, capsys, command, row, message):
    table = tmp_path / "agg.csv"
    table.write_text(f"delta,mean_error,std_error,method\n0.2,2.0,0.0,t\n{row}\n")
    assert run_cli(command, "--table", str(table), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {table}:3: {message}\n"
    assert not (tmp_path / "out").exists()


def test_oracle_linear_cli(tmp_path, capsys):
    out = tmp_path / "oracle"
    code = run_cli("oracle-linear", "--mu", "1.0", "--seed", "0", "--out", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    slope = float(printed.split("slope=")[1].split()[0])
    assert 0.567 <= slope <= 0.767
    assert (out / "oracle.csv").exists()
    assert (out / "manifest.ini").exists()


def test_rate_fit_of_the_oracle_table_matches_the_oracle_fit(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert run_cli("oracle-linear", "--mu", "0.5", "--out", str(out)) == 0
    fits = tmp_path / "fits"
    assert run_cli("rate-fit", "--table", str(out / "oracle.csv"), "--out", str(fits)) == 0

    def slope(path):
        header, row = path.read_text().splitlines()
        return row.split(",")[header.split(",").index("slope")]

    assert slope(fits / "fits.csv") == slope(out / "fits.csv")


def test_plot_of_the_oracle_table_draws_zero_length_bars(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert run_cli("oracle-linear", "--out", str(out)) == 0
    fig = tmp_path / "fig.svg"
    assert run_cli("plot", "--table", str(out / "oracle.csv"), "--out", str(fig)) == 0
    _, *lines = (out / "oracle.csv").read_text().splitlines()
    rows = [(float(d), float(e), 0.0, "all") for d, _, e in (line.split(",") for line in lines)]
    assert fig.read_text() == render_plot(rows, 2.0 / 3.0)


def test_plot_non_finite_reference_exponent_exit_1(tmp_path, capsys):
    table = tmp_path / "agg.csv"
    table.write_text("delta,mean_error,std_error,method\n0.1,1.0,0.05,t\n0.01,0.3,0.01,t\n")
    for bad in ("nan", "inf"):
        out = tmp_path / "fig.svg"
        assert run_cli("plot", "--table", str(table), "--reference-exponent", bad,
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: reference_exponent must be finite, got {bad}\n"
        assert os.listdir(tmp_path) == ["agg.csv"]


def test_plot_from_aggregate(tmp_path):
    table = tmp_path / "agg.csv"
    table.write_text(
        "delta,mean_error,std_error,method\n"
        "0.1,1.0,0.05,tikhonov\n0.01,0.3,0.01,tikhonov\n"
    )
    out = tmp_path / "fig.svg"
    assert run_cli("plot", "--table", str(table), "--out", str(out)) == 0
    rows = [(0.1, 1.0, 0.05, "tikhonov"), (0.01, 0.3, 0.01, "tikhonov")]
    assert out.read_text() == render_plot(rows, 2.0 / 3.0)
    ET.fromstring(out.read_text())  # well-formed
    assert (tmp_path / "fig.svg.manifest").exists()


def test_sweep_writes_tables_and_manifest(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep", "--n", "12", "--angles", "6", "--n-deltas", "3",
        "--realizations", "2", "--n-alphas", "3", "--out", str(out),
    )
    assert code == 0
    results = (out / "results.csv").read_text()
    assert results.splitlines()[0] == "delta,seed,alpha,error,snr_db,method"
    assert len(results.splitlines()) == 1 + 3 * 2 * 3
    assert (out / "aggregate.csv").exists()
    assert (out / "fits.csv").exists()
    assert (out / "manifest.ini").exists()


def test_sweep_builds_its_scene_once(tmp_path, monkeypatch):
    # sweep_deltas and every cell read one cached scene; from a cold cache
    # the phantom is built once, not once per cell
    calls = []
    phantom = experiment.shepp_logan
    monkeypatch.setattr(experiment, "shepp_logan",
                        lambda nx, ny: calls.append((nx, ny)) or phantom(nx, ny))
    experiment.scene.cache_clear()
    assert run_cli("sweep", *SMALL_SWEEP, "--out", str(tmp_path / "sweep")) == 0
    assert calls == [(8, 8)]


def test_sinogram_and_sweep_at_one_setting_share_one_scene(tmp_path, monkeypatch):
    # every caller passes all three scene settings, so a command's call and
    # the sweep's call at one CT setting are one cache entry
    calls = []
    phantom = experiment.shepp_logan
    monkeypatch.setattr(experiment, "shepp_logan",
                        lambda nx, ny: calls.append((nx, ny)) or phantom(nx, ny))
    experiment.scene.cache_clear()
    assert run_cli("sinogram", *SMALL, "--out", str(tmp_path / "y.sinf")) == 0
    assert run_cli("sweep", *SMALL_SWEEP, "--out", str(tmp_path / "sweep")) == 0
    assert calls == [(8, 8)]
    assert experiment.scene.cache_info().misses == 1
    # with no grid flags, sinogram and tikhonov default to one CT setting
    experiment.scene.cache_clear()
    assert run_cli("sinogram", "--out", str(tmp_path / "s.sinf")) == 0
    assert run_cli("tikhonov", "--out", str(tmp_path / "t.imgf")) == 0
    assert calls[1:] == [(64, 64)]
    assert experiment.scene.cache_info().misses == 1


def test_sweep_rerun_from_manifest_is_identical(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli(
        "sweep", "--n", "12", "--angles", "6", "--n-deltas", "3",
        "--realizations", "2", "--n-alphas", "4", "--seed", "77", "--out", str(out1),
    ) == 0
    manifest = out1 / "manifest.ini"
    assert run_cli("sweep", "--config", str(manifest), "--out", str(out2)) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()
    assert (out1 / "fits.csv").read_bytes() == (out2 / "fits.csv").read_bytes()


def test_sweep_and_nn_reconstruct_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma costs about 1.5 MB of RSS, and np.unique imports it; the worker
    # pool's modules (concurrent.futures, multiprocessing) about 1.2 MiB and
    # the SVG writer (svgplot, html) about 0.3 MiB, and only a sweep that runs
    # workers (--threads N with N > 1, or --method nn) and `plot` use them. A
    # fresh interpreter, since any test in this process may have imported them
    script = (
        "import sys\n"
        "import compact_tik\n"
        "print(sorted(m for m in sys.modules if m.startswith('compact_tik.')))\n"
        "from compact_tik import cli\n"
        f"assert cli.main(['sweep', '--n', '12', '--angles', '6', '--n-deltas', '3',"
        f" '--realizations', '2', '--n-alphas', '3', '--threads', '1',"
        f" '--out', {str(tmp_path / 'sweep')!r}]) == 0\n"
        f"assert cli.main(['nn-reconstruct', '--n', '8', '--angles', '4', '--hidden', '6',"
        f" '--iterations', '10', '--out', {str(tmp_path / 'nn.imgf')!r}]) == 0\n"
        "print([m for m in ['numpy.ma', 'concurrent.futures', 'multiprocessing', 'html',"
        " 'compact_tik.svgplot'] if m in sys.modules])\n"
    )
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"  # the package root imports no submodule
    assert lines[-1] == "[]"


def test_sweep_reports_unconverged_cells_on_stderr(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep", "--n", "12", "--angles", "6", "--n-deltas", "2",
        "--realizations", "1", "--n-alphas", "3", "--cg-max-iter", "2", "--out", str(out),
    )
    assert code == 0
    err = capsys.readouterr().err
    assert err.count("cell failed:") == 2
    assert "did not converge" in err
    assert (out / "results.csv").read_text().splitlines() == ["delta,seed,alpha,error,snr_db,method"]


def test_sweep_reports_each_finished_cell_on_stderr(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--n", "12", "--angles", "6", "--n-deltas", "2",
                   "--realizations", "2", "--n-alphas", "3", "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 and captured.out.startswith(f"wrote {out}/results.csv")
    rows = (out / "aggregate.csv").read_text().splitlines()[1:]
    deltas = [float(row.split(",")[0]) for row in rows]
    lines = captured.err.splitlines()
    assert len(lines) == 4
    for k, line in enumerate(lines, 1):
        prefix = f"cell {k} of 4: delta={deltas[(k - 1) // 2]:.6g} "
        assert line.startswith(prefix) and line.endswith(" s"), line
        float(line[len(prefix):-2])  # the wall seconds


@pytest.mark.parametrize("setting, message", [
    (["--snr-min-db", "nan"], "snr bounds must be finite"),
    (["--method", "nn", "--snr-min-db", "nan"], "snr bounds must be finite"),
    (["--cg-tol", "nan"], "cg_tol must be positive and finite"),
])
def test_sweep_rejects_non_finite_settings_before_any_cell(tmp_path, capsys, setting, message):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--n", "8", "--angles", "4", "--n-deltas", "2", "--realizations", "1",
                   "--n-alphas", "2", "--nn-hidden", "6", "--nn-iterations", "5",
                   "--out", str(out), *setting) == 1
    err = capsys.readouterr().err
    assert message in err and "cell " not in err
    assert not out.exists()


SMALL = ["--n", "8", "--angles", "4"]
SMALL_SWEEP = SMALL + ["--n-deltas", "2", "--realizations", "1", "--n-alphas", "2"]
NN_SWEEP = SMALL_SWEEP + ["--method", "nn", "--nn-hidden", "4", "--nn-iterations", "2"]


@pytest.mark.parametrize("argv, setting", [
    (["sinogram", *SMALL, "--delta", "nan"], "delta"),
    (["sinogram", *SMALL, "--det-halfwidth", "inf"], "det_halfwidth"),
    (["tikhonov", *SMALL, "--delta", "nan"], "delta"),
    (["tikhonov", *SMALL, "--alpha", "nan"], "alpha"),
    (["nn-reconstruct", *SMALL, "--hidden", "4", "--iterations", "2",
      "--weight-bound", "nan"], "weight_bound"),
    (["nn-reconstruct", *SMALL, "--hidden", "4", "--iterations", "2",
      "--learning-rate", "-1"], "learning_rate"),
    (["sweep", *SMALL_SWEEP, "--alpha-span-decades", "inf"], "alpha_span_decades"),
    (["sweep", *NN_SWEEP, "--nn-learning-rate", "-0.01"], "nn_learning_rate"),
    (["sweep", *NN_SWEEP, "--nn-learning-rate", "nan"], "nn_learning_rate"),
    (["sweep", *NN_SWEEP, "--nn-weight-bound", "nan"], "nn_weight_bound"),
    (["sweep", *NN_SWEEP, "--nn-iterations", "0"], "nn_iterations"),
    # the setting's help text calls it "hidden widths", as the message does
    (["sweep", *NN_SWEEP, "--nn-hidden", "0"], "hidden widths"),
    (["oracle-linear", "--delta-min", "-1"], "delta_min"),
    (["oracle-linear", "--delta-max", "nan"], "delta_max"),
    (["sweep", *SMALL_SWEEP, "--cg-max-iter", "0"], "cg_max_iter"),
    (["sweep", *SMALL_SWEEP, "--cg-max-iter", "-1"], "cg_max_iter"),
    (["sweep", *SMALL_SWEEP, "--realizations", "0"], "realizations"),
    (["tikhonov", *SMALL, "--max-iter", "0"], "max_iter"),
    (["tikhonov", *SMALL, "--max-iter", "-5"], "max_iter"),
    (["sinogram", "--n", "8", "--angles", "0"], "n_angles"),
    (["sinogram", *SMALL, "--delta", "0.05", "--seed", "-1"], "seed"),
    (["nn-reconstruct", *SMALL, "--hidden", "4", "--iterations", "2", "--seed", "-1"], "seed"),
    (["oracle-linear", "--n-deltas", "1"], "n_deltas"),
    (["sweep", *SMALL_SWEEP, "--n-deltas", "1"], "n_deltas"),
    # alpha = 10^(log10(delta) -/+ span): 0 at the low end for 400, inf at the high end for 320
    (["sweep", *SMALL_SWEEP, "--alpha-span-decades", "400"], "alpha_span_decades"),
    (["sweep", *SMALL_SWEEP, "--alpha-span-decades", "320"], "alpha_span_decades"),
    # a value that does not parse names its setting too, and an empty width
    # field is refused rather than dropped
    (["sweep", *SMALL_SWEEP, "--angles", "abc"], "angles"),
    (["nn-reconstruct", *SMALL, "--iterations", "2", "--hidden", "6,,6"], "hidden"),
    (["sweep", *NN_SWEEP, "--nn-hidden", "4,"], "nn_hidden"),
])
def test_out_of_range_setting_exits_1_before_writing(tmp_path, capsys, argv, setting):
    # each output goes to tmp_path/out, so an empty tmp_path means nothing was written
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting in err, err
    assert os.listdir(tmp_path) == []


NN_SHORT = SMALL + ["--hidden", "4", "--iterations", "2"]


@pytest.mark.parametrize("argv", [
    ["phantom", "--n", "8", "--out", ""],
    ["sinogram", *SMALL, "--out", ""],
    ["tikhonov", *SMALL, "--out", ""],
    ["nn-reconstruct", *NN_SHORT, "--out", ""],
    ["nn-reconstruct", *NN_SHORT, "--trace", ""],
    ["nn-reconstruct", *NN_SHORT, "--checkpoint", ""],
    ["sweep", *SMALL_SWEEP, "--out", ""],
    ["oracle-linear", "--out", ""],
    ["rate-fit", "--table", "TABLE", "--out", ""],
    ["rate-fit", "--table", ""],
    ["plot", "--table", "TABLE", "--out", ""],
    ["plot", "--table", ""],
])
def test_empty_path_setting_exits_1_before_any_work(tmp_path, monkeypatch, capsys, argv):
    table = tmp_path / "aggregate.csv"
    table.write_text("delta,mean_error,std_error,method\n0.1,1.0,0.0,t\n0.01,0.5,0.0,t\n")
    # default outputs land in the working directory, so an empty one means nothing was written
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    key = argv[argv.index("") - 1].removeprefix("--")
    assert run_cli(*(str(table) if a == "TABLE" else a for a in argv)) == 1
    assert capsys.readouterr() == ("", f"error: {key} must not be empty\n")
    assert os.listdir(work) == []


@pytest.mark.parametrize("command", [c for c, schema in SCHEMAS.items() if "n" in schema])
def test_grid_size_below_one_is_named_n(tmp_path, capsys, command):
    assert run_cli(command, "--n", "0", "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: n must be positive and finite, got 0\n"
    assert os.listdir(tmp_path) == []


def test_sweep_config_fields_are_the_sweep_keys():
    schema = SCHEMAS["sweep"]
    fields = {f.name: f.default for f in dataclasses.fields(experiment.SweepConfig)}
    assert set(fields) == {"deltas"} | set(schema) - {"snr_min_db", "snr_max_db", "n_deltas", "out"}
    for key, default in fields.items():
        if key != "deltas":
            assert (type(schema[key][1]), schema[key][1]) == (type(default), default), key


def test_config_round_trip(tmp_path):
    for subcommand, schema in SCHEMAS.items():
        cfg = {key: default for key, (_, default, _) in schema.items()}
        text = serialize_config(subcommand, cfg)
        path = tmp_path / f"{subcommand}.ini"
        path.write_text(text)
        parsed = parse_config_file(path, subcommand)
        materialized = {key: parsed.get(key, default) for key, (_, default, _) in schema.items()}
        assert materialized == cfg
        assert serialize_config(subcommand, materialized) == text


def test_optional_values_parse_none_in_any_case(tmp_path):
    path = tmp_path / "opt.ini"
    path.write_text("[nn-reconstruct]\nweight_bound = None\ntrace = NONE\n"
                    "[sweep]\nnn_weight_bound = none\n")
    assert parse_config_file(path, "nn-reconstruct") == {"weight_bound": None, "trace": None}
    assert parse_config_file(path, "sweep") == {"nn_weight_bound": None}
    path.write_text("[nn-reconstruct]\nweight_bound = 0.25\ntrace = t.txt\n"
                    "[sweep]\nnn_weight_bound = 0.5\n")
    assert parse_config_file(path, "nn-reconstruct") == {"weight_bound": 0.25, "trace": "t.txt"}
    assert parse_config_file(path, "sweep") == {"nn_weight_bound": 0.5}


def test_unknown_key_is_hard_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[phantom]\nn = 16\nmystery = 3\n")
    assert run_cli("phantom", "--config", str(path)) == 1
    assert "unknown key" in capsys.readouterr().err


def test_sweep_manifest_with_an_n_bins_line_exits_1_naming_the_key(tmp_path, capsys):
    # the bin count is ceil(n * det_halfwidth), not a setting
    manifest = (REFERENCE_DIR / "tikhonov" / "manifest.ini").read_text()
    path = tmp_path / "manifest.ini"
    path.write_text(manifest.replace("snr_min_db", "n_bins = none\nsnr_min_db"))
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {path}:6: unknown key 'n_bins' in [sweep]\n"
    assert run_cli("sweep", "--n-bins", "7", "--out", str(out)) == 1
    assert "--n-bins" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_key_is_hard_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[phantom]\nn = 8\n[sweep]\nn = 4\n\n[phantom]\nn = 16\n")
    out = tmp_path / "p.pgm"
    assert run_cli("phantom", "--config", str(path), "--out", str(out)) == 1
    assert f"{path}:7: key 'n' repeats line 2" in capsys.readouterr().err
    assert not out.exists()


def test_empty_width_field_in_config_names_path_line_and_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[nn-reconstruct]\nn = 8\nangles = 4\niterations = 2\nhidden = 6,,6\n")
    out = tmp_path / "x.imgf"
    assert run_cli("nn-reconstruct", "--config", str(path), "--out", str(out)) == 1
    assert f"{path}:5: bad value for 'hidden': invalid literal" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_section_is_hard_error(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[nonsense]\nn = 16\n")
    assert run_cli("phantom", "--config", str(path)) == 1


def test_other_subcommand_section_ignored(tmp_path):
    path = tmp_path / "multi.ini"
    path.write_text("[phantom]\nn = 8\n[sweep]\nn = 32\n")
    out = tmp_path / "p.pgm"
    assert run_cli("phantom", "--config", str(path), "--out", str(out)) == 0
    assert b"P5\n8 8\n" in out.read_bytes()


def test_flags_override_config(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[phantom]\nn = 8\n")
    out = tmp_path / "p.pgm"
    assert run_cli("phantom", "--config", str(path), "--n", "4", "--out", str(out)) == 0
    assert b"P5\n4 4\n" in out.read_bytes()


def test_invalid_flag_value_exit_1(capsys):
    assert run_cli("phantom", "--n", "zero") == 1


def test_invalid_subcommand_exit_1():
    assert run_cli("no-such-command") == 1


def test_missing_table_exit_1(tmp_path):
    assert run_cli("rate-fit", "--table", str(tmp_path / "missing.csv")) == 1


@pytest.mark.parametrize("argv, out_is_a_directory", [
    (["phantom", "--n", "4"], True),  # IsADirectoryError
    (["sweep", "--n", "8", "--angles", "4", "--n-deltas", "2", "--realizations", "1",
      "--n-alphas", "1"], False),  # FileExistsError
])
def test_os_error_exit_1(tmp_path, capsys, argv, out_is_a_directory):
    out = tmp_path / "out"
    if out_is_a_directory:
        out.mkdir()
    else:
        out.write_text("")
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and str(out) in err, err


@pytest.mark.filterwarnings("ignore:overflow")
def test_numerical_failure_exit_2(tmp_path):
    # an absurd learning rate overflows the objective within a few steps
    code = run_cli(
        "nn-reconstruct", "--n", "8", "--angles", "4", "--alpha", "0.05",
        "--hidden", "6", "--iterations", "60", "--learning-rate", "1e140",
        "--out", str(tmp_path / "x.imgf"),
    )
    assert code == 2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sweep_rejects_thread_counts_below_one(tmp_path, capsys, threads):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--n", "8", "--angles", "4", "--n-deltas", "2", "--realizations", "1",
                   "--n-alphas", "2", "--out", str(out), "--threads", threads) == 1
    err = capsys.readouterr().err
    assert "--threads" in err
    assert f"got {threads}" in err
    assert not out.exists()


def test_threads_only_on_sweep(tmp_path, capsys):
    out = tmp_path / "p.pgm"
    assert run_cli("phantom", "--n", "4", "--threads", "2", "--out", str(out)) == 1
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()
