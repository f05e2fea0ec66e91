"""Checks of every committed sweep under ``reference_runs/``, each found by its ``manifest.ini``.

Every run's manifest must reserialize byte for byte; its ``results.csv`` must
hold its cells in order, with the deltas, seeds, alphas and SNR of the
``cli.sweep_config`` of its manifest; and its tables must be the ones that
``experiment.sweep_tables`` writes for what ``experiment.summarize`` makes of
the records in its ``results.csv``. A run whose cost is at most
``RERUN_BUDGET`` also reruns byte for byte in each variant of its method. A
new study adds only its directory.
"""

import itertools
import shutil
from pathlib import Path

import numpy as np
import pytest

from compact_tik import experiment
from compact_tik.cli import main, parse_config_file, serialize_config, sweep_config

REFERENCE_RUNS = Path(__file__).resolve().parent.parent / "reference_runs"
RUNS = sorted(path.parent for path in REFERENCE_RUNS.glob("**/manifest.ini"))

# the largest cost of a run that the suite reruns, where a run costs its deltas x
# realizations x alphas, times nn_iterations for a network run: the ct32 Tikhonov
# reference costs 108, each nn_short run 360 and the NN reference 540,000
RERUN_BUDGET = 1000

# per method, each rerun's (workers, value of the BLAS thread variables in this
# process, None for unset). Network cells always run in spawn workers of one BLAS
# thread each, so their tables depend on neither
VARIANTS = {
    "tikhonov": [(1, None), (2, None)],
    "nn": [(1, None), (2, None), (1, "1"), (2, "1")],
}


def run_id(run):
    return run.relative_to(REFERENCE_RUNS).as_posix()


def settings(run):
    """The run's [sweep] settings, every one of which its manifest holds (it reserializes)."""
    return parse_config_file(run / "manifest.ini", "sweep")


def tables(directory):
    """{file name: bytes} of every CSV table in ``directory``."""
    return {path.name: path.read_bytes() for path in directory.glob("*.csv")}


def cost(cfg):
    steps = cfg["nn_iterations"] if cfg["method"] == "nn" else 1
    return cfg["n_deltas"] * cfg["realizations"] * cfg["n_alphas"] * steps


def parsed_records(run):
    """The ExperimentRecords of ``results.csv``, one per run of rows of one delta and seed."""
    _, rows = experiment.read_csv(run / "results.csv")
    records = []
    for (delta, seed), cell in itertools.groupby((fields for _, fields in rows), lambda f: f[:2]):
        cell = list(cell)
        alphas, errors = np.array([[float(f[2]), float(f[3])] for f in cell]).T
        records.append(experiment.ExperimentRecord(float(delta), int(seed), alphas, errors,
                                                   float(cell[0][4])))
    return records


def test_every_run_with_tables_is_found():
    tables = {path.parent for path in REFERENCE_RUNS.glob("**/*.csv")}
    assert RUNS and tables == set(RUNS)


@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_manifest_reserializes_byte_for_byte(run):
    path = run / "manifest.ini"
    assert serialize_config("sweep", parse_config_file(path, "sweep")) == path.read_text()


@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_results_rows_are_the_manifest_cells_in_order(run):
    sweep = sweep_config(settings(run))
    clean = experiment.scene(sweep.n, sweep.angles, sweep.det_halfwidth).clean
    cells = itertools.product(enumerate(sweep.deltas), range(sweep.realizations))
    want = [(delta, experiment.substream_seed(sweep.seed, i, r), sweep.alpha_grid(delta).tolist(),
             float(experiment.snr_db(clean, delta))) for (i, delta), r in cells]
    records = parsed_records(run)
    assert [(rec.delta, rec.seed, rec.alphas.tolist(), rec.snr_db) for rec in records] == want


@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_aggregate_and_fits_follow_from_results(run):
    # every table, results.csv too, is what a sweep writes for the run's records,
    # with the manifest's method
    cfg = settings(run)
    result = experiment.summarize(sweep_config(cfg).deltas, parsed_records(run))
    written = experiment.sweep_tables(result, cfg["method"])
    assert {name: text.encode() for name, text in written.items()} == tables(run)


# the checks above, which read a run's files and rerun nothing
CHECKS = (test_manifest_reserializes_byte_for_byte,
          test_results_rows_are_the_manifest_cells_in_order,
          test_aggregate_and_fits_follow_from_results)

RERUNS = [pytest.param(run, threads, blas, id=f"{run_id(run)}-threads-{threads}"
                       + (f"-blas-{blas}" if blas else ""))
          for run in RUNS for cfg in [settings(run)] if cost(cfg) <= RERUN_BUDGET
          for threads, blas in VARIANTS[cfg["method"]]]


@pytest.mark.parametrize("run, threads, blas", RERUNS)
def test_rerun_writes_the_committed_tables_byte_for_byte(run, threads, blas, tmp_path,
                                                         monkeypatch):
    for name in experiment.BLAS_THREAD_VARIABLES:
        if blas is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, blas)
    assert main(["sweep", "--config", str(run / "manifest.ini"), "--out", str(tmp_path),
                 "--threads", str(threads)]) == 0
    assert tables(tmp_path) == tables(run)


def change_a_digit_of_a_mean(run):
    path = run / "aggregate.csv"
    header, row, rest = path.read_text().split("\n", 2)
    delta, mean, *others = row.split(",")
    mean = mean[:-1] + str((int(mean[-1]) + 1) % 10)
    path.write_text("\n".join([header, ",".join([delta, mean, *others]), rest]))


def change_one_seed(run):
    path = run / "results.csv"
    lines = path.read_text().split("\n")
    fields = lines[2].split(",")
    fields[1] = str(int(fields[1]) + 1)
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines))


def drop_one_row(run):
    path = run / "results.csv"
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:3] + lines[4:]))


def add_a_sweep_key(run):
    with open(run / "manifest.ini", "a") as f:
        f.write("threads = 2\n")


def add_a_key_of_another_command(run):
    # parsing a sweep's settings ignores this section; writing them back does not
    with open(run / "manifest.ini", "a") as f:
        f.write("[tikhonov]\nalpha = 0.5\n")


@pytest.fixture
def tikhonov_copy(tmp_path):
    run = tmp_path / "tikhonov"
    shutil.copytree(REFERENCE_RUNS / "ct32" / "tikhonov", run)
    return run


def test_checks_pass_an_unchanged_copy(tikhonov_copy):
    for check in CHECKS:
        check(tikhonov_copy)


@pytest.mark.parametrize("change, check", [
    pytest.param(change, check, id=change.__name__) for change, check in [
        (change_a_digit_of_a_mean, test_aggregate_and_fits_follow_from_results),
        (change_one_seed, test_results_rows_are_the_manifest_cells_in_order),
        (drop_one_row, test_results_rows_are_the_manifest_cells_in_order),
        (add_a_sweep_key, test_manifest_reserializes_byte_for_byte),
        (add_a_key_of_another_command, test_manifest_reserializes_byte_for_byte),
    ]])
def test_a_changed_copy_fails_its_check(tikhonov_copy, change, check):
    change(tikhonov_copy)
    with pytest.raises((AssertionError, ValueError)):
        check(tikhonov_copy)
