import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "solves_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def run(pair, side, wall_s, solves_per_s, failed=0):
    metrics = {"wall_s": {"value": wall_s}, "solves_per_s": {"value": solves_per_s}}
    return {"pair": pair, "side": side,
            "result": {"failed": failed, "attempted": 3, "correct": True, "metrics": metrics}}


def test_summarize_counts_ties_for_neither_side_and_ignores_incomplete_pairs():
    runs = [
        run(0, "parent", 2.0, 1.0), run(0, "change", 1.0, 1.0),  # lower wall wins; rate tie
        run(1, "change", 2.0, 3.0), run(1, "parent", 2.0, 2.0),  # wall tie; higher rate wins
        run(2, "parent", 3.0, 0.5), run(2, "change", 4.0, 0.4, failed=1),  # change loses both
        run(3, "parent", 0.1, 99.0),  # incomplete: the change never ran
    ]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["pairs"] == 3
    assert summary["failed"] == {"parent": "0/9", "change": "1/9"}
    wall, rate = summary["metrics"]["wall_s"], summary["metrics"]["solves_per_s"]
    assert wall["change_better_pairs"] == 1
    assert rate["change_better_pairs"] == 1
    assert wall["parent"]["median"] == 2.0 and wall["change"]["median"] == 2.0
    assert rate["parent"] == {"median": 1.0, "q1": 0.75, "q3": 1.5}
    assert rate["change_over_parent"] == 1.0


# per pair (parent, change) of one metric; the other metric holds 1.0 on both sides.
# Both bounds are 0.25.
@pytest.mark.parametrize("name, parent, change, verdict", [
    # 10 of 10 pairs won, medians 0.2 apart against a parent IQR of 0.045
    ("solves_per_s", [1.0 + 0.01 * k for k in range(10)],
     [1.2 + 0.01 * k for k in range(10)], "gain"),
    # the same with 5 pairs: too few to claim a gain
    ("solves_per_s", [1.0 + 0.01 * k for k in range(5)],
     [1.2 + 0.01 * k for k in range(5)], "within bound"),
    # a +16% median (2.45 -> 2.85) that wins only 8 of 10 pairs is no gain, and no loss
    ("solves_per_s", [2.0 + 0.1 * k for k in range(10)],
     [2.6 + 0.1 * k for k in range(8)] + [1.9, 2.0], "within bound"),
    ("solves_per_s", [1.0] * 10, [0.7] * 10, "worse"),
    ("wall_s", [1.0] * 10, [1.3] * 10, "worse"),
    # parent IQR 1.0 against a median of 1.0: a 0.25 bound cannot be resolved
    ("solves_per_s", [0.5, 1.5] * 5, [1.0] * 10, "unresolved"),
    # ... unless every change run beats every parent run
    ("solves_per_s", [0.5, 1.5] * 5, [1.6] * 10, "within bound"),
    ("wall_s", [0.95, 1.05] * 5, [1.0] * 10, "within bound"),
    # tight parent runs; the change's quartiles span 0.4 around a median of 1.0
    ("solves_per_s", [1.0] * 10, [0.6, 0.8, 1.0, 1.2, 1.4] * 2, "unresolved"),
])
def test_summarize_gives_each_metric_a_verdict(name, parent, change, verdict):
    def values(v):
        return (v, 1.0) if name == "wall_s" else (1.0, v)

    runs = [r for pair, (a, b) in enumerate(zip(parent, change))
            for r in (run(pair, "parent", *values(a)), run(pair, "change", *values(b)))]
    metrics = bench_pairs.summarize(runs, END_TO_END)["metrics"]
    assert metrics[name]["verdict"] == verdict
    other = "solves_per_s" if name == "wall_s" else "wall_s"
    assert metrics[other]["verdict"] == "within bound"


def make_checkout(root, run_py, source=None):
    """A checkout with ``perfbench/`` and a one-file ``src/`` (by default naming the checkout)."""
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text(source or f"# {root.name}\n")
    (root / "perfbench" / "run.py").write_text(run_py)
    (root / "perfbench" / "layers.py").write_text("SITES = {}\n")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END,
                                                     "run_seconds": 1}))
    return root


def bench_args(parent, change, out):
    return ["--parent", str(parent), "--change", str(change), "--workload", "w",
            "--pairs", "1", "--out", str(out)]


def test_mismatched_perfbench_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("perfbench started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    parent = make_checkout(tmp_path / "parent", "print('a')\n")
    change = make_checkout(tmp_path / "change", "print('b')\n")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(bench_args(parent, change, out)) == 1
    assert "perfbench/run.py differs" in capsys.readouterr().err
    assert not out.exists()

    (change / "perfbench" / "run.py").write_text("print('a')\n")
    (change / "perfbench" / "extra.py").write_text("")
    assert bench_pairs.main(bench_args(parent, change, out)) == 1
    assert "perfbench/extra.py differs" in capsys.readouterr().err


def test_matching_perfbench_ignores_pycache(tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seconds):
        calls.append(checkout)
        return {"seed": 42}, run(0, "parent", 1.0, 1.0)["result"]

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    parent = make_checkout(tmp_path / "parent", "print('a')\n")
    change = make_checkout(tmp_path / "change", "print('a')\n")
    (change / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"\0")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(bench_args(parent, change, out)) == 0
    assert calls == [str(parent), str(change)]
    assert json.loads(out.read_text())["workloads"]["w"]["summary"]["pairs"] == 1


# a clone holds a .git directory, a linked work tree a .git file. The name is kept from
# when a mismatch ran with a warning; it is now refused before any run
@pytest.mark.parametrize("parent_git, change_git", [
    (None, None), ("dir", None), (None, "file"), ("dir", "file"),
])
def test_checkout_kinds_are_recorded_and_a_mismatch_warns(tmp_path, monkeypatch, capsys,
                                                          parent_git, change_git):
    calls = []

    def fake_run(checkout, *args):
        calls.append(checkout)
        return {}, run(0, "parent", 1.0, 1.0)["result"]

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    parent = make_checkout(tmp_path / "parent", "print('a')\n")
    change = make_checkout(tmp_path / "change", "print('a')\n")
    if parent_git:
        (parent / ".git").mkdir()
    if change_git:
        (change / ".git").write_text("gitdir: elsewhere\n")
    out = tmp_path / "BENCH.json"
    kind = {None: "plain copy", "dir": "git work tree", "file": "git work tree"}
    if kind[parent_git] != kind[change_git]:
        assert bench_pairs.main(bench_args(parent, change, out)) == 1
        assert capsys.readouterr().err == (
            f"error: the parent is a {kind[parent_git]} and the change a {kind[change_git]}; "
            "make both checkouts the same way\n")
        assert calls == [] and not out.exists()
        return
    assert bench_pairs.main(bench_args(parent, change, out)) == 0
    assert json.loads(out.read_text())["workloads"]["w"]["checkout_kinds"] == {
        "parent": kind[parent_git], "change": kind[change_git]}
    assert "warning:" not in capsys.readouterr().err
    assert calls == [str(parent), str(change)]


def test_source_hash_covers_paths_and_bytes_but_not_pycache(tmp_path):
    a = make_checkout(tmp_path / "a", "print('a')\n", source="x = 1\n")
    b = make_checkout(tmp_path / "b", "print('a')\n", source="x = 1\n")
    assert bench_pairs.source_hash(a) == bench_pairs.source_hash(b)
    (b / "src" / "pkg" / "__pycache__").mkdir()
    (b / "src" / "pkg" / "__pycache__" / "__init__.cpython.pyc").write_bytes(b"\0")
    assert bench_pairs.source_hash(a) == bench_pairs.source_hash(b)
    (b / "src" / "pkg" / "__init__.py").write_text("x = 2\n")
    assert bench_pairs.source_hash(a) != bench_pairs.source_hash(b)
    (b / "src" / "pkg" / "__init__.py").rename(b / "src" / "pkg" / "other.py")
    (b / "src" / "pkg" / "other.py").write_text("x = 1\n")
    assert bench_pairs.source_hash(a) != bench_pairs.source_hash(b)


@pytest.mark.parametrize("same", [True, False])
def test_sources_are_recorded_and_equal_sources_warn(tmp_path, monkeypatch, capsys, same):
    # an uncommitted change records its parent's commit, so only the
    # source hashes tell the two sides apart
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda *args: ({"commit": "abc"}, run(0, "parent", 1.0, 1.0)["result"]))
    parent = make_checkout(tmp_path / "parent", "print('a')\n", source="x = 1\n")
    change = make_checkout(tmp_path / "change", "print('a')\n",
                           source="x = 1\n" if same else "x = 2\n")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(bench_args(parent, change, out)) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["commits"] == {"parent": "abc", "change": "abc"}
    assert entry["sources"] == {"parent": bench_pairs.source_hash(parent),
                                "change": bench_pairs.source_hash(change)}
    assert (entry["sources"]["parent"] == entry["sources"]["change"]) == same
    assert ("same src/" in capsys.readouterr().err) == same
