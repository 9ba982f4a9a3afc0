"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_main(argv):
    """Run the benchmark in this process; (exit code, result line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    corpus = os.path.join(ROOT, "data")

    def dump(seed):
        docs, items = workloads.build(workload, seed, corpus)
        return (json.dumps(docs, sort_keys=True),
                [(i.id, i.expect, i.prime) for i in items])

    assert dump(7) == dump(7)
    assert dump(7)[0] != dump(8)[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_has_enough_items_for_p90(workload):
    _, items = workloads.build(workload, 1, os.path.join(ROOT, "data"))
    assert len(items) >= 100


def test_metric_names_match_benchmark_json():
    bench = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _tamper(kind, edit):
    """run_item that rewrites the first output of items of one kind."""
    real = workloads.run_item

    def tampered(cli, item, workdir, timer=workloads.wall_timer):
        outcome = real(cli, item, workdir, timer)
        if item.kind == kind:
            doc = json.loads(outcome.texts[0])
            edit(doc)
            outcome.texts[0] = json.dumps(doc)
        return outcome
    return tampered


def test_flipped_conclusion_counts_as_failed(monkeypatch):
    def flip(doc):
        doc["conclusion"] = "Inconclusive"

    monkeypatch.setattr(workloads, "run_item", _tamper("certify", flip))
    code, result = _run_main(["--workload", "certify-irreducible", "--seed",
                              "1", "--seconds", "1", "--limit", "3"])
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_non_invariant_witness_counts_as_failed(monkeypatch):
    def replace_witness(doc):
        # the line through the last basis vector: not invariant under the
        # disguised block-triangular generators
        if doc.get("witness"):
            d = len(doc["witness"][0])
            doc["witness"] = [["0"] * (d - 1) + ["1"]]

    items = workloads.build("meataxe-fp", 1, os.path.join(ROOT, "data"))[1]
    first_block = next(i for i, it in enumerate(items) if "-block-" in it.id)
    monkeypatch.setattr(workloads, "run_item",
                        _tamper("meataxe", replace_witness))
    code, result = _run_main(["--workload", "meataxe-fp", "--seed", "1",
                              "--seconds", "1",
                              "--limit", str(first_block + 1)])
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_unexpected_error_counts_as_wrong(monkeypatch):
    real = workloads.run_item

    def exit_1(cli, item, workdir, timer=workloads.wall_timer):
        outcome = real(cli, item, workdir, timer)
        if item.id.endswith("-s3_scaled"):
            # certify refused with a typed error, so verify never ran
            outcome.codes = [1]
            outcome.texts = [""]
            outcome.errors = ['{"detail": "planted", "error": "ValueError"}']
            outcome.verify_s = None
        return outcome

    monkeypatch.setattr(workloads, "run_item", exit_1)
    code, result = _run_main(["--workload", "certify-irreducible", "--seed",
                              "1", "--seconds", "1", "--limit", "3"])
    assert code == 0
    assert result["correct"] is False
    # one item of the three fails, in every pass
    assert result["failed"] * 3 == result["attempted"]


@pytest.mark.parametrize("error, first_word", [("SizeBound", "known"),
                                               ("BudgetExceeded", "wrong"),
                                               ("ValueError", "wrong")])
def test_only_the_known_error_is_excused(error, first_word):
    item = workloads.Item("000-S4-p3", "obstruction", "report", prime=3,
                          group_order=24, fails="SizeBound")
    outcome = workloads.Outcome()
    outcome.codes = [0, 1]
    outcome.texts = ['{"dim": 3}', ""]
    outcome.errors = ["", json.dumps({"error": error, "detail": "x"})]
    reason = workloads.check(item, outcome, workdir=None)
    assert reason.split(":")[0] == first_word


def test_size_bound_items_count_as_failed_but_not_wrong():
    items = workloads.build("obstruction", 1, os.path.join(ROOT, "data"))[1]
    last_s4 = max(i for i, it in enumerate(items) if "-S4-" in it.id)
    code, result = _run_main(["--workload", "obstruction", "--seed", "1",
                              "--seconds", "1", "--limit", str(last_s4 + 1)])
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    bench = _benchmark_json()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--limit", "4"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True
        assert sorted(result["metrics"]) == sorted(m["name"]
                                                   for m in bench[key])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meataxe-fp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
