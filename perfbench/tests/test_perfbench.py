"""Tests of the benchmark's own logic: self time, the gate and seed mapping.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from vsl.linalg import PINNED_PRIMES  # noqa: E402


def span(sid, name, start, end, parent=None, run="r", info=None):
    return [sid, name, start, end, parent, run, info or {}]


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_children_once():
    tree = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "betti.Engine.kpq_dim", 1.0, 6.0, parent=0),
        span(2, "linalg.sparse_rank", 2.0, 4.0, parent=1),
        span(3, "linalg.sparse_rank", 4.5, 5.0, parent=1),
        span(4, "syzygy.ev_D", 7.0, 9.0, parent=0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 3.0, 1: 2.5, 2: 2.0, 3: 0.5, 4: 2.0})


def test_self_time_counts_overlapping_children_as_their_union():
    tree = [
        span(0, "a", 0.0, 10.0),
        span(1, "b", 1.0, 5.0, parent=0),
        span(2, "c", 3.0, 7.0, parent=0),
        span(3, "d", 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_separate_runs_and_aggregate_by_name():
    key = repr((2, 3, 0, 1, 1, (3, 3, 0)))
    tree = [
        span(0, "cli.main", 0.0, 4.0, run="a"),
        span(1, "linalg.rational_rank", 1.0, 3.0, parent=0, run="a",
             info={"key": key, "nrows": 3, "ncols": 4}),
        span(0, "cli.main", 10.0, 12.0, run="b"),
        span(1, "linalg.rational_rank", 10.5, 11.5, parent=0, run="b",
             info={"key": key, "nrows": 3, "ncols": 4}),
    ]
    m = spans.layer_metrics(tree, {"rational_certified": 2}, 0)
    assert m["linalg.rational_rank.calls"][0] == 2
    assert m["linalg.rational_rank.self_s"][0] == pytest.approx(3.0)
    assert m["linalg.rational_rank.distinct_share"][0] == 0.5
    assert m["cli.main.self_s"][0] == pytest.approx(3.0)
    assert m["betti.rational_certified"][0] == 2


def test_recorder_links_parents_and_notes_blocks():
    rec = spans.Recorder("r")

    class Block:
        key = (2, 3, 0, 1, 1, (3, 3, 0))
        nrows, ncols = 2, 5

    inner = rec.wrap("linalg.sparse_rank", lambda block: 1)
    outer = rec.wrap("betti.Engine.kpq_dim", lambda: inner(Block()) + inner(Block()))
    assert outer() == 2
    names = [(s[1], s[4]) for s in rec.spans]
    assert names == [
        ("betti.Engine.kpq_dim", None),
        ("linalg.sparse_rank", 0),
        ("linalg.sparse_rank", 0),
    ]
    assert rec.spans[1][6] == {"key": repr(Block.key), "nrows": 2, "ncols": 5}
    assert spans.certify_counts(rec.spans, cap=4) == (0, 0)
    assert spans.certify_counts(rec.spans, cap=5) == (1, 0)


# -- correctness gate ---------------------------------------------------------


def pool_report(row=workloads.POOL_ROW):
    return {
        "entries": [
            {"p": p, "q": 1, "dim": dim, "status": "NONZERO" if dim else "ZERO"}
            for p, dim in enumerate(row)
        ]
    }


def pass_ratio(oks):
    return oks.count(True) / len(oks)


def test_gate_passes_the_pinned_row():
    (cmd,) = workloads.WORKLOADS["strand-pool"].commands(seed=0)
    assert workloads.grade(cmd, 0, pool_report()) == [True] * 16


def test_gate_fails_an_injected_wrong_dimension():
    (cmd,) = workloads.WORKLOADS["strand-pool"].commands(seed=0)
    row = list(workloads.POOL_ROW)
    row[5] += 1
    oks = workloads.grade(cmd, 0, pool_report(row))
    assert oks.count(False) == 1 and not oks[5]
    assert pass_ratio(oks) == 15 / 16


def test_gate_fails_when_a_pinned_value_is_altered(monkeypatch):
    altered = list(workloads.POOL_ROW)
    altered[1] = 76
    monkeypatch.setattr(workloads, "POOL_ROW", tuple(altered))
    (cmd,) = workloads.WORKLOADS["strand-pool"].commands(seed=0)
    oks = workloads.grade(cmd, 0, pool_report())  # the program's real row
    assert oks.count(False) == 1 and not oks[1]


def test_gate_fails_skipped_entries_and_nonzero_exits():
    (cmd,) = workloads.WORKLOADS["strand-cold"].commands(seed=0, cache_dir="c")
    report = {"entries": [{"p": p, "q": 1, "dim": 0, "status": "ZERO"} for p in range(16, 22)]}
    assert workloads.grade(cmd, 0, report) == [True] * 6
    report["entries"][2] = {"p": 18, "q": 1, "dim": None, "status": "SKIPPED"}
    assert workloads.grade(cmd, 0, report).count(False) == 1
    assert workloads.grade(cmd, 1, report) == [False] * 6
    assert workloads.grade(cmd, 0, None) == [False] * 6


def test_gate_on_claims_reports():
    cmds = {c.name: c for c in workloads.WORKLOADS["claims"].commands(seed=4)}
    verify = {
        "rows": [
            {"p": p, "q": q, "dim": dim, "verdict": "CONSISTENT"}
            for q, dims in workloads.CUBIC_ROWS.items()
            for p, dim in enumerate(dims)
        ]
    }
    assert all(workloads.grade(cmds["verify"], 0, verify))
    verify["rows"][3]["verdict"] = "VIOLATION"
    assert workloads.grade(cmds["verify"], 0, verify).count(False) == 1
    ev = {"p": 5, "source_dim": 105, "target_dim": 27, "induced_rank": 5}
    assert workloads.grade(cmds["maps-ev-5"], 0, ev) == [True]
    assert workloads.grade(cmds["maps-ev-6"], 0, ev) == [False]
    chain = {
        "rows": [
            {"p": p, "first": a, "second": b, "verdict": "CONSISTENT"}
            for p, (a, b) in enumerate(workloads.CHAIN_ROWS)
        ]
    }
    assert all(workloads.grade(cmds["maps-chain"], 0, chain))
    chain["rows"][5]["second"] = 0
    assert workloads.grade(cmds["maps-chain"], 0, chain).count(False) == 1


# -- seed to prime ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 9, 10, 23, 1234567])
def test_seed_picks_the_pinned_prime_and_point_seed(seed):
    prime = PINNED_PRIMES[seed % 10]
    assert workloads.prime_for_seed(seed) == prime
    for wl in workloads.WORKLOADS.values():
        for cmd in wl.commands(seed, cache_dir="c"):
            argv = list(cmd.argv)
            assert argv[argv.index("--prime") + 1] == str(prime)
            if cmd.name.startswith("maps-ev"):
                assert argv[argv.index("--seed") + 1] == str(seed)


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
