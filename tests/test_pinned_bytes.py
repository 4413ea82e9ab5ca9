"""Pinned output and cache bytes of the CLI on the (2,3) tables and the
(2,4) linear strand, plus the maps report of the line quartic (1,4).

Each case runs `vsl.cli.main` in-process at the first pinned prime, with
its own empty cache directory, and compares the report (and, where listed,
the `blocks.jsonl` it wrote) byte for byte with the files in
`tests/golden/`.  A change that keeps these bytes keeps the tables, the
reports and the cache format.

To rewrite the goldens from the current code (only when a change of output
is intended and reviewed):

    PYTHONPATH=src python tests/test_pinned_bytes.py
"""

from __future__ import annotations

import os
import sys
import tempfile

import pytest

from vsl.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

TABLE = ["--n", "2", "--d", "3"]

# name: (argv, expected exit status, whether blocks.jsonl is pinned too)
CASES = {
    "betti_2_3_json": (["betti", *TABLE, "--format", "json"], 0, True),
    # the only case with blocks of ROUNDS_MIN_NNZ entries or more, which
    # `sparse_rank` ranks in rounds: (2,3) blocks are all smaller
    "betti_2_4_q1_json": (
        ["betti", "--n", "2", "--d", "4", "--q-min", "1", "--q-max", "1", "--format", "json"],
        0,
        True,
    ),
    "betti_2_3_cols20_ascii": (["betti", *TABLE, "--max-block-cols", "20"], 0, False),
    "betti_2_3_cols20_csv": (
        ["betti", *TABLE, "--max-block-cols", "20", "--format", "csv"], 0, False
    ),
    "verify_2_3_certify_json": (
        ["verify", *TABLE, "--strands", "1,2", "--certify", "--format", "json"], 0, True
    ),
    "verify_2_3_cols20_text": (
        ["verify", *TABLE, "--max-block-cols", "20", "--format", "text"], 1, False
    ),
    "maps_chain_2_3": (["maps", "chain", *TABLE, "--p-min", "0", "--p-max", "10"], 0, False),
    # image_support and factors per class, which the benchmark does not check;
    # p=4 has the largest (2,3) cycle basis (189 classes)
    "maps_ev_2_3_p4": (["maps", "ev", *TABLE, "--p", "4", "--seed", "0"], 0, False),
    "maps_ev_2_3_p5": (["maps", "ev", *TABLE, "--p", "5", "--seed", "0"], 0, False),
    "maps_ev_2_3_p6": (["maps", "ev", *TABLE, "--p", "6", "--seed", "0"], 0, False),
    # the incoming term of the target vanishes: b + (q-1)d < 0 at q = 1
    "maps_ev_2_3_bm1_p4": (
        ["maps", "ev", *TABLE, "--b", "-1", "--p", "4", "--seed", "0"], 0, False
    ),
    # one point (s = 1): the single-point contraction
    "maps_ev_1_4_p2": (["maps", "ev", "--n", "1", "--d", "4", "--p", "2", "--seed", "0"], 0, False),
}


def _run(name: str, workdir: str) -> tuple[int, dict[str, bytes]]:
    """Exit status and {golden file name: bytes} of one case."""
    argv, _status, pin_cache = CASES[name]
    out = os.path.join(workdir, "out")
    cache = os.path.join(workdir, "cache")
    status = main([*argv, "--prime", "auto", "--cache", cache, "--out", out])
    files = {f"{name}.out": out}
    if pin_cache:
        files[f"{name}.blocks.jsonl"] = os.path.join(cache, "blocks.jsonl")
    got = {}
    for golden, path in files.items():
        with open(path, "rb") as fh:
            got[golden] = fh.read()
    return status, got


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_the_goldens(name, tmp_path):
    status, got = _run(name, str(tmp_path))
    assert status == CASES[name][1]
    for golden, data in got.items():
        with open(os.path.join(GOLDEN, golden), "rb") as fh:
            assert data == fh.read(), golden


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            _, produced = _run(case, tmp)
        for golden, data in produced.items():
            with open(os.path.join(GOLDEN, golden), "wb") as fh:
                fh.write(data)
            print(f"wrote {golden} ({len(data)} bytes)", file=sys.stderr)
