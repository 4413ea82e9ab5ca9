from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import vsl.cli
import vsl.linalg
import vsl.syzygy
import vsl.harness as harness
from vsl.betti import Engine, ResourceLimits, ResourceRefusal, betti_table
from vsl.bounds import VeroneseParams
from vsl.cli import main
from vsl.harness import (
    CONSISTENT,
    OUT_OF_APPLICABILITY,
    SKIPPED,
    selftest,
    verify,
)
from vsl.koszul import BlockKey, KoszulBlockMatrix, differential_block, space_blocks
from vsl.linalg import PINNED_PRIMES, FieldSpec
from vsl.syzygy import sample_general_points


def rows_by_index(report):
    return {(row.p, row.q): row for row in report.rows}


# -- verification reports ---------------------------------------------------


def test_verify_twisted_cubic_square(eng):
    report = verify(VeroneseParams(2, 3), [1, 2], eng)
    assert report.ok()
    summary = report.source_summary()
    assert summary["EL_CONJ"] == "VERIFIED"
    assert summary["LINEAR_CONJ"] == "VERIFIED"
    assert summary["QN_THM"] == "VERIFIED"
    assert summary["GREEN_VANISHING"] == "VERIFIED"
    assert "MAIN_THM" not in summary  # stated only for three or more variables
    rows = rows_by_index(report)
    assert rows[(1, 1)].dim == 27
    assert rows[(7, 1)].dim == 0
    assert rows[(7, 2)].dim == 1
    assert all(
        row.verdict in (CONSISTENT, OUT_OF_APPLICABILITY) for row in report.rows
    )


def test_verify_quadric_threefold_linear_strand(eng):
    report = verify(VeroneseParams(3, 2), [1], eng)
    assert report.ok()
    assert report.source_summary()["MAIN_THM"] == "VERIFIED"


def test_verify_small_degree_marks_inapplicable_claims(eng):
    # d = n: the sharp-range statements assume d >= n + 1 and must be
    # reported as out of applicability, never silently graded
    report = verify(VeroneseParams(2, 2), [1, 2], eng)
    assert report.ok()
    summary = report.source_summary()
    assert summary["EL_CONJ"] == OUT_OF_APPLICABILITY
    assert summary["LINEAR_CONJ"] == OUT_OF_APPLICABILITY
    assert summary["QN_THM"] == OUT_OF_APPLICABILITY
    assert summary["GREEN_VANISHING"] == "VERIFIED"
    assert summary["GB_VANISHING"] == "VERIFIED"


def test_verify_skipped_rows_fail_overall():
    engine = Engine(
        FieldSpec.prime(PINNED_PRIMES[0]),
        limits=ResourceLimits(max_block_cols=1, max_space_dim=10),
    )
    report = verify(VeroneseParams(2, 2), [1], engine)
    assert not report.ok()
    skipped = [row for row in report.rows if row.verdict == SKIPPED]
    assert skipped
    assert all(row.dim is None for row in skipped)
    payload = report.to_json_dict()
    assert any("skipped_reason" in row for row in payload["rows"])
    assert report.source_summary()["GREEN_VANISHING"] == SKIPPED


def test_verify_p_max_and_degeneracy_note(eng):
    params = VeroneseParams(1, 3)
    full = verify(params, [1], eng)
    assert full.p_max == 4
    assert "zero middle space" in full.to_json_dict()["degeneracy_note"]
    partial = verify(params, [1], eng, p_max=2)
    assert [row.p for row in partial.rows] == [0, 1, 2]
    assert "not examined" in partial.to_json_dict()["degeneracy_note"]


def test_verify_report_deterministic_across_thread_counts():
    texts = []
    for threads in (1, 2):
        with Engine(FieldSpec.prime(PINNED_PRIMES[0]), threads=threads) as engine:
            report = verify(VeroneseParams(2, 2), [1, 2], engine)
        texts.append(json.dumps(report.to_json_dict(), sort_keys=True))
        assert report.text().startswith("verification")
    assert texts[0] == texts[1]


# -- built-in invariant suite -----------------------------------------------


def test_selftest_passes():
    result = selftest(fast=True)
    assert result.ok()
    names = [name for name, _ok, _d in result.checks]
    assert len(names) == len(set(names)) == 11
    assert "[pass]" in result.text()
    assert "11/11 checks passed" in result.text()


def test_selftest_catches_a_planted_sign_error(monkeypatch):
    real = differential_block
    target_key = None
    for mdeg in space_blocks(1, 3, 2, 3):
        block = real(BlockKey(1, 3, 0, 2, 1, mdeg))
        if block.entries:
            target_key = block.key
            break
    assert target_key is not None

    def corrupted(key: BlockKey) -> KoszulBlockMatrix:
        block = real(key)
        if key == target_key:
            r, c, v = block.entries[0]
            return KoszulBlockMatrix.from_entries(
                key, block.nrows, block.ncols, [(r, c, -v)] + list(block.entries[1:])
            )
        return block

    monkeypatch.setattr(harness, "differential_block", corrupted)
    result = harness.selftest(fast=True)
    assert not result.ok()
    failed = {name for name, ok, _d in result.checks if not ok}
    assert "differential squares to zero (blockwise)" in failed


def test_selftest_checks_nonzero_contractions(monkeypatch):
    # the contraction and factorization checks run on nonzero chains: a
    # three-fold contraction with the wrong sign, and a factor check that
    # fails every nonzero chain, are both caught
    real = harness.alpha_chain

    def wrong_sign(space, coeffs, functionals):
        out = real(space, coeffs, functionals)
        return {k: -v % space.prime for k, v in out.items()} if len(functionals) == 3 else out

    monkeypatch.setattr(harness, "alpha_chain", wrong_sign)
    monkeypatch.setattr(
        harness, "projection_factor_check", lambda image: {"factors": not image.coeffs}
    )
    failed = {name for name, ok, _d in harness.selftest(fast=True).checks if not ok}
    assert failed == {
        "multi-point contraction matches composition up to sign",
        "projected classes factor through x_0-divisible wedges",
    }


# -- command line -----------------------------------------------------------


def test_cli_bounds_json(capsys):
    assert main(["bounds", "--n", "2", "--d", "3", "--q", "1", "--format", "json"]) == 0
    preds = json.loads(capsys.readouterr().out)
    by_source = {pr["source"]: pr for pr in preds}
    assert set(by_source) == {"EL_CONJ", "LINEAR_CONJ", "GREEN_VANISHING"}
    assert (by_source["EL_CONJ"]["lo"], by_source["EL_CONJ"]["hi"]) == (1, 6)
    assert by_source["LINEAR_CONJ"]["hi"] is None


def test_cli_bounds_text_all_strands(capsys):
    assert main(["bounds", "--n", "2", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "q=1" in out and "q=2" in out
    assert "[not applicable]" in out  # sharp ranges need d >= n + 1


def test_cli_bounds_twisted(capsys):
    assert main(["bounds", "--n", "2", "--d", "2", "--b", "1", "--format", "json"]) == 0
    preds = json.loads(capsys.readouterr().out)
    assert {pr["source"] for pr in preds} == {"GREEN_VANISHING"}


def test_cli_betti_ascii(capsys):
    assert main(["betti", "--n", "1", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "total:" in out
    assert "." in out


def test_cli_betti_json(capsys):
    assert main(["betti", "--n", "1", "--d", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"n": 1, "d": 2, "b": 0}
    dims = {(e["p"], e["q"]): e["dim"] for e in payload["entries"]}
    assert dims[(1, 1)] == 1
    assert payload["provenance"]["primes"] == [PINNED_PRIMES[0]]
    assert payload["provenance"]["certified"] is False


def test_cli_betti_csv_window(capsys):
    rc = main(
        [
            "betti", "--n", "2", "--d", "2",
            "--p-min", "1", "--p-max", "3",
            "--q-min", "1", "--q-max", "1",
            "--format", "csv",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,q,dim,status"
    assert [line.split(",")[2] for line in lines[1:]] == ["6", "8", "3"]


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "--n", "1", "--d", "2"]) == 0
    capsys.readouterr()
    # the direct complexes have blocks over a 1-column ceiling and the dual
    # ones do not, so every row is graded; a space-dimension ceiling of 1
    # refuses both sides of K_{0,1}
    argv = ["verify", "--n", "1", "--d", "2", "--max-block-cols", "1"]
    assert main(argv) == 0
    assert "SKIPPED" not in capsys.readouterr().out
    engine = Engine(FieldSpec.prime(PINNED_PRIMES[0]), limits=ResourceLimits(max_block_cols=1))
    with pytest.raises(ResourceRefusal):
        engine.direct_dim(VeroneseParams(1, 2), 1, 1)
    assert main(argv + ["--max-space-dim", "1"]) == 1
    assert "SKIPPED" in capsys.readouterr().out


def test_cli_refusals_do_not_depend_on_the_cache(tmp_path, capsys):
    # a cache filled by a run without the ceiling lifts no refusal, serial
    # or pooled: the warm run prints the cold run's report and exit code
    ceiling = ["--max-block-cols", "20"]
    for threads in ("1", "2"):
        for command in ("betti", "verify"):
            argv = [command, "--n", "2", "--d", "3", "--format", "json", "--threads", threads,
                    "--cache", str(tmp_path / threads / command)]
            runs = []
            for extra in (ceiling, [], ceiling):
                runs.append((main(argv + extra), capsys.readouterr().out))
            assert runs[2] == runs[0]
            assert "SKIPPED" in runs[0][1] and "SKIPPED" not in runs[1][1]


def test_cli_verify_json(capsys):
    assert main(["verify", "--n", "1", "--d", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["GREEN_VANISHING"] == "VERIFIED"
    assert {row["verdict"] for row in payload["rows"]} <= {
        "CONSISTENT",
        "OUT_OF_APPLICABILITY",
    }


def test_cli_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# strand to inspect\n"
        "q = 2\n"
        "format = json\n"
        "d = 3\n"
    )
    assert main(["bounds", "--config", str(cfg), "--n", "2", "--q", "1"]) == 0
    preds = json.loads(capsys.readouterr().out)
    # the explicit --q 1 wins over the config value; d and format come from it
    assert all(pr["q"] == 1 for pr in preds)
    assert any(pr["source"] == "EL_CONJ" and pr["hi"] == 6 for pr in preds)


def test_cli_config_rejects_malformed_lines(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--config", str(cfg), "--n", "1", "--d", "2"])
    assert exc.value.code == 2
    assert f"cannot read config file: {cfg}:1: expected key = value" in capsys.readouterr().err


def test_cli_config_boolean_values(tmp_path, capsys):
    cfg = tmp_path / "st.cfg"
    cfg.write_text("fast = yes\n")
    assert main(["selftest", "--config", str(cfg)]) == 0
    assert "checks passed" in capsys.readouterr().out
    cfg.write_text("fast = maybe\n")
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "config value for fast is not a boolean: 'maybe'" in capsys.readouterr().err


def test_cli_config_values_parse_like_their_flags(tmp_path, capsys):
    # a malformed config value is argparse's usage error (exit 2), not a
    # ValueError traceback; an explicit flag still wins over it
    cfg = tmp_path / "bad.cfg"
    betti = ["betti", "--config", str(cfg)]
    verify_cmd = ["verify", "--config", str(cfg)]
    gc = ["cache", "gc", "--cache", str(tmp_path), "--config", str(cfg)]
    bad_prime = "argument --prime: expected 'auto' or an odd prime below 2^31"
    bad_list = "expected comma-separated integers"
    for argv, text, message in (
        (betti, "n = two\nd = 2\n", "argument --n: invalid int value: 'two'"),
        (betti, "n = 0\nd = 2\n", "argument --n: expected an integer >= 1, got 0"),
        (betti, "n = 1\nd = 0\n", "argument --d: expected an integer >= 1, got 0"),
        (["bounds", "--config", str(cfg)], "n = 1\nd = 2\nq = -1\n",
         "argument --q: expected an integer >= 0, got -1"),
        (betti, "n = 1\nd = 2\nthreads = many\n",
         "argument --threads: invalid int value: 'many'"),
        (betti, "n = 1\nd = 2\nformat = yaml\n", "config value for format is not one of"),
        (betti, "n = 1\nd = 2\nprime = abc\n", bad_prime),
        (betti, "n = 1\nd = 2\nprime = 2\n", bad_prime),
        (betti, "n = 1\nd = 2\nprime = 4294967311\n", bad_prime),
        (verify_cmd, "n = 1\nd = 2\nstrands = x\n", "argument --strands: " + bad_list),
        (verify_cmd, "n = 1\nd = 2\nstrands =\n", "argument --strands: " + bad_list),
        (verify_cmd, "n = 1\nd = 2\nstrands = -1\n", "argument --strands: " + bad_list),
        (gc, "keep-primes = x\n", "argument --keep-primes: " + bad_list),
        (gc, "keep-primes =\n", "argument --keep-primes: " + bad_list),
    ):
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    cfg.write_text("n = two\nd = 2\nformat = csv\nunknown-key = 3\n")
    assert main(["betti", "--config", str(cfg), "--n", "1"]) == 0
    assert capsys.readouterr().out.startswith("p,q,dim,status")
    cfg.write_text("n = 1\nd = 2\nprime = 2147483629\nstrands = 1\nformat = json\n")
    assert main(verify_cmd) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["field"] == "GF(2147483629)"
    assert report["strands"] == [1]


def test_cli_cache_env_and_stats(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VSL_CACHE_DIR", str(tmp_path))
    assert main(["betti", "--n", "1", "--d", "2"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["records"] > 0
    assert set(stats["by_prime"]) == {str(PINNED_PRIMES[0])}
    assert stats["by_table"] == {"n=1,d=2,b=0": stats["records"]}


def test_cli_cache_gc(tmp_path, capsys):
    assert main(["betti", "--n", "1", "--d", "2", "--cache", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = main(
        ["cache", "gc", "--cache", str(tmp_path), "--keep-primes", str(PINNED_PRIMES[0])]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["kept"] > 0
    assert summary["dropped"] == 0
    assert summary["quarantined"] == 0


def test_cli_empty_and_out_of_range_values_are_usage_errors(tmp_path, capsys):
    # an empty list is refused, not read as the default list; dimensions,
    # degrees, strands and --q out of range exit 2 instead of a traceback
    assert main(["betti", "--n", "1", "--d", "2", "--cache", str(tmp_path)]) == 0
    capsys.readouterr()
    gc = ["cache", "gc", "--cache", str(tmp_path)]
    bad_list = "expected comma-separated integers, each >= 0"
    strands_cfg = tmp_path / "strands.cfg"
    strands_cfg.write_text("strands = 1, 2, 1\n")
    for argv, message in (
        ([*gc, "--keep-primes", ""], "argument --keep-primes: " + bad_list),
        ([*gc, "--keep-primes", " , "], "argument --keep-primes: " + bad_list),
        (["verify", "--n", "1", "--d", "2", "--strands", ""], "argument --strands: " + bad_list),
        (["verify", "--n", "1", "--d", "2", "--strands", "-1"], "argument --strands: " + bad_list),
        # a repeated strand would be graded twice
        (["verify", "--n", "2", "--d", "2", "--p-max", "2", "--strands", "1,1"],
         "argument --strands: expected each value once, got '1,1'"),
        (["verify", "--n", "2", "--d", "2", "--p-max", "2", "--config", str(strands_cfg)],
         "argument --strands: expected each value once, got '1, 2, 1'"),
        (["betti", "--n", "0", "--d", "2"], "argument --n: expected an integer >= 1, got 0"),
        (["betti", "--n", "1", "--d", "0"], "argument --d: expected an integer >= 1, got 0"),
        (["verify", "--n", "-1", "--d", "2"], "argument --n: expected an integer >= 1, got -1"),
        (["bounds", "--n", "1", "--d", "2", "--q", "-1"],
         "argument --q: expected an integer >= 0, got -1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv
    # the cache was left alone by the refused gc
    assert main(["cache", "stats", "--cache", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["records"] > 0


def test_cli_cache_requires_directory(monkeypatch, capsys):
    monkeypatch.delenv("VSL_CACHE_DIR", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["cache", "stats"])
    assert exc.value.code == 2
    assert "cache directory required" in capsys.readouterr().err


def test_cli_cache_on_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    # a mistyped --cache is refused, not read as an empty cache, and
    # neither stats nor gc creates it
    missing = tmp_path / "missing"
    for action in ("stats", "gc"):
        with pytest.raises(SystemExit) as exc:
            main(["cache", action, "--cache", str(missing)])
        assert exc.value.code == 2
        assert f"cache directory {missing} does not exist" in capsys.readouterr().err
    assert not missing.exists()


def test_cli_out_writes_file(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    rc = main(
        ["bounds", "--n", "1", "--d", "4", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    preds = json.loads(out.read_text())
    assert preds[0]["source"] == "EL_CONJ"


def test_cli_rejects_bad_prime(capsys):
    # not a number, even, composite, or too wide for the 31-bit engine
    for raw in ("abc", "2", "91", "4294967311"):
        with pytest.raises(SystemExit) as exc:
            main(["betti", "--n", "1", "--d", "2", "--prime", raw])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --prime: expected 'auto' or an odd prime below 2^31" in err
        assert f"got '{raw}'" in err


def test_cli_requires_params(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--d", "2"])
    assert exc.value.code == 2
    assert "--n and --d are required" in capsys.readouterr().err


def test_cli_maps_ev(capsys):
    rc = main(
        ["maps", "ev", "--n", "2", "--d", "3", "--p", "6", "--seed", "1"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["s"] == 4
    assert payload["source_dim"] == 27
    assert payload["target_dim"] == 105
    assert payload["induced_rank"] == 5
    assert all(row["factors"] for row in payload["classes"])


def test_cli_maps_ev_contracts_each_class_once(monkeypatch, capsys):
    # one cycle basis, of the source, contracted by one ev_D call; each
    # image serves both the factor check and the induced rank
    calls = {"cycle_basis": 0, "ev_D": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(vsl.syzygy, name))
        monkeypatch.setattr(vsl.syzygy, name, wrapper)
        monkeypatch.setattr(vsl.cli, name, wrapper)
    assert main(["maps", "ev", "--n", "2", "--d", "3", "--p", "6", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["source_dim"] == 27
    assert calls == {"cycle_basis": 1, "ev_D": 1}


def test_cli_maps_ev_reads_a_points_file(tmp_path, capsys):
    # the seeded points, written to a file, give the seeded report
    argv = ["maps", "ev", "--n", "2", "--d", "2", "--p", "3"]
    points = sample_general_points(VeroneseParams(2, 2), PINNED_PRIMES[0], 0)
    path = tmp_path / "points.json"
    path.write_text(json.dumps([list(pt.coords) for pt in points]))
    assert main(argv) == 0
    seeded = capsys.readouterr().out
    assert main(argv + ["--points", str(path)]) == 0
    assert capsys.readouterr().out == seeded


def test_cli_unusable_files_are_usage_errors(tmp_path, capsys):
    # a file named on the command line that cannot be used exits 2 with a
    # message, like any other bad argument, instead of a traceback
    ev = ["maps", "ev", "--n", "2", "--d", "3", "--p", "5", "--points", str(tmp_path / "p.json")]
    missing_config = ["betti", "--n", "1", "--d", "2", "--config", str(tmp_path / "none.cfg")]
    # the seeded points moved off x_0 = 0: general, but not on the hyperplane
    seeded = sample_general_points(VeroneseParams(2, 3), PINNED_PRIMES[0], 0)
    off_hyperplane = [[1, *pt.coords[1:]] for pt in seeded]
    assert all(pt.coords[:2] == (0, 1) for pt in seeded)

    def spelled(one):
        # the seeded points with the first one's coordinate 1 spelled as
        # `one`, which int() would read back as 1
        return [[0, one, seeded[0].coords[2]], *(list(pt.coords) for pt in seeded[1:])]

    for argv, points, message in (
        (missing_config, None, "cannot read config file"),
        (ev, None, "No such file or directory"),
        (ev, [[0, 1, 0], [0, 0, 1]], "expected 4 points with 3 coordinates each"),
        (ev, [[0, 1], [1, 0], [1, 1], [1, 2]], "expected 4 points with 3 coordinates each"),
        (ev, [[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]], "cannot normalize the zero tuple"),
        (ev, [[0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]],
         "the points fail the general-position certificate"),
        (ev, off_hyperplane, "every point must lie on the hyperplane x_0 = 0"),
        # coordinates that int() would truncate or parse into the seeded points
        (ev, spelled(1.7), "every coordinate must be a JSON integer"),
        (ev, spelled(True), "every coordinate must be a JSON integer"),
        (ev, spelled("1"), "every coordinate must be a JSON integer"),
    ):
        if points is not None:
            (tmp_path / "p.json").write_text(json.dumps(points))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_negative_window_ends_are_usage_errors(tmp_path, capsys):
    # window ends count from 0, on the command line and in a config file
    # alike; q < 0 is reachable as a twist through --b
    params = ["--n", "2", "--d", "3"]
    betti, verify_cmd = ["betti", *params], ["verify", *params]
    chain, ev = ["maps", "chain", *params], ["maps", "ev", *params]
    cfg = tmp_path / "window.cfg"
    for argv, flag in (
        (betti, "--p-min"), (betti, "--p-max"), (betti, "--q-min"), (betti, "--q-max"),
        (verify_cmd, "--p-min"), (verify_cmd, "--p-max"),
        (chain, "--p"), (chain, "--p-min"), (chain, "--p-max"), (ev, "--p"),
    ):
        cfg.write_text(f"{flag[2:]} = -1\n")
        for extra in ([flag, "-1"], ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + extra)
            assert exc.value.code == 2
            assert f"argument {flag}: expected an integer >= 0, got -1" in capsys.readouterr().err


def test_cli_maps_ev_small_target(capsys):
    rc = main(["maps", "ev", "--n", "2", "--d", "2", "--p", "3", "--seed", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["source_dim"] == 3
    assert payload["target_dim"] == 0
    assert payload["induced_rank"] == 0
    assert all(row["factors"] for row in payload["classes"])


def test_cli_maps_ev_refuses_p_below_s(capsys):
    # (2,3) has s = 4; a source index below it has no s-fold contraction:
    # a usage error, like a negative one
    argv = ["maps", "ev", "--n", "2", "--d", "3", "--p"]
    for p, message in (
        ("2", "--p 2 is below the projection codimension s = 4"),
        ("-1", "argument --p: expected an integer >= 0, got -1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + [p])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_maps_chain(capsys):
    rc = main(
        ["maps", "chain", "--n", "2", "--d", "3", "--p-min", "0", "--p-max", "8"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 9
    assert all(row["verdict"] == "CONSISTENT" for row in payload["rows"])
    capsys.readouterr()
    assert main(["maps", "chain", "--n", "1", "--d", "3", "--p", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 1 and payload["rows"][0]["p"] == 3


def test_cli_maps_chain_refuses_a_twist(capsys):
    # the chain is about the untwisted table: --b used to be dropped, and
    # the untwisted values printed under the twisted label
    with pytest.raises(SystemExit) as exc:
        main(["maps", "chain", "--n", "2", "--d", "3", "--b", "1", "--p", "4"])
    assert exc.value.code == 2
    assert "--b must be 0" in capsys.readouterr().err


def test_cli_maps_chain_requires_p(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maps", "chain", "--n", "1", "--d", "3"])
    assert exc.value.code == 2
    assert "--p or --p-min/--p-max" in capsys.readouterr().err


def test_cli_usage_errors_exit_2_before_any_engine(monkeypatch, capsys):
    # an empty window prints no rows and a missing or out-of-range index
    # grades nothing: each is a usage error (exit 2, not the exit 1 of a
    # VIOLATION), found before an engine, and so a pool, exists
    def no_engine(args):
        raise AssertionError("a usage error built an engine")

    monkeypatch.setattr(vsl.cli, "_build_engine", no_engine)
    cubic = ["--n", "2", "--d", "3", "--threads", "2"]
    betti, chain = ["betti", *cubic], ["maps", "chain", *cubic]
    for argv, message in (
        ([*betti, "--p-min", "5", "--p-max", "3"], "--p-min 5 is above the last p in the window, 3"),
        ([*betti, "--p-min", "11"], "--p-min 11 is above the last p in the window, 10"),
        ([*betti, "--q-min", "2", "--q-max", "1"], "--q-min 2 is above the last q in the window, 1"),
        ([*betti, "--q-min", "4"], "--q-min 4 is above the last q in the window, 3"),
        ([*chain, "--p-min", "5", "--p-max", "3"], "--p-min 5 is above the last p in the window, 3"),
        ([*chain, "--p", "5", "--p-min", "6"], "--p-min 6 is above the last p in the window, 5"),
        ([*chain], "--p or --p-min/--p-max is required"),
        (["verify", *cubic, "--p-min", "11"], "--p-min 11 is above the last p in the window, 10"),
        (["maps", "ev", *cubic], "--p is required"),
        (["maps", "ev", *cubic, "--p", "3"], "--p 3 is below the projection codimension s = 4"),
        (["betti", "--n", "2", "--threads", "2"], "--n and --d are required"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize("flag", ["--threads", "--max-block-cols", "--max-space-dim", "--dense-limit"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_cli_engine_flags_below_one_exit_2(monkeypatch, capsys, flag, value):
    def no_engine(args):
        raise AssertionError("a usage error built an engine")

    monkeypatch.setattr(vsl.cli, "_build_engine", no_engine)
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--n", "1", "--d", "2", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer >= 1, got {value}" in capsys.readouterr().err


class _CountingPool(concurrent.futures.ProcessPoolExecutor):
    """A process pool that logs its construction, each submitted job and its
    shutdown."""

    log: list[str] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log.append("open")

    def submit(self, *args, **kwargs):
        self.log.append("submit")
        return super().submit(*args, **kwargs)

    def shutdown(self, *args, **kwargs):
        super().shutdown(*args, **kwargs)
        self.log.append("shutdown")


_real_sparse_ranks = vsl.linalg.sparse_ranks


def _sparse_ranks_failing_in_workers(*args):
    """`sparse_ranks` in this process; a planted failure in a pool worker."""
    if multiprocessing.parent_process() is not None:
        raise ZeroDivisionError("planted failure in a pool worker")
    return _real_sparse_ranks(*args)


def test_cli_opens_one_pool_per_command(monkeypatch, capsys):
    # one pool serves every pooled rank of a command, and it is shut down
    # before main returns, also when a rank job raises in a worker
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    log = _CountingPool.log
    cubic = ["--n", "2", "--d", "3", "--threads", "2"]
    betti = ["betti", *cubic]
    for argv in (betti, ["verify", *cubic, "--strands", "1,2"]):
        log.clear()
        assert main(argv) == 0
        assert log[0] == "open" and log[-1] == "shutdown", argv
        assert log.count("open") == log.count("shutdown") == 1, argv
        assert log.count("submit") > 2, argv
    capsys.readouterr()
    # every (2,3) block is small and uncertified, so workers rank in batches
    monkeypatch.setattr(vsl.linalg, "sparse_ranks", _sparse_ranks_failing_in_workers)
    log.clear()
    with pytest.raises(ZeroDivisionError, match="planted failure in a pool worker"):
        main(betti)
    assert log[0] == "open" and log[-1] == "shutdown"
    assert log.count("open") == log.count("shutdown") == 1
    assert log.count("submit") > 2
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("threads", [2, 3])
def test_one_pooled_entry_goes_out_in_threads_shares(monkeypatch, threads):
    # a window of one entry with many uncached blocks still keeps every
    # worker busy: its jobs go out as `threads` shares, no more
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    _CountingPool.log.clear()
    with Engine(FieldSpec.prime(PINNED_PRIMES[0]), threads=threads) as engine:
        table = betti_table(VeroneseParams(2, 4), engine, (5, 5), (1, 1))
    assert table.dims == {(5, 1): 7095}
    assert engine.stats["blocks_ranked"] >= 4
    assert _CountingPool.log == ["open"] + ["submit"] * threads + ["shutdown"]


def test_pooled_verify_does_not_wait_between_strands(monkeypatch, capsys):
    # verify submits every strand's shares before it reads any result, so
    # no worker idles at the end of strand 1 while strand 2 is planned
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    log = _CountingPool.log
    real_result = concurrent.futures.Future.result

    def logged_result(self, *args, **kwargs):
        log.append("result")
        return real_result(self, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.Future, "result", logged_result)
    submits = {}
    for strands in ("1", "1,2"):
        log.clear()
        assert main(["verify", "--n", "2", "--d", "3", "--strands", strands, "--threads", "2"]) == 0
        submits[strands] = log.count("submit")
        assert "submit" not in log[log.index("result"):], strands
    assert submits["1,2"] > submits["1"]
    capsys.readouterr()


class _InlinePool:
    """Stands in for the process pool: logs the size it was given and runs
    each task at submit, so it starts no process."""

    log: list[str] = []

    def __init__(self, max_workers=None):
        self.log.append(f"open {max_workers}")

    def submit(self, fn, *args):
        self.log.append("submit")
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        self.log.append("shutdown")


@pytest.mark.parametrize(
    "cpus, threads, workers", [({0, 1}, 8, 2), ({0, 1, 2, 3}, 3, 3), (None, 8, 3)]
)
def test_pool_has_at_most_one_worker_per_usable_cpu(monkeypatch, cpus, threads, workers):
    # `threads` shares are dealt whatever the pool's size, but no more
    # workers are forked than this process may run on (os.cpu_count(), 3
    # here, where the platform has no sched_getaffinity)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    _InlinePool.log.clear()
    with Engine(FieldSpec.prime(PINNED_PRIMES[0]), threads=threads) as engine:
        table = betti_table(VeroneseParams(2, 4), engine, (5, 5), (1, 1))
    assert table.dims == {(5, 1): 7095}
    assert _InlinePool.log == [f"open {workers}"] + ["submit"] * threads + ["shutdown"]


def test_cli_selftest(capsys):
    assert main(["selftest", "--fast"]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_cli_closed_stdout_exits_quietly():
    # `vsl betti ... | head` with head gone: exit 1 with neither a
    # BrokenPipeError traceback nor the interpreter's shutdown message
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "vsl.cli", "betti", "--n", "2", "--d", "3",
             "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=300,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.returncode == 1


def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vsl.cli", "selftest", "--fast"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout
