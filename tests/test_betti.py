from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import vsl

from vsl.bounds import VeroneseParams, binom, h0
from vsl.betti import (
    Engine,
    ResourceLimits,
    ResourceRefusal,
    betti_table,
    duality_check,
    euler_check,
    green_vanishing_check,
)
from vsl.cache import BlockCache
from vsl.koszul import space_blocks
from vsl.linalg import PINNED_PRIMES, FieldSpec, PrimeDisagreement


def test_line_quadric_single_syzygy(eng):
    assert eng.kpq_dim(VeroneseParams(1, 2), 1, 1) == 1


def test_twisted_cubic_strand(eng):
    pr = VeroneseParams(1, 3)
    assert eng.kpq_dim(pr, 1, 1) == 3
    assert eng.kpq_dim(pr, 2, 1) == 2
    assert eng.kpq_dim(pr, 3, 1) == 0


def test_plane_cubic_first_linear_syzygies(eng):
    # independent count: quadrics through the image minus nothing, i.e.
    # C(10+1, 2) - h0(2, 6) = 55 - 28 = 27
    assert eng.kpq_dim(VeroneseParams(2, 3), 1, 1) == 27


def test_first_syzygy_count_matches_quadric_count(eng):
    for n, d in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3)):
        expected = binom(h0(n, d) + 1, 2) - h0(n, 2 * d)
        assert eng.kpq_dim(VeroneseParams(n, d), 1, 1) == expected


def test_plane_conic_table(eng):
    table = betti_table(VeroneseParams(2, 2), eng)
    assert [table.dim(p, 1) for p in range(0, 5)] == [0, 6, 8, 3, 0]
    assert table.dim(0, 0) == 1
    for (p, q), dim in table.dims.items():
        if p >= 1 and (p, q) not in ((1, 1), (2, 1), (3, 1)):
            assert dim == 0, (p, q)
    assert table.nonzero_range(1) == (1, 3)


def test_quartic_line_strand_is_eagon_northcott(eng):
    table = betti_table(VeroneseParams(1, 4), eng, q_range=(1, 1))
    assert [table.dim(p, 1) for p in (1, 2, 3)] == [6, 8, 3]
    for p in range(0, h0(1, 4) + 1):
        assert table.dim(p, 1) == p * binom(4, p + 1)


def test_plane_cubic_top_strand(eng):
    pr = VeroneseParams(2, 3)
    for p in range(0, 7):
        assert eng.kpq_dim(pr, p, 2) == 0
    assert eng.kpq_dim(pr, 7, 2) == 1


def test_duality_spot_checks(eng):
    for pr, p, q, lhs in (
        (VeroneseParams(2, 3), 7, 2, 1),
        (VeroneseParams(1, 3), 1, 1, 3),
        (VeroneseParams(2, 2), 3, 1, 3),
    ):
        out = duality_check(pr, p, q, eng)
        assert out["verdict"] == "CONSISTENT"
        assert out["lhs"] == out["rhs"] == lhs


def test_duality_partner_entry_computed_directly(eng):
    # the partner of the last plane-cubic entry is a strand-1 group with
    # twist -3 whose incoming space vanishes; dimension 1
    assert eng.kpq_dim(VeroneseParams(2, 3, -3), 0, 1) == 1


def test_green_vanishing_check_twisted_plane(eng):
    out = green_vanishing_check(VeroneseParams(2, 2, -1), 1, eng)
    assert out["bound"] == 3
    assert out["all_zero_from_bound"] is True
    assert out["edge_p"] == 2
    assert out["edge_nonzero"] is True
    assert out["verdict"] == "CONSISTENT"


def test_green_vanishing_check_line_cubic_edge_gap(eng):
    # vanishing holds from the bound, but here the edge below it is zero
    # too: the bound is not tight at these parameters
    out = green_vanishing_check(VeroneseParams(1, 3), 1, eng)
    assert out["bound"] == 4
    assert out["all_zero_from_bound"] is True
    assert out["edge_p"] == 3
    assert out["edge_nonzero"] is False
    assert out["verdict"] == "CONSISTENT"


def test_strand_zero_twisted_kernel_dimensions(eng):
    # strand 0 with twist d-2 = 1: nonzero exactly for p <= h0(2,1) - 1 = 2
    pr = VeroneseParams(2, 2, 1)
    dims = [eng.kpq_dim(pr, p, 0) for p in range(0, h0(2, 2) + 1)]
    assert [bool(v) for v in dims] == [True, True, True, False, False, False, False]


def test_euler_alternating_sums(eng):
    for pr, ks in (
        (VeroneseParams(1, 3), (1, 2, 3)),
        (VeroneseParams(2, 2), (2, 3, 4)),
    ):
        for k in ks:
            out = euler_check(pr, k, eng)
            assert out["verdict"] == "CONSISTENT", out


def test_kpq_out_of_range_indices_are_zero(eng):
    pr = VeroneseParams(1, 2)
    assert eng.kpq_dim(pr, -1, 1) == 0
    assert eng.kpq_dim(pr, h0(1, 2) + 1, 1) == 0
    assert eng.kpq_dim(VeroneseParams(1, 2, -3), 0, 1) == 0  # negative degree


def test_resource_refusal_is_loud_and_skipped_in_tables():
    engine = Engine(
        FieldSpec.prime(PINNED_PRIMES[0]),
        limits=ResourceLimits(max_block_cols=1, max_space_dim=10),
    )
    with pytest.raises(ResourceRefusal):
        engine.kpq_dim(VeroneseParams(2, 2), 2, 1)
    assert engine.stats["refusals"] >= 1
    table = betti_table(VeroneseParams(2, 2), engine, (2, 2), (1, 1))
    assert table.status(2, 1) == "SKIPPED"
    assert "ceiling" in table.skipped[(2, 1)]
    assert "?" in table.ascii()
    row = [r for r in table.csv_rows() if r[0] == 2 and r[1] == 1]
    assert row == [(2, 1, "", "SKIPPED")]


def test_table_renderings(eng):
    table = betti_table(VeroneseParams(1, 2), eng)
    text = table.ascii()
    assert text.splitlines()[0].split() == ["0", "1", "2", "3"]
    assert "total:" in text
    payload = table.to_json_dict()
    assert set(payload) == {"params", "field", "entries", "provenance"}
    assert payload["params"] == {"n": 1, "d": 2, "b": 0}
    assert payload["field"] == f"GF({PINNED_PRIMES[0]})"
    entry = next(e for e in payload["entries"] if e["p"] == 1 and e["q"] == 1)
    assert entry["dim"] == 1 and entry["status"] == "NONZERO"
    json.dumps(payload)  # serializable
    rows = table.csv_rows()
    assert rows[0] == ("p", "q", "dim", "status")


def test_dual_prime_agreement_on_small_tables(eng, eng2):
    for n, d in ((1, 3), (2, 2)):
        pr = VeroneseParams(n, d)
        for q in range(0, n + 2):
            for p in range(0, h0(n, d) + 1):
                assert eng.kpq_dim(pr, p, q) == eng2.kpq_dim(pr, p, q)


def test_prime_disagreement_is_raised_not_averaged():
    # poison the cache with a wrong rank at the certification prime: the
    # engine must surface the mismatch, never silently pick a side
    cache = BlockCache()
    engine = Engine(
        FieldSpec.prime(PINNED_PRIMES[0]),
        cache=cache,
        certify_prime=PINNED_PRIMES[1],
    )
    pr = VeroneseParams(1, 2)
    mdeg = max(space_blocks(1, 2, 1, 2))  # (4,0): its own orbit representative
    cache.put((1, 2, 0, 1, 1, mdeg, PINNED_PRIMES[1]), 99)
    with pytest.raises(PrimeDisagreement):
        engine.kpq_dim(pr, 1, 1)


def test_certify_prime_must_differ():
    with pytest.raises(ValueError):
        Engine(
            FieldSpec.prime(PINNED_PRIMES[0]),
            certify_prime=PINNED_PRIMES[0],
        )


def test_rational_certification_path():
    engine = Engine(FieldSpec.prime(PINNED_PRIMES[0]), rational_cap=2000)
    table = betti_table(VeroneseParams(1, 3), engine)
    assert engine.stats["rational_certified"] > 0
    assert table.dim(1, 1) == 3
    # the provenance flag is reserved for full dual-prime certification; a
    # rational cap only certifies the blocks within it
    assert table.certified is False
    dual = Engine(
        FieldSpec.prime(PINNED_PRIMES[0]), certify_prime=PINNED_PRIMES[1]
    )
    assert betti_table(VeroneseParams(1, 3), dual).certified is True


def test_rationals_field_engine_matches_prime_engine(eng):
    engine_q = Engine(FieldSpec.rationals())
    pr = VeroneseParams(1, 3)
    for q in (0, 1, 2):
        for p in range(0, h0(1, 3) + 1):
            assert engine_q.kpq_dim(pr, p, q) == eng.kpq_dim(pr, p, q)


def test_threaded_engine_matches_serial(eng):
    threaded = Engine(FieldSpec.prime(PINNED_PRIMES[0]), threads=2)
    pr = VeroneseParams(2, 2)
    for q in (1, 2):
        for p in range(0, 7):
            assert threaded.kpq_dim(pr, p, q) == eng.kpq_dim(pr, p, q)


def _cubic_table(cache_dir, **engine_options):
    engine = Engine(
        FieldSpec.prime(PINNED_PRIMES[0]), cache=BlockCache.open(cache_dir), **engine_options
    )
    return engine, betti_table(VeroneseParams(2, 3), engine)


def _pooled_matches_serial(tmp_path, serial_run, **engine_options):
    """Rerun the (2,3) table in a pool: the report, the cache contents in
    order, the cache file and the engine stats must equal the serial run's."""
    serial_engine, serial = serial_run
    pooled_engine, pooled = _cubic_table(tmp_path / "pooled", threads=2, **engine_options)
    assert pooled.to_json_dict() == serial.to_json_dict()
    assert pooled_engine.stats == serial_engine.stats
    assert list(pooled_engine.cache.ranks.items()) == list(serial_engine.cache.ranks.items())
    files = [tmp_path / side / "blocks.jsonl" for side in ("serial", "pooled")]
    assert files[0].read_bytes() == files[1].read_bytes()


def test_threaded_engine_enforces_block_ceiling(tmp_path):
    limits = ResourceLimits(max_block_cols=20)
    serial_run = _cubic_table(tmp_path / "serial", limits=limits)
    assert len(serial_run[1].skipped) == 23
    _pooled_matches_serial(tmp_path, serial_run, limits=limits)


def test_threaded_engine_certifies_over_rationals(tmp_path):
    for certify_prime, certified in ((None, 953), (PINNED_PRIMES[1], 2 * 953)):
        options = dict(rational_cap=2000, certify_prime=certify_prime)
        run_dir = tmp_path / str(certify_prime)
        calls = {"rational_rank": [], "differential_block": []}

        def counting(name, key_of):
            real = getattr(vsl.betti, name)

            def counted(*args, **kwargs):
                calls[name].append(key_of(args[0]))
                return real(*args, **kwargs)
            return counted

        with pytest.MonkeyPatch.context() as mp:
            for name, key_of in (
                ("rational_rank", lambda block: block.key),
                ("differential_block", lambda key: key),
            ):
                mp.setattr(vsl.betti, name, counting(name, key_of))
            serial_run = _cubic_table(run_dir / "serial", **options)
        # one assembly and one rational elimination per distinct block,
        # however many primes rank it; each stored rank of it is certified
        for keys in calls.values():
            assert keys and len(keys) == len(set(keys))
        assert len(calls["rational_rank"]) == 953
        assert serial_run[0].stats["rational_certified"] == certified
        _pooled_matches_serial(run_dir, serial_run, **options)


def test_invariant_checks_survive_optimized_mode():
    # `python -O` strips asserts; an overcounted rank must still be refused
    script = textwrap.dedent("""
        import vsl.betti as betti
        from vsl import Engine, FieldSpec, InvariantViolation, PINNED_PRIMES, VeroneseParams
        real = betti.sparse_rank
        betti.sparse_rank = lambda block, field: real(block, field) + 1
        engine = Engine(FieldSpec.prime(PINNED_PRIMES[0]))
        try:
            engine.kpq_dim(VeroneseParams(1, 3), 1, 1)
        except InvariantViolation as exc:
            print("InvariantViolation:", exc)
        print("debug" if __debug__ else "optimized")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(vsl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "optimized"
    assert lines[0].startswith("InvariantViolation: negative homology")
