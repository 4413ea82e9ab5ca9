"""Routing each Betti entry through its Green-dual partner."""

from __future__ import annotations

import json

import pytest

from conftest import direct_table

import vsl
from vsl.bounds import VeroneseParams, duality_partner, h0
from vsl.betti import Engine, ResourceLimits, _cost, _side, betti_table, duality_check
from vsl.cli import main
from vsl.harness import verify
from vsl.linalg import PINNED_PRIMES, FieldSpec

ROUTED_TABLES = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2))


@pytest.mark.parametrize("prime", PINNED_PRIMES[:2])
def test_routes_agree_on_small_tables(prime):
    # each entry, its partner's own complex, and whichever side auto picks
    engine = Engine(FieldSpec.prime(prime))
    for n, d in ROUTED_TABLES:
        for b in (-1, 0, 1):
            params = VeroneseParams(n, d, b)
            for q in range(0, n + 2):
                for p in range(0, h0(n, d) + 1):
                    p2, q2, b2 = duality_partner(params, p, q)
                    dims = (
                        engine.direct_dim(params, p, q),
                        engine.direct_dim(VeroneseParams(n, d, b2), p2, q2),
                        engine.kpq_dim(params, p, q),
                    )
                    assert len(set(dims)) == 1, (params, p, q, dims)


def test_routed_and_direct_quartic_linear_strands_agree():
    # the side picks which complexes are ranked, never a dimension: every
    # entry of the (2,4) linear strand, routed and on its own complex
    quartic = VeroneseParams(2, 4)
    engine = Engine(FieldSpec.prime(PINNED_PRIMES[0]))
    routed = [engine.kpq_dim(quartic, p, 1) for p in range(h0(2, 4) + 1)]
    assert routed == [engine.direct_dim(quartic, p, 1) for p in range(h0(2, 4) + 1)]
    assert routed[1:11] == [75, 536, 1947, 4488, 7095, 7920, 6237, 3344, 1089, 120]


def test_chooser_is_deterministic_and_prefers_the_smaller_complex():
    for n, d in ROUTED_TABLES:
        for b in (-1, 0, 1):
            params = VeroneseParams(n, d, b)
            for q in range(0, n + 2):
                for p in range(0, h0(n, d) + 1):
                    side = _side(params, p, q)
                    assert side == _side(params, p, q)
                    p2, q2, b2 = duality_partner(params, p, q)
                    dual = (VeroneseParams(n, d, b2), p2, q2)
                    expected = dual if _cost(*dual) < _cost(params, p, q) else (params, p, q)
                    assert side == expected
    # ties go direct: the self-dual entry, and two entries whose partner is
    # a different complex of exactly the same closed-form cost
    for params, p, q, cost in (
        (VeroneseParams(1, 3, -1), 1, 1, 18),
        (VeroneseParams(1, 2), 1, 0, 6),
        (VeroneseParams(3, 2), 3, 1, 2985),
    ):
        p2, q2, b2 = duality_partner(params, p, q)
        assert _cost(params, p, q) == _cost(VeroneseParams(params.n, params.d, b2), p2, q2) == cost
        assert _side(params, p, q) == (params, p, q)


def test_refused_partner_falls_back_to_the_direct_complex():
    # (2,3) K_{6,0}'s cheaper partner K_{1,3}(-3) has a block over 20
    # columns; its own complex has none, so it is computed directly
    limits = ResourceLimits(max_block_cols=20)
    cubic = VeroneseParams(2, 3)
    assert _side(cubic, 6, 0) != (cubic, 6, 0)
    engine = Engine(FieldSpec.prime(PINNED_PRIMES[0]), limits=limits)
    plan = engine._route(cubic, 6, 0)
    assert plan.via is None and engine._dims([plan]) == [0]
    assert engine.stats["refusals"] == 1
    entries = {(e["p"], e["q"]): e for e in betti_table(cubic, engine).to_json_dict()["entries"]}
    assert entries[(6, 0)] == {"p": 6, "q": 0, "dim": 0, "status": "ZERO"}


def test_entries_routed_through_the_partner_carry_via():
    cubic = VeroneseParams(2, 3)
    routed = betti_table(cubic, Engine(FieldSpec.prime(PINNED_PRIMES[0])))
    direct = direct_table(cubic, Engine(FieldSpec.prime(PINNED_PRIMES[0])))
    assert routed.dims == direct.dims
    entries = {(e["p"], e["q"]): e for e in routed.to_json_dict()["entries"]}
    assert entries[(7, 2)]["via"] == {"p": 0, "q": 1, "b": -3}
    assert entries[(7, 2)]["dim"] == 1
    assert "via" not in entries[(1, 1)]  # the direct complex is the smaller one

    report = verify(cubic, [2], Engine(FieldSpec.prime(PINNED_PRIMES[0])))
    rows = {row["p"]: row for row in report.to_json_dict()["rows"]}
    assert rows[7]["via"] == {"p": 0, "q": 1, "b": -3}


def test_cli_routed_entries_match_their_own_complexes(capsys):
    argv = ["betti", "--n", "2", "--d", "3", "--q-min", "2", "--q-max", "2", "--format", "json"]
    assert main(argv) == 0
    routed = json.loads(capsys.readouterr().out)["entries"]
    assert any("via" in e for e in routed)
    engine = Engine(FieldSpec.prime(PINNED_PRIMES[0]))
    assert [e["dim"] for e in routed] == [
        engine.direct_dim(VeroneseParams(2, 3), e["p"], e["q"]) for e in routed
    ]


def test_duality_check_computes_both_sides_directly():
    # a routed engine would compute both sides of a pair on the cheaper one
    # and compare a number with itself: each side must assemble its own
    # blocks, at its own twist
    cubic = VeroneseParams(2, 3)
    for params, p, q, twists in (
        (cubic, 7, 2, {0}),  # the partner K_{0,1}(-3) has no blocks
        (cubic, 5, 1, {0, -3}),
        (VeroneseParams(2, 3, -3), 2, 2, {0, -3}),
    ):
        seen = []
        real = vsl.betti.differential_block

        def recording(key):
            seen.append(key.b)
            return real(key)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vsl.betti, "differential_block", recording)
            out = duality_check(params, p, q, Engine(FieldSpec.prime(PINNED_PRIMES[0])))
        assert out["verdict"] == "CONSISTENT"
        assert set(seen) == twists, (params, p, q)


def test_verify_p_min_starts_rows_there(capsys):
    argv = ["verify", "--n", "2", "--d", "3", "--strands", "1", "--p-min", "7", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_min"] == 7
    assert [row["p"] for row in payload["rows"]] == [7, 8, 9, 10]
    assert payload["degeneracy_note"] == (
        "entries with p < 7 not examined; entries with p > 10 have zero middle space"
    )
    assert payload["summary"]["LINEAR_CONJ"] == "VERIFIED"
    assert all(row["dim"] == 0 for row in payload["rows"])
    # a window that grades no row is refused; one below p = 0 is a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv[:-3] + ["11", "--p-max", "10"])
    assert exc.value.code == 2
    assert "--p-min 11 is above the last p in the window, 10" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(argv[:-3] + ["-1", "--p-max", "10"])
    assert exc.value.code == 2
    assert "argument --p-min: expected an integer >= 0, got -1" in capsys.readouterr().err
    # without --p-min the report has no p_min field, as before
    assert main(argv[:-4] + ["--format", "json"]) == 0
    assert "p_min" not in json.loads(capsys.readouterr().out)
