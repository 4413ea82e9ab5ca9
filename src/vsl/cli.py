"""Command-line entry points.

Subcommands: bounds, betti, verify, maps (ev | chain), selftest, cache
(stats | gc).  Every flag can also be supplied through a key=value config
file (--config FILE); explicit command-line values win on conflict.  The
cache directory defaults to the VSL_CACHE_DIR environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .bounds import VeroneseParams, h0, projection_codim, range_predictions
from .betti import Engine, ResourceLimits, betti_table
from .cache import BlockCache, cache_gc, cache_stats
from .harness import selftest, verify
from .linalg import PINNED_PRIMES, FieldSpec, is_prime
from .polyspace import PointOverField
from .syzygy import (
    cycle_basis,
    ev_D,
    induced_map_rank,
    projection_factor_check,
    sample_general_points,
    theorem_chain_check,
)


def _read_config(path: str) -> dict[str, str]:
    """key = value lines; '#' starts a comment; keys match flag names with
    either dashes or underscores."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _as_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise SystemExit(f"config value for {key} is not a boolean: {raw!r}")


class Options:
    """Merged view of CLI args over config-file values over defaults."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config = _read_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default=None, cast=None):
        value = getattr(self.args, key, None)
        if value is None and key in self.config:
            raw = self.config[key]
            if cast is bool:
                return _as_bool(raw, key)
            value = cast(raw) if cast else raw
        if value is None:
            return default
        return value

    def get_int(self, key: str, default=None):
        return self.get(key, default, cast=int)

    def get_flag(self, key: str) -> bool:
        # store_true flags default to None so config can supply them
        value = getattr(self.args, key, None)
        if value is None:
            return _as_bool(self.config[key], key) if key in self.config else False
        return bool(value)


def _parse_prime(raw: str | int | None) -> int:
    if raw is None or raw == "auto":
        return PINNED_PRIMES[0]
    p = int(raw)
    if not is_prime(p):
        raise SystemExit(f"--prime {p} is not prime")
    return p


def _parse_int_list(raw: str) -> list[int]:
    return [int(x) for x in raw.replace(",", " ").split()]


def _cache_dir(opts: Options) -> str | None:
    return opts.get("cache", os.environ.get("VSL_CACHE_DIR"))


def _build_engine(opts: Options) -> Engine:
    prime = _parse_prime(opts.get("prime"))
    dense_limit = opts.get_int("dense_limit", 2000)
    limits = ResourceLimits(
        max_block_cols=opts.get_int("max_block_cols", ResourceLimits.max_block_cols),
        max_space_dim=opts.get_int("max_space_dim", ResourceLimits.max_space_dim),
        dense_limit=dense_limit,
    )
    certify = opts.get_flag("certify")
    certify_prime = None
    rational_cap = None
    if certify:
        certify_prime = next(p for p in PINNED_PRIMES if p != prime)
        rational_cap = dense_limit
    return Engine(
        FieldSpec.prime(prime),
        cache=BlockCache.open(_cache_dir(opts)),
        limits=limits,
        threads=opts.get_int("threads", 1),
        certify_prime=certify_prime,
        rational_cap=rational_cap,
    )


def _params(opts: Options) -> VeroneseParams:
    n = opts.get_int("n")
    d = opts.get_int("d")
    if n is None or d is None:
        raise SystemExit("--n and --d are required")
    return VeroneseParams(n, d, opts.get_int("b", 0))


def _emit(opts: Options, text: str) -> None:
    out = opts.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=False)


# -- subcommands ----------------------------------------------------------


def cmd_bounds(opts: Options) -> int:
    params = _params(opts)
    q = opts.get_int("q")
    strands = [q] if q is not None else list(range(1, params.n + 1))
    preds = []
    for strand in strands:
        for pr in range_predictions(params, strand):
            preds.append(
                {
                    "source": pr.source.value,
                    "q": pr.q,
                    "lo": pr.lo,
                    "hi": pr.hi,
                    "applicable": pr.applicable,
                    "reason": pr.reason,
                }
            )
    if opts.get("format", "text") == "json":
        _emit(opts, _json_text(preds))
    else:
        lines = [f"predicted ranges for {params.label()}"]
        for pr in preds:
            flag = "" if pr["applicable"] else "  [not applicable]"
            lines.append(
                f"  q={pr['q']} {pr['source']:<16} "
                f"[{pr['lo']}, {pr['hi']}]{flag}  ({pr['reason']})"
            )
        _emit(opts, "\n".join(lines))
    return 0


def cmd_betti(opts: Options) -> int:
    params = _params(opts)
    engine = _build_engine(opts)
    p_lo = opts.get_int("p_min", 0)
    p_hi = opts.get_int("p_max", h0(params.n, params.d))
    q_lo = opts.get_int("q_min", 0)
    q_hi = opts.get_int("q_max", params.n + 1)
    table = betti_table(params, engine, (p_lo, p_hi), (q_lo, q_hi))
    fmt = opts.get("format", "ascii")
    if fmt == "json":
        _emit(opts, _json_text(table.to_json_dict()))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(table.csv_rows())
        _emit(opts, buf.getvalue().rstrip("\n"))
    else:
        _emit(opts, table.ascii())
    return 0


def cmd_verify(opts: Options) -> int:
    params = _params(opts)
    engine = _build_engine(opts)
    raw = opts.get("strands")
    strands = _parse_int_list(raw) if raw else list(range(1, params.n + 1))
    report = verify(params, strands, engine, p_max=opts.get_int("p_max"))
    if opts.get("format", "text") == "json":
        _emit(opts, _json_text(report.to_json_dict()))
    else:
        _emit(opts, report.text())
    return 0 if report.ok() else 1


def _load_points(raw: str, prime: int, seed: int, params: VeroneseParams):
    if raw == "random":
        return sample_general_points(params, prime, seed)
    with open(raw, encoding="utf-8") as fh:
        coords = json.load(fh)
    return [PointOverField.make(tuple(int(x) for x in c), prime) for c in coords]


def cmd_maps_ev(opts: Options) -> int:
    params = _params(opts)
    engine = _build_engine(opts)
    prime = engine.field.p
    p = opts.get_int("p")
    if p is None:
        raise SystemExit("--p is required")
    seed = opts.get_int("seed", 0)
    points = _load_points(opts.get("points", "random"), prime, seed, params)
    s = projection_codim(params)
    classes = cycle_basis(params, p, 1, engine)
    target_basis = cycle_basis(params, p - s, 1, engine) if p - s >= 0 else []
    rows = []
    images = []
    for i, cls in enumerate(classes):
        image = ev_D(cls, points)
        images.append(image)
        factor = projection_factor_check(cls, points)
        rows.append(
            {
                "class": i,
                "image_support": len(image.coeffs),
                "factors": factor["factors"],
            }
        )
    rank = induced_map_rank(classes, images, target_basis, prime) if target_basis else 0
    payload = {
        "params": {"n": params.n, "d": params.d, "b": params.b},
        "field": engine.field.label(),
        "p": p,
        "s": s,
        "seed": seed,
        "source_dim": len(classes),
        "target_dim": len(target_basis),
        "induced_rank": rank,
        "classes": rows,
    }
    _emit(opts, _json_text(payload))
    return 0


def cmd_maps_chain(opts: Options) -> int:
    params = _params(opts)
    engine = _build_engine(opts)
    p = opts.get_int("p")
    p_lo = opts.get_int("p_min", p)
    p_hi = opts.get_int("p_max", p)
    if p_lo is None or p_hi is None:
        raise SystemExit("--p or --p-min/--p-max is required")
    rows = [theorem_chain_check(params, pp, engine) for pp in range(p_lo, p_hi + 1)]
    payload = {
        "params": {"n": params.n, "d": params.d, "b": params.b},
        "field": engine.field.label(),
        "rows": rows,
    }
    _emit(opts, _json_text(payload))
    return 0 if all(r["verdict"] == "CONSISTENT" for r in rows) else 1


def cmd_selftest(opts: Options) -> int:
    result = selftest(fast=opts.get_flag("fast"))
    _emit(opts, result.text())
    return 0 if result.ok() else 1


def cmd_cache(opts: Options) -> int:
    directory = _cache_dir(opts)
    if directory is None:
        raise SystemExit("cache directory required (--cache or VSL_CACHE_DIR)")
    if opts.args.cache_action == "stats":
        _emit(opts, _json_text(cache_stats(directory)))
        return 0
    raw = opts.get("keep_primes")
    keep = _parse_int_list(raw) if raw else list(PINNED_PRIMES)
    _emit(opts, _json_text(cache_gc(directory, keep_primes=keep)))
    return 0


# -- argument wiring ------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser, *groups: str) -> None:
    sp.add_argument("--config", help="key=value file mirroring these flags")
    sp.add_argument("--out", help="write output to this file instead of stdout")
    if "params" in groups:
        sp.add_argument("--n", type=int, help="ambient projective dimension")
        sp.add_argument("--d", type=int, help="embedding degree")
        sp.add_argument("--b", type=int, help="coefficient twist (default 0)")
    if "engine" in groups:
        sp.add_argument("--prime", help="'auto' (largest pinned 31-bit prime) or an explicit prime")
        sp.add_argument("--certify", action="store_const", const=True, default=None,
                        help="re-rank each block at a second prime and rationally when small")
        sp.add_argument("--dense-limit", type=int, dest="dense_limit",
                        help="max matrix side for exact rational elimination")
        sp.add_argument("--threads", type=int, help="worker processes for block ranks")
        sp.add_argument("--cache", help="block-rank cache directory (or VSL_CACHE_DIR)")
        sp.add_argument("--max-block-cols", type=int, dest="max_block_cols")
        sp.add_argument("--max-space-dim", type=int, dest="max_space_dim")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsl",
        description="Exact syzygy tables of degree-d embeddings of projective space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bounds", help="predicted nonvanishing ranges and bounds")
    _add_common(sp, "params")
    sp.add_argument("--q", type=int, help="restrict to one strand")
    sp.add_argument("--format", choices=["json", "text"])
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("betti", help="compute a Betti table rectangle")
    _add_common(sp, "params", "engine")
    sp.add_argument("--p-min", type=int, dest="p_min")
    sp.add_argument("--p-max", type=int, dest="p_max")
    sp.add_argument("--q-min", type=int, dest="q_min")
    sp.add_argument("--q-max", type=int, dest="q_max")
    sp.add_argument("--format", choices=["json", "csv", "ascii"])
    sp.set_defaults(func=cmd_betti)

    sp = sub.add_parser("verify", help="grade computed strands against predictions")
    _add_common(sp, "params", "engine")
    sp.add_argument("--strands", help="comma-separated q values (default 1..n)")
    sp.add_argument("--p-max", type=int, dest="p_max")
    sp.add_argument("--format", choices=["json", "text"])
    sp.set_defaults(func=cmd_verify)

    sp_maps = sub.add_parser("maps", help="cycle-level contraction and chain reports")
    maps_sub = sp_maps.add_subparsers(dest="maps_action", required=True)

    sp = maps_sub.add_parser("ev", help="multi-point contraction on a cycle basis")
    _add_common(sp, "params", "engine")
    sp.add_argument("--p", type=int, help="wedge index of the source strand-1 group")
    sp.add_argument("--seed", type=int, help="point-sampling seed (default 0)")
    sp.add_argument("--points", help="'random' or a JSON file of point coordinates")
    sp.set_defaults(func=cmd_maps_ev)

    sp = maps_sub.add_parser("chain", help="degree-drop implication at one or more p")
    _add_common(sp, "params", "engine")
    sp.add_argument("--p", type=int)
    sp.add_argument("--p-min", type=int, dest="p_min")
    sp.add_argument("--p-max", type=int, dest="p_max")
    sp.set_defaults(func=cmd_maps_chain)

    sp = sub.add_parser("selftest", help="pinned invariant suite; exit 0 iff all pass")
    _add_common(sp)
    sp.add_argument("--fast", action="store_const", const=True, default=None)
    sp.set_defaults(func=cmd_selftest)

    sp = sub.add_parser("cache", help="inspect or compact the block-rank cache")
    sp.add_argument("cache_action", choices=["stats", "gc"])
    _add_common(sp)
    sp.add_argument("--cache", help="cache directory (or VSL_CACHE_DIR)")
    sp.add_argument("--keep-primes", dest="keep_primes",
                    help="gc: comma-separated primes to keep (default: pinned list)")
    sp.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    opts = Options(args)
    return args.func(opts)


if __name__ == "__main__":
    sys.exit(main())
