"""Command-line entry points.

Subcommands: bounds, betti, verify, maps (ev | chain), selftest, cache
(stats | gc).  Every flag can also be supplied through a key=value config
file (--config FILE), whose values become the subcommand's defaults:
explicit command-line values win on conflict.  The cache directory defaults
to the VSL_CACHE_DIR environment variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import sys

from .bounds import VeroneseParams, h0, projection_codim, range_predictions
from .betti import CONSISTENT, Engine, ResourceLimits, betti_table
from .cache import BlockCache, cache_gc, cache_stats
from .harness import selftest, verify
from .linalg import DEFAULT_DENSE_LIMIT, PINNED_PRIMES, FieldSpec
from .polyspace import PointOverField
from .syzygy import (
    cycle_basis,
    ev_D,
    genericity_certificate,
    induced_map_rank,
    projection_factor_check,
    sample_general_points,
    theorem_chain_check,
)


def _read_config(path: str) -> dict[str, str]:
    """key = value lines; '#' starts a comment at the start of a line or
    after whitespace, so a value such as res#1.txt keeps it; keys match flag
    names with either dashes or underscores."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = re.sub(r"(^|\s)#.*", "", raw).strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _config_defaults(sp: argparse.ArgumentParser, path: str) -> None:
    """Make the values in config file `path` defaults of subcommand sp.

    argparse parses a string default with its flag's `type` when the flag
    is not on the command line, so a value the type refuses is a usage
    error.
    store_true flags take the _TRUE/_FALSE spellings, and choices are
    checked here.  Keys that name no flag of sp are ignored.
    """
    try:
        config = _read_config(path)
    except (OSError, ValueError) as err:
        sp.error(f"cannot read config file: {err}")
    defaults = {}
    for action in sp._actions:
        raw = config.get(action.dest)
        if raw is None or not action.option_strings or action.dest in ("config", "help"):
            continue
        if action.nargs == 0:  # store_true
            if raw.lower() not in _TRUE | _FALSE:
                sp.error(f"config value for {action.dest} is not a boolean: {raw!r}")
            defaults[action.dest] = raw.lower() in _TRUE
        elif action.choices is not None and raw not in action.choices:
            sp.error(f"config value for {action.dest} is not one of {action.choices}: {raw!r}")
        else:
            defaults[action.dest] = raw
    sp.set_defaults(**defaults)


def _prime_arg(raw: str) -> int:
    """--prime: 'auto' (the first pinned prime) or a prime FieldSpec accepts."""
    if raw == "auto":
        return PINNED_PRIMES[0]
    try:
        return FieldSpec.prime(int(raw)).p
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an odd prime below 2^31, got {raw!r}"
        ) from None


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than lo."""
    def parse(raw: str) -> int:
        value = int(raw)
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


def _int_list_arg(raw: str) -> list[int]:
    """Comma-separated distinct integers >= 0; an empty list is refused, not
    read as the default."""
    try:
        values = [int(x) for x in raw.replace(",", " ").split()]
    except ValueError:
        values = []
    if not values or min(values) < 0:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, each >= 0, got {raw!r}"
        )
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"expected each value once, got {raw!r}")
    return values


def _build_engine(args: argparse.Namespace) -> Engine:
    return Engine(
        FieldSpec.prime(args.prime),
        cache=BlockCache.open(args.cache),
        limits=ResourceLimits(args.max_block_cols, args.max_space_dim),
        threads=args.threads,
        certify_prime=(
            next(p for p in PINNED_PRIMES if p != args.prime) if args.certify else None
        ),
        rational_cap=args.dense_limit if args.certify else None,
    )


def _params(args: argparse.Namespace) -> VeroneseParams:
    if args.n is None or args.d is None:
        args.parser.error("--n and --d are required")
    return VeroneseParams(args.n, args.d, args.b)


def _check_window(args: argparse.Namespace, name: str, lo: int, hi: int) -> None:
    if lo > hi:  # an empty window is a usage error, not an empty report
        args.parser.error(f"--{name}-min {lo} is above the last {name} in the window, {hi}")


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=False)


# -- subcommands ----------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    params = _params(args)
    strands = [args.q] if args.q is not None else list(range(1, params.n + 1))
    preds = [
        {**dataclasses.asdict(pr), "source": pr.source.value}
        for strand in strands
        for pr in range_predictions(params, strand)
    ]
    if args.format == "json":
        _emit(args, _json_text(preds))
    else:
        lines = [f"predicted ranges for {params.label()}"]
        for pr in preds:
            flag = "" if pr["applicable"] else "  [not applicable]"
            lines.append(
                f"  q={pr['q']} {pr['source']:<16} "
                f"[{pr['lo']}, {pr['hi']}]{flag}  ({pr['reason']})"
            )
        _emit(args, "\n".join(lines))
    return 0


def cmd_betti(args: argparse.Namespace) -> int:
    params = _params(args)
    p_max = h0(params.n, params.d) if args.p_max is None else args.p_max
    q_max = params.n + 1 if args.q_max is None else args.q_max
    _check_window(args, "p", args.p_min, p_max)
    _check_window(args, "q", args.q_min, q_max)
    with _build_engine(args) as engine:
        table = betti_table(params, engine, (args.p_min, p_max), (args.q_min, q_max))
    if args.format == "json":
        _emit(args, _json_text(table.to_json_dict()))
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(table.csv_rows())
        _emit(args, buf.getvalue().rstrip("\n"))
    else:
        _emit(args, table.ascii())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params = _params(args)
    strands = args.strands or list(range(1, params.n + 1))
    p_min, p_max = args.p_min, args.p_max
    _check_window(args, "p", p_min, h0(params.n, params.d) if p_max is None else p_max)
    with _build_engine(args) as engine:
        report = verify(params, strands, engine, p_max=p_max, p_min=p_min)
    if args.format == "json":
        _emit(args, _json_text(report.to_json_dict()))
    else:
        _emit(args, report.text())
    return 0 if report.ok() else 1


def _load_points(args: argparse.Namespace, prime: int, params: VeroneseParams, s: int):
    """The seeded points, or the s points in general position of the file --points."""
    if args.points == "random":
        return sample_general_points(params, prime, args.seed)
    try:
        with open(args.points, encoding="utf-8") as fh:
            rows = json.load(fh)
        if any(type(c) is not int for row in rows for c in row):  # bool is an int subclass
            raise ValueError("every coordinate must be a JSON integer")
        points = [PointOverField.make(tuple(row), prime) for row in rows]
        if len(points) != s or any(len(pt.coords) != params.n + 1 for pt in points):
            raise ValueError(f"expected {s} points with {params.n + 1} coordinates each")
        if any(pt.coords[0] for pt in points):
            raise ValueError("every point must lie on the hyperplane x_0 = 0")
        if not genericity_certificate(params, points):
            raise ValueError("the points fail the general-position certificate")
    except (OSError, ValueError, TypeError) as err:
        args.parser.error(f"--points {args.points}: {err}")
    return points


def cmd_maps_ev(args: argparse.Namespace) -> int:
    params = _params(args)
    p = args.p
    s = projection_codim(params)
    if p is None:
        args.parser.error("--p is required")
    if p < s:
        args.parser.error(f"--p {p} is below the projection codimension s = {s}")
    points = _load_points(args, args.prime, params, s)
    with _build_engine(args) as engine:
        classes = cycle_basis(params, p, 1, engine)
        target_dim = engine.kpq_dim(params, p - s, 1)
    images = ev_D(classes, points)
    rows = [
        {"class": i, "image_support": len(image.coeffs),
         "factors": projection_factor_check(image)["factors"]}
        for i, image in enumerate(images)
    ]
    payload = {
        "params": params.as_json(),
        "field": engine.field.label(),
        "p": p,
        "s": s,
        "seed": args.seed,
        "source_dim": len(classes),
        "target_dim": target_dim,
        "induced_rank": induced_map_rank(images),
        "classes": rows,
    }
    _emit(args, _json_text(payload))
    return 0


def cmd_maps_chain(args: argparse.Namespace) -> int:
    params = _params(args)
    if params.b:
        args.parser.error("--b must be 0: the degree-drop chain is about the untwisted table")
    p_lo = args.p if args.p_min is None else args.p_min
    p_hi = args.p if args.p_max is None else args.p_max
    if p_lo is None or p_hi is None:
        args.parser.error("--p or --p-min/--p-max is required")
    _check_window(args, "p", p_lo, p_hi)
    with _build_engine(args) as engine:
        rows = [theorem_chain_check(params, pp, engine) for pp in range(p_lo, p_hi + 1)]
    payload = {
        "params": params.as_json(),
        "field": engine.field.label(),
        "rows": rows,
    }
    _emit(args, _json_text(payload))
    return 0 if all(r["verdict"] == CONSISTENT for r in rows) else 1


def cmd_selftest(args: argparse.Namespace) -> int:
    result = selftest(fast=args.fast)
    _emit(args, result.text())
    return 0 if result.ok() else 1


def cmd_cache(args: argparse.Namespace) -> int:
    if args.cache is None:
        args.parser.error("cache directory required (--cache or VSL_CACHE_DIR)")
    if not os.path.isdir(args.cache):
        args.parser.error(f"cache directory {args.cache} does not exist")
    if args.cache_action == "stats":
        _emit(args, _json_text(cache_stats(args.cache)))
        return 0
    keep = args.keep_primes or list(PINNED_PRIMES)
    _emit(args, _json_text(cache_gc(args.cache, keep_primes=keep)))
    return 0


# -- argument wiring ------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser, *groups: str) -> None:
    sp.add_argument("--config", help="key=value file mirroring these flags")
    sp.add_argument("--out", help="write output to this file instead of stdout")
    if "params" in groups:
        sp.add_argument("--n", type=_int_at_least(1), help="ambient projective dimension")
        sp.add_argument("--d", type=_int_at_least(1), help="embedding degree")
        sp.add_argument("--b", type=int, default=0, help="coefficient twist (default 0)")
    if "engine" in groups:
        sp.add_argument("--prime", type=_prime_arg, default="auto",
                        help="'auto' (largest pinned 31-bit prime) or an explicit prime")
        sp.add_argument("--certify", action="store_true",
                        help="re-rank each block at a second prime and rationally when small")
        sp.add_argument("--dense-limit", type=_int_at_least(1), dest="dense_limit",
                        default=DEFAULT_DENSE_LIMIT,
                        help="max block side certified by exact rational elimination "
                        "(default %(default)s)")
        sp.add_argument("--threads", type=_int_at_least(1), default=1,
                        help="worker processes for block ranks")
        sp.add_argument("--cache", default=os.environ.get("VSL_CACHE_DIR"),
                        help="block-rank cache directory (or VSL_CACHE_DIR)")
        sp.add_argument("--max-block-cols", type=_int_at_least(1), dest="max_block_cols",
                        default=ResourceLimits.max_block_cols)
        sp.add_argument("--max-space-dim", type=_int_at_least(1), dest="max_space_dim",
                        default=ResourceLimits.max_space_dim)


def _command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """A subcommand parser; it is also a default, for `--config` to fill."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(func=func, parser=sp)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsl",
        description="Exact syzygy tables of degree-d embeddings of projective space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _command(sub, "bounds", cmd_bounds, "predicted nonvanishing ranges and bounds")
    _add_common(sp, "params")
    sp.add_argument("--q", type=_int_at_least(0), help="restrict to one strand")
    sp.add_argument("--format", choices=["json", "text"], default="text")

    sp = _command(sub, "betti", cmd_betti, "compute a Betti table rectangle")
    _add_common(sp, "params", "engine")
    sp.add_argument("--p-min", type=_int_at_least(0), dest="p_min", default=0)
    sp.add_argument("--p-max", type=_int_at_least(0), dest="p_max")
    sp.add_argument("--q-min", type=_int_at_least(0), dest="q_min", default=0)
    sp.add_argument("--q-max", type=_int_at_least(0), dest="q_max")
    sp.add_argument("--format", choices=["json", "csv", "ascii"], default="ascii")

    sp = _command(sub, "verify", cmd_verify, "grade computed strands against predictions")
    _add_common(sp, "params", "engine")
    sp.add_argument("--strands", type=_int_list_arg,
                    help="comma-separated q values (default 1..n)")
    sp.add_argument("--p-min", type=_int_at_least(0), dest="p_min", default=0,
                    help="first p graded (default 0)")
    sp.add_argument("--p-max", type=_int_at_least(0), dest="p_max")
    sp.add_argument("--format", choices=["json", "text"], default="text")

    sp_maps = sub.add_parser("maps", help="cycle-level contraction and chain reports")
    maps_sub = sp_maps.add_subparsers(dest="maps_action", required=True)

    sp = _command(maps_sub, "ev", cmd_maps_ev, "multi-point contraction on a cycle basis")
    _add_common(sp, "params", "engine")
    sp.add_argument("--p", type=_int_at_least(0), help="wedge index of the source strand-1 group")
    sp.add_argument("--seed", type=int, default=0, help="point-sampling seed (default 0)")
    sp.add_argument("--points", default="random",
                    help="'random' or a JSON file of point coordinates")

    sp = _command(maps_sub, "chain", cmd_maps_chain, "degree-drop implication at one or more p")
    _add_common(sp, "params", "engine")
    sp.add_argument("--p", type=_int_at_least(0))
    sp.add_argument("--p-min", type=_int_at_least(0), dest="p_min")
    sp.add_argument("--p-max", type=_int_at_least(0), dest="p_max")

    sp = _command(sub, "selftest", cmd_selftest, "pinned invariant suite; exit 0 iff all pass")
    _add_common(sp)
    sp.add_argument("--fast", action="store_true")

    sp = _command(sub, "cache", cmd_cache, "inspect or compact the block-rank cache")
    sp.add_argument("cache_action", choices=["stats", "gc"])
    _add_common(sp)
    sp.add_argument("--cache", default=os.environ.get("VSL_CACHE_DIR"),
                    help="cache directory (or VSL_CACHE_DIR)")
    sp.add_argument("--keep-primes", dest="keep_primes", type=_int_list_arg,
                    help="gc: comma-separated primes to keep (default: pinned list)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _config_defaults(args.parser, args.config)
        args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # flush here, so a closed stdout fails inside the guard, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: silence the interpreter's own final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
