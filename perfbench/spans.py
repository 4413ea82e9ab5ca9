"""Outside-in tracing of vsl's modules: spans, self time and layer metrics.

The benchmark wraps public functions of each vsl module from outside; no
code under src/ knows about it.  A wrapper is installed wherever a caller
looks the name up: modules bind with `from .linalg import sparse_rank`, so
`vsl.betti.sparse_rank` and `vsl.harness.sparse_rank` are replaced along
with `vsl.linalg.sparse_rank`.

Each call becomes a span (id, name, start, end, parent id, run id, info).
Spans stay in memory until the command ends.  A span's self time is its
duration minus the part of it that its child spans cover.

Process-pool workers are forked from a traced parent, but their wrappers
record nothing (they check the pid), so rank work done inside a pool is
visible only as the parent-side `betti.pool` span.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
import resource
import sys
import time
from collections import defaultdict

# Functions wrapped in a traced run, as "module.name" or "module.Class.name".
TRACED = (
    "cli.main",
    "koszul.space_blocks",
    "koszul.differential_block",
    "linalg.sparse_rank",
    "linalg.rational_rank",
    "linalg.rref_mod",
    "linalg.nullspace_mod",
    "linalg.solve_mod",
    "linalg.dense_rank_mod",
    "betti.Engine.kpq_dim",
    "cache.BlockCache.get",
    "cache.BlockCache.put",
    "harness.verify",
    "syzygy.cycle_basis",
    "syzygy.ev_D",
    "syzygy.projection_factor_check",
    "syzygy.induced_map_rank",
    "syzygy.theorem_chain_check",
)

# Functions wrapped in an untraced run of a certifying command: enough to
# count distinct ranked and rationally certified blocks, and nothing else.
CERTIFY_AUDIT = ("linalg.sparse_rank", "linalg.rational_rank")

DENSE = ("linalg.rref_mod", "linalg.nullspace_mod", "linalg.solve_mod", "linalg.dense_rank_mod")
SYZYGY = (
    "cycle_basis", "ev_D", "projection_factor_check", "induced_map_rank", "theorem_chain_check",
)
STAT_KEYS = ("blocks_ranked", "cache_hits", "dual_prime_checks", "rational_certified", "refusals")


def _block_info(args, result) -> dict:
    block = args[0]
    return {"key": repr(tuple(block.key)), "nrows": block.nrows, "ncols": block.ncols}


def _assembly_info(args, result) -> dict:
    return {"ncols": result.ncols, "nnz": len(result.entries)}


# Per-call details kept in the span's info, keyed by wrapped name.
NOTES = {
    "linalg.sparse_rank": _block_info,
    "linalg.rational_rank": _block_info,
    "koszul.differential_block": _assembly_info,
    "cache.BlockCache.get": lambda args, result: {"hit": result is not None},
    "harness.verify": lambda args, result: {"rows": len(result.rows)},
}


class Recorder:
    """In-memory span list for one command, with a stack for parent links."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent, self.run_id, {}]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        popped = self.stack.pop()
        if popped != span[0]:
            raise RuntimeError(f"span {span[1]} closed out of order")

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6]["error"] = True
                raise
            finally:
                self.close(span)
            if note is not None:
                span[6].update(note(args, result))
            return result

        return traced


def _vsl_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "vsl" or name.startswith("vsl.")]


def install(recorder: Recorder, names) -> None:
    """Replace each named function wherever a vsl module binds it."""
    modules = _vsl_modules()
    for full in names:
        mod_name, *rest = full.split(".")
        owner = sys.modules[f"vsl.{mod_name}"]
        if len(rest) == 2:  # a method: patch the class attribute
            cls = getattr(owner, rest[0])
            setattr(cls, rest[1], recorder.wrap(full, getattr(cls, rest[1])))
            continue
        original = getattr(owner, rest[0])
        wrapper = recorder.wrap(full, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def install_pool_probe(recorder: Recorder) -> None:
    """Record every process pool as a `betti.pool` span with worker CPU.

    Worker CPU is the growth of this process's reaped-children CPU over the
    pool's life; shutdown(wait=True) joins the workers, so they are reaped
    by then.
    """
    base = concurrent.futures.ProcessPoolExecutor

    class TracedPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._bench_span = recorder.open("betti.pool")
            self._bench_span[6].update(threads=self._max_workers, cpu0=_children_cpu())

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait=wait, **kwargs)
            span, self._bench_span = self._bench_span, None
            if span is not None:
                recorder.close(span)
                span[6]["worker_cpu_s"] = _children_cpu() - span[6].pop("cpu0")

    concurrent.futures.ProcessPoolExecutor = TracedPool


# -- analysis -----------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children."""
    children: dict[int | None, list] = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(s[0], ()), key=lambda c: c[2]):
            lo, hi = max(c[2], cursor), min(c[3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s[0]] = (end - start) - covered
    return out


def certify_counts(spans, cap: int) -> tuple[int, int]:
    """(distinct blocks ranked within cap, of those the ones certified over QQ)."""
    ranked = {
        s[6]["key"]
        for s in spans
        if s[1] == "linalg.sparse_rank" and "key" in s[6]
        and s[6]["nrows"] <= cap and s[6]["ncols"] <= cap
    }
    certified = {
        s[6]["key"] for s in spans if s[1] == "linalg.rational_rank" and "key" in s[6]
    }
    return len(ranked), len(ranked & certified)


def layer_metrics(spans, engine_stats: dict, cache_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced workload run, as name -> (value, unit).

    `spans` may hold several commands' spans; ids are unique per run id.
    """
    by_run: dict[str, list] = defaultdict(list)
    for s in spans:
        by_run[s[5]].append(s)
    own: dict[tuple[str, int], float] = {}
    for run, group in by_run.items():
        for sid, t in self_times(group).items():
            own[(run, sid)] = t

    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    dur: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        calls[s[1]] += 1
        self_s[s[1]] += own[(s[5], s[0])]
        dur[s[1]].append(s[3] - s[2])

    def of(name: str) -> list:
        return [s for s in spans if s[1] == name]

    sparse = of("linalg.sparse_rank")
    sparse_cols = sum(s[6].get("ncols", 0) for s in sparse)
    sparse_time = sum(dur["linalg.sparse_rank"])
    rational_keys = {s[6]["key"] for s in of("linalg.rational_rank") if "key" in s[6]}
    blocks = [s[6] for s in of("koszul.differential_block") if "ncols" in s[6]]
    gets = of("cache.BlockCache.get")
    pools = of("betti.pool")
    pool_cpu = sum(s[6].get("worker_cpu_s", 0.0) for s in pools)
    pool_capacity = sum(s[6]["threads"] * (s[3] - s[2]) for s in pools)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {
        "linalg.sparse_rank.calls": (calls["linalg.sparse_rank"], "count"),
        "linalg.sparse_rank.self_s": (self_s["linalg.sparse_rank"], "s"),
        "linalg.sparse_rank.max_s": (max(dur["linalg.sparse_rank"], default=0.0), "s"),
        "linalg.sparse_rank.cols_per_s": (ratio(sparse_cols, sparse_time), "1/s"),
        "linalg.rational_rank.calls": (calls["linalg.rational_rank"], "count"),
        "linalg.rational_rank.self_s": (self_s["linalg.rational_rank"], "s"),
        "linalg.rational_rank.distinct_share": (
            ratio(len(rational_keys), calls["linalg.rational_rank"]), "ratio"),
        "linalg.dense.self_s": (sum(self_s[n] for n in DENSE), "s"),
        "koszul.space_blocks.calls": (calls["koszul.space_blocks"], "count"),
        "koszul.space_blocks.self_s": (self_s["koszul.space_blocks"], "s"),
        "koszul.differential_block.calls": (calls["koszul.differential_block"], "count"),
        "koszul.differential_block.self_s": (self_s["koszul.differential_block"], "s"),
        "koszul.block_cols": (sum(b["ncols"] for b in blocks), "count"),
        "koszul.block_nnz": (sum(b["nnz"] for b in blocks), "count"),
        "koszul.max_block_cols": (max((b["ncols"] for b in blocks), default=0), "count"),
        "betti.kpq_dim.calls": (calls["betti.Engine.kpq_dim"], "count"),
        "betti.kpq_dim.self_s": (self_s["betti.Engine.kpq_dim"], "s"),
        "betti.pool.starts": (len(pools), "count"),
        "betti.pool.s": (sum(dur["betti.pool"]), "s"),
        "betti.pool.worker_cpu_s": (pool_cpu, "s"),
        "betti.pool.efficiency": (ratio(pool_cpu, pool_capacity), "ratio"),
        "cache.get.calls": (len(gets), "count"),
        "cache.hit_ratio": (ratio(sum(s[6].get("hit", False) for s in gets), len(gets)), "ratio"),
        "cache.put.calls": (calls["cache.BlockCache.put"], "count"),
        "cache.put.self_s": (self_s["cache.BlockCache.put"], "s"),
        "cache.bytes_written": (cache_bytes, "bytes"),
        "harness.verify.self_s": (self_s["harness.verify"], "s"),
        "harness.rows": (sum(s[6].get("rows", 0) for s in of("harness.verify")), "count"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "trace.spans": (len(spans), "count"),
    }
    for name in SYZYGY:
        m[f"syzygy.{name}.self_s"] = (self_s[f"syzygy.{name}"], "s")
    for key in STAT_KEYS:
        m[f"betti.{key}"] = (engine_stats.get(key, 0), "count")
    return m

