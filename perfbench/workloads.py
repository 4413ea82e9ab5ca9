"""Workload definitions and the correctness gate of the vsl benchmark.

A workload is a fixed sequence of `vsl` commands issued one after another by
a single client (a closed loop).  The benchmark seed picks the primary prime
for every command and the point seed for `maps ev`; the program only sees
the resulting flags.

Every command's report is checked against values pinned from a run at
PINNED_PRIMES[0] and confirmed at PINNED_PRIMES[1].  An operation is one
table entry, verify row or maps row; it fails when its value differs from
the pinned one, when it is SKIPPED, or when its command raised or exited
nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# -- pinned expected values ---------------------------------------------------

# (2,5) linear strand at the LINEAR_CONJ edge: zero at p = 16..21
# (acceptance criterion 10).
COLD_P = range(16, 22)

# (2,4) linear strand, p = 0..15; nonvanishing exactly on [1, 10]
# (acceptance criterion 3).
POOL_ROW = (0, 75, 536, 1947, 4488, 7095, 7920, 6237, 3344, 1089, 120, 0, 0, 0, 0, 0)

# (2,3) strands 1 and 2, p = 0..10 (acceptance criterion 2).
CUBIC_ROWS = {
    1: (0, 27, 105, 189, 189, 105, 27, 0, 0, 0, 0),
    2: (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
}

# maps ev on (2,3): (source_dim, target_dim, induced_rank) per wedge index.
EV_DIMS = {5: (105, 27, 5), 6: (27, 105, 5)}

# maps chain on (2,3), p = 0..10: (first, second); every row CONSISTENT.
CHAIN_ROWS = (
    (0, 0), (27, 0), (105, 0), (189, 0), (189, 3), (105, 8),
    (27, 6), (0, 0), (0, 0), (0, 0), (0, 0),
)


def prime_for_seed(seed: int) -> int:
    """Primary prime of every command in a run with this benchmark seed."""
    from vsl.linalg import PINNED_PRIMES

    return PINNED_PRIMES[seed % len(PINNED_PRIMES)]


# -- report checks ------------------------------------------------------------
# Each check takes the parsed report and returns one bool per operation, in a
# fixed order and of a fixed length, so that a missing value fails its op.


def _entry_dims(report: dict, q: int) -> dict[int, tuple[int | None, str]]:
    return {
        e["p"]: (e["dim"], e["status"])
        for e in report.get("entries", [])
        if e.get("q") == q
    }


def check_betti_row(expected: dict[int, int]) -> Callable[[dict], list[bool]]:
    def check(report: dict) -> list[bool]:
        got = _entry_dims(report, 1)
        return [
            p in got and got[p][1] != "SKIPPED" and got[p][0] == dim
            for p, dim in sorted(expected.items())
        ]

    return check


def check_verify(report: dict) -> list[bool]:
    got = {(r["q"], r["p"]): r for r in report.get("rows", [])}
    out = []
    for q, dims in sorted(CUBIC_ROWS.items()):
        for p, dim in enumerate(dims):
            row = got.get((q, p))
            out.append(
                row is not None and row["verdict"] == "CONSISTENT" and row["dim"] == dim
            )
    return out


def check_ev(p: int) -> Callable[[dict], list[bool]]:
    def check(report: dict) -> list[bool]:
        got = (report.get("source_dim"), report.get("target_dim"), report.get("induced_rank"))
        return [report.get("p") == p and got == EV_DIMS[p]]

    return check


def check_chain(report: dict) -> list[bool]:
    got = {r["p"]: r for r in report.get("rows", [])}
    out = []
    for p, (first, second) in enumerate(CHAIN_ROWS):
        row = got.get(p)
        out.append(
            row is not None
            and row["verdict"] == "CONSISTENT"
            and (row["first"], row["second"]) == (first, second)
        )
    return out


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One `vsl` invocation: its arguments, report check and op count."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[bool]]
    ops: int

    def certifies(self) -> bool:
        return "--certify" in self.argv


@dataclass(frozen=True)
class Workload:
    name: str
    uses_cache: bool
    build: Callable[[int, int, str | None], list[Command]]

    def commands(self, seed: int, cache_dir: str | None = None) -> list[Command]:
        return self.build(prime_for_seed(seed), seed, cache_dir)


def _strand_cold(prime: int, seed: int, cache_dir: str | None) -> list[Command]:
    expected = {p: 0 for p in COLD_P}
    argv = (
        "betti", "--n", "2", "--d", "5", "--p-min", "16", "--p-max", "21",
        "--q-min", "1", "--q-max", "1", "--cache", str(cache_dir),
        "--prime", str(prime), "--format", "json",
    )
    return [Command("betti-2-5", argv, check_betti_row(expected), len(expected))]


def _strand_pool(prime: int, seed: int, cache_dir: str | None) -> list[Command]:
    expected = dict(enumerate(POOL_ROW))
    argv = (
        "betti", "--n", "2", "--d", "4", "--q-min", "1", "--q-max", "1",
        "--threads", "2", "--prime", str(prime), "--format", "json",
    )
    return [Command("betti-2-4", argv, check_betti_row(expected), len(expected))]


def _claims(prime: int, seed: int, cache_dir: str | None) -> list[Command]:
    cubic = ("--n", "2", "--d", "3")
    pr = ("--prime", str(prime))
    cmds = [
        Command(
            "verify",
            ("verify", *cubic, "--strands", "1,2", "--certify", *pr, "--format", "json"),
            check_verify,
            sum(len(v) for v in CUBIC_ROWS.values()),
        )
    ]
    for p in sorted(EV_DIMS):
        cmds.append(
            Command(
                f"maps-ev-{p}",
                ("maps", "ev", *cubic, "--p", str(p), "--seed", str(seed), *pr),
                check_ev(p),
                1,
            )
        )
    cmds.append(
        Command(
            "maps-chain",
            ("maps", "chain", *cubic, "--p-min", "0", "--p-max", "10", *pr),
            check_chain,
            len(CHAIN_ROWS),
        )
    )
    return cmds


WORKLOADS = {
    "strand-cold": Workload("strand-cold", True, _strand_cold),
    "strand-pool": Workload("strand-pool", False, _strand_pool),
    "claims": Workload("claims", False, _claims),
}


def grade(cmd: Command, exit_code: int, report: dict | None) -> list[bool]:
    """Per-operation pass/fail of one command run."""
    if exit_code != 0 or report is None:
        return [False] * cmd.ops
    try:
        result = cmd.check(report)
    except (KeyError, TypeError, AttributeError):
        return [False] * cmd.ops
    if len(result) != cmd.ops:
        raise ValueError(f"{cmd.name}: check gave {len(result)} ops, expected {cmd.ops}")
    return result
