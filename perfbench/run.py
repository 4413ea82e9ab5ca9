"""The vsl benchmark: closed-loop CLI workloads with a correctness gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports vsl from `src/`.
Each workload is one client issuing its `vsl` commands one after another,
every command in a fresh interpreter with VSL_CACHE_DIR removed from its
environment.  The seed picks the primary prime (PINNED_PRIMES[seed % 10])
and the `maps ev` point seed.

--trace 0 repeats the workload while another repetition still fits in S
seconds (at least once) and prints the end-to-end metrics: medians over
the repetitions, and the fastest of the run's interpreter start-ups.  --trace 1 runs the workload once untraced and once with
every layer wrapped (see spans.py), and prints the per-layer metrics; S is
not used.  Every report is checked against pinned values, and within one
invocation every repetition's report bytes (and, for strand-cold, the cache
file digest) must equal the first repetition's.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Reports, logs, spans (trace.jsonl) and an
environment record (env.json) are left in .perfbench_out/ under the
checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from statistics import median

import spans
from workloads import WORKLOADS, grade, prime_for_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 8  # extra interpreter starts at the start and at the end of a run
BUDGET_S = 170.0  # a run must end well inside 180 s


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill and wait out anything left in a finished child's process group."""
    for _ in range(100):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise RuntimeError(f"process group {pgid} did not exit")


def spawn(args: list[str], log: str, env: dict, deadline: float):
    """Run child.py in its own session; return (exit code, max RSS in KiB, spawn time).

    Max RSS comes from wait4 on this child, which covers the child and the
    pool workers it reaped, and nothing else.
    """
    t_spawn = time.monotonic()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, CHILD, *args],
            cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT, start_new_session=True,
        )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return proc.returncode, usage.ru_maxrss, t_spawn


def _read_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, json.loads(raw)
    except (OSError, ValueError):
        return None, None


class Run:
    """One invocation: a workload at a seed, its repetitions and their results."""

    def __init__(self, workload, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(OUT, f"{workload.name}-s{seed}-t{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = {k: v for k, v in os.environ.items() if k != "VSL_CACHE_DIR"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = self.dir
        self.deadline = time.monotonic() + BUDGET_S
        self.setups: list[float] = []
        self.reps: list[dict] = []

    def probe(self, k: int) -> None:
        side = os.path.join(self.dir, f"probe-{k}.json")
        code, _, t_spawn = spawn([side, "probe", "probe"], side + ".log", self.env, self.deadline)
        _, info = _read_json(side)
        if code != 0 or info is None:
            raise SystemExit(f"perfbench: cannot import vsl (see {side}.log)")
        if not os.path.abspath(info["vsl"]).startswith(SRC + os.sep):
            raise SystemExit(f"perfbench: vsl imported from {info['vsl']}, not from {SRC}")
        self.setups.append(info["t_ready"] - t_spawn)

    def repetition(self, mode: str) -> None:
        k = len(self.reps)
        cache_dir = None
        if self.workload.uses_cache:
            cache_dir = os.path.join(self.dir, f"cache-{k}")
            shutil.rmtree(cache_dir, ignore_errors=True)
        rep = {
            "wall": 0.0, "cpu": 0.0, "rss_kb": 0, "ops": {}, "reports": {},
            "spans": [], "stats": Counter(), "ranked": 0, "certified": 0, "errors": [],
        }
        for cmd in self.workload.commands(self.seed, cache_dir):
            self.probe(len(self.setups))
            stem = os.path.join(self.dir, f"{k}-{cmd.name}")
            run_id = f"{self.workload.name}-s{self.seed}-r{k}-{cmd.name}"
            code, rss_kb, t_spawn = spawn(
                [stem + ".side.json", mode, run_id, *cmd.argv, "--out", stem + ".json"],
                stem + ".log", self.env, self.deadline,
            )
            raw, report = _read_json(stem + ".json")
            _, side = _read_json(stem + ".side.json")
            rep["rss_kb"] = max(rep["rss_kb"], rss_kb)
            rep["reports"][cmd.name] = raw
            if side is None:
                code = code or 1
                rep["errors"].append(f"{cmd.name}: no sidecar, exit {code}")
            else:
                self.setups.append(side["t_ready"] - t_spawn)
                rep["wall"] += side["t_done"] - side["t_start"]
                rep["cpu"] += side["cpu_s"]
                rep["spans"].extend(side["spans"])
                caps = [e["rational_cap"] for e in side["engines"] if e["rational_cap"]]
                for engine in side["engines"]:
                    rep["stats"].update(engine["stats"])
                if cmd.certifies() and caps:
                    ranked, certified = spans.certify_counts(side["spans"], max(caps))
                    rep["ranked"] += ranked
                    rep["certified"] += certified
                if side["error"]:
                    rep["errors"].append(f"{cmd.name}: {side['error'].strip()}")
            if code != 0:
                rep["errors"].append(f"{cmd.name}: exit {code} (log {stem}.log)")
            rep["ops"][cmd.name] = grade(cmd, code, report)
        rep["cache_bytes"], rep["cache_digest"] = 0, None
        if cache_dir is not None:
            path = os.path.join(cache_dir, "blocks.jsonl")
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    raw = fh.read()
                rep["cache_bytes"] = len(raw)
                rep["cache_digest"] = hashlib.sha256(raw).hexdigest()
        self._check_determinism(rep)
        self.reps.append(rep)

    def _check_determinism(self, rep: dict) -> None:
        """Fail every op of a command whose report bytes differ from the first
        repetition's, and all ops when the cache digest differs."""
        if not self.reps:
            return
        first = self.reps[0]
        for name, raw in rep["reports"].items():
            if raw != first["reports"][name] or rep["cache_digest"] != first["cache_digest"]:
                rep["ops"][name] = [False] * len(rep["ops"][name])
                rep["errors"].append(f"{name}: output differs from repetition 0")

    def counts(self) -> tuple[int, int]:
        ops = [ok for rep in self.reps for oks in rep["ops"].values() for ok in oks]
        return len(ops), ops.count(False)


def environment(seed: int, prime: int) -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model
            )
    except OSError:
        pass
    return {
        "seed": seed,
        "prime": prime,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": model,
        "loadavg_1m": os.getloadavg()[0],
    }


def end_to_end(run: Run) -> dict:
    reps = run.reps
    attempted, failed = run.counts()
    certifying = any(c.certifies() for c in run.workload.commands(run.seed))
    ranked = sum(r["ranked"] for r in reps)
    certified = sum(r["certified"] for r in reps)
    # A workload that asks for no certification leaves none undone: 1.0.
    share = (certified / ranked if ranked else 0.0) if certifying else 1.0
    return {
        "wall_s": (median(r["wall"] for r in reps), "s"),
        # Start-up noise only ever adds time, so the fastest start-up is the estimate.
        "setup_s": (min(run.setups), "s"),
        "cpu_s": (median(r["cpu"] for r in reps), "s"),
        "peak_rss_mb": (median(r["rss_kb"] / 1024 for r in reps), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "certified_share": (share, "ratio"),
    }


def per_layer(run: Run) -> dict:
    plain, traced = run.reps
    metrics = spans.layer_metrics(traced["spans"], traced["stats"], traced["cache_bytes"])
    metrics["trace.wall_s"] = (traced["wall"], "s")
    metrics["trace.overhead_s"] = (traced["wall"] - plain["wall"], "s")
    with open(os.path.join(run.dir, "trace.jsonl"), "w", encoding="utf-8") as fh:
        for span in traced["spans"]:
            fh.write(json.dumps(span) + "\n")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vsl", "cli.py")):
        print(f"perfbench: no vsl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace))
    env = environment(args.seed, prime_for_seed(args.seed))
    with open(os.path.join(run.dir, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=2)
    print("perfbench env: " + json.dumps(env), file=sys.stderr)

    for _ in range(SETUP_PROBES):
        run.probe(len(run.setups))
    if args.trace:
        run.repetition("plain")
        run.repetition("trace")
        metrics = per_layer(run)
    else:
        t0 = time.monotonic()
        while True:
            run.repetition("plain")
            elapsed = time.monotonic() - t0
            step = elapsed / len(run.reps)
            if elapsed + step > args.seconds or time.monotonic() + 1.5 * step > run.deadline:
                break
        for _ in range(SETUP_PROBES):
            run.probe(len(run.setups))
        metrics = end_to_end(run)

    for rep in run.reps:
        for err in rep["errors"]:
            print(f"perfbench: {err}", file=sys.stderr)
    attempted, failed = run.counts()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(run.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "repetitions": len(run.reps), **result}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
