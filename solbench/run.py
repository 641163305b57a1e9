"""Benchmark of the diracsoliton CLI pipeline, end to end and per layer.

    python3 solbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's src/.  One round runs the workload's CLI
commands one after another, each in a fresh child process with BLAS and
OpenMP pinned to one thread.  Rounds repeat until --seconds have passed.
Every round's artifacts are hashed and checked (see checks.py).

--trace 0 reports the end-to-end metrics (medians over rounds):
  wall_s       child start to exit, summed over the round's commands
  setup_s      interpreter start, imports and load_config, per child
  peak_rss_mb  highest peak RSS of any child in the round
--trace 1 repeats an untraced round, a round traced for time and a
round traced for allocations, and reports the per-layer metrics of
spans.py: times from the time-traced rounds, allocation peaks from the
allocation-traced ones, and the tracing overhead (time-traced minus
untraced wall_s).

The last stdout line is the result object; the line before it is a
record of the run (machine facts, per-round figures, errors).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# One BLAS thread: a second OpenBLAS thread did not shorten verify-all on
# a 2-core host but raised its CPU time by half and made it compete with
# the rest of the machine.  The parent is pinned too (before numpy loads),
# so idle BLAS threads of its checks do not spin beside a timed child.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".solbench_out"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(cli_args: list[str], work: Path, trace: str | None = None,
              setup_only: bool = False) -> dict:
    """One child process, timed from launch to reaped exit."""
    work.mkdir(parents=True, exist_ok=True)
    stamp = work / "setup.stamp"
    cmd = [sys.executable, str(HERE / "child.py"), "--stamp", str(stamp)]
    if trace is not None:
        cmd += ["--trace", str(work / "spans.json")]
        if trace == "alloc":
            cmd.append("--alloc")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", *cli_args]
    with open(work / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, env=child_env(), cwd=work, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "setup_s": float(stamp.read_text()) - start if stamp.exists() else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stderr": (work / "stderr.txt").read_text(errors="replace")[-400:],
    }


def run_round(commands, cfg_path: Path, round_dir: Path, trace: str | None) -> dict:
    children = []
    for i, command in enumerate(commands):
        work = round_dir / f"{i}-{command}"
        out = work / "out"
        res = run_child(
            [command, "--config", str(cfg_path), "--out", str(out)], work, trace
        )
        children.append(dict(res, command=command, out=out))
    return {
        "trace": trace,
        "wall_s": sum(c["wall_s"] for c in children),
        "cpu_s": sum(c["cpu_s"] for c in children),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "children": children,
    }


class Verifier:
    """Checks each round's artifacts; counts failed CLI invocations.

    An invocation fails on a non-zero exit, on artifacts whose hashes
    differ from the same invocation in the run's first round, or on a
    failed output check.  Checks run once per distinct artifact set.
    """

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.reference: dict[int, dict] = {}
        self.results: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []
        self.notes: list[str] = []

    def verify(self, round_: dict):
        children = round_["children"]
        # the first command writes the dirac_point.json later commands read
        dirac_out = children[0]["out"]
        for i, child in enumerate(children):
            self.attempted += 1
            command = child["command"]
            if child["code"] != 0:
                self._fail(f"{command} exited {child['code']}: {child['stderr'].strip()}")
                continue
            hashes = checks.artifact_hashes(child["out"])
            reference = self.reference.setdefault(i, hashes)
            if hashes != reference:
                differ = sorted(k for k in hashes.keys() | reference.keys()
                                if hashes.get(k) != reference.get(k))
                self._fail(f"{command} artifacts differ between rounds: {differ}", True)
                continue
            key = (i, json.dumps(hashes), json.dumps(checks.artifact_hashes(dirac_out)))
            if key not in self.results:
                self.results[key] = checks.check_command(
                    command, self.cfg, child["out"], dirac_out, self.notes
                )
            for error in self.results[key]:
                self.errors.append(f"{command}: {error}")
            if self.results[key]:
                self.failed += 1
                self.correct = False

    def _fail(self, message: str, incorrect: bool = False):
        self.failed += 1
        self.errors.append(message)
        if incorrect:
            self.correct = False


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": THREADS,
    }


def _round_spans(r: dict) -> list[dict]:
    return [
        {"command": c["command"], "spans": json.loads(path.read_text())}
        for c in r["children"]
        if (path := c["out"].parent / "spans.json").exists()
    ]


def trace_metrics(rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics, medians over rounds: times and counts from the
    time-traced rounds, allocation peaks from the allocation-traced ones."""
    untraced = statistics.median(r["wall_s"] for r in rounds if r["trace"] is None)
    per_round = []
    for r in rounds:
        if r["trace"] is None:
            continue
        m = spans.layer_metrics([p["spans"] for p in _round_spans(r)])
        m["cli.artifact_bytes"] = sum(
            f.stat().st_size for c in r["children"] if c["out"].is_dir()
            for f in c["out"].iterdir()
        )
        m["trace.wall_s"] = r["wall_s"]
        m["trace.overhead_s"] = r["wall_s"] - untraced
        per_round.append((r["trace"], m))
    return {
        k: statistics.median(
            m[k] for kind, m in per_round
            if kind == ("alloc" if k.endswith("peak_alloc_mb") else "time")
        )
        for k in spans.PER_LAYER
    }


def keep_trace(rounds: list[dict], name: str, seed: int) -> Path:
    """Copy the last time-traced round's spans next to the run directories."""
    last = [r for r in rounds if r["trace"] == "time"][-1]
    dest = OUT_ROOT / f"trace-{name}-seed{seed}.json"
    dest.write_text(json.dumps({"workload": name, "seed": seed, "processes": _round_spans(last)}))
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diracsoliton" / "cli.py").is_file():
        print(f"no diracsoliton sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed)
    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-seed{args.seed}-", dir=OUT_ROOT))
    try:
        cfg_path = run_dir / "run.cfg"
        cfg_path.write_text(config_text(cfg))
        verifier = Verifier(cfg)
        plan = (None, "time", "alloc") if args.trace else (None,)
        rounds: list[dict] = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            for trace in plan:
                r = run_round(workload.commands, cfg_path, run_dir / f"round{len(rounds)}", trace)
                verifier.verify(r)
                rounds.append(r)

        record = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "config": cfg,
            "machine": machine_facts(),
            "rounds": [
                {k: v for k, v in r.items() if k != "children"}
                | {"children": [
                    {k: c[k] for k in ("command", "code", "wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
                    for c in r["children"]
                ]}
                for r in rounds
            ],
            "errors": verifier.errors,
            "notes": verifier.notes,
        }
        if args.trace:
            units = spans.PER_LAYER
            values = trace_metrics(rounds)
            record["trace_file"] = str(keep_trace(rounds, workload.name, args.seed).relative_to(ROOT))
        else:
            setups = [c["setup_s"] for r in rounds for c in r["children"] if c["setup_s"] is not None]
            for j in range(SETUP_PROBES):
                probe = run_child(
                    [workload.commands[0], "--config", str(cfg_path)],
                    run_dir / f"probe{j}", setup_only=True,
                )
                if probe["code"] != 0 or probe["setup_s"] is None:
                    print(f"setup probe failed: {probe['stderr']}", file=sys.stderr)
                    return 1
                setups.append(probe["setup_s"])
            record["setup_samples"] = setups
            units = END_TO_END
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in rounds),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            }
        print(json.dumps({"record": record}))
        print(json.dumps({
            "correct": verifier.correct,
            "attempted": verifier.attempted,
            "failed": verifier.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
