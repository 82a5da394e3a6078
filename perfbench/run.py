"""Run one benchmark workload in a fresh process and report its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-seq --seed 1 --seconds 20 --trace 0

Workloads: ``train-seq``, ``train-pooled``, ``serve-topk``, or ``all`` (see
``perfbench/README.md``).  ``--trace 0`` prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` prints every per-layer metric, including
the tracing overhead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are a readable table and the run's environment.

The runner pins BLAS to one thread before numpy is imported, starts the
workload (``perfbench/workload.py``) in its own session, waits for it, and
then fails the run if any process of that session or any shared-memory
segment the workload created is still alive (both are removed first).
It also checks that ``quality`` repeats exactly for a seed it has seen
before with the same source tree.  A failed check exits with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
SHM = Path("/dev/shm")
WORKLOADS = ("train-seq", "train-pooled", "serve-topk")
#: The workload process must end by then, so the whole run stays under 180 s.
WORKLOAD_TIMEOUT_S = 150.0
#: How long session members (e.g. the shared-memory resource tracker) may
#: take to exit after the workload process has ended.
LINGER_S = 10.0


def source_digest() -> str:
    """Hash of the program and benchmark sources (keys the quality record)."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _describe(pid: int) -> str:
    try:
        cmd = (Path("/proc") / str(pid) / "cmdline").read_bytes().replace(b"\0", b" ")
    except OSError:
        return str(pid)
    return f"{pid} ({cmd.decode(errors='replace').strip()[:120]})"


def stop_session(sid: int, linger: float = LINGER_S) -> list[str]:
    """Wait for the session to empty; kill what is left. Returns the leftovers."""
    deadline = time.monotonic() + linger
    members = session_members(sid)
    while members and time.monotonic() < deadline:
        time.sleep(0.05)
        members = session_members(sid)
    leftovers = [_describe(pid) for pid in members]
    for pid in members:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return leftovers


def cpu_times() -> list[int]:
    """The machine-wide ``cpu`` line of /proc/stat (user ... steal)."""
    return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]


def leaked_segments(ledger: Path) -> list[str]:
    """Segments named in ``ledger`` that still exist; they are unlinked."""
    if not ledger.is_file():
        return []
    leaked = sorted(
        name for name in set(ledger.read_text().split()) if (SHM / name).exists()
    )
    for name in leaked:
        (SHM / name).unlink(missing_ok=True)
    return leaked


def check_quality(key: str, quality: float) -> bool:
    """True unless ``key`` was recorded before with a different quality."""
    path = STATE / "quality.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    if key in record:
        return record[key] == quality
    record[key] = quality
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)
    return True


def run_workload(
    workload: str, args: argparse.Namespace
) -> tuple[dict | None, list[str], list[str], float]:
    """Run the workload process; return its result, what it left behind and
    the share of CPU time the host stole from this machine meanwhile."""
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        TMPDIR=str(STATE / "tmp"),
    )
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    result_path = STATE / f"result-{os.getpid()}.json"
    ledger = STATE / f"shm-{os.getpid()}.txt"
    for path in (result_path, ledger):
        path.unlink(missing_ok=True)
    command = [
        sys.executable, str(ROOT / "perfbench" / "workload.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_path),
        "--workdir", str(STATE / f"work-{os.getpid()}"),
        "--shm-ledger", str(ledger),
    ] + (["--smoke"] if args.smoke else [])
    # Its own session, so every process it forks can be found afterwards;
    # its stdout goes to our stderr, keeping our stdout for the result.
    cpu_before = cpu_times()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr.fileno(), start_new_session=True
    )
    try:
        code = proc.wait(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload exceeded {WORKLOAD_TIMEOUT_S:.0f} s", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        code = proc.wait()
    cpu_spent = [b - a for a, b in zip(cpu_before, cpu_times())]
    steal_frac = cpu_spent[7] / max(1, sum(cpu_spent)) if len(cpu_spent) > 7 else 0.0
    leftovers = stop_session(proc.pid)
    leaked = leaked_segments(ledger)
    result = None
    if code == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    else:
        print(f"workload exited with code {code}", file=sys.stderr)
    for path in (result_path, ledger):
        path.unlink(missing_ok=True)
    return result, leftovers, leaked, steal_frac


def report(workload: str, args: argparse.Namespace, spec: dict) -> dict | None:
    """Run one workload, print its table, checks and environment, and return
    the result object (``None`` if the workload process failed)."""
    result, leftovers, leaked, steal_frac = run_workload(workload, args)
    if leftovers or leaked:
        print(f"left behind: processes={leftovers} shm={leaked}", file=sys.stderr)
    if result is None:
        return None

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {
        # A layer a workload does not exercise reports 0.
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    checks = dict(result["checks"])
    if result["attempted"] < 1:
        checks["attempted_any"] = False
    digest = source_digest()
    size = "smoke" if args.smoke else "full"
    checks["quality_repeats"] = check_quality(
        f"{workload}:{args.seed}:{size}:{digest}", result["quality"]
    )
    checks["no_processes_left"] = not leftovers
    checks["no_shm_left"] = not leaked

    meta = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_digest": digest,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_steal_frac": round(steal_frac, 4),
        **result["environment"], **result["detail"],
    }
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace:
        for name, value in sorted(result["end_to_end"].items()):
            print(f"(traced run) {name:19s} {value:>16.6g}")
    print("checks " + json.dumps(checks, sort_keys=True))
    print("meta " + json.dumps(meta, sort_keys=True))
    return {
        "correct": all(checks.values()),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run perfbench workloads.")
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="'all' runs every workload in turn (metrics named workload/metric)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"no program to benchmark under {ROOT} (src/repro missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    STATE.mkdir(exist_ok=True)

    if args.workload != "all":
        outcome = report(args.workload, args, spec)
        if outcome is None:
            return 3
    else:
        outcome = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            print(f"== {workload}")
            one = report(workload, args, spec)
            if one is None:
                return 3
            outcome["correct"] &= one["correct"]
            outcome["attempted"] += one["attempted"]
            outcome["failed"] += one["failed"]
            for name, metric in one["metrics"].items():
                outcome["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
