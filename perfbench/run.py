"""Benchmark of the qhewalk command line: seeded, closed-loop report workloads.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from src/.
One client replays the workload's fixed report list (workloads.py): every
report is a fresh interpreter running perfbench/child.py, and the next starts
only when the previous one has exited. With --trace 0 the list is replayed in
whole passes, at least two, until S seconds have passed, and the end-to-end
metrics are printed. With --trace 1 every report runs once untraced and once
traced, and the per-layer metrics are printed. Every report's output is
checked (checks.py), and each argv must give byte-identical output both
times it runs. The last line of stdout is the result JSON; error_rate is its
failed / attempted. --smoke is the benchmark's self-test on tiny lists.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
DEADLINE_S = 160.0   # stop starting reports after this; every run must end within 180 s

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from layers import PER_LAYER_UNITS, per_layer  # noqa: E402

END_TO_END_UNITS = {
    "reports_per_s": "1/s",
    "report_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Report:
    argv: list[str]
    traced: bool
    wall_s: float = 0.0
    rc: int | None = None
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    stdout: bytes = b""
    stderr: str = ""
    meta: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def environment() -> tuple[dict, dict]:
    """Child environment with pinned thread counts, and the record of it."""
    nproc = len(os.sched_getaffinity(0))
    threads = str(nproc)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    pinned = {name: threads for name in ("QHE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env.update(pinned)
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has none; never ask an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        env=env, capture_output=True, text=True, timeout=60).stdout.split()
    record = {"nproc": nproc, "python": platform.python_version(),
              "numpy": versions[0] if versions else None,
              "scipy": versions[1] if len(versions) > 1 else None,
              "commit": commit, "src_sha256": digest.hexdigest(), "threads": pinned,
              "clients": 1}
    return env, record


def spawn(report: Report, env: dict, work: Path, deadline: float) -> Report:
    """Run one report process to completion; wall time spans spawn to reap."""
    meta_path, out_path, err_path = work / "meta.json", work / "stdout", work / "stderr"
    meta_path.unlink(missing_ok=True)
    cmd = [sys.executable] + (["-X", "importtime"] if report.traced else []) + [
        str(HERE / "child.py"), str(meta_path), "1" if report.traced else "0", *report.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, cmd, env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(deadline - time.monotonic(), 1.0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        report.wall_s = time.perf_counter() - start
    report.rc = os.waitstatus_to_exitcode(status)
    report.rss_mb = usage.ru_maxrss / 1024.0
    report.cpu_s = usage.ru_utime + usage.ru_stime
    report.stdout = out_path.read_bytes()
    report.stderr = err_path.read_text(errors="replace")
    if meta_path.is_file():
        report.meta = json.loads(meta_path.read_text())
    if report.rc != 0 or not report.meta:
        message = [line for line in report.stderr.splitlines() if not line.startswith("import time:")]
        report.problems.append(f"exit code {report.rc}: {' '.join(message)[-300:]}")
    return report


def replay(argvs, env, work, seconds: float, trace: bool, deadline: float) -> tuple[list, float]:
    """Run the report list; returns the reports and the wall time they took."""
    reports = []
    start = time.perf_counter()
    passes = 0
    while True:
        for argv in argvs:
            if time.monotonic() > deadline:
                return reports, time.perf_counter() - start
            reports.append(spawn(Report(list(argv), False), env, work, deadline))
            if trace:
                reports.append(spawn(Report(list(argv), True), env, work, deadline))
        passes += 1
        if trace or (passes >= 2 and time.perf_counter() - start >= seconds):
            return reports, time.perf_counter() - start


def check(reports, checker) -> None:
    """Attach correctness and determinism problems to each report."""
    first: dict = {}
    verdicts: dict = {}
    for r in reports:
        if r.rc != 0 or not r.meta:
            continue
        key = tuple(r.argv)
        if key in first and r.stdout != first[key]:
            r.problems.append("output differs from an earlier run of the same argv")
        first.setdefault(key, r.stdout)
        if (key, r.stdout) not in verdicts:
            verdicts[(key, r.stdout)] = checker(r.argv, r.stdout)
        r.problems.extend(verdicts[(key, r.stdout)])


def end_to_end(reports, wall_s: float) -> dict[str, float]:
    done = [r for r in reports if r.meta]
    return {
        "reports_per_s": len(reports) / wall_s,
        "report_s_p50": statistics.median(r.wall_s for r in reports),
        "setup_s": statistics.median(r.meta["import_s"] for r in done) if done else float("nan"),
        "peak_rss_mb": max(r.rss_mb for r in reports),
    }


def layer_metrics(reports) -> dict[str, float]:
    untraced = [r for r in reports if not r.traced]
    traced = [r for r in reports if r.traced]
    overhead = sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced) - 1.0
    return per_layer([r for r in traced if r.meta.get("spans")], overhead)


def write_trace(path: Path, reports) -> None:
    """Spans of the traced reports, one JSON object per span."""
    with open(path, "w") as fh:
        for rid, r in enumerate(x for x in reports if x.traced):
            for name, start, end, parent, attrs in r.meta.get("spans", []):
                fh.write(json.dumps({"report": rid, "argv": r.argv[0], "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "attrs": attrs}) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict,
            argvs=None, tamper=None) -> tuple[list, dict]:
    """Set up, run and check one workload; returns the reports and the metrics."""
    deadline = time.monotonic() + DEADLINE_S
    work = OUT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        listed, devices = workloads.build(workload, seed, work.relative_to(ROOT))
        argvs = listed if argvs is None else argvs
        # untimed warm-up: byte-compile and page in the program and its libraries
        spawn(Report(["devices"], False), env, work, deadline)
        reports, wall_s = replay(argvs, env, work, seconds, trace, deadline)
        if tamper is not None:
            tamper(reports)
        check(reports, Checker(ROOT, devices))
        if trace:
            write_trace(OUT / f"trace-{workload}-seed{seed}.jsonl", reports)
            return reports, layer_metrics(reports)
        return reports, end_to_end([r for r in reports if not r.traced], wall_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_line(reports, metrics: dict, units: dict) -> dict:
    failed = sum(1 for r in reports if r.problems)
    return {"correct": failed == 0, "attempted": len(reports), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}


def smoke(env: dict) -> list[str]:
    """Self-test: tiny lists emit every metric with its unit and count a corrupted report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for section, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != units:
            problems.append(f"BENCHMARK.json {section} differs from the emitted metrics")
    tiny = [["devices"], ["walk", "--device", "u1", "--input", "0110", "--key", "linear:1/3",
                          "--shots", "2000"],
            ["attack", "--m", "3", "--trials", "2000"],
            ["security", "--m", "8", "--ensemble", "linear:180", "--attack-trials", "2000"],
            ["reconstruct", "--device", "u1", "--noise", "none"],
            ["walk", "--device", "no-such-device", "--input", "01"]]

    def corrupt(reports):
        walk = next(r for r in reports if r.argv[0] == "walk" and r.rc == 0)
        report = json.loads(walk.stdout)
        label = next(iter(report["exact"]["occupations"]))
        report["exact"]["occupations"][label] += 1e-3
        walk.stdout = json.dumps(report).encode()

    for trace, units in ((False, END_TO_END_UNITS), (True, PER_LAYER_UNITS)):
        reports, metrics = measure("cli-light", 0, 0.0, trace, env, argvs=tiny, tamper=corrupt)
        line = result_line(reports, metrics, units)
        for name, unit in units.items():
            value = line["metrics"][name]
            if value["unit"] != unit or not isinstance(value["value"], float):
                problems.append(f"metric {name} emitted as {value}")
        # both runs of the failing argv; the corrupted walk report and, as its
        # output no longer matches, the other run of the same argv
        if line["failed"] != 4:
            problems.append(f"trace={int(trace)}: {line['failed']} failed reports, expected 4: "
                            + "; ".join(f"{r.argv[0]}: {r.problems}" for r in reports if r.problems))
        if line["correct"]:
            problems.append(f"trace={int(trace)}: corrupted run reported correct")
        if trace and not metrics["numerics.permanent.calls"] > 0:
            problems.append("traced run recorded no permanents")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "qhewalk" / "cli.py").is_file():
        print(f"error: no qhewalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    env, record = environment()
    if args.smoke:
        problems = smoke(env)
        print("smoke: " + ("ok" if not problems else "FAILED\n" + "\n".join(problems)))
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")

    reports, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace), env)
    for r in reports:
        status = f"FAILED {'; '.join(r.problems)}" if r.problems else "ok"
        if r.meta.get("missing"):
            status += f" (not traced: {', '.join(r.meta['missing'])})"
        print(f"{r.wall_s:8.3f} s {r.cpu_s:8.3f} cpu-s {r.rss_mb:7.1f} MB {'traced' if r.traced else 'plain '} "
              f"{' '.join(r.argv)[:100]}: {status}", file=sys.stderr)
    timed = [r for r in reports if not r.traced]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "reports": len(reports), "report_samples": len(timed),
                      "error_rate": sum(1 for r in reports if r.problems) / len(reports),
                      "environment": record}))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps(result_line(reports, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
