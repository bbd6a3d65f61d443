"""acsl benchmark: one command, three workloads, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding
``src/acsl``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record of a run, with machine facts, goes to
``.perfbench/results/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import inputs
import reference
import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PROBES = 9  # fresh processes timed for setup_s and cli.import_ms
MIN_ROUNDS = 2
JOB_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "calibration_ms": calibration_ms(),
    }


def calibration_ms() -> float:
    """Best of three timings of a fixed pure-Python loop: the host's speed now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        sum(i * i % 7 for i in range(200_000))
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def child_env() -> dict:
    """The default environment (ACSL_THREADS unset), with src importable."""
    env = {k: v for k, v in os.environ.items() if k != "ACSL_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Start one child at a time; report its wall time, exit code and peak RSS."""

    def __init__(self, tmp: Path) -> None:
        self.env = child_env()
        self.out = tmp / "stdout"
        self.err = tmp / "stderr"

    def run(self, args: list[str], timeout: float = JOB_TIMEOUT_S):
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.err), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env, file_actions=actions)
        killer = threading.Timer(timeout, _kill, (pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        return seconds, code, self.out.read_text(encoding="utf-8"), usage.ru_maxrss / 1024


def _kill(pid: int) -> None:
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        pass


def materialise(jobs: list[dict], tmp: Path, prefix: str = "job") -> list[list[str]]:
    """Write each job's input file; return the full CLI argument lists."""
    argvs = []
    for i, job in enumerate(jobs):
        argv = list(job["argv"])
        if job["input"] is not None:
            path = tmp / f"{prefix}{i}.json"
            path.write_text(json.dumps(job["input"]), encoding="utf-8")
            argv += ["--input", str(path)]
        argvs.append(argv)
    return argvs


class Tally:
    """Checks every execution's output; counts attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def add(self, job: dict, code, stdout: str, count: int = 1) -> None:
        self.attempted += count
        problem = reference.check(job, code, stdout)
        if problem:
            self.failed += count
            if len(self.examples) < 5:
                self.examples.append({"argv": job["argv"], "problem": problem})

    def add_listed(self, jobs: list[dict], listed: list) -> None:
        """Check the outputs gathered by worker.Outputs."""
        for job, seen in zip(jobs, listed):
            for code, stdout, count in seen:
                self.add(job, code, stdout, count)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(spawner: Spawner, workload: str, tmp: Path, tally: Tally) -> float:
    """Median wall time of fresh acsl processes answering a trivial job."""
    job = inputs.probe(workload)
    [argv] = materialise([job], tmp, "probe")
    walls = []
    for _ in range(PROBES):
        seconds, code, stdout, _ = spawner.run(["-m", "acsl.cli", *argv])
        tally.add(job, code, stdout)
        walls.append(seconds)
    return statistics.median(walls)


def import_ms(spawner: Spawner) -> float:
    """Median in-process time of `import acsl.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import acsl.cli; print(time.perf_counter() - t)"
    times = [float(spawner.run(["-c", code])[2]) for _ in range(PROBES)]
    return statistics.median(times) * 1e3


def oneshot(jobs, argvs, spawner: Spawner, seconds: float, trace: bool, tmp: Path, tally: Tally) -> dict:
    """One fresh process per job; traced executions run under tracing.py."""
    peaks, spans = [0.0], []
    outputs = worker.Outputs(len(jobs))
    spans_path = tmp / "spans.json"

    def execute(i: int, traced: bool) -> float:
        if traced:
            args = [str(HERE / "tracing.py"), str(SRC), str(spans_path), *argvs[i]]
        else:
            args = ["-m", "acsl.cli", *argvs[i]]
        wall, code, stdout, peak = spawner.run(args)
        outputs.add(i, code, stdout)
        if traced and spans_path.exists():  # absent when the child was killed
            spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
            spans_path.unlink()
        elif not traced:
            peaks.append(peak)
        return wall

    result = worker.rounds(execute, len(jobs), seconds, trace, 1 if trace else MIN_ROUNDS)
    tally.add_listed(jobs, outputs.listed())
    result["peak_rss_mb"] = max(peaks)
    result["trace"] = tracing.merge(spans) if trace else None
    return result


def in_process(jobs, argvs, spawner: Spawner, seconds: float, trace: bool, tmp: Path, tally: Tally) -> dict:
    """Run the job list in one worker process and check what it saw."""
    spec_path, result_path = tmp / "spec.json", tmp / "result.json"
    spec = {
        "src": str(SRC),
        "jobs": argvs,
        "seconds": seconds,
        "min_rounds": 1 if trace else MIN_ROUNDS,
        "trace": trace,
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _, code, _, peak = spawner.run([str(HERE / "worker.py"), str(spec_path), str(result_path)], WORKER_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"worker exited with {code}: {spawner.err.read_text(encoding='utf-8')[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    tally.add_listed(jobs, result.pop("outputs"))
    result["peak_rss_mb"] = peak
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "acsl" / "cli.py").is_file():
        sys.stderr.write(f"no acsl sources under {SRC}; run from a source checkout\n")
        return 2

    facts = {"start": machine_facts()}
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        tally = Tally()
        spawner = Spawner(tmp)
        jobs = inputs.WORKLOADS[args.workload](args.seed)
        argvs = materialise(jobs, tmp)
        trace = bool(args.trace)
        if trace:
            import_time = import_ms(spawner)
        else:
            setup = setup_seconds(spawner, args.workload, tmp, tally)
        loop = oneshot if args.workload == "cli-oneshot" else in_process
        result = loop(jobs, argvs, spawner, args.seconds, trace, tmp, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    facts["end"] = machine_facts()

    rounds = result["round_seconds"]
    lat = result["latencies_s"]
    if trace:
        metrics = tracing.layer_metrics(result["trace"], len(rounds))
        metrics["cli.import_ms"] = (import_time, "ms")
        overhead = sum(result["traced_s"]) / sum(lat) - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "jobs_per_s": (len(lat) / sum(rounds), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "jobs": len(jobs),
        "samples": len(lat),
        "round_seconds": result["round_seconds"],
        "failure_examples": tally.examples,
        **summary,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    start, end = facts["start"], facts["end"]
    print(
        f"# {args.workload} seed={args.seed} jobs={len(jobs)} rounds={len(rounds)} "
        f"nproc={start['nproc']} python={start['python']} "
        f"load={start['loadavg'][0]:.2f}->{end['loadavg'][0]:.2f} "
        f"calibration_ms={start['calibration_ms']:.1f}->{end['calibration_ms']:.1f}"
    )
    for example in tally.examples:
        print(f"# FAILED {example['argv']}: {example['problem']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
