"""Closed-loop rounds, and the in-process job loop that uses them.

    python worker.py SPEC.json RESULT.json

SPEC holds ``src`` (the directory holding the acsl package), ``jobs``
(lists of CLI arguments), ``seconds``, ``min_rounds`` and ``trace``.
The worker imports acsl, runs one untimed warm-up round, then timed
whole rounds of the job list through ``acsl.cli.run`` in this one
thread, stdout captured.  RESULT gets the latencies, every distinct
output of each job with its count, and the traced totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

WARMUP_ROUNDS = 1  # untimed, so that acsl's caches have filled before timing


def rounds(execute, count: int, seconds: float, trace: bool, min_rounds: int, warmup: int = 0) -> dict:
    """Run whole rounds of jobs 0..count-1, one at a time.

    ``execute(i, traced)`` runs job i and returns its wall time.  First
    ``warmup`` untraced rounds run untimed, so that caches have filled.
    Then rounds go on until ``seconds`` have passed and ``min_rounds``
    are done.  With ``trace`` each job runs untraced and then traced, so
    the tracing overhead is measured on the same jobs at the same moment.
    """
    for _ in range(warmup):
        for i in range(count):
            execute(i, False)
    plain, traced, round_seconds = [], [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        for i in range(count):
            plain.append(execute(i, False))
            if trace:
                traced.append(execute(i, True))
        round_seconds.append(time.perf_counter() - start)
        if time.perf_counter() - begin >= seconds and len(round_seconds) >= min_rounds:
            return {"latencies_s": plain, "traced_s": traced, "round_seconds": round_seconds}


class Outputs:
    """The distinct (exit code, stdout) pairs of each job, with counts."""

    def __init__(self, count: int) -> None:
        self.seen = [{} for _ in range(count)]

    def add(self, i: int, code, stdout: str) -> None:
        key = json.dumps([code, stdout])
        self.seen[i][key] = self.seen[i].get(key, 0) + 1

    def listed(self) -> list:
        """Per job: [[code, stdout, count], ...]."""
        return [[[*json.loads(key), n] for key, n in seen.items()] for seen in self.seen]


def run_job(run, argv: list[str]) -> tuple[float, int | str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is one failed job, not the end of the run
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import acsl.cli

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
    jobs = spec["jobs"]
    outputs = Outputs(len(jobs))

    def execute(i: int, traced: bool) -> float:
        if traced:
            tracer.install()
        try:
            wall, code, stdout = run_job(acsl.cli.run, jobs[i])
        finally:
            if traced:
                tracer.remove()
        outputs.add(i, code, stdout)
        return wall

    result = rounds(execute, len(jobs), spec["seconds"], spec["trace"], spec["min_rounds"], WARMUP_ROUNDS)
    result["outputs"] = outputs.listed()
    result["trace"] = tracer.totals() if tracer else None
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
