"""Per-layer spans recorded around calls into acsl's public functions.

The spans are installed from outside the program: each traced callable
is replaced, in every acsl module that holds it, by a wrapper that
times the call.  Times are inclusive (a span of the CLI layer contains
the spans of the layers it calls); a function re-entered while its
metric is already open is not timed twice.  Callables or modules that
a later version of acsl no longer has are skipped; their metrics read 0.

Run as a script, this module is the traced one-shot CLI process:

    python tracing.py SRC_DIR SPANS_OUT.json acsl-arguments...
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# metric -> [(module, attribute, counted)]; calls of the counted
# callables are the denominator of the metric's mean time per call.
TIMED = {
    "cli.load_ms": [("acsl.cli", "link_from_object", True), ("acsl.cli", "homology_from_object", True)],
    "cli.serialise_ms": [("acsl.cli", "invariant_to_json", False), ("acsl.cli", "_emit", True)],
    "cyclotomic.phase_exponent_ms": [("acsl.invariants", "Invariant.phase_exponent", True)],
    "cyclotomic.ratio_ms": [("acsl.cyclotomic", "CycNum.__truediv__", True)],
    "surgery.expectation_ms": [("acsl.surgery", "surgery_expectation", True)],
    "surgery.gauss_sum_ms": [("acsl.surgery", "gauss_sum", True)],
    "invariants.s3_us": [("acsl.invariants", "s3_expectation", True)],
    "invariants.satellite_ms": [("acsl.invariants", "simplicial_satellite", True)],
    "linkdiagram.compile_ms": [("acsl.linkdiagram", "parse_pd", True), ("acsl.linkdiagram", "linking_matrix", False)],
    "linkdiagram.validate_us": [("acsl.linkdiagram", "FramedLink.make", True)],
    "manifolds.closed_form_us": [
        ("acsl.manifolds", "s1xs2_expectation", True),
        ("acsl.manifolds", "s1xsigma_expectation", True),
    ],
}
SUITES = ("periodicity", "satellite", "kirby", "manifolds")
for _suite in SUITES:
    TIMED[f"checks.{_suite}_ms"] = [("acsl.checks", f"SUITES[{_suite}]", True)]

SCALE = {"ms": 1e3, "us": 1e6}


class Tracer:
    """Accumulates per-metric time and call counts while installed."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(TIMED, 0.0)
        self.calls = dict.fromkeys(TIMED, 0)
        self.open = set()
        self.counts = {"surgery.terms": 0, "surgery.undefined": 0, "checks.trials": 0}
        self._restore = []

    def _wrap(self, metric: str, counted: bool, func, observe=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if metric in self.open:
                return func(*args, **kwargs)
            self.open.add(metric)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                if observe:
                    observe(None, exc, kwargs)
                raise
            finally:
                self.seconds[metric] += time.perf_counter() - start
                self.calls[metric] += counted
                self.open.discard(metric)
            if observe:
                observe(result, None, kwargs)
            return result

        return wrapper

    def _observe(self, metric: str):
        """The counter a metric's wrapper feeds, if any."""
        if metric == "surgery.gauss_sum_ms":
            return self._count_terms
        if metric == "surgery.expectation_ms":
            return self._count_undefined
        if metric.startswith("checks."):
            return self._count_trials
        return None

    def _count_terms(self, result, exc, kwargs) -> None:
        self.counts["surgery.terms"] += getattr(result, "terms", 0)

    def _count_undefined(self, result, exc, kwargs) -> None:
        if type(exc).__name__ == "DenominatorZero":
            self.counts["surgery.undefined"] += 1

    def _count_trials(self, result, exc, kwargs) -> None:
        self.counts["checks.trials"] += kwargs.get("trials", 0)

    def install(self) -> None:
        """Wrap every traced callable that this version of acsl has."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("acsl") and m]
        for metric, targets in TIMED.items():
            for module_name, attr, counted in targets:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                if attr.startswith("SUITES["):
                    table, key = getattr(module, "SUITES", {}), attr[7:-1]
                    if key in table:
                        orig = table[key]
                        table[key] = self._wrap(metric, counted, orig, self._observe(metric))
                        self._restore.append(functools.partial(table.__setitem__, key, orig))
                elif "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    if cls is None or meth not in cls.__dict__:
                        continue
                    orig = cls.__dict__[meth]
                    if isinstance(orig, classmethod):
                        new = classmethod(self._wrap(metric, counted, orig.__func__))
                    else:
                        new = self._wrap(metric, counted, orig)
                    setattr(cls, meth, new)
                    self._restore.append(functools.partial(setattr, cls, meth, orig))
                else:
                    orig = getattr(module, attr, None)
                    if orig is None:
                        continue
                    new = self._wrap(metric, counted, orig, self._observe(metric))
                    for m in modules:
                        if getattr(m, attr, None) is orig:
                            setattr(m, attr, new)
                            self._restore.append(functools.partial(setattr, m, attr, orig))

    def remove(self) -> None:
        while self._restore:
            self._restore.pop()()

    def totals(self) -> dict:
        return {"seconds": self.seconds, "calls": self.calls, "counts": self.counts}


def merge(totals: list[dict]) -> dict:
    out = {"seconds": dict.fromkeys(TIMED, 0.0), "calls": dict.fromkeys(TIMED, 0), "counts": {}}
    for t in totals:
        for part in ("seconds", "calls", "counts"):
            for key, value in t[part].items():
                out[part][key] = out[part].get(key, 0) + value
    return out


def layer_metrics(totals: dict, rounds: int) -> dict:
    """Mean time per call for each timed metric, counts per round."""
    metrics = {}
    for metric in TIMED:
        unit = metric.rsplit("_", 1)[1]
        calls = totals["calls"][metric]
        mean = totals["seconds"][metric] / calls if calls else 0.0
        metrics[metric] = (mean * SCALE[unit], unit)
    counts = totals["counts"]
    gauss_s = totals["seconds"]["surgery.gauss_sum_ms"]
    suite_s = sum(totals["seconds"][f"checks.{s}_ms"] for s in SUITES)
    metrics["surgery.terms"] = (counts.get("surgery.terms", 0) / rounds, "count")
    metrics["surgery.undefined"] = (counts.get("surgery.undefined", 0) / rounds, "count")
    metrics["surgery.terms_per_s"] = (counts.get("surgery.terms", 0) / gauss_s if gauss_s else 0.0, "1/s")
    metrics["checks.trials_per_s"] = (counts.get("checks.trials", 0) / suite_s if suite_s else 0.0, "1/s")
    return metrics


def main(argv: list[str]) -> int:
    src, out_path, *cli_args = argv
    sys.path.insert(0, src)
    import acsl.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = acsl.cli.run(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.totals(), handle)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
