"""toricfan benchmark: verified verdict times for a closed-loop desk user.

    python3 bench/run.py --workload yu_grid --seed 1 --seconds 20 --trace 0

One process, one thread.  A single user asks one question, waits for the
verified answer, then asks the next.  Passes over the workload's questions
repeat until ``--seconds`` have passed.  Every answer is checked with the
benchmark's own arithmetic outside the timed region.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``attempted``
counts the questions of one pass and ``failed`` those that failed in any
pass; repeating a question to time it again is not a new attempt.  The
line before it holds the per-question table described in NOTES.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS, GeneratorBudgetExceeded, UnexpectedExit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("exactlin", "cone", "fan", "divisor", "egyptian", "families", "cli")
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S has passed
SETUP_MIN_S = 1.0
DEADLINE_S = 60.0  # more than 10x the slowest op of the default seed
FAILED = None
CENSORED = ("deadline", "generator budget")  # failures that count as infinitely slow


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so library handlers let it through."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _calibration_work() -> None:
    """A fixed slice of the library's kind of work: Fraction sums and big-integer products."""
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(i % 7 - 3, i)
    x = 1
    for i in range(500):
        x = (x * x + i) % (10 ** 40 + 7)


class ReferenceClock:
    """Times ops in reference seconds, cancelling the machine's changing speed.

    On a shared machine the same op can take 40% longer from one second to
    the next.  A fixed calibration slice measures the current speed: before
    an op (unless the last sample is fresher than ``STALE_S``), every
    ``PERIOD_S`` of CPU time during it (from a ``SIGPROF`` handler, whose
    own time is subtracted), and after it when it ran longer than
    ``STALE_S``.  The op's time is scaled by ``REF_S`` over the mean of those
    samples (NOTES.md, "Noise").
    """

    REF_S = 0.0017  # typical duration of one calibration slice on the reference machine
    STALE_S = 0.02
    PERIOD_S = 0.025

    def __init__(self):
        self.sample_s = None
        self.sampled_at = float("-inf")
        self.samples: list[float] = []
        self.stolen_s = 0.0

    def sample(self) -> float:
        start = time.perf_counter()
        _calibration_work()
        self.sampled_at = time.perf_counter()
        self.sample_s = self.sampled_at - start
        return self.sample_s

    def start(self) -> None:
        """Call right before an op."""
        fresh = time.perf_counter() - self.sampled_at <= self.STALE_S
        self.samples = [self.sample_s if fresh else self.sample()]
        self.stolen_s = 0.0
        signal.signal(signal.SIGPROF, self._during)
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD_S, self.PERIOD_S)

    def _during(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.sample())
        self.stolen_s += time.perf_counter() - start

    def stop(self, wall_s: float) -> tuple[float, float]:
        """Call right after the op with its wall time; returns (raw, reference) seconds."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        raw = wall_s - self.stolen_s
        if raw > self.STALE_S:
            self.samples.append(self.sample())
        return raw, raw * self.REF_S / statistics.fmean(self.samples)


class Session:
    """Times, checks and records every op of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.clock = ReferenceClock()
        self.attempted = 0  # ops, repeats included
        self.position = 0  # of the current op within its pass
        self.asked: set[int] = set()  # positions within a pass: the distinct questions
        self.failed: set[int] = set()  # positions that failed in some pass
        self.raw_s = 0.0  # wall time inside ops
        self.failures: Counter = Counter()  # "question: reason" -> ops
        self.wrong: list[str] = []
        self.passes: list[dict] = []  # per pass: question -> [ref seconds, or None if failed]
        self.censored: list[dict] = []  # per pass: question -> ops past the deadline or budget

    def start_pass(self) -> None:
        self.passes.append(defaultdict(list))
        self.censored.append(Counter())
        self.position = 0

    def ask(self, question: str, call, check, deadline_s=None):
        """Run one op under a deadline, check its answer; returns the result or FAILED."""
        self.attempted += 1
        self.position += 1
        self.asked.add(self.position)
        self.clock.start()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline_s or DEADLINE_S)
        try:
            result, reason = call(), None
        except DeadlineExceeded:
            result, reason = FAILED, "deadline"
        except GeneratorBudgetExceeded:
            result, reason = FAILED, "generator budget"
        except Exception as exc:  # the library raised: a failed op, the run goes on
            result, reason = FAILED, type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.end_op()
        raw, elapsed = self.clock.stop(wall)
        self.raw_s += raw
        if reason is None:
            try:
                check(result)
            except UnexpectedExit as exc:
                if exc.code != 3:  # 0/1/2 are verdicts: a wrong one is a wrong answer
                    self.wrong.append(f"{question}: {exc}")
                reason = f"exit {exc.code}"
            except Exception as exc:  # WrongAnswer, or an answer missing what the check reads
                self.wrong.append(f"{question}: {type(exc).__name__}: {exc}")
                reason = "wrong answer"
        times = self.passes[-1][question]
        if reason is not None:
            self.failures[f"{question}: {reason}"] += 1
            self.failed.add(self.position)
            times.append(None)
            if reason in CENSORED:
                self.censored[-1][question] += 1
            return FAILED
        times.append(elapsed)
        return result


def _median_pass_sum(session: Session, questions) -> float | None:
    """Median over passes of the summed time of ``questions``; None if any of them failed."""
    sums = []
    for p in session.passes:
        samples = [t for q in questions for t in p.get(q, ())]
        if not samples or any(t is None for t in samples):
            return None
        sums.append(sum(samples))
    return statistics.median(sums) if sums else None


def _pooled(session: Session, questions) -> list[float] | None:
    """All samples of ``questions``; ops past the deadline or budget count as infinitely slow.

    Any other failure makes the statistic undefined (None).
    """
    pooled = []
    for p, censored in zip(session.passes, session.censored):
        for q in questions:
            samples = p.get(q, [])
            failed = sum(1 for t in samples if t is None)
            if failed != censored[q]:
                return None
            pooled += [t for t in samples if t is not None] + [float("inf")] * failed
    return sorted(pooled)


def _finite(x):
    return x if x is not None and x != float("inf") else None


def _tail(samples):
    """The highest percentile with at least ten samples beyond it, and that percentile."""
    n = len(samples)
    if n < 11:
        return None, None
    return _finite(samples[n - 11]), int(100 * (n - 10) / n)


def _interquartile_mean(samples):
    """Mean of the middle half of sorted samples; None if a censored sample falls in it.

    Unlike the median it does not jump across the gaps between the clusters
    of a fixed question set's latencies.
    """
    k = len(samples) // 4
    middle = samples[k:len(samples) - k]
    if not middle or float("inf") in middle:
        return None
    return statistics.fmean(middle)


def _median(samples):
    return _finite(statistics.median(samples))


CENTRES = {"median": _median, "interquartile_mean": _interquartile_mean}


def end_to_end(workload, session: Session, setup_s: float) -> dict:
    pooled = _pooled(session, workload.QUESTIONS)
    centre = CENTRES[workload.QUESTION_CENTRE](pooled) if pooled else None
    build = _median_pass_sum(session, workload.BUILD)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "build_s": {"value": build, "unit": "s"},
        "question_ms": {"value": None if centre is None else 1000 * centre, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def question_table(workload, session: Session, setup_s: float) -> dict:
    """Per-question metrics by name and unit (NOTES.md, "Per-question table")."""
    table = {"setup_s": setup_s}
    if workload.name == "cone_pairs":
        table["cone_s"] = _median_pass_sum(session, ("cone",))
        pooled = _pooled(session, ("meet",))
        table["meet_p50_s"] = _median(pooled) if pooled else None
        table["meet_tail_s"], table["meet_tail_pct"] = _tail(pooled or [])
        table["meet_pairs"] = len(pooled or [])
    else:
        names = {"build": "build_s", "validate": "build_s"}
        for q in workload.BUILD + workload.QUESTIONS + workload.PROBES:
            table[names.get(q, f"{q}_s")] = _median_pass_sum(session, (q,))
    table["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(session.failures.values())
    table["ops_failed"] = failed / session.attempted
    units = {"peak_rss_mb": "MB", "ops_failed": "share", "meet_tail_pct": "%", "meet_pairs": "count"}
    return {"workload": workload.name, "passes": len(session.passes), "attempted": session.attempted,
            "failed": failed, "failures": dict(sorted(session.failures.items())),
            "wrong": session.wrong[:20],
            "metrics": {k: {"value": v, "unit": units.get(k, "s")} for k, v in table.items()}}


def _import_toricfan():
    for name in [m for m in sys.modules if m == "toricfan" or m.startswith("toricfan.")]:
        del sys.modules[name]
    importlib.import_module("toricfan")
    modules = {layer: importlib.import_module(f"toricfan.{layer}") for layer in LAYERS}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"toricfan was imported from outside {SRC}")
    return argparse.Namespace(**modules)


def setup(workload_cls, seed: int, workdir: Path):
    """Import toricfan and generate the inputs, several times.

    Returns the last workload and the median set-up time in reference seconds.
    """
    clock = ReferenceClock()
    times = []
    start_all = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start_all < SETUP_MIN_S:
        clock.start()
        start = time.perf_counter()
        tf = _import_toricfan()
        workload = workload_cls(tf, seed, workdir)
        times.append(clock.stop(time.perf_counter() - start)[1])
    return workload, statistics.median(times)


def measure(workload, session: Session, seconds: float, max_passes=None) -> None:
    """Run passes until ``seconds`` have passed (at least one pass)."""
    start = time.perf_counter()
    for run_pass in workload.passes():
        if session.passes and (time.perf_counter() - start >= seconds
                               or (max_passes is not None and len(session.passes) >= max_passes)):
            break
        session.start_pass()
        run_pass(session)


def per_layer(workload, seconds: float) -> tuple[dict, Session]:
    """Untraced passes, then the same passes traced; per-layer metrics from the traced ones."""
    plain = Session()
    measure(workload, plain, seconds / 2)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, "toricfan", LAYERS)
    traced = Session(tracer=tracer)
    try:
        measure(workload, traced, float("inf"), max_passes=len(plain.passes))
    finally:
        uninstall()
    metrics = {name: {"value": _layer_value(tracer, name), "unit": unit} for name, unit in PER_LAYER}
    metrics["trace.overhead_s"]["value"] = _overhead(plain, traced)
    metrics["trace.self_share"]["value"] = sum(tracer.self_s.values()) / traced.raw_s
    return metrics, traced


def _overhead(plain: Session, traced: Session) -> float:
    """Traced minus untraced time, in reference seconds, of the ops that finished both times.

    Both sessions ask the same questions in the same order, so samples align
    by position.  Failed ops are left out.
    """
    total = 0.0
    for untraced_pass, traced_pass in zip(plain.passes, traced.passes):
        for question, samples in traced_pass.items():
            for a, b in zip(untraced_pass.get(question, ()), samples):
                if a is not None and b is not None:
                    total += b - a
    return total


def _layer_value(tracer, name: str):
    fn, _, stat = name.rpartition(".")
    if stat == "calls":
        return tracer.calls.get(fn, 0)
    if stat == "self_s":
        return tracer.self_s.get(fn, 0.0)
    if stat == "max_s":
        return tracer.max_s.get(fn, 0.0)
    if stat == "true_ratio":
        calls = tracer.calls.get(fn, 0)
        return tracer.counters.get(f"{fn}.true", 0) / calls if calls else 0.0
    return tracer.counters.get(name, 0)


def _per_layer_names():
    timed = {
        "exactlin": ("solve_linear", "feasible_point", "strict_feasible", "matrix_rank",
                     "rational_kernel", "cross_kernel", "determinant", "integral_kernel",
                     "hermite_normal_form", "smith_normal_form", "cokernel_group"),
        "cone": ("Cone.from_rays", "Cone.from_inequalities", "Cone.faces", "Cone.contains",
                 "Cone.intersect", "Cone.is_face_of"),
        "fan": ("Fan.from_cones", "Fan.is_complete", "Fan.quotient", "Fan.isomorphism"),
        "divisor": ("picard_group", "is_projective", "cartier_data", "cartier_index", "is_ample",
                    "divisor_polytope", "polytope_degree"),
        "egyptian": ("egyptian_report", "classify_pyramidal", "small_modification",
                     "verify_modification"),
        "families": ("yu_fan",),
        "cli": ("run", "parse_fan_file"),
    }
    names = []
    for module, functions in timed.items():
        for fn in functions:
            names += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.self_s", "s")]
    names += [
        ("exactlin.solve_linear.max_cols", "count"),
        ("exactlin.strict_feasible.max_width", "count"),
        ("exactlin.strict_feasible.max_rows", "count"),
        ("exactlin.feasible_point.max_rows", "count"),
        ("fan.Fan.from_cones.pairs", "count"),
        ("cone.Cone.intersect.max_out_rays", "count"),
        ("cone.Cone.intersect.max_s", "s"),
        ("cone.Cone.is_face_of.true_ratio", "share"),
        ("trace.overhead_s", "s"),
        ("trace.self_share", "share"),
    ]
    return names


PER_LAYER = _per_layer_names()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toricfan" / "__init__.py").is_file():
        print(f"toricfan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = HERE / f".work-{args.workload}-{os.getpid()}"
    try:
        workload, setup_s = setup(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            metrics, session = per_layer(workload, args.seconds)
        else:
            session = Session()
            measure(workload, session, args.seconds)
            metrics = end_to_end(workload, session, setup_s)
        print(json.dumps(question_table(workload, session, setup_s)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = not session.wrong
    if not correct:  # a wrong answer voids every time measured around it
        metrics = {k: {"value": None, "unit": v["unit"]} for k, v in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": len(session.asked),
                      "failed": len(session.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
