"""Solve and certify every task of a workload, check each output, and aggregate.

One process, one thread, a closed loop with one caller: each task goes
to the library only after the previous one has finished.  A pass runs
every task once; a run repeats passes for the measuring time.  Every
task's wall time is scaled to reference seconds by ``pace.Pace``, which
times a fixed kernel between blocks of tasks, so that the machine's
drift in speed cancels out.  Each task's time is its median over the
passes, and ``solve_s`` and ``certify_s`` sum those medians over the
tasks.  Set-up is repeated too, and ``setup_s`` sums each task's
median set-up time over the repeats, scaled the same way.

Timed regions per task (sums over a pass give ``solve_s`` and ``certify_s``):

* ``color``: solve is parse -> ``color_graph`` -> ``verify`` ->
  ``coloring_to_json``; certify is ``audit_color_result`` ->
  ``derive_subdivision_coloring`` -> ``subdivide`` -> ``verify`` on
  S(G) -> ``verify_sequence_shape``.
* ``chi``/``decide``/``fallback``: solve is parse -> the call that gives
  the verdict; certify is the check of the SAT witness, if any.
"""
from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from time import perf_counter

from spack.audit import audit_color_result
from spack.colorer import SEQUENCE_1122, ColorOptions, CubicComponentError, color_graph
from spack.exact import DEFAULT_BUDGET, Status, chi_rho, decide
from spack.exchange import square_outside
from spack.graph import bipartition_or_odd_cycle, subdivide
from spack.graphio import coloring_from_json, coloring_to_json, parse_graph6
from spack.verify import derive_subdivision_coloring, verify, verify_sequence_shape

import inputs
from pace import REF_SECONDS, Pace
from replay import NullTracer, Tracer, traced_chi_rho, traced_color_graph, traced_decide

SETUP_REPS = 3  # set-up runs at least this often
SETUP_SECONDS = 1.5  # and until it has taken this long in all
MIN_PASSES = 3
CERTIFY_MIN_S = 0.001  # an untraced certify stage is repeated until its calls take this long
PERCENTILES = (50, 90, 99)
MIN_BEYOND = 10  # a percentile is reported only with this many samples beyond it

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("certify_s", "s"),
    ("inputs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Span names become "<name>_s" metrics in seconds.
SPANS = (
    "graphio.parse", "graphio.emit", "graphio.encode",
    "graph.components", "graph.induce", "graph.subdivide",
    "colorer.peel", "colorer.extend", "colorer.color_core",
    "weights.compute",
    "exchange.initial_state", "exchange.fixpoint", "exchange.square",
    "verify.coloring", "verify.lift", "verify.subdivision",
    "audit.replay",
    "exact.decide",
    "gen.generate",
    "trace.unattributed", "trace.overhead",
)
MOVE_KINDS = {
    "Absorb": "absorb",
    "Flip": "flip",
    "Deg3Exchange": "deg3_exchange",
    "SameSideExchange": "same_side_exchange",
    "CycleSwap": "cycle_swap",
    "PathSwap": "path_swap",
}
COUNTS = (
    "colorer.peeled_vertices", "colorer.core_vertices", "colorer.oracle_components",
    "exchange.moves", *(f"exchange.moves.{k}" for k in MOVE_KINDS.values()),
    "exchange.attempts", "exchange.outside_vertices",
    "audit.moves_replayed",
    "exact.nodes", "exact.sat", "exact.unsat", "exact.budget",
)
PER_LAYER = (
    *((f"{name}_s", "s") for name in SPANS),
    *((name, "count") for name in COUNTS),
    ("graphio.input_mb", "MB"),
    ("exchange.ms_per_move", "ms"),
    ("exchange.first_attempt_ratio", "ratio"),
    ("exact.nodes_per_s", "1/s"),
)
SETUP_SPANS = ("gen.generate", "graphio.encode")


class CheckFailed(Exception):
    """An output of the library failed one of the benchmark's checks."""


@dataclass
class PassResult:
    """Per-task solve and certify reference seconds, in task order; failed tasks are left out.

    ``wall_s`` is the pass's unscaled solve and certify time, ``scale``
    its median reference-seconds-per-wall-second factor.
    """

    solve_s: dict[int, float] = field(default_factory=dict)
    certify_s: dict[int, float] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)
    digest: str = ""
    tracer: Tracer | None = None
    wall_s: float = 0.0
    scale: float = 1.0


@dataclass
class Report:
    """Everything a run measured; ``metrics`` maps name -> (value, unit)."""

    workload: str
    seed: int
    traced: bool
    tasks: int
    passes: list[PassResult]
    setup_reps: int
    ref_ms: float
    metrics: dict[str, tuple[float, str]]
    extra: dict[str, tuple[float, str]]
    percentile_samples: dict[str, int]
    failures: list[tuple[str, str]]
    sizes: dict[str, float]
    problems: list[str]

    @property
    def attempted(self) -> int:
        return self.tasks * len(self.passes)

    @property
    def failed(self) -> int:
        return sum(len(p.failures) for p in self.passes)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _run_both(reference, replay, tr: Tracer):
    """Run the library call untraced, then its traced replay; require equal outcomes.

    Adds the untraced time not covered by the replay's spans to
    ``trace.unattributed`` and the replay's extra wall time to
    ``trace.overhead``.
    """

    def capture(call):
        try:
            return call(), None
        except CubicComponentError as exc:
            return None, (exc.component, exc.reason)

    start = perf_counter()
    expected = capture(reference)
    untraced = perf_counter() - start
    before = sum(tr.spans.values())
    start = perf_counter()
    got = capture(replay)
    traced = perf_counter() - start
    attributed = sum(tr.spans.values()) - before
    tr.spans["trace.unattributed"] += untraced - attributed
    tr.spans["trace.overhead"] += traced - untraced
    if got != expected:
        raise CheckFailed("traced replay differs from the library call")
    value, error = expected
    if error is not None:
        raise CubicComponentError(*error)
    return value


def _color(g, options: ColorOptions, tr):
    """``color_graph``; when traced, also its replay, the square call and the counts."""
    if not tr.enabled:
        return color_graph(g, options)
    cores = []
    result = _run_both(
        lambda: color_graph(g, options),
        lambda: traced_color_graph(g, options, tr, cores),
        tr,
    )
    c = tr.counts
    with tr.span("exchange.square"):
        for core in cores:
            sq, _ = square_outside(core.graph, core.run.final)
            bipartition_or_odd_cycle(sq)
    for comp in result.components:
        c["colorer.peeled_vertices"] += len(comp.peel_trace)
        c["colorer.core_vertices"] += len(comp.core_vertices)
    for core in cores:
        run = core.run
        c["exchange.runs"] += 1
        c["exchange.first_attempts"] += run.attempts == 1
        c["exchange.attempts"] += run.attempts
        c["exchange.outside_vertices"] += len(run.final.outside)
        c["exchange.moves"] += len(run.moves)
        for record in run.moves:
            c[f"exchange.moves.{MOVE_KINDS[type(record.move).__name__]}"] += 1
    return result


def _certify(stage, tr):
    """Run a certify stage; untraced, repeat it until CERTIFY_MIN_S has passed.

    Returns the median time of a call and the first call's result.  A
    stage only checks outputs the solve stage has made, so repeating it
    changes nothing; it steadies the time of stages that take microseconds.
    """
    times, first = [], None
    while not times or (not tr.enabled and sum(times) < CERTIFY_MIN_S):
        start = perf_counter()
        out = stage()
        times.append(perf_counter() - start)
        if len(times) == 1:
            first = out
    return statistics.median(times), first


def _trail(result) -> str:
    """Move trails and attempt counts of every core run, for the digest."""
    return repr([
        (comp.used_exact, None if comp.core_run is None else (comp.core_run.attempts, comp.core_run.moves))
        for comp in result.components
    ])


def _task_color(task: inputs.Task, tr) -> tuple[float, float, str]:
    t0 = perf_counter()
    with tr.span("graphio.parse"):
        g = parse_graph6(task.text)
    result = _color(g, ColorOptions(), tr)
    with tr.span("verify.coloring"):
        checked = verify(g, result.coloring)
    with tr.span("graphio.emit"):
        doc = coloring_to_json(result.coloring)
    solve_s = perf_counter() - t0
    if not checked.ok:
        raise CheckFailed(f"coloring fails verify on G: {len(checked.violations)} violations")

    def certify():
        with tr.span("audit.replay"):
            report = audit_color_result(g, result)
        with tr.span("verify.lift"):
            lifted = derive_subdivision_coloring(g, result.coloring)
        with tr.span("graph.subdivide"):
            sg, _ = subdivide(g)
        with tr.span("verify.subdivision"):
            lifted_checked = verify(sg, lifted)
        verify_sequence_shape(lifted, (1, 2, 3, 4, 5))
        return report, lifted_checked

    certify_s, (report, lifted_checked) = _certify(certify, tr)
    if not lifted_checked.ok:
        raise CheckFailed(f"S(G) coloring fails verify: {len(lifted_checked.violations)} violations")
    if coloring_from_json(doc) != result.coloring:
        raise CheckFailed("coloring JSON does not decode to the coloring")
    if tr.enabled:
        tr.counts["audit.moves_replayed"] += report.moves
    return solve_s, certify_s, doc + _trail(result)


def _task_fallback(task: inputs.Task, tr) -> tuple[float, float, str]:
    t0 = perf_counter()
    with tr.span("graphio.parse"):
        g = parse_graph6(task.text)
    try:
        result, verdict = _color(g, ColorOptions(fallback_exact=True), tr), "sat"
    except CubicComponentError as exc:
        result, verdict = None, exc.reason
    solve_s = perf_counter() - t0
    if verdict != task.expect:
        raise CheckFailed(f"verdict {verdict}, expected {task.expect}")
    if result is None:
        return solve_s, 0.0, verdict
    certify_s = _check_witness(g, result.coloring, SEQUENCE_1122, tr)
    return solve_s, certify_s, coloring_to_json(result.coloring) + _trail(result)


def _check_witness(g, coloring, seq, tr) -> float:
    """Check a SAT witness against G and the radius sequence; return the certify time."""

    def certify():
        with tr.span("verify.coloring"):
            checked = verify(g, coloring)
        verify_sequence_shape(coloring, seq)
        return checked

    certify_s, checked = _certify(certify, tr)
    if not checked.ok:
        raise CheckFailed(f"SAT witness fails verify: {len(checked.violations)} violations")
    return certify_s


def _task_chi(task: inputs.Task, tr) -> tuple[float, float, str]:
    k_max = task.arg
    t0 = perf_counter()
    with tr.span("graphio.parse"):
        g = parse_graph6(task.text)
    if tr.enabled:
        res = _run_both(
            lambda: chi_rho(g, k_max=k_max),
            lambda: traced_chi_rho(g, k_max, tr, DEFAULT_BUDGET),
            tr,
        )
    else:
        res = chi_rho(g, k_max=k_max)
    solve_s = perf_counter() - t0
    if res.value is None:
        raise CheckFailed(f"no verdict up to k={k_max} (budget hit: {res.limited})")
    if task.expect is not None and str(res.value) != task.expect:
        raise CheckFailed(f"chi_rho {res.value}, expected {task.expect}")
    certify_s = _check_witness(g, res.coloring, tuple(range(1, res.value + 1)), tr)
    return solve_s, certify_s, f"{res.value}:{res.nodes}:{coloring_to_json(res.coloring)}"


def _task_decide(task: inputs.Task, tr) -> tuple[float, float, str]:
    seq = task.arg
    t0 = perf_counter()
    with tr.span("graphio.parse"):
        g = parse_graph6(task.text)
    if tr.enabled:
        out = _run_both(
            lambda: decide(g, seq),
            lambda: traced_decide(g, seq, tr, DEFAULT_BUDGET),
            tr,
        )
    else:
        out = decide(g, seq)
    solve_s = perf_counter() - t0
    if out.status.value != task.expect:
        raise CheckFailed(f"verdict {out.status.value}, expected {task.expect}")
    certify_s = _check_witness(g, out.coloring, seq, tr) if out.status is Status.SAT else 0.0
    doc = coloring_to_json(out.coloring) if out.status is Status.SAT else ""
    return solve_s, certify_s, f"{out.status.value}:{out.nodes}:{doc}"


TASK_RUNNERS = {
    "color": _task_color,
    "fallback": _task_fallback,
    "chi": _task_chi,
    "decide": _task_decide,
}


def run_pass(tasks: list[inputs.Task], traced: bool) -> PassResult:
    """Every task once, in order; a failing task is recorded, never skipped silently."""
    tr = Tracer() if traced else NullTracer()
    out = PassResult(tracer=tr if traced else None)
    digest = hashlib.sha256()
    gc.collect()
    clock = Pace()
    for i, task in enumerate(tasks):
        try:
            solve, certify, fingerprint = TASK_RUNNERS[task.kind](task, tr)
        except Exception as exc:  # every failure mode counts against the run
            out.failures.append((task.name, f"{type(exc).__name__}: {exc}"))
            continue
        clock.add(out.solve_s, i, solve)
        clock.add(out.certify_s, i, certify)
        digest.update(f"{task.name}\n{fingerprint}\n".encode())
    clock.close()
    out.digest = digest.hexdigest()
    out.wall_s, out.scale = clock.wall_s, clock.scale
    return out


def set_up(workload: str, seed: int, root: Path, sizes: inputs.Sizes, traced: bool):
    """Build the inputs at least SETUP_REPS times and for SETUP_SECONDS of wall time.

    Returns the tasks, the set-up time in reference seconds (each task's
    median over the repeats, summed), the number of repeats, the tracer
    spans of each repeat (scaled to reference seconds) and any problems.
    """
    tasks, times, spans, problems = None, [], [], []
    wall = 0.0
    while len(times) < SETUP_REPS or wall < SETUP_SECONDS:
        tr = Tracer() if traced else NullTracer()
        built, rep_times = [], {}
        gc.collect()
        clock = Pace()
        start = perf_counter()
        for i, task in enumerate(inputs.build(workload, seed, root, tr, sizes)):
            clock.add(rep_times, i, perf_counter() - start)
            built.append(task)
            start = perf_counter()
        clock.close()
        wall += clock.wall_s
        times.append([rep_times[i] for i in range(len(built))])
        if traced:
            spans.append({name: t * clock.scale for name, t in tr.spans.items()})
        if tasks is None:
            tasks = built
        elif built != tasks:
            problems.append("set-up built different inputs from the same seed")
    return tasks, sum(statistics.median(ts) for ts in zip(*times)), len(times), spans, problems


def percentile(values: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _task_medians(passes: list[PassResult], attr: str) -> dict[int, float]:
    """Each task's median over the passes in which it succeeded."""
    times: dict[int, list[float]] = {}
    for p in passes:
        for i, t in getattr(p, attr).items():
            times.setdefault(i, []).append(t)
    return {i: statistics.median(ts) for i, ts in times.items()}


def _per_layer(p: PassResult, setup_spans: list, input_mb: float) -> dict[str, float]:
    tr = p.tracer
    out = {f"{name}_s": p.scale * tr.spans.get(name, 0.0) for name in SPANS}
    for name in SETUP_SPANS:
        out[f"{name}_s"] = statistics.median(s.get(name, 0.0) for s in setup_spans)
    out.update({name: tr.counts.get(name, 0) for name in COUNTS})
    moves, nodes = out["exchange.moves"], out["exact.nodes"]
    runs = tr.counts.get("exchange.runs", 0)
    out["graphio.input_mb"] = input_mb
    out["exchange.ms_per_move"] = 1000.0 * out["exchange.fixpoint_s"] / moves if moves else 0.0
    out["exchange.first_attempt_ratio"] = tr.counts.get("exchange.first_attempts", 0) / runs if runs else 1.0
    out["exact.nodes_per_s"] = nodes / out["exact.decide_s"] if nodes else 0.0
    return out


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    root: Path,
    sizes: inputs.Sizes = inputs.Sizes(),
) -> Report:
    """Set up, then run at least MIN_PASSES passes and as many more as
    fit in ``seconds`` at the mean pass time so far."""
    tasks, setup_s, setup_reps, setup_spans, problems = set_up(workload, seed, root, sizes, traced)
    passes: list[PassResult] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(tasks, traced))
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    if len({p.digest for p in passes}) != 1:
        problems.append("passes over the same inputs gave different colorings or trails")
    input_mb = sum(len(t.text) for t in tasks) / 1e6
    metrics: dict[str, tuple[float, str]] = {}
    extra: dict[str, tuple[float, str]] = {}
    samples: dict[str, int] = {}
    if traced:
        layers = [_per_layer(p, setup_spans, input_mb) for p in passes]
        for name, unit in PER_LAYER:
            values = [layer[name] for layer in layers]
            if unit == "count":
                if len(set(values)) != 1:
                    problems.append(f"count {name} differs between passes")
                metrics[name] = (values[0], unit)
            else:
                metrics[name] = (statistics.median(values), unit)
    else:
        solve = _task_medians(passes, "solve_s")
        certify = _task_medians(passes, "certify_s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["solve_s"] = (sum(solve.values()), "s")
        metrics["certify_s"] = (sum(certify.values()), "s")
        busy = sum(solve.values()) + sum(certify.values())
        metrics["inputs_per_s"] = (len(solve) / busy if busy else 0.0, "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        latencies = [1000.0 * v for v in solve.values()]
        for q in PERCENTILES if latencies else ():
            value, beyond = percentile(latencies, q)
            if beyond >= MIN_BEYOND:
                extra[f"solve_ms_p{q}"] = (value, "ms")
                samples[f"solve_ms_p{q}"] = len(latencies)
        extra["pass_wall_s"] = (statistics.median(p.wall_s for p in passes), "s")
    report = Report(
        workload=workload,
        seed=seed,
        traced=traced,
        tasks=len(tasks),
        passes=passes,
        setup_reps=setup_reps,
        ref_ms=1000 * REF_SECONDS / statistics.median(p.scale for p in passes),
        metrics=metrics,
        extra=extra,
        percentile_samples=samples,
        failures=sorted({f for p in passes for f in p.failures}),
        sizes={
            "tasks": len(tasks),
            "vertices": sum(t.n for t in tasks),
            "edges": sum(t.m for t in tasks),
            "max_n": max(t.n for t in tasks),
            "input_mb": round(input_mb, 6),
        },
        problems=problems,
    )
    report.extra["fail_ratio"] = (report.failed / report.attempted, "ratio")
    return report
