"""Closed-loop benchmark of ``solve_3col``.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 38 --trace 0

One process, one client, no threads: the next solve starts when the last one
returned.  Every verdict is checked against the benchmark's own reference
(``reference.py``), and a wrong answer makes the run exit with code 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends a third of
the time untraced, then wraps the program's public functions (``spans.py``)
and prints the per-layer metrics.  The last line of standard output is one
JSON object; the lines before it are the same numbers for people.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from builders import WORKLOADS, c5_blowup  # noqa: E402
from reference import check_certificate, has_induced_p5, probe_odd_hole  # noqa: E402
from spans import SETUP, Tracer, layer_metrics, self_time_gaps  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# highest percentile first; a level is used when at least ten samples lie beyond it
TAIL_LEVELS = (("p99.9", 1000), ("p99", 100), ("p90", 10))
MIN_BEYOND = 10
SELF_TIME_TOLERANCE = 0.01
QUANTILE_GRID = 1 << 18


def import_program():
    """Import the program from ``src/`` of this checkout, never from
    elsewhere on ``sys.path``."""
    src = ROOT / "src"
    if not (src / "probe_chroma" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, str(src))
    import probe_chroma.generators
    import probe_chroma.graphs
    import probe_chroma.solver

    if Path(probe_chroma.__file__).resolve().parent != src / "probe_chroma":
        sys.exit(f"perfbench: imported probe_chroma from {probe_chroma.__file__}")
    return probe_chroma


def check_builders(cases):
    """Self-checks of the builders: the C5 blow-up with parts of 2 has no
    induced P5, and every violator holds an induced probe odd hole >= 7."""
    if has_induced_p5(*c5_blowup(2)[:2]):
        sys.exit("perfbench: the C5 blow-up builder produced an induced P5")
    for case in cases:
        if case.violator and probe_odd_hole(case.n, case.edges, case.probes) is None:
            sys.exit(f"perfbench: violator {case.shape} has no induced probe odd hole")


def judge(case, verdict, error):
    """('ok' | 'failed' | 'wrong', detail) for one solve."""
    if error is not None:
        return "failed", f"{type(error).__name__} escaped solve_3col"
    status = verdict.status
    if status == "colourable":
        bad = check_certificate(case.n, case.edges, verdict.colouring)
        return ("wrong", f"invalid certificate: {bad}") if bad else ("ok", status)
    if status == "not_colourable":
        if case.colourable:
            return "wrong", "not_colourable, but the reference finds a 3-colouring"
        return "ok", status
    if status == "not_probe_p5_free":
        # a refusal is allowed on violators and a failure on promise inputs
        return ("ok" if case.violator else "failed"), status
    return "wrong", f"unknown status {status!r}"


def run_ops(program, cases, cycle, seconds, tracer=None):
    """Solve cases in order, round robin, until ``seconds`` have passed and a
    multiple of ``cycle`` ops is done.  Returns (solve ms, outcome, detail)
    per op."""
    graphs, solver = program.graphs, program.solver
    records = []
    deadline = time.perf_counter() + seconds
    k = 0
    reported = False
    while True:
        case = cases[k % len(cases)]
        # a fresh graph object per op, so nothing the program caches on its
        # input survives from one op to the next
        inst = dataclasses.replace(case.inst, graph=graphs.build_graph(case.n, case.edges))
        if tracer is not None:
            tracer.op = k
        error = verdict = None
        t0 = time.perf_counter()
        try:
            verdict = solver.solve_3col(inst)
        except Exception as exc:  # an escaping exception is a failed op
            error = exc
        ms = (time.perf_counter() - t0) * 1e3
        if tracer is not None:
            tracer.op = None
        if error is not None and not reported:
            traceback.print_exception(error)  # the first one, to standard error
            reported = True
        records.append((ms, *judge(case, verdict, error)))
        k += 1
        if k % cycle == 0 and time.perf_counter() >= deadline:
            return records


def quantile(values, share):
    """Harrell-Davis estimate of the ``share`` quantile: the mean of all order
    statistics, weighted by a Beta((n+1)share, (n+1)(1-share)) distribution.
    Interpolating between two ranks is noisier when few samples lie near
    the quantile, as on scale-families, where a run solves each shape ~20
    times and the tail is set by the slowest shape alone."""
    import numpy as np  # here, so that set-up time counts only the program's imports

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * share, (n + 1) * (1 - share)
    # the Beta CDF by the midpoint rule on a fine grid, read at i/n
    mid = (np.arange(QUANTILE_GRID) + 0.5) / QUANTILE_GRID
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    grid = np.linspace(0.0, 1.0, QUANTILE_GRID + 1)
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def tail(times):
    """(level, value, samples beyond) for the highest of p99.9/p99/p90 with
    at least ten samples beyond it; p90 when none has."""
    level, denominator = TAIL_LEVELS[-1]
    for name, denom in TAIL_LEVELS:
        if len(times) >= MIN_BEYOND * denom:
            level, denominator = name, denom
            break
    value = quantile(times, 1 - 1 / denominator)
    return level, value, sum(1 for t in times if t > value)


def summarise(records):
    outcomes = Counter(r[1] for r in records)
    details = Counter(f"{r[1]}: {r[2]}" for r in records)
    return outcomes, details


def emit(correct, attempted, failed, metrics, lines):
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = import_program()
    import_s = time.perf_counter() - _T0
    build, cycle = WORKLOADS[args.workload]

    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.op = SETUP
        cases = build(program.graphs, program.generators, args.seed)
        tracer.op = None
        tracer.uninstall()
        setup_times = []
    else:
        tracer = None
        setup_times, fingerprints = [], set()
        for _ in range(SETUP_REPEATS):
            cases = None  # free the last pool first, so peak RSS holds one pool
            t0 = time.perf_counter()
            cases = build(program.graphs, program.generators, args.seed)
            setup_times.append(time.perf_counter() - t0)
            fingerprints.add(hash(tuple((c.n, c.edges, c.probes) for c in cases)))
        if len(fingerprints) != 1:
            sys.exit("perfbench: set-up is not deterministic for one seed")
    check_builders(cases)
    # the inputs live for the whole run; keep them out of the collector's
    # scans so that collections cost what the solver's own garbage costs
    gc.collect()
    gc.freeze()

    head = (f"workload {args.workload}  seed {args.seed}  {len(cases)} inputs  "
            f"sizes n={min(c.n for c in cases)}..{max(c.n for c in cases)}")
    if args.trace:
        ops, outcomes, metrics, lines = per_layer(program, cases, args.seconds, tracer,
                                                  args.workload)
    else:
        ops, outcomes, metrics, lines = end_to_end(program, cases, cycle, args.seconds)
        metrics["setup_s"] = (import_s + statistics.median(setup_times), "s")
        lines.insert(4, f"  setup_s        {metrics['setup_s'][0]:12.3f} s    (import "
                        f"{import_s:.3f} s + median of {SETUP_REPEATS} set-ups: "
                        f"{', '.join(f'{t:.3f}' for t in setup_times)})")
    correct = outcomes["wrong"] == 0
    emit(correct, ops, outcomes["failed"], metrics, [head] + lines)
    return 0 if correct else 1


def end_to_end(program, cases, cycle, seconds):
    records = run_ops(program, cases, cycle, seconds)
    times = [r[0] for r in records]
    ops = len(records)
    outcomes, details = summarise(records)
    # before the quantiles, whose arrays would otherwise count
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    level, tail_ms, beyond = tail(times)
    metrics = {
        "solves_per_s": (rate(records), "1/s"),
        "solve_ms.p50": (quantile(times, 0.5), "ms"),
        "solve_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"  solves_per_s   {metrics['solves_per_s'][0]:12.3f} 1/s  ({ops} solves)",
        f"  solve_ms.p50   {metrics['solve_ms.p50'][0]:12.3f} ms   ({ops} samples)",
        f"  solve_ms.tail  {tail_ms:12.3f} ms   ({level}; {ops} samples, {beyond} beyond it)",
        f"  failed_ratio   {outcomes['failed'] / ops:12.6f}      "
        f"({outcomes['failed']} of {ops} attempted)",
        f"  peak_rss_mb    {rss_mb:12.1f} MB",
    ] + [f"  {n:6d} x {d}" for d, n in sorted(details.items())]
    return ops, outcomes, metrics, lines


def per_layer(program, cases, seconds, tracer, workload):
    """A third of the time untraced, the rest traced; whole passes over the
    inputs in both, so per-op counts repeat exactly for one seed."""
    untraced = run_ops(program, cases, len(cases), seconds / 3)
    tracer.install()
    records = run_ops(program, cases, len(cases), seconds * 2 / 3, tracer)
    tracer.uninstall()
    ops = len(records)
    metrics = layer_metrics(tracer, ops)
    metrics["trace.overhead_ratio"] = (rate(records) / rate(untraced), "ratio")
    worst_gap = max(self_time_gaps(tracer).values(), default=0.0)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload}.csv.gz"
    tracer.write(span_file)
    outcomes, details = summarise(untraced + records)
    lines = [
        f"  traced {ops} solves ({len(untraced)} untraced first); "
        f"{len(tracer.fid)} spans written to {span_file.relative_to(ROOT)}",
        f"  largest per-op gap between summed self times and solve_3col: {worst_gap:.2e}",
    ]
    if tracer.absent:
        lines.append(f"  absent from this program (reported as 0): {', '.join(tracer.absent)}")
    lines += [f"  {name:52s} {value:14.4f} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"  {n:6d} x {d}" for d, n in sorted(details.items())]
    if worst_gap > SELF_TIME_TOLERANCE:
        lines.append("  self times do not add up to solve_3col within 1%")
        outcomes["wrong"] += 1
    return ops + len(untraced), outcomes, metrics, lines


def rate(records):
    """Solves per second of solve wall time."""
    return len(records) / (sum(r[0] for r in records) / 1e3)


if __name__ == "__main__":
    sys.exit(main())
