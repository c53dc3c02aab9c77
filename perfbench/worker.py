"""One workload in one fresh process: import, set up, then the op loop.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup
    python3 perfbench/worker.py --workload NAME --seed N --mode run \
        --seconds S --trace 0|1

Started by ``run.py`` from the root of a checkout, with ``src`` on
PYTHONPATH and one compute thread. ``setup`` mode stops after the warm-up
op. ``run`` mode then runs a closed loop with one thread: the next op
starts when the previous one has finished, until ``--seconds`` have passed
and at least the workload's ``count_ops`` timing units are done. With
``--trace 1`` every unit runs twice, once traced and once not, in
alternating order, so that the tracing overhead is measured on the same
inputs.

Every process also times a fixed reference loop that uses none of the
package (see ``reference_loop``), so that times can be restated at one
reference speed of the core.

Prints one JSON object as its last line of standard output: set-up times,
op counts, latency statistics and, when traced, per-span medians and
counts. Failed ops are counted and printed to standard error with their
input.
"""

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import sys
from time import perf_counter

MAX_WITNESSES = 10
P90_MIN_SAMPLES = 100   # so that at least ten samples lie beyond the p90
REF_LOOP_S = 0.045    # the reference loop's usual time on the README's machine
REF_EVERY_S = 1.0     # op time between two reference-loop samples


def reference_loop() -> float:
    """Time a fixed loop of pure-Python work that calls nothing in the package.

    The cores of a shared machine change speed by up to 2x for seconds to
    minutes at a time, and not every kind of code by the same factor. The
    loop mixes the kinds of work the package does: Fraction sums over
    growing big integers, dict updates keyed by small tuples, and nested
    tuples of small ints built and summed. Over minutes of such changes,
    an op's time moved about in proportion to this loop's time (on the
    README's machine, log-log slopes of 0.9 to 1.2 for the four
    workloads). An op time multiplied by ``REF_LOOP_S`` / this loop's time
    at the same moment is the op time at one reference speed, which a
    change to the package moves and a change of the machine's speed
    largely does not. The garbage collector is off while the loop runs,
    so that the size of the heap the package left behind does not enter
    its time.
    """
    from fractions import Fraction   # after the timed package import
    gc.disable()
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i * 7919 + 1, i * i + 3)
    counts = {}
    for i in range(30000):
        key = (i % 100, i % 37)
        counts[key] = counts.get(key, 0) + i
    for k in range(300):
        cube = tuple(tuple(tuple((a * 7 + b * 3 + c + k) % 5 for c in range(5))
                           for b in range(5)) for a in range(5))
        sum(cube[a][b][c] for a in range(5) for b in range(5)
            for c in range(5) if (a + b + c) % 2)
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


def import_package():
    """Time the package import a CLI call pays; insist on the local copy."""
    start = perf_counter()
    import schemeforge
    import schemeforge.serialize  # noqa: F401  (the CLI's emitters)
    import_s = perf_counter() - start
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(schemeforge.__file__).startswith(src + os.sep):
        raise SystemExit(f"schemeforge imported from {schemeforge.__file__}, "
                         f"not from {src}")
    return import_s


def run_checked(workload, inp, tr, quiet=False) -> bool:
    """One op; a failure is printed with its input and returns False."""
    try:
        workload.op(inp, tr)
    except Exception as exc:  # a failing op is counted, not fatal
        if not quiet:
            print(f"FAILED {workload.name} input {inp!r}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    return True


def set_up(workload, wl):
    """Build the fixed inputs and run the uncounted warm-up op."""
    tracer = wl.Tracer()
    start = perf_counter()
    workload.setup(tracer)
    inputs_s = perf_counter() - start
    start = perf_counter()
    warmup_ok = run_checked(workload, workload.warmup_input, wl.NullTracer())
    warmup_s = perf_counter() - start
    return inputs_s, warmup_s, warmup_ok, tracer.counts


def median_spans(records) -> dict:
    """Median over timing units of each span's per-op time; 0 where a unit
    lacks the span. Records hold (per-op seconds, span totals, ops)."""
    names = {name for _, spans, _ in records for name in spans}
    out = {name: statistics.median(spans.get(name, 0.0) / n
                                   for _, spans, n in records)
           for name in names}
    out["bench.check"] = statistics.median(
        lat - sum(spans.values()) / n for lat, spans, n in records)
    return out


def add_counts(into, counts):
    for name, n in counts.items():
        into[name] = into.get(name, 0) + n


def op_loop(workload, wl, seed, seconds, trace, setup_counts):
    """Run ops until time is up; return latency and, if traced, span data.

    Ops are timed in units of ``workload.batch`` consecutive inputs, and a
    unit's latency sample is its time divided by its ops: a single sub-ms
    op would time the machine's scheduling slices more than the program.
    Counts are summed over the fixed inputs (set-up plus the first
    ``count_ops`` units), so they repeat exactly for a seed. After every
    ``REF_EVERY_S`` of untraced op time the reference loop runs once, and
    that stretch of op time is restated at the reference speed with the
    mean of the loop times on either side of it.
    """
    plain = wl.NullTracer()
    traced = wl.Tracer()
    plain_lat, traced_records = [], []
    fixed_counts = dict(setup_counts)
    attempted = failed = 0
    ref_loops = [reference_loop()]
    stretch_s = op_s = ref_op_s = 0.0

    def close_stretch():
        nonlocal stretch_s, op_s, ref_op_s
        ref_loops.append(reference_loop())
        op_s += stretch_s
        ref_op_s += stretch_s * REF_LOOP_S * 2 / sum(ref_loops[-2:])
        stretch_s = 0.0

    def run_unit(unit, tr):
        nonlocal attempted, failed
        tr.begin_op()
        start = perf_counter()
        for inp in unit:
            failed += not run_checked(workload, inp, tr,
                                      quiet=failed >= MAX_WITNESSES)
        attempted += len(unit)
        return (perf_counter() - start) / len(unit)

    inputs = workload.inputs(seed)
    deadline = perf_counter() + seconds
    n_units = 0
    while n_units < workload.count_ops or perf_counter() < deadline:
        unit = list(itertools.islice(inputs, workload.batch))
        if not trace:
            order = (plain,)
        else:
            order = (plain, traced) if n_units % 2 == 0 else (traced, plain)
        for tr in order:
            lat = run_unit(unit, tr)
            if tr is plain:
                plain_lat.append(lat)
                stretch_s += lat * len(unit)
                continue
            traced_records.append((lat, traced.spans, len(unit)))
            if n_units < workload.count_ops:
                add_counts(fixed_counts, traced.counts)
        n_units += 1
        if stretch_s >= REF_EVERY_S:
            close_stretch()
    if stretch_s:
        close_stretch()

    out = {"attempted": attempted, "failed": failed, "op_s": op_s,
           "ref_op_s": ref_op_s, "ref_loop_s": statistics.median(ref_loops),
           "ops": len(plain_lat) * workload.batch,
           "op_p50_s": statistics.median(plain_lat),
           "op_p90_s": (statistics.quantiles(plain_lat, n=10)[-1]
                        if len(plain_lat) >= P90_MIN_SAMPLES else 0.0)}
    if trace:
        out["traced_p50_s"] = statistics.median(lat for lat, _, _ in
                                                traced_records)
        out["spans_s"] = median_spans(traced_records)
        out["fixed_counts"] = fixed_counts
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="one benchmark workload process")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One core for the whole process, the same one in every run: the
    # cores of a shared 2-vCPU machine can differ in speed by 30% or more.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_s = import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]()
    inputs_s, warmup_s, warmup_ok, setup_counts = set_up(workload, wl)
    setup_s = import_s + inputs_s + warmup_s
    ref_loop_s = statistics.median(reference_loop() for _ in range(3))
    result = {"import_s": import_s, "inputs_s": inputs_s,
              "warmup_s": warmup_s, "warmup_ok": warmup_ok,
              "setup_s": setup_s,
              "setup_ref_s": setup_s * REF_LOOP_S / ref_loop_s}
    if args.mode == "run":
        result.update(op_loop(workload, wl, args.seed, args.seconds,
                              bool(args.trace), setup_counts))
        result["maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
