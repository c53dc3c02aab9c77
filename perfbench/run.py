"""schemeforge benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Each workload process is fresh and has one compute thread. A run starts
one set-up-only process, then one process that sets up and runs the
closed op loop for ``--seconds``, then one more set-up-only process;
``setup_s`` is the median set-up time of the three, which are spread
over the run so that one slow moment of a shared machine does not set it.
End-to-end times are restated at the reference speed of the core that
``worker.reference_loop`` measures alongside them; the raw times are in
the traced run.

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``PER_LAYER``).
Every op is checked; ``correct`` is false if any op, warm-up included,
failed its check or raised. Workloads, inputs and checks are in
``workloads.py``; expected outputs in ``expected/`` come from
``record.py``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("params-sweep", "triple-census", "geometry-pipeline",
             "triple-oracle")
PROBE_TIMEOUT_S = 40
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("ref_ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

SPAN_MS = ("scheme_params.krein_array", "scheme_params.derive",
           "scheme_params.closed_form", "scheme_params.validate",
           "serialize.emit", "triples.widened_system", "triples.solve",
           "triples.nonneg_force", "triples.checker_build", "geometry.build",
           "geometry.verify_gq", "geometry.find_hemisystem",
           "geometry.verify_hemisystem", "relation_scheme.build",
           "relation_scheme.verify", "reconstruct.cliques", "reconstruct.gq",
           "reconstruct.recover", "reconstruct.dual_check", "bench.check")
SPAN_US = ("triples.count", "triples.check")
COUNTS = ("triples.rows", "triples.rows_sum", "triples.rows_zero",
          "triples.rows_symmetry", "triples.rows_krein", "triples.unknowns",
          "triples.nullity", "triples.forced", "triples.residual_free",
          "triples.checkers_built", "reconstruct.cliques")
PER_LAYER = (
    (("setup.import_ms", "ms"), ("setup.inputs_ms", "ms"),
     ("setup.warmup_ms", "ms"))
    + tuple((f"{s}_ms", "ms") for s in SPAN_MS)
    + tuple((f"{s}_us", "us") for s in SPAN_US)
    + tuple((c, "count") for c in COUNTS)
    + (("triples.checker_reuse", "ratio"), ("ops_per_s", "1/s"),
       ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("trace.overhead_ms", "ms"),
       ("bench.ref_loop_ms", "ms")))


class BenchError(Exception):
    pass


def worker_env(root) -> dict:
    env = dict(os.environ)
    env.pop("SCHEME_FORGE_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(root, args, timeout) -> dict:
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=root,
                              env=worker_env(root), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def median_of(samples, key) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(main, setups) -> dict:
    return {
        "setup_s": median_of(setups, "setup_ref_s"),
        "ref_ops_per_s": (main["ops"] - main["failed"]) / main["ref_op_s"],
        "peak_rss_mb": main["maxrss_kb"] / 1024,
    }


def per_layer(main, setups) -> dict:
    spans = main["spans_s"]
    fixed = main["fixed_counts"]
    out = {"setup.import_ms": median_of(setups, "import_s") * 1e3,
           "setup.inputs_ms": median_of(setups, "inputs_s") * 1e3,
           "setup.warmup_ms": median_of(setups, "warmup_s") * 1e3}
    out.update({f"{s}_ms": spans.get(s, 0.0) * 1e3 for s in SPAN_MS})
    out.update({f"{s}_us": spans.get(s, 0.0) * 1e6 for s in SPAN_US})
    out.update({c: fixed.get(c, 0) for c in COUNTS})
    built = fixed.get("triples.checkers_built", 0)
    out["triples.checker_reuse"] = (
        fixed.get("triples.checked", 0) / built if built else 0.0)
    out["ops_per_s"] = (main["ops"] - main["failed"]) / main["op_s"]
    out["op_p50_ms"] = main["op_p50_s"] * 1e3
    out["op_p90_ms"] = main["op_p90_s"] * 1e3
    out["trace.overhead_ms"] = (main["traced_p50_s"] - main["op_p50_s"]) * 1e3
    out["bench.ref_loop_ms"] = main["ref_loop_s"] * 1e3
    return out


def bench(root, workload, seed, seconds, trace) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    probe = common + ["--mode", "setup"]
    before = run_worker(root, probe, PROBE_TIMEOUT_S)
    main = run_worker(root, common + ["--mode", "run", "--seconds",
                                      str(seconds), "--trace", str(trace)],
                      PROBE_TIMEOUT_S + 1.5 * seconds)
    after = run_worker(root, probe, PROBE_TIMEOUT_S)
    setups = [before, main, after]
    warmup_failed = sum(not s["warmup_ok"] for s in setups)
    attempted = main["attempted"] + len(setups)
    failed = main["failed"] + warmup_failed
    if trace:
        metrics, units = per_layer(main, setups), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(main, setups), dict(END_TO_END)
    print(f"# {workload} seed {seed}: {main['ops']} untraced ops in "
          f"{main['op_s']:.1f} s ({main['ref_op_s']:.1f} s at reference "
          f"speed), p50 {main['op_p50_s'] * 1e3:.3f} ms; reference loop "
          f"{main['ref_loop_s'] * 1e3:.2f} ms; set-up samples "
          + " ".join(f"{s['setup_s']:.3f}" for s in setups) + " s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="schemeforge benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "schemeforge",
                                       "__init__.py")):
        print("perfbench: src/schemeforge not found; run from the root of "
              "a schemeforge checkout", file=sys.stderr)
        return 2
    try:
        result = bench(root, args.workload, args.seed, args.seconds,
                       args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
