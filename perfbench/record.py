"""Record the expected outputs the benchmark checks every op against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/record.py

The outputs come from ``schemeforge.cli.main``, not from the benchmark's
own op code, so a benchmark op that drifts from the command it mirrors
shows up as a mismatch. Writes ``perfbench/expected/{params,triples,
pipeline,oracle}.json``. The triple census is the slow part: 799
(t, pattern) solves at 0.5-1.5 s each, split over one process per core
this process may use.
"""

import io
import json
import multiprocessing
import os
import sys
import tempfile
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from schemeforge.cli import main as cli_main  # noqa: E402

import workloads as wl  # noqa: E402


def cli_stdout(argv) -> str:
    """Run one command in process; return what it printed, minus the
    newline ``print`` appended."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"schemeforge {' '.join(argv)} exited {code}")
    text = buf.getvalue()
    return text[:-1] if text.endswith("\n") else text


def record_params() -> dict:
    return {str(t): {"json": wl.digest(cli_stdout(["params", "--t", str(t)])),
                     "md": wl.digest(cli_stdout(["params", "--t", str(t),
                                                 "--format", "md"]))}
            for t in wl.ODD_T}


def record_triple(key):
    t, abc = key
    text = cli_stdout(["triple", "--t", str(t),
                       "--abc", ",".join(map(str, abc))])
    return wl.census_key(t, abc), wl.digest(text)


def record_triples() -> dict:
    keys = [(t, abc) for t in wl.ODD_T for abc in wl.nonvacuous_patterns(t)]
    jobs = len(os.sched_getaffinity(0))
    with multiprocessing.get_context("spawn").Pool(jobs) as pool:
        return dict(pool.map(record_triple, keys, chunksize=4))


def record_pipeline() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.json")
        for seed in wl.PIPELINE_SEEDS:
            stages = cli_stdout(["pipeline", "--t", str(wl.PIPELINE_T),
                                 "--seed", str(seed), "--out", path])
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            del rec["checks"]
            hemi = json.loads(cli_stdout(["hemisystem", "--seed", str(seed)]))
            out[str(seed)] = wl.pipeline_summary(stages.splitlines(),
                                                 hemi["lines"], rec)
    return out


def record_oracle() -> dict:
    sch = wl.oracle_scheme(wl.NullTracer())
    return {"size": sch.size, "rel": wl.rel_digest(sch)}


def write(name, data):
    path = wl.EXPECTED_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} ({len(data)} entries)")


def main():
    wl.EXPECTED_DIR.mkdir(exist_ok=True)
    for name, fn in (("params", record_params), ("triples", record_triples),
                     ("pipeline", record_pipeline), ("oracle", record_oracle)):
        write(name, fn())


if __name__ == "__main__":
    main()
