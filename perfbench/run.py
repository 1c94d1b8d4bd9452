"""regforce benchmark: end-to-end CLI workloads, each repetition cold.

    python3 perfbench/run.py --workload linear-chain --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  Repetitions run one at a time, each in a
fresh single-threaded interpreter (`rep.py`), back to back until `--seconds`
have passed (at least one).  `--trace 0` reports the end-to-end metrics:

    run_s        s   median wall time from the first job's start to the last
                     job's end, set-up excluded
    setup_s      s   median time from process start until `regforce` is
                     imported and the workload's algorithms are generated and
                     parsed, over every repetition plus set-up-only probes
    peak_rss_mb  MB  median peak resident memory of a repetition's process

`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics of `tracing.LAYER_METRICS` (medians over traced
repetitions) and `trace.overhead_s`, traced minus untraced median `run_s`.

Every job passes the correctness gate in `rep.gate` or counts as failed; a
repetition whose emitted bytes differ from the run's first repetition's
(tracing on or off) fails every job that differs.  Summary lines, including
`failed_ratio` (failed / attempted jobs), the seed, the Python version and
`nproc`, precede the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exits 2 without a result when the
checkout holds no program or a repetition cannot run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Set-up-only processes per run, on top of the set-up of every repetition,
# so that setup_s is a median of many samples even when one repetition fills
# the run; the first probe also fills the bytecode cache and is discarded.
SETUP_PROBES = 8
REP_TIMEOUT_S = 170


class HarnessError(Exception):
    """A repetition could not run; the run reports no result."""


def _rep(workload, seed, work: Path, trace=0, setup_only=False) -> dict:
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--result", str(result),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed hash seed per benchmark seed: the same seed, the same process
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    env.pop("PYTHONPATH", None)  # the program comes from this checkout's src/ only
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0 or not result.is_file():
        raise HarnessError(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return dict(json.loads(result.read_text()), work=work)


def measure(workload: str, seed: int, seconds: float, trace: int, scratch: Path):
    """Run the repetitions; returns (metrics with units, jobs judged, spans
    file of the last traced repetition or None, summary info)."""
    count = itertools.count()

    def rep(**kw):
        return _rep(workload, seed, scratch / f"rep{next(count)}", **kw)

    setups = [rep(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES + 1)][1:]
    plain, traced = [], []
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        plain.append(rep())
        if trace:
            traced.append(rep(trace=1))
    reps = plain + traced
    setups += [r["setup_s"] for r in plain]

    # bytes must repeat exactly across repetitions, tracing on or off
    first = [j["digests"] for j in reps[0]["jobs"]]
    jobs = [j for r in reps for j in r["jobs"]]
    for r in reps[1:]:
        for j, d in zip(r["jobs"], first):
            if j["digests"] != d:
                j["why"].append("bytes differ from the first repetition's")

    run_s = statistics.median([r["run_s"] for r in plain])
    if trace:
        metrics = {name: statistics.median([r["layers"][name] for r in traced])
                   for name in tracing.LAYER_METRICS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median([r["run_s"] for r in traced]) - run_s
        units = tracing.LAYER_METRICS
        spans = traced[-1]["work"] / "spans.jsonl"
    else:
        metrics = {"run_s": run_s, "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain])}
        units = END_TO_END
        spans = None
    info = {"reps": len(plain), "traced_reps": len(traced), "setup_samples": len(setups),
            "run_s_each": ",".join(f"{r['run_s']:.3f}" for r in plain)}
    return {k: (metrics[k], units[k]) for k in units}, jobs, spans, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="regforce benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "regforce" / "cli.py").is_file():
        print(f"error: no regforce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_work"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        metrics, jobs, spans, info = measure(args.workload, args.seed, args.seconds,
                                             args.trace, scratch)
        if spans is not None:
            shutil.copyfile(spans, out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
    except (HarnessError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [j for j in jobs if j["why"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"python {platform.python_version()} nproc {len(os.sched_getaffinity(0))} "
          + " ".join(f"{k} {v}" for k, v in info.items()))
    for j in failed:
        print(f"FAILED {j['job']}: {'; '.join(j['why'])} {j['stderr']}".rstrip())
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        for name, op, want in workloads.PREDICTIONS.get(args.workload, []):
            value = metrics[name][0]
            holds = value == want if op == "==" else value >= want
            print(f"prediction {name} {op} {want}: {'holds' if holds else 'FAILS'} ({value:.6g})")
    print(f"failed_ratio {len(failed) / len(jobs):.6g} 1")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
