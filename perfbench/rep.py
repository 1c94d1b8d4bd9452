"""One repetition of a workload, in a fresh interpreter started by `run.py`.

Every repetition runs in its own process because the program keeps its
search memos in module-global state: a second repetition in one process
would time memo hits, not search.

    python3 perfbench/rep.py --workload W --seed N --t0 T --work DIR --result FILE
                             [--trace 0|1] [--setup-only]

`--t0` is the parent's `time.monotonic()` just before it started this
process; `setup_s` runs from there until `regforce` is imported and every
algorithm the workload uses is generated, renamed and parsed.  Jobs then run
back to back through `regforce.cli.main(argv)`; `run_s` spans the first
job's start to the last job's end.  The result, including the correctness
gate's verdict on every job, is written as JSON to `--result`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _import_program():
    """Import the program from the checkout's `src/`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from regforce import cli, model, zoo
    return cli, model, zoo


def setup(workload: str, seed: int, work: Path):
    """Import the program and write every algorithm the workload uses.

    Returns (cli module, jobs, argv substitution table)."""
    cli, model, zoo = _import_program()
    jobs = workloads.WORKLOADS[workload]
    texts = workloads.algorithm_texts(zoo)
    subst = {}
    for name in workloads.algorithms_used(jobs):
        text = workloads.rename_states(texts[name], seed, name)
        model.load_algorithm(text)  # the renamed text must still parse
        path = work / f"{name}.alg"
        path.write_text(text, encoding="utf-8")
        subst[f"alg:{name}"] = str(path)
    for job in jobs:
        for arg in job.argv:
            m = re.fullmatch(r"\{(inputs|out):(.+)\}", arg)
            if m and m.group(1) == "inputs":
                subst[m.group(0)[1:-1]] = workloads.permute_inputs(m.group(2), seed, m.group(2))
            elif m:
                subst[m.group(0)[1:-1]] = str(work / m.group(2))
    return cli, jobs, subst


def resolve(argv, subst) -> list:
    return [subst.get(a[1:-1], a) if a.startswith("{") else a for a in argv]


def run_jobs(cli, jobs, subst, tracer=None) -> tuple:
    """Run every job back to back; returns (run_s, raw outcomes)."""
    outcomes = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        argv = resolve(job.argv, subst)
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv)
        try:
            code = tracer.run_job(i, call) if tracer else call()
        except Exception:  # a crashed job is a failed job; the rest still run
            code = None
            err.write(traceback.format_exc())
        outcomes.append((argv, code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outcomes


def gate(jobs, outcomes, subst, pins) -> list:
    """Judge every job: exit code, verdict class, replay of emitted files and,
    when `pins` is given, SHA-256 of stdout and emitted file."""
    results = []
    for job, (argv, code, stdout, stderr) in zip(jobs, outcomes):
        why = []
        verdict = workloads.verdict_class(argv, stdout, stderr)
        if code != job.code:
            why.append(f"exit code {code}, expected {job.code}")
        if verdict != job.verdict:
            why.append(f"verdict {verdict!r}, expected {job.verdict!r}")
        digests = {"stdout": _digest(stdout.encode("utf-8"))}
        if job.emits:
            path = Path(subst[f"out:{job.emits}"])
            if path.is_file():
                digests["file"] = _digest(path.read_bytes())
            else:
                why.append(f"emitted no file {job.emits}")
        key = " ".join(job.argv)
        if pins is not None and pins.get(key) != digests:
            why.append("bytes differ from the pinned SHA-256")
        results.append({"job": key, "code": code, "verdict": verdict,
                        "digests": digests, "why": why,
                        "stderr": stderr[-2000:] if code is None else ""})
    # an emitted file counts only when its replay in this repetition confirmed it
    by_file = {job.replays: res for job, res in zip(jobs, results) if job.replays}
    for job, res in zip(jobs, results):
        if job.emits and (job.emits not in by_file or by_file[job.emits]["why"]):
            res["why"].append(f"{job.emits} not confirmed by replay")
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    work = Path(args.work)
    tracer = None
    if args.trace:
        # the wrappers replace the program's functions, so import it first;
        # run.py takes no setup_s from traced repetitions
        _import_program()
        tracer = tracing.Tracer()
        tracer.install()
    cli, jobs, subst = setup(args.workload, args.seed, work)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        run_s, outcomes = run_jobs(cli, jobs, subst, tracer)
        pins = None
        if args.seed == workloads.DEFAULT_SEED:
            pins = json.loads((HERE / "pins.json").read_text())[args.workload]
        result.update(
            run_s=run_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            jobs=gate(jobs, outcomes, subst, pins),
        )
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics(run_s)
            spans = work / "spans.jsonl"
            spans.write_text("".join(json.dumps(rec) + "\n" for rec in tracer.spans))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
