"""Job tables, seeded input generation and the correctness gate's expectations.

A workload is a fixed list of CLI jobs over generated `.alg` files.  The seed
never changes which jobs run or how big they are; it only

* renames every state of every algorithm text consistently (a seeded
  bijection onto fresh names), and
* permutes which pids hold which input bits in `check` jobs.

Seed 0 is the default: it leaves every text and every input string as
generated, and only at seed 0 are emitted bytes compared with the SHA-256
pins in `pins.json`.  Seed 9173 is held out: no tuning run used it, and a
change that claims a gain shows it there too.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the gate expects of it.

    `argv` may name generated algorithms as `{alg:<name>}`, emitted files as
    `{out:<file>}` and input strings as `{inputs:<bits>}`.  `verdict` is the
    verdict class `verdict_class` must derive from the job's output.  A job
    with `emits` set writes that file, and the gate replays it in the same
    repetition; `replays` names the emitting job's file to confirm.
    """

    argv: tuple
    code: int
    verdict: str
    emits: Optional[str] = None
    replays: Optional[str] = None


def _emitting(argv, code, verdict, out):
    """An emitting job followed by the replay that confirms its file."""
    return [
        Job(tuple(argv) + ("--out", "{out:%s}" % out), code, verdict, emits=out),
        Job(("replay", "{out:%s}" % out), 0, "replay:" + verdict, replays=out),
    ]


def algorithm_texts(zoo):
    """Algorithm texts by file name, generated from the program's own zoo."""
    return {
        "of-race-3": zoo.of_race(3),
        "of-race-9": zoo.of_race(9),
        "of-race-11": zoo.of_race(11),
        "claim-commit": zoo.CLAIM_COMMIT,
        "one-register-flag": zoo.ONE_REGISTER_FLAG,
        "spin-reader": zoo.SPIN_READER,
    }


WORKLOADS = {
    # Reserving search (ROADMAP D2's headline job): coverage matching and the
    # subset memo, no oracle, little trace I/O.
    "linear-chain": (
        _emitting(("attack", "linear", "{alg:of-race-3}", "--m", "3", "--depth", "64"),
                0, "certificate", "of-race-3-linear.jsonl")
        + _emitting(("attack", "linear", "{alg:claim-commit}", "--m", "2"),
                  0, "certificate", "claim-commit-linear.jsonl")
    ),
    # Oracle BFS: canonical deduplication, the `seen` set and per-state solo
    # termination; no reserving search and no coverage check.
    "oracle-sweep": (
        [Job(("check", "{alg:of-race-9}", "--inputs", "{inputs:01}", "--depth", "200"),
             0, "ok")]
        + _emitting(("check", "{alg:of-race-3}", "--inputs", "{inputs:011}", "--depth", "60"),
                  2, "violation:agreement", "of-race-3-check.jsonl")
    ),
    # Solo-mode valency, execution surgery and multi-MB trace emission/replay.
    "sqrt-chain": (
        _emitting(("attack", "sqrt", "{alg:of-race-11}", "--target-r", "11", "--depth", "363"),
                0, "certificate", "of-race-11-sqrt.jsonl")
        + _emitting(("attack", "sqrt", "{alg:of-race-9}", "--target-r", "9", "--depth", "243"),
                  0, "certificate", "of-race-9-sqrt.jsonl")
        + _emitting(("attack", "sqrt", "{alg:one-register-flag}", "--target-r", "2"),
                  2, "violation:agreement", "one-register-flag-sqrt.jsonl")
        + _emitting(("attack", "sqrt", "{alg:spin-reader}", "--target-r", "1"),
                  2, "violation:solo-termination", "spin-reader-sqrt.jsonl")
    ),
    # Seconds-long job set for the benchmark's own tests; not a benchmark
    # workload.
    "smoke": (
        _emitting(("attack", "linear", "{alg:claim-commit}", "--m", "2"),
                0, "certificate", "claim-commit-linear.jsonl")
        + [Job(("check", "{alg:of-race-3}", "--inputs", "{inputs:01}", "--depth", "60"),
               0, "ok")]
    ),
}


# Design predictions a traced run checks and reports; they never fail a run.
# (metric, op, value): the layer metric's median must compare so.
PREDICTIONS = {
    "linear-chain": [("oracle.states", "==", 0), ("valency.self_share", ">=", 0.9)],
    "oracle-sweep": [("valency.query_calls", "==", 0), ("valency.cover_checks", "==", 0),
                     ("valency.reserving_searches", "==", 0)],
    "sqrt-chain": [("valency.cover_checks", "==", 0), ("valency.reserving_searches", "==", 0),
                   ("oracle.states", "==", 0)],
}


def algorithms_used(jobs) -> list:
    names = []
    for job in jobs:
        for arg in job.argv:
            m = re.fullmatch(r"\{alg:(.+)\}", arg)
            if m and m.group(1) not in names:
                names.append(m.group(1))
    return names


# -- seeded inputs -------------------------------------------------------------

# A state name follows `state` at the start of a line or an arrow; the token
# grammar is the one `regforce.model` accepts for names.
_STATE_SITE = re.compile(r"(^state\s+|->\s*)([A-Za-z0-9_.\-]+)", re.MULTILINE)
_STATE_DECL = re.compile(r"^state\s+([A-Za-z0-9_.\-]+)", re.MULTILINE)


def rename_states(text: str, seed: int, tag: str) -> str:
    """Rename every state of `text` by a seeded bijection onto fresh names.

    The states are the names declared by `state` lines.  The new names are a
    random permutation of `q0 .. q<n-1>` with a random suffix, so their sort
    order is unrelated to the old one.  Seed 0 returns `text` unchanged.
    """
    if seed == DEFAULT_SEED:
        return text
    rng = random.Random(f"{seed}/rename/{tag}")
    old = sorted(set(_STATE_DECL.findall(text)))
    ids = list(range(len(old)))
    rng.shuffle(ids)
    suffix = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
    mapping = {name: f"q{i}{suffix}" for name, i in zip(old, ids)}

    def sub(m):
        return m.group(1) + mapping.get(m.group(2), m.group(2))

    return _STATE_SITE.sub(sub, text)


def permute_inputs(bits: str, seed: int, tag: str) -> str:
    """Seeded permutation of which pids hold which input bits."""
    if seed == DEFAULT_SEED:
        return bits
    rng = random.Random(f"{seed}/inputs/{tag}")
    chars = list(bits)
    rng.shuffle(chars)
    return "".join(chars)


# -- verdict classes -----------------------------------------------------------

def verdict_class(argv, stdout: str, stderr: str) -> str:
    """The verdict a job's output states, in the terms `Job.verdict` uses."""
    if argv[0] == "check":
        fields = dict(line.split(": ", 1) for line in stdout.splitlines()[:3]
                      if ": " in line)
        if len(fields) != 3:
            return "unparsed"
        bad = [k for k in ("agreement", "validity", "solo-termination")
               if fields.get(k) != "ok"]
        return "violation:" + bad[0] if bad else "ok"
    if argv[0] == "replay":
        try:
            summary = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "unparsed"
        if summary.get("kind") == "violation":
            return "replay:violation:" + str(summary.get("category"))
        return "replay:" + str(summary.get("kind"))
    first = (stderr.strip().splitlines() or [""])[0]
    if first.startswith("chain complete"):
        return "certificate"
    if first.startswith("violation: "):
        return "violation:" + first[len("violation: "):]
    if first.startswith("inconclusive"):
        return "inconclusive"
    return "unparsed"
