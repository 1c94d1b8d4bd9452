"""Built-in test subjects, broken and intended-correct.

The of-race family races over K registers: a process scans them in order,
confirming its preference, adopting any conflicting value it reads (patching
the prefix it had claimed), writing its preference into unwritten slots, and
deciding only after a full pure-read pass confirms one value everywhere.
Each certified variant was frozen after the exhaustive checker accepted it
at the documented scale; the scale notes record where that certification
holds and where the race is known to break.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .model import AlgorithmSpec, load_algorithm


@dataclass(frozen=True)
class ZooEntry:
    name: str
    intent: str  # broken-agreement | broken-validity | non-terminating | intended-correct
    scale_notes: str

    @property
    def text(self) -> str:
        """The algorithm text: `of_race(k)` for `of-race-K`, otherwise the
        packaged `zoo/<name>.alg`, read on each access."""
        family, _, k = self.name.rpartition("-")
        if family == "of-race":
            return of_race(int(k))
        return resources.files(__package__).joinpath(f"zoo/{self.name}.alg").read_text("utf-8")


def of_race(k: int) -> str:
    """Generate the K-register racing consensus candidate.

    A process alternates two passes.  The scan pass reads every register,
    counting the values it sees: a unanimous pass decides that value, any
    other outcome picks the majority value (own preference on ties) as the
    new target.  The seek pass re-reads the registers in order and overwrites
    the first one that differs from the target, then rescans.  At most one
    write happens between scans, so up to (K-1)/2 lurking stale writes are
    outvoted by the surviving majority.
    """
    if k < 1:
        raise ValueError("need at least one register")

    def scan(i, c0, c1, p):
        return f"sc{i}c{c0}_{c1}v{p}"

    def after_scan(c0, c1, p):
        if c0 == k:
            return "ret0"
        if c1 == k:
            return "ret1"
        if c0 > c1:
            t = 0
        elif c1 > c0:
            t = 1
        else:
            t = p
        return f"sk{t}i0"

    lines = [
        f"algorithm of-race-{k}",
        "values 0 1",
        f"registers {k}",
        f"input 0 -> {scan(0, 0, 0, 0)}",
        f"input 1 -> {scan(0, 0, 0, 1)}",
    ]
    for p in (0, 1):
        for i in range(k):
            for c0 in range(i + 1):
                for c1 in range(i + 1 - c0):
                    if i + 1 < k:
                        b0 = scan(i + 1, c0 + 1, c1, p)
                        b1 = scan(i + 1, c0, c1 + 1, p)
                        bb = scan(i + 1, c0, c1, p)
                    else:
                        b0 = after_scan(c0 + 1, c1, p)
                        b1 = after_scan(c0, c1 + 1, p)
                        bb = after_scan(c0, c1, p)
                    lines.append(
                        f"state {scan(i, c0, c1, p)}: read r{i} ? "
                        f"{{ 0 -> {b0} ; 1 -> {b1} ; _ -> {bb} }}"
                    )
    for t in (0, 1):
        for i in range(k):
            clean = f"sk{t}i{i + 1}" if i + 1 < k else scan(0, 0, 0, t)
            lines.append(
                f"state sk{t}i{i}: read r{i} ? {{ {t} -> {clean} ; * -> pt{t}i{i} }}"
            )
            lines.append(f"state pt{t}i{i}: write r{i} := {t} -> {scan(0, 0, 0, t)}")
    lines.append("state ret0: return 0")
    lines.append("state ret1: return 1")
    return "\n".join(lines) + "\n"


_ENTRIES = [
    ZooEntry(
        "trivial-decider",
        "broken-agreement",
        "mixed inputs disagree immediately at any n >= 2",
    ),
    ZooEntry(
        "constant-decider",
        "broken-validity",
        "all-1 inputs decide 0 at any n",
    ),
    ZooEntry(
        "spin-reader",
        "non-terminating",
        "stuck from the initial configuration at any n",
    ),
    ZooEntry(
        "one-register-flag",
        "broken-agreement",
        "two poised writers stomp the flag; breaks at n = 2, depth 8",
    ),
    ZooEntry(
        "claim-commit",
        "broken-agreement",
        "two poised committers race like the flag (breaks at n = 2); its "
        "two-register shape drives the pair adversary's mirrored scan and "
        "switching-point cases at m = 2",
    ),
    ZooEntry(
        "of-race-3",
        "intended-correct",
        "certified at n = 2: the reachable space closes untruncated by depth "
        "60, all ok (one stale writer is outvoted 2-1); two lurkers beat a "
        "majority of three, so n = 3 breaks agreement",
    ),
    ZooEntry(
        "of-race-5",
        "intended-correct",
        "certified at n = 2: the reachable space closes untruncated by depth "
        "100, all ok; at n = 3 the depth-40 sweep is clean but truncated, so "
        "`check` exits 3; two lurking writers corrupt at most two of five "
        "slots and the majority survives",
    ),
]

CATALOG = {e.name: e for e in _ENTRIES}


def list_zoo() -> list:
    return list(_ENTRIES)


class UnknownZooAlgorithm(KeyError):
    """No zoo entry has this name.  Unlike a KeyError's, its text is the
    message alone, as `check zoo:<name>` and `zoo show <name>` print it."""

    def __str__(self) -> str:
        return f"unknown zoo algorithm {self.args[0]} (see zoo list)"


def entry(name: str) -> ZooEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownZooAlgorithm(name) from None


def get_zoo(name: str) -> AlgorithmSpec:
    return load_algorithm(entry(name).text)


def __getattr__(name: str) -> str:
    # `zoo.SPIN_READER` and the like: the text of the entry so named, as the
    # benchmark harness (`perfbench/workloads.py`) reads it
    entry = CATALOG.get(name.lower().replace("_", "-")) if name.isupper() else None
    if entry is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return entry.text
