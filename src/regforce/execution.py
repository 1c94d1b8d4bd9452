"""Executions: step sequences with recorded read outcomes, replay validation,
written-register accounting, and trace surgery.

Executions are immutable values; every operation returns a new one.  One
loop steps a trace: `replay_steps`, which runs the model's in-place step
kernel (`model.step_in_place`) over one list of register contents and one of
processes.  `Execution.extend_steps` is that loop, building a single
`Configuration` at the end, and `from_steps` is it run from the initial
configuration; `extend` takes one step through `model.step_with_outcome`,
the kernel's one-step wrapper.  `prefix_configurations` is the same loop
keeping the configuration after every prefix and no steps, for a caller
that queries many prefixes of one step list but keeps few of them as
executions.  So every disabled action or diverging read surfaces as an
`EngineError` naming the absolute step index.  Each surgery
(inserting shadow steps, uniting a stale pair mid-trace) rebuilds the step
list and is one full replay, which also checks that no process that gained
no step can tell the difference - replay is the single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .model import (
    AlgorithmSpec,
    Configuration,
    EngineError,
    Proc,
    Read,
    Write,
    initial_configuration,
    step_in_place,
    step_with_outcome,
)


@dataclass(frozen=True)
class Step:
    pid: int
    action: object
    outcome: Optional[str] = None  # register value observed, reads only

    @property
    def kind(self) -> str:
        if isinstance(self.action, Read):
            return "read"
        if isinstance(self.action, Write):
            return "write"
        return "return"


class Execution:
    """An initial configuration plus a validated step sequence.  Only
    `extend_steps` adds steps, and `add_process` adds an idle process, so
    every Execution replays by construction and is never re-checked."""

    __slots__ = ("spec", "initial", "steps", "final")

    def __init__(self, spec: AlgorithmSpec, initial: Configuration, steps: tuple, final: Configuration):
        self.spec = spec
        self.initial = initial
        self.steps = steps
        self.final = final

    @classmethod
    def start(cls, spec: AlgorithmSpec, initial: Configuration) -> "Execution":
        return cls(spec, initial, (), initial)

    @classmethod
    def from_steps(cls, spec: AlgorithmSpec, initial: Configuration, steps: Iterable[Step]) -> "Execution":
        """Replay steps from scratch, checking enabledness and read outcomes."""
        return cls.start(spec, initial).extend_steps(steps)

    def extend(self, pid: int, action) -> "Execution":
        """Append one step, as `extend_steps` would."""
        try:
            config, outcome = step_with_outcome(self.spec, self.final, pid, action)
        except ValueError as e:
            raise _replay_failed(len(self.steps), e) from None
        return Execution(self.spec, self.initial,
                         self.steps + (Step(pid, action, outcome),), config)

    def extend_steps(self, steps: Iterable[Step]) -> "Execution":
        """Append steps, checking that each is enabled and that each recorded
        read outcome reproduces; errors name the absolute step index."""
        registers, procs = list(self.final.registers), list(self.final.procs)
        out = tuple(replay_steps(self.spec, registers, procs, steps, len(self.steps)))
        return Execution(self.spec, self.initial, self.steps + out,
                         Configuration(tuple(registers), tuple(procs)))

    def written_registers(self, start: int = 0, end: Optional[int] = None) -> frozenset:
        """W(e) over steps[start:end]."""
        stop = len(self.steps) if end is None else end
        return frozenset(
            s.action.reg for s in self.steps[start:stop] if isinstance(s.action, Write)
        )

    def steps_of(self, pid: int) -> tuple:
        return tuple(s for s in self.steps if s.pid == pid)

    def __eq__(self, other):
        return (
            isinstance(other, Execution)
            and self.initial == other.initial
            and self.steps == other.steps
        )


def replay_steps(spec: AlgorithmSpec, registers: list, procs: list, steps: Iterable[Step],
                 first: int = 0):
    """Step `steps` in order on a configuration's register contents and
    processes, two lists updated in place by the model's kernel, and yield
    each with its observed read outcome: the caller's own Step whenever its
    recorded outcome is that one.  A disabled action or a diverging recorded
    read raises an EngineError naming the step's index, counted from
    `first`."""
    for i, step in enumerate(steps, start=first):
        try:
            outcome = step_in_place(spec, registers, procs, step.pid, step.action)
        except ValueError as e:
            raise _replay_failed(i, e) from None
        if outcome != step.outcome:
            if step.outcome is not None:
                raise EngineError(f"replay divergence at step {i}: read {outcome!r}, "
                                  f"recorded {step.outcome!r}")
            step = Step(step.pid, step.action, outcome)
        yield step


def prefix_configurations(spec: AlgorithmSpec, config: Configuration, steps: Sequence[Step],
                          first: int = 0) -> list:
    """The configuration after each prefix of `steps` from `config`, the
    empty prefix first: `steps` stepped once by `replay_steps`, which raises
    its errors with indices counted from `first`."""
    registers, procs = list(config.registers), list(config.procs)
    out = [config]
    for _ in replay_steps(spec, registers, procs, steps, first):
        out.append(Configuration(tuple(registers), tuple(procs)))
    return out


def _replay_failed(i: int, error: ValueError) -> EngineError:
    return EngineError(f"replay failed at step {i}: {error}")


def add_process(exec_: Execution, input_bit: int):
    """Grow the initial configuration by one idle process; returns (execution, pid).

    The new process takes no steps, so every recorded step replays unchanged
    and nobody else can observe the difference.
    """
    entry = Proc(input=input_bit, state=exec_.spec.inputs[input_bit])
    initial = Configuration(exec_.initial.registers, exec_.initial.procs + (entry,))
    final = Configuration(exec_.final.registers, exec_.final.procs + (entry,))
    pid = len(initial.procs) - 1
    return Execution(exec_.spec, initial, exec_.steps, final), pid


def indistinguishable(c1: Configuration, c2: Configuration, who: Iterable[int]) -> bool:
    """Registers equal and every listed process has equal (state, status)."""
    if c1.registers != c2.registers:
        return False
    for pid in who:
        a, b = c1.proc(pid), c2.proc(pid)
        if (a.state, a.decided) != (b.state, b.decided):
            return False
    return True


def _rebuild(exec_: Execution, steps, movers) -> Execution:
    """Replay a rebuilt step list from exec_'s start; the result must be
    indistinguishable from exec_ to every process outside `movers`, the pids
    that gained steps."""
    rebuilt = Execution.from_steps(exec_.spec, exec_.initial, steps)
    others = [pid for pid in range(len(exec_.initial.procs)) if pid not in movers]
    if not indistinguishable(exec_.final, rebuilt.final, others):
        raise EngineError("trace surgery was visible to a process that gained no step")
    return rebuilt


def mirror_history(exec_: Execution, shadows: Sequence[tuple]) -> Execution:
    """Insert shadow copies of processes' first steps, in one rebuild.

    `shadows` holds (source, count, mirror) triples: the mirror repeats the
    source's first `count` actions, each immediately after the source's step
    (one source's mirrors in list order), so reads observe the same value and
    writes rewrite the same one.  Mirrors must exist in the initial
    configuration with their source's input and no steps of their own.
    """
    stepped = {s.pid for s in exec_.steps}
    by_source = {}
    for source, count, mirror in shadows:
        want = exec_.initial.proc(source).input
        p = exec_.initial.proc(mirror)
        if p.input != want or p != Proc(p.input, exec_.spec.inputs[p.input]):
            raise EngineError(f"mirror pid {mirror} is not a fresh process of input {want}")
        if mirror in stepped:
            raise EngineError(f"mirror pid {mirror} already has steps")
        by_source.setdefault(source, []).append((count, mirror))
    copied = dict.fromkeys(by_source, 0)
    new_steps = []
    for step in exec_.steps:
        new_steps.append(step)
        if step.pid in copied:
            ordinal = copied[step.pid]
            copied[step.pid] += 1
            new_steps.extend(Step(mirror, step.action, step.outcome)
                             for count, mirror in by_source[step.pid] if ordinal < count)
    for source, count, _ in shadows:
        if copied[source] < count:
            raise EngineError(f"source pid {source} has only {copied[source]} steps, wanted {count}")
    return _rebuild(exec_, new_steps, {mirror for _, _, mirror in shadows})


def restricted_replay(exec_: Execution, pids: Iterable[int], steps) -> Execution:
    """Replay steps taken only by `pids` from the start of the system that
    holds just those processes of `exec_`, with their inputs, renumbered in
    pid order."""
    pids = sorted(pids)
    remap = {pid: i for i, pid in enumerate(pids)}
    inputs = [exec_.initial.proc(pid).input for pid in pids]
    system = Execution.start(exec_.spec, initial_configuration(exec_.spec, inputs))
    return system.extend_steps(Step(remap[s.pid], s.action, s.outcome) for s in steps)


def insert_step(exec_: Execution, index: int, pid: int, action) -> Execution:
    """Splice a single step into the trace, visible to `pid` alone."""
    steps = exec_.steps[:index] + (Step(pid, action),) + exec_.steps[index:]
    return _rebuild(exec_, steps, {pid})
