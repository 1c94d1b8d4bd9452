"""Core model: anonymous processes over atomic read-write registers.

An algorithm is a transition system shared by every process.  Behavior
depends only on the local state and observed register values, never on a
process id; pids exist purely for scheduling.  Nondeterministic choice is
encoded as a set of actions per state (declaration order is preserved and
used for deterministic tie-breaking everywhere).
"""

from __future__ import annotations

import collections
import functools
import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Union

BOTTOM = "_"  # value of a register nobody has written; never writable
DEFAULT_LABEL = "*"


class SpecError(Exception):
    """Malformed algorithm text: parse or semantic error."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            where = f" ({where})"
        super().__init__(message + where)


class EngineError(Exception):
    """Internal invariant broke: replay divergence, bad bookkeeping, etc."""


class ContradictionError(EngineError):
    """A search result contradicts a machine-checked construction."""


@dataclass(frozen=True)
class Read:
    reg: int
    branches: tuple  # ((value-or-BOTTOM, next-state), ...) in declaration order
    default: Optional[str]  # None only when branches cover alphabet + BOTTOM

    def target(self, outcome: str) -> str:
        state = self.targets.get(outcome, self.default)
        if state is None:
            raise EngineError(f"read of r{self.reg}: no branch for {outcome!r} and no default")
        return state

    @functools.cached_property
    def targets(self) -> dict:
        """Branch label -> next state, built on first use; the first branch
        of a label wins, as in declaration order."""
        table: dict = {}
        for label, state in self.branches:
            table.setdefault(label, state)
        return table


@dataclass(frozen=True)
class Write:
    reg: int
    value: str
    next_state: str


@dataclass(frozen=True)
class Return:
    decision: int


Action = Union[Read, Write, Return]


@dataclass(frozen=True)
class AlgorithmSpec:
    """A parsed algorithm: each state's actions in declaration order.  Its
    caches live exactly as long as it does and are built on first use:
    `tables` for the exhaustive searches, `interned` for the step kernel and
    `memos` for the searches' memos.  None of them is a field, so two specs
    loaded from the same text compare equal and share none of them."""
    name: str
    alphabet: tuple
    register_count: int
    inputs: tuple  # (start state for input 0, start state for input 1)
    states: dict  # state -> tuple of Action, declaration order

    def actions(self, state: str) -> tuple:
        try:
            return self.states[state]
        except KeyError:
            raise EngineError(f"undefined state {state!r}") from None

    @functools.cached_property
    def tables(self) -> "SpecTables":
        """The integer form the exhaustive searches run on, compiled on
        first use, so parsing never pays for it.  Every read of a validated
        spec resolves every register value."""
        ids = {name: i for i, name in enumerate(self.states)}
        digits = {value: d for d, value in enumerate((BOTTOM,) + self.alphabet)}
        base = len(digits)
        rows, covers = [], []
        for actions in self.states.values():
            row, mask = [], 0
            for a in actions:
                if isinstance(a, Return):
                    row.append((RETURN, 0, 0, a.decision, 0, a))
                    continue
                weight = base ** a.reg
                if isinstance(a, Read):
                    kind, bit, arg = READ, 0, tuple((ids[a.target(v)], 0) for v in digits)
                else:
                    kind, bit, value, nxt = WRITE, 1 << a.reg, digits[a.value], ids[a.next_state]
                    arg = tuple((nxt, (value - d) * weight) for d in range(base))
                mask |= bit
                row.append((kind, weight, weight * base, arg, bit, a))
            rows.append(tuple(row))
            covers.append(mask)
        return SpecTables(ids=ids, rows=tuple(rows), covers=tuple(covers), digits=digits,
                          vectors=base ** self.register_count)

    @functools.cached_property
    def interned(self) -> dict:
        """The intern table of `step_in_place`: (input, state, decided) ->
        the one Proc it gives a mover, filled on first use, so the processes
        of every configuration stepped from this spec share their Procs."""
        return {}

    @functools.cached_property
    def memos(self) -> dict:
        """Search memos by name (`valency` keeps its solo and solo-run memos
        here, its `reserving` answers by root class, depth and target, and
        `dead`, the classes from which no reserving run returns each
        target); they hold no witness, so no reference cycle through the
        spec, and live exactly as long as it does."""
        return collections.defaultdict(dict)


# row kinds of SpecTables.rows
READ, WRITE, RETURN = 0, 1, 2


@dataclass(frozen=True)
class SpecTables:
    """A spec compiled to integers, with the step semantics of
    `step_in_place` for one process; the one register encoding every search
    runs on.

    A register vector is one int in base `len(alphabet) + 1`, register r
    being its digit of weight `base**r`: `_` is digit 0, then the alphabet's
    values in order (`digits`).  `pack` builds it from a registers tuple,
    and `vectors` is the number of register vectors, so every packed vector
    is below it.

    `ids` numbers the states in declaration order.  `rows[id]` holds the
    state's actions in declaration order as `(kind, weight, weight * base,
    arg, bit, action)`, where `action` is the model's action.  A return's
    weight, span and bit are 0 and its `arg` is its decision.  A read's or a
    write's `weight` is that of the register it acts on, `bit` is the bit of
    the register a write writes (0 for a read), and `arg[d]` is its successor
    when that register holds digit d: `(next id, change)`, the mover's next
    state id and what the step adds to the packed vector.  A read's change is
    0; a write of value digit v adds `(v - d) * weight`.  This is the one
    place the step rule is stated: every search steps a row from a vector
    `regs` and written bitmask `written` by `nxt, change = arg[regs % span //
    weight]`, to `regs + change` and `written | bit`, and no search tells a
    read from a write.  Bit r of `covers[id]` is set when some action of the
    state writes register r.
    """
    ids: dict
    rows: tuple
    covers: tuple
    digits: dict
    vectors: int

    def pack(self, registers: tuple) -> int:
        """The register vector of a registers tuple, as one int."""
        digits, regs = self.digits, 0
        for value in reversed(registers):
            regs = regs * len(digits) + digits[value]
        return regs


@dataclass(frozen=True)
class Proc:
    input: int
    state: str
    decided: Optional[int] = None  # None while active

    @property
    def active(self) -> bool:
        return self.decided is None


@dataclass(frozen=True)
class Configuration:
    registers: tuple
    procs: tuple  # index == pid

    def proc(self, pid: int) -> Proc:
        if not 0 <= pid < len(self.procs):
            raise ValueError(f"unknown pid {pid}")
        return self.procs[pid]


def initial_configuration(spec: AlgorithmSpec, inputs: Sequence[int]) -> Configuration:
    if not inputs:
        raise ValueError("inputs must be nonempty")
    procs = []
    for b in inputs:
        if b not in (0, 1):
            raise ValueError(f"input must be 0 or 1, got {b!r}")
        procs.append(Proc(input=b, state=spec.inputs[b]))
    return Configuration(registers=(BOTTOM,) * spec.register_count, procs=tuple(procs))


def step_in_place(spec: AlgorithmSpec, registers: list, procs: list, pid: int, action: Action):
    """The step semantics: apply one enabled action of `pid` to the register
    contents and processes of a configuration, given as two lists that are
    updated in place; returns the read outcome, or None.  The mover's next
    Proc is the one `spec.interned` holds for its (input, state, decided), so
    stepping builds a Proc only the first time a spec reaches that triple."""
    if not 0 <= pid < len(procs):
        raise ValueError(f"unknown pid {pid}")
    p = procs[pid]
    if p.decided is not None or action not in spec.actions(p.state):
        raise ValueError(f"action {action} not enabled for pid {pid}")
    outcome = None
    if isinstance(action, Read):
        outcome = registers[action.reg]
        key = (p.input, action.target(outcome), None)
    elif isinstance(action, Write):
        registers[action.reg] = action.value
        key = (p.input, action.next_state, None)
    else:
        key = (p.input, p.state, action.decision)
    interned = spec.interned
    q = interned.get(key)
    if q is None:
        q = interned[key] = Proc(*key)
    procs[pid] = q
    return outcome


def step_with_outcome(spec: AlgorithmSpec, config: Configuration, pid: int, action: Action):
    """Apply one enabled action; returns (new configuration, read outcome or None)."""
    registers, procs = list(config.registers), list(config.procs)
    outcome = step_in_place(spec, registers, procs, pid, action)
    return Configuration(tuple(registers), tuple(procs)), outcome


def canonicalize(config: Configuration) -> tuple:
    """Pid-permutation-invariant form: register contents plus the multiset of
    (input, state, status) classes, status -1 while active so an active
    process sorts apart from one that returned."""
    return (config.registers, tuple(sorted(
        (p.input, p.state, -1 if p.decided is None else p.decided) for p in config.procs)))


# ---------------------------------------------------------------------------
# Algorithm text grammar (line oriented):
#   algorithm <name>
#   values v1 v2 ...
#   registers <K>
#   input 0 -> <State>
#   input 1 -> <State>
#   state <S>: return <bit>
#   state <S>: write r<i> := <v> -> <S'>
#   state <S>: read r<i> ? { <v> -> <S'> ; ... ; * -> <Sdef> }
# Repeated `state <S>:` lines encode nondeterministic choice.  `_` names the
# unwritten-register value in branch labels; `*` is the default branch.
# Blank lines and `#` comments are ignored.
# ---------------------------------------------------------------------------

_STATE_RE = re.compile(r"^state\s+(\S+)\s*:\s*(.*)$")
_WRITE_RE = re.compile(r"^write\s+r(\d+)\s*:=\s*(\S+)\s*->\s*(\S+)$")
_READ_RE = re.compile(r"^read\s+r(\d+)\s*\?\s*\{(.*)\}$")
_RETURN_RE = re.compile(r"^return\s+([01])$")
_INPUT_RE = re.compile(r"^input\s+([01])\s*->\s*(\S+)$")
_TOKEN_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


def _check_token(tok: str, what: str, ln: int) -> str:
    if not _TOKEN_RE.match(tok):
        raise SpecError(f"bad {what} {tok!r}", ln)
    return tok


def load_algorithm(source: str) -> AlgorithmSpec:
    name = None
    alphabet: Optional[list] = None
    register_count = None
    inputs: dict = {}
    states: dict = {}

    for ln, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("algorithm"):
            if name is not None:
                raise SpecError("duplicate algorithm line", ln)
            parts = line.split()
            if len(parts) != 2:
                raise SpecError("expected: algorithm <name>", ln)
            name = _check_token(parts[1], "name", ln)
        elif line.startswith("values"):
            if alphabet is not None:
                raise SpecError("duplicate values line", ln)
            alphabet = [_check_token(t, "value", ln) for t in line.split()[1:]]
        elif line.startswith("registers"):
            if register_count is not None:
                raise SpecError("duplicate registers line", ln)
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise SpecError("expected: registers <count>", ln)
            register_count = int(parts[1])
            if register_count > sys.maxsize:
                # no registers tuple of that length can be made
                raise SpecError(f"register count {register_count} is too large", ln)
        elif line.startswith("input"):
            m = _INPUT_RE.match(line)
            if not m:
                raise SpecError("expected: input <bit> -> <state>", ln)
            b = int(m.group(1))
            if b in inputs:
                raise SpecError(f"duplicate input {b} line", ln)
            inputs[b] = m.group(2)
        elif line.startswith("state"):
            m = _STATE_RE.match(line)
            if not m:
                raise SpecError("expected: state <name>: <action>", ln)
            sname, body = m.group(1), m.group(2).strip()
            action = _parse_action(body, ln)
            states.setdefault(sname, []).append(action)
        else:
            raise SpecError(f"unrecognized line {line.split()[0]!r}", ln, col=1)

    if name is None:
        raise SpecError("missing algorithm line")
    if register_count is None:
        raise SpecError("missing registers line")
    if alphabet is None:
        alphabet = []
    spec = AlgorithmSpec(
        name=name,
        alphabet=tuple(alphabet),
        register_count=register_count,
        inputs=(inputs.get(0), inputs.get(1)),
        states={s: tuple(a) for s, a in states.items()},
    )
    _validate(spec)
    return spec


def _parse_action(body: str, ln: int) -> Action:
    m = _RETURN_RE.match(body)
    if m:
        return Return(int(m.group(1)))
    m = _WRITE_RE.match(body)
    if m:
        return Write(reg=int(m.group(1)), value=m.group(2), next_state=m.group(3))
    m = _READ_RE.match(body)
    if m:
        branches = []
        default = None
        for part in m.group(2).split(";"):
            part = part.strip()
            if not part:
                continue
            if "->" not in part:
                raise SpecError(f"bad branch {part!r}", ln)
            label, _, target = part.partition("->")
            label, target = label.strip(), target.strip()
            if label == DEFAULT_LABEL:
                if default is not None:
                    raise SpecError("duplicate default branch", ln)
                default = target
            else:
                if any(lbl == label for lbl, _ in branches):
                    raise SpecError(f"duplicate branch label {label!r}", ln)
                branches.append((label, target))
        return Read(reg=int(m.group(1)), branches=tuple(branches), default=default)
    raise SpecError(f"unrecognized action {body!r}", ln)


def _validate(spec: AlgorithmSpec) -> None:
    seen = set()
    for v in spec.alphabet:
        if v in (BOTTOM, DEFAULT_LABEL):
            raise SpecError(f"value {v!r} is reserved")
        if v in seen:
            raise SpecError(f"duplicate value {v!r}")
        seen.add(v)
    for b in (0, 1):
        if spec.inputs[b] is None:
            raise SpecError(f"missing input {b} line")
        if spec.inputs[b] not in spec.states:
            raise SpecError(f"input {b} starts in undefined state {spec.inputs[b]!r}")
    full = set(spec.alphabet) | {BOTTOM}
    for sname, actions in spec.states.items():
        for action in actions:
            if isinstance(action, Return):
                continue
            if isinstance(action, Write):
                if not 0 <= action.reg < spec.register_count:
                    raise SpecError(f"state {sname!r}: register out of range r{action.reg}")
                if action.value == BOTTOM:
                    raise SpecError(f"state {sname!r}: cannot write the unwritten value")
                if action.value not in spec.alphabet:
                    raise SpecError(f"state {sname!r}: write of undeclared value {action.value!r}")
                if action.next_state not in spec.states:
                    raise SpecError(f"state {sname!r}: undefined state {action.next_state!r}")
                continue
            if not 0 <= action.reg < spec.register_count:
                raise SpecError(f"state {sname!r}: register out of range r{action.reg}")
            labels = set()
            for label, target in action.branches:
                if label not in full:
                    raise SpecError(f"state {sname!r}: branch on undeclared value {label!r}")
                labels.add(label)
                if target not in spec.states:
                    raise SpecError(f"state {sname!r}: undefined state {target!r}")
            if action.default is not None:
                if action.default not in spec.states:
                    raise SpecError(f"state {sname!r}: undefined state {action.default!r}")
            elif labels != full:
                missing = sorted(full - labels)
                raise SpecError(
                    f"state {sname!r}: read of r{action.reg} lacks a default and does not "
                    f"cover {missing}"
                )


def format_algorithm(spec: AlgorithmSpec) -> str:
    """Canonical text for a spec; load(format(load(x))) == load(x)."""
    out = [f"algorithm {spec.name}"]
    if spec.alphabet:
        out.append("values " + " ".join(spec.alphabet))
    out.append(f"registers {spec.register_count}")
    out.append(f"input 0 -> {spec.inputs[0]}")
    out.append(f"input 1 -> {spec.inputs[1]}")
    for sname in spec.states:
        for action in spec.states[sname]:
            if isinstance(action, Return):
                out.append(f"state {sname}: return {action.decision}")
            elif isinstance(action, Write):
                out.append(f"state {sname}: write r{action.reg} := {action.value} -> {action.next_state}")
            else:
                parts = [f"{label} -> {target}" for label, target in action.branches]
                if action.default is not None:
                    parts.append(f"* -> {action.default}")
                out.append(f"state {sname}: read r{action.reg} ? {{ " + " ; ".join(parts) + " }")
    return "\n".join(out) + "\n"
