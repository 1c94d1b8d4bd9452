"""Trace, witness, certificate, and report files.

Everything is line-oriented JSON (one object per line).  A file opens with a
header record carrying the algorithm text itself, so replay needs nothing
but the file.  Step records: {i, pid, kind, reg, val, outcome, state_before,
state_after, role}; reads carry their observed value in `outcome`, writes
the written value in `val`, returns the decision in `val`.  All keys are
sorted and no timestamps exist anywhere, so identical runs serialize to
identical bytes.

After the header a file is a run of sections: one non-step record (a
violation, counter, level, witness, closing block write or inconclusive
marker) and the step records that follow it.  Replay parses the file one
section at a time, dispatches on the first record after the header, and
steps every trace through `Execution.extend_steps`.  The emitters return
lists of lines, which `write_lines` writes out one at a time without
joining them.  Replay takes the file's bytes (text is encoded to them
first) and decodes and splits them one line at a time, so it holds the file
once.

Step records repeat far more than they differ, and differ by pid more than
by anything else a step does, so both directions work once per distinct
record with its pid cut out.  Sorted keys put `i` first and `pid` between
`outcome` and `record`, so an emitted step line is `{"i":N,`, a head up to
`"pid":`, the pid and the rest; head and rest are the line's tail.  The
emitters encode each distinct tail once per file.  Replay decodes and
validates each distinct tail once per file, and the lines of one tail and
pid share one Step; every later line with that tail checks only what the
tail cannot fix, its index and its pid and role against its own section.  A
step line of any other shape is decoded and validated on its own, with the
same checks in the same order, so a file gives the same summary or the same
error either way.

A linear certificate's `pairs` (in the header and in each level) record the
pair layout of its processes, [[0, 1], [2, 3], ...]: pair i is leader 2i and
clone 2i+1, so a step's role is its pid's parity and no split is stored, as
splits are read off the trace.  Replay requires exactly that layout, and
"solo" roles and empty `pairs` everywhere else.  A certificate's header must
name a `sqrt` or `linear` attack and repeat the algorithm's name, the top
level's `inputs` and `pairs`, and (linear) the closing block write's
`registers_written`; its levels rank 0, 1, ... up to the header's
`target_r` or `m`, each with a 0-deciding witness and then a 1-deciding one.

Replay states no level rule of its own.  It rebuilds each level from its
record, its replayed execution and its two witnesses, and runs the attack's
own checker on it: `sqrt_attack.check_level`, or
`linear_attack.verify_properties` on a linear level whose cover map is read
off the trace and `V`.  The fields the checker does not read must be the
rebuilt level's: a sqrt level's `budget` its process count, a linear level's
`U`, `V` and `L` its pair ids, cover pairs and stale pairs.  A linear
certificate's closing block write must be the one the attack makes on the
rebuilt top level (`linear_attack.corollary_finish`): one write per `R_c`
register in ascending order, each the first write to the register in its
cover pair leader's state, after which `registers_written` registers, exactly
`m`, have been written.  Any EngineError met while re-executing a file is
raised as a ReplayError.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import re
from typing import Optional

from .model import (
    AlgorithmSpec,
    Configuration,
    EngineError,
    Read,
    Return,
    Write,
    format_algorithm,
    initial_configuration,
    load_algorithm,
)
from .execution import Execution, Step
from .linear_attack import LinearLevel, assert_properties, corollary_finish, recorded_cover
from .oracle import replay_violation
from .pairs import members, pair_of
from .reports import LinearChainCertificate, SqrtChainCertificate, ViolationReport
from .sqrt_attack import SqrtLevel, check_level
from .valency import Witness, group_moves


# one encoder for every record: sorted keys, no spaces
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _step_record(i: int, step: Step, before: str, role: str) -> dict:
    action = step.action
    rec = {
        "record": "step",
        "i": i,
        "pid": step.pid,
        "kind": step.kind,
        "reg": getattr(action, "reg", None),
        "val": None,
        "outcome": step.outcome,
        "state_before": before,
        "state_after": None,
        "role": role,
    }
    if isinstance(action, Write):
        rec["val"] = action.value
        rec["state_after"] = action.next_state
    elif isinstance(action, Read):
        rec["state_after"] = action.target(step.outcome)
    else:
        rec["val"] = action.decision
    return rec


def execution_lines(exec_: Execution, roles=None, first_index: int = 0, memo=None) -> list:
    """Step records for exec_.steps, numbered from `first_index`.  The steps
    were validated when exec_ was built, so each process's states are read
    off its actions and recorded outcomes.

    A record's encoding depends on its pid only where the pid is written, so
    `memo` maps (id(action), outcome, state_before, role) to the encoding
    after its index split around its pid, the state_after and the action;
    one emitted file shares it, so each distinct pid-free record is encoded
    once per file.  Its key holds only ints and strings, so no Step is
    hashed, and its value holds the action, so no id is reused while the
    memo lives; an action equal to another but not the same object only
    misses the memo, and encodes to the same bytes.  Sorted keys put `i`
    first and `pid` between `outcome` and `record`, so a line is `{"i":N,`,
    the head, the pid and the rest."""
    roles = roles or {}
    memo = {} if memo is None else memo
    states = [p.state for p in exec_.initial.procs]
    role_of = [roles.get(pid, "solo") for pid in range(len(states))]
    lines = []
    for i, step in enumerate(exec_.steps, start=first_index):
        pid, action = step.pid, step.action
        before, role = states[pid], role_of[pid]
        key = (id(action), step.outcome, before, role)
        hit = memo.get(key)
        if hit is None:
            rec = _step_record(0, step, before, role)
            del rec["i"]
            rec["pid"] = 0
            head, _, rest = _dump(rec)[1:].partition(',"pid":0')
            hit = memo[key] = (head + ',"pid":', rest, rec["state_after"], action)
        head, rest, after, _ = hit
        if after is not None:
            states[pid] = after
        lines.append(f'{{"i":{i},{head}{pid}{rest}')
    return lines


def _tail(exec_: Execution, steps) -> Execution:
    """`steps` validated as an execution that starts at exec_'s end."""
    return Execution.start(exec_.spec, exec_.final).extend_steps(steps)


def header_record(spec: AlgorithmSpec, initial: Optional[Configuration],
                  extra: Optional[dict] = None) -> str:
    """The opening record; a file without an execution (`initial` None)
    names no inputs, and only a linear certificate's `extra` names pairs."""
    rec = {
        "record": "header",
        "spec": spec.name,
        "algorithm_text": format_algorithm(spec),
        "inputs": [p.input for p in initial.procs] if initial else [],
        "pairs": [],
    }
    rec.update(extra or {})
    return _dump(rec)


def witness_lines(witness: Witness, exec_: Execution, roles=None, memo=None) -> list:
    """Wrapper record plus the witness steps relative to the execution end;
    `memo` as in `execution_lines`."""
    pids = sorted(pid for unit in witness.members for pid in unit)
    wrapper = _dump({
        "record": "witness",
        "kind": witness.kind,
        "decision": witness.decision,
        "P": pids,
        "depth": len(witness.moves),
    })
    return [wrapper] + execution_lines(_tail(exec_, witness.steps), roles, len(exec_.steps),
                                       memo)


def _pairs(count: int) -> list:
    """The pairs of a linear system of `count` processes: pair i is leader
    2i and clone 2i+1."""
    return [[2 * i, 2 * i + 1] for i in range(count // 2)]


def _roles(count: int) -> dict:
    return {pid: ("leader", "clone")[pid % 2] for pid in range(count)}


# -- violation reports --------------------------------------------------------

def violation_lines(report: ViolationReport) -> list:
    lines = [header_record(report.trace.spec, report.trace.initial)]
    lines.append(_dump({
        "record": "violation",
        "kind": report.kind,
        "evidence": _jsonable(report.evidence),
        "stuck_pids": list(report.stuck_pids),
        "depth": report.depth,
        "prefix_len": report.prefix_len,
    }))
    memo: dict = {}
    lines.extend(execution_lines(report.trace, memo=memo))
    if report.counter_trace is not None:
        lines.append(_dump({"record": "counter", "prefix_len": report.prefix_len}))
        lines.extend(execution_lines(report.counter_trace, memo=memo))
    return lines


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in (sorted(value) if isinstance(value, (set, frozenset)) else value)]
    return value


# -- chain certificates ---------------------------------------------------------

def sqrt_certificate_lines(cert: SqrtChainCertificate) -> list:
    top = cert.levels[-1]
    lines = [header_record(top.exec.spec, top.exec.initial,
                           {"attack": "sqrt", "depth": cert.depth,
                            "target_r": top.r})]
    memo: dict = {}
    for level in cert.levels:
        lines.append(_dump({
            "record": "level",
            "r": level.r,
            "R": sorted(level.regs),
            "budget": level.budget_used,
            "inputs": [p.input for p in level.exec.initial.procs],
        }))
        lines.extend(execution_lines(level.exec, memo=memo))
        lines.extend(witness_lines(level.w0, level.exec, memo=memo))
        lines.extend(witness_lines(level.w1, level.exec, memo=memo))
    return lines


def linear_certificate_lines(cert: LinearChainCertificate) -> list:
    top = cert.levels[-1]
    count = len(top.exec.initial.procs)
    lines = [header_record(top.exec.spec, top.exec.initial,
                           {"attack": "linear", "m": cert.m, "depth": cert.depth,
                            "registers_written": cert.registers_written,
                            "pairs": _pairs(count)})]
    memo: dict = {}
    for level in cert.levels:
        count = len(level.exec.initial.procs)
        roles = _roles(count)
        lines.append(_dump({
            "record": "level",
            "r": level.r,
            "case": level.case_tag,
            "U": list(level.pair_ids),
            "V": sorted(set(level.cover.values())),
            "L": sorted(level.stale_ids()),
            "P": list(level.p_ids),
            "Q": list(level.q_ids),
            "R_s": sorted(level.split_regs),
            "R_c": sorted(level.covered_regs),
            "pairs": _pairs(count),
            "inputs": [p.input for p in level.exec.initial.procs],
        }))
        lines.extend(execution_lines(level.exec, roles, memo=memo))
        lines.extend(witness_lines(level.alpha, level.exec, roles, memo))
        lines.extend(witness_lines(level.beta, level.exec, roles, memo))
    lines.append(_dump({"record": "closing-block-write",
                        "registers_written": cert.registers_written}))
    closing = _tail(top.exec, cert.final.steps[len(top.exec.steps):])
    lines.extend(execution_lines(closing, roles, len(top.exec.steps), memo))
    return lines


def inconclusive_lines(spec: AlgorithmSpec, reason: str, depth: int) -> list:
    """The file of a run that could not conclude within search depth `depth`."""
    return [header_record(spec, None), _dump({
        "record": "inconclusive",
        "spec": spec.name,
        "reason": reason,
        "depth": depth,
    })]


def write_lines(path: str, lines) -> None:
    """Write the records to `path`, one line each, as `stream_lines` does."""
    with open(path, "w", encoding="utf-8") as fh:
        stream_lines(fh, lines)


def stream_lines(fh, lines) -> None:
    """Write the records to the text stream `fh` line by line, each ending in
    a newline, without joining them into one string."""
    for line in lines:
        fh.write(line)
        fh.write("\n")


# -- replay -------------------------------------------------------------------

class ReplayError(Exception):
    pass


def _lines(data):
    r"""The lines of a file's bytes, or of its text encoded as UTF-8, decoded
    as strict UTF-8 one at a time with universal newlines: "\r\n", "\r" and
    "\n" each end a line, as in a read in text mode, and a final line end
    starts no line.  Bytes are read where they lie, so the CLI passes
    bytes."""
    if isinstance(data, str):
        data = data.encode()
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None)


# the start of a step line as the emitters write it: an index, then the rest
# of the record (its tail) up to and including its pid, which follows its
# kind and outcome; a line with a longer index or pid than any file holds is
# left to the decoder, which rejects a number too long for an int, and to
# the checks after it
_INDEXED = re.compile(r'\{"i":(0|[1-9][0-9]{0,17}),'
                      r'("kind":[^,]*,"outcome":[^,]*,"pid":)(0|[1-9][0-9]{0,17})(?=,")')


class _Tail:
    """The step lines of a file that share one tail once their pid is cut
    out: its record decoded once, then, once a line of it is validated, the
    role it gives and one shared Step for each pid that takes it (`steps`,
    keyed by the pid's digits; its first Step gives the others their action
    and outcome)."""

    __slots__ = ("rec", "role", "steps")

    def __init__(self, rec: dict):
        self.rec, self.role, self.steps = rec, None, None


def _sections(data):
    """Yield (record, its step records) for each section of a file, given as
    bytes or text, parsing one section at a time from lines read lazily, each
    stripped of the whitespace around it; blank lines count in line numbers
    and are skipped.  Step records before the first record get None.

    A step line that opens `{"i":N,"kind":...,"outcome":...,"pid":P,` is
    decoded once per file for each distinct rest of the line with P cut out
    (its tail): the section holds (N, P's digits, the tail's shared
    `_Tail`), and later lines with that tail are not decoded again.  Every
    other step line is held decoded, and so is one whose tail holds `"i"`, a
    second `"pid"` or a backslash anywhere: each may make a second key i or
    pid, which would override N or P."""
    meta, steps, tails = None, [], {}
    for n, line in enumerate(_lines(data), start=1):
        line = line.strip()
        if not line:
            continue
        indexed = _INDEXED.match(line)
        if indexed:
            text = indexed[2] + line[indexed.end():]
            tail = tails.get(text)
            if tail is not None:
                steps.append((int(indexed[1]), indexed[3], tail))
                continue
        try:
            record = json.loads(line)
        except ValueError as e:  # a JSONDecodeError, or a number too long for an int
            raise ReplayError(f"line {n}: not a JSON record ({e})") from None
        if not isinstance(record, dict):
            raise ReplayError(f"line {n}: not a JSON object")
        if record.get("record") != "step":
            if meta is not None or steps:
                yield meta, steps
            meta, steps = record, []
        elif indexed and '"i"' not in text and text.count('"pid"') == 1 and "\\" not in text:
            tail = tails[text] = _Tail(record)
            steps.append((int(indexed[1]), indexed[3], tail))
        else:
            steps.append(record)
    if meta is not None or steps:
        yield meta, steps


def _header(sections) -> dict:
    """The opening record, which no step record may follow."""
    header, steps = next(sections, (None, []))
    if header is None or header.get("record") != "header":
        raise ReplayError("missing header record")
    if steps:
        raise ReplayError("step records directly after the header")
    return header


def _algorithm(header: dict) -> AlgorithmSpec:
    """The spec of the header's `algorithm_text`."""
    text = header.get("algorithm_text")
    if not isinstance(text, str):
        raise ReplayError("header: algorithm_text is not a string")
    return load_algorithm(text)


def _inputs(record: dict, where: str) -> list:
    """The record's `inputs`, checked to be a nonempty list of bits."""
    inputs = record.get("inputs")
    if not isinstance(inputs, list) or not inputs \
            or any(type(b) is not int or b not in (0, 1) for b in inputs):
        raise ReplayError(f"{where}: inputs is not a nonempty list of bits")
    return inputs


def _count(record: dict, field: str, where: str) -> int:
    value = record.get(field)
    if type(value) is not int or value < 0:
        raise ReplayError(f"{where}: {field} is not a nonnegative integer")
    return value


def _registers(record: dict, field: str, where: str, count: int) -> list:
    value = record.get(field)
    if not isinstance(value, list) \
            or any(type(reg) is not int or not 0 <= reg < count for reg in value):
        raise ReplayError(f"{where}: {field} is not a list of registers below {count}")
    return value


# the fields a step record must hold to be matched to an action
_STEP_FIELDS = ("kind", "pid", "reg", "val", "state_before", "state_after")


def _steps_from_records(spec, records, pids: int, first: int = 0, roles=None):
    """Steps of a system of `pids` processes from their records, as
    `_sections` holds them, which must be numbered from `first`.  Given
    `roles` (pid -> "leader" | "clone"), each step's role must be its pid's,
    or "solo" for a pid in no pair.

    A tail's record is validated in full once, with the pid of the line
    validated; a later line with that tail checks only its index, then its
    pid against `pids` and its role, in that order, since every other check
    reads only the tail, and takes the Step its tail holds for its pid."""
    steps = []
    for i, rec in enumerate(records, start=first):
        tail = None
        if type(rec) is tuple:
            index, pid, tail = rec
            if index != i:
                raise ReplayError(f"step {i}: i is {index!r}, not its index {i}")
            shared = tail.steps
            if shared is not None:
                step = shared.get(pid)
                if step is None:
                    first_step = next(iter(shared.values()))
                    step = shared[pid] = Step(int(pid), first_step.action, first_step.outcome)
                _check_pid(i, step.pid, pids, roles, tail.role)
                steps.append(step)
                continue
            rec = tail.rec
            rec["pid"] = int(pid)
        elif type(rec.get("i")) is not int or rec["i"] != i:
            raise ReplayError(f"step {i}: i is {rec.get('i')!r}, not its index {i}")
        step = _step(spec, rec, i, pids, roles)
        if tail is not None:
            tail.rec, tail.role, tail.steps = None, rec.get("role"), {pid: step}
        steps.append(step)
    return steps


def _check_pid(i: int, pid, pids: int, roles, role) -> None:
    """Step i's pid must be one of `pids`, and its role the pid's."""
    if type(pid) is not int or not 0 <= pid < pids:
        raise ReplayError(f"step {i}: pid {pid!r} is not one of {pids} pids")
    if roles is not None and role != roles.get(pid, "solo"):
        raise ReplayError(f"step {i}: role {role!r} is not pid {pid}'s "
                          f"{roles.get(pid, 'solo')!r}")


def _step(spec, rec: dict, i: int, pids: int, roles) -> Step:
    """The Step of step record i, whose index the caller checked: every
    field present, then its pid and role, its state and outcome, and one
    action of its state that it matches."""
    for field in _STEP_FIELDS:
        if field not in rec:
            raise ReplayError(f"step {i}: no {field} field")
    kind = rec["kind"]
    state = rec["state_before"]
    pid = rec["pid"]
    outcome = rec.get("outcome")
    _check_pid(i, pid, pids, roles, rec.get("role"))
    if not isinstance(state, str):
        raise ReplayError(f"step {i}: state_before is not a string")
    # a read records the value it saw; nothing else records an outcome
    if type(outcome) is not (str if kind == "read" else type(None)):
        raise ReplayError(f"step {i}: outcome {outcome!r} does not fit a {kind} step")
    for a in spec.actions(state):
        if kind == "read" and isinstance(a, Read) and a.reg == rec["reg"] \
                and a.target(outcome) == rec["state_after"]:
            return Step(pid, a, outcome)
        if kind == "write" and isinstance(a, Write) and a.reg == rec["reg"] \
                and a.value == rec["val"] and a.next_state == rec["state_after"]:
            return Step(pid, a, outcome)
        if kind == "return" and isinstance(a, Return) and a.decision == rec["val"]:
            return Step(pid, a, outcome)
    raise ReplayError(f"step {i}: no matching action in state {state!r}")


def _pids(record: dict, field: str, where: str, count: int, what: str = "pids") -> tuple:
    value = record.get(field)
    if not isinstance(value, list) \
            or any(type(pid) is not int or not 0 <= pid < count for pid in value):
        raise ReplayError(f"{where}: {field} is not a list of {what} below {count}")
    return tuple(value)


def _pair_roles(record: dict, where: str, count: int) -> dict:
    """pid -> "leader" | "clone" for a linear level of `count` processes,
    whose `pairs` must be their layout: pair i is leader 2i and clone 2i+1."""
    if count % 2 or record.get("pairs") != _pairs(count):
        raise ReplayError(f"{where}: pairs is not [[0, 1], [2, 3], ...] over {count} pids")
    return _roles(count)


def _witness(spec, meta: dict, steps, where: str, exec_: Execution, kind: str,
             roles, decision: int) -> Witness:
    """The Witness a witness section records at the end of exec_, not yet
    replayed: its level's checker does that.  Its `P` is one pid for a solo
    witness, or whole pairs in order for a reserving one; their moves make
    every step, and `depth` counts those moves."""
    if meta.get("kind") != kind:
        raise ReplayError(f"{where}: kind {meta.get('kind')!r} is not {kind!r}")
    count = len(exec_.initial.procs)
    pids = _pids(meta, "P", where, count)
    if kind == "solo":
        if len(pids) != 1:
            raise ReplayError(f"{where}: a solo witness is one pid's run")
        units = [pids]
    else:
        units = [members(i) for i in sorted({pair_of(pid) for pid in pids})]
        if [pid for unit in units for pid in unit] != list(pids):
            raise ReplayError(f"{where}: P is not whole pairs in order")
    taken = _steps_from_records(spec, steps, count, len(exec_.steps), roles)
    moves = group_moves(units, taken)
    if moves is None or _count(meta, "depth", where) != len(moves):
        raise ReplayError(f"{where}: its steps are not `depth` moves of P")
    return Witness(kind, tuple(units), decision, moves=tuple(moves), steps=tuple(taken))


def _replay_errors(replay):
    """`replay` with every EngineError it raises, a file that does not
    re-execute, raised as a ReplayError."""
    @functools.wraps(replay)
    def wrapped(*args, **kwargs):
        try:
            return replay(*args, **kwargs)
        except EngineError as e:
            raise ReplayError(str(e)) from None
    return wrapped


@_replay_errors
def replay_file(data) -> dict:
    """Re-execute a serialized certificate or report, given as the file's
    bytes or text; raises ReplayError on any divergence.  Returns a summary
    dict."""
    sections = _sections(data)
    header = _header(sections)
    spec = _algorithm(header)
    first, steps = next(sections, ({}, []))
    kind = first.get("record")
    if kind == "violation":
        return _replay_violation(spec, header, first, steps, sections)
    if kind == "level":
        return _replay_certificate(spec, header, itertools.chain([(first, steps)], sections))
    if kind == "inconclusive":
        if not isinstance(first.get("reason"), str):
            raise ReplayError("inconclusive: reason is not a string")
        return {"kind": "inconclusive", "reason": first["reason"]}
    raise ReplayError("unrecognized file contents")


@_replay_errors
def first_trace(spec, data, at: Optional[int] = None) -> Execution:
    """The first trace of a file, given as bytes or text, replayed for
    `spec`, which must be the file's own algorithm: a violation's main trace
    under the header's inputs, or a certificate's first level execution
    under that level's own inputs, even when it holds no steps; `at` keeps
    only its first steps."""
    sections = _sections(data)
    header = _header(sections)
    if _algorithm(header) != spec:
        raise ReplayError(f"the file's algorithm is not {spec.name!r}")
    meta, steps = next(sections, ({}, []))
    kind = meta.get("record")
    if kind == "level":
        inputs = _inputs(meta, "level 0")
    elif kind == "violation":
        inputs = _inputs(header, "header")
    else:
        raise ReplayError("the file holds no level or violation trace")
    initial = initial_configuration(spec, inputs)
    steps = steps if at is None else steps[:at]
    return Execution.from_steps(
        spec, initial, _steps_from_records(spec, steps, len(initial.procs)))


def _replay_violation(spec, header, vio, steps, sections):
    """A report: its violation section holds the trace, and one optional
    counter section the counter trace."""
    counter, counter_steps = next(sections, (None, []))
    if (counter is not None and counter.get("record") != "counter") \
            or next(sections, None) is not None:
        raise ReplayError("a report holds one trace and at most one counter trace")
    depth = None if vio.get("depth") is None else _count(vio, "depth", "violation")
    prefix_len = None if vio.get("prefix_len") is None \
        else _count(vio, "prefix_len", "violation")
    initial = initial_configuration(spec, _inputs(header, "header"))
    pids = len(initial.procs)
    # a report records every step as "solo"
    trace = Execution.from_steps(spec, initial, _steps_from_records(spec, steps, pids, roles={}))
    counter_trace = None
    if counter is not None:
        counter_trace = Execution.from_steps(
            spec, initial, _steps_from_records(spec, counter_steps, pids, roles={}))
    report = ViolationReport(
        kind=vio.get("kind"), trace=trace, evidence=vio.get("evidence") or {},
        counter_trace=counter_trace, prefix_len=prefix_len,
        stuck_pids=_pids(vio, "stuck_pids", "violation", pids), depth=depth,
    )
    confirmed, detail = replay_violation(report)
    if not confirmed:
        raise ReplayError(f"violation not confirmed: {detail}")
    return {"kind": "violation", "category": report.kind, "detail": detail}


def _replay_certificate(spec, header, sections):
    """A chain certificate, replayed one section at a time: each level's
    execution, then the witnesses and closing block write that extend it,
    in the chain shape and under the header set out above.  Each level, once
    its two witnesses are read, is handed to its attack's checker."""
    sqrt = header.get("attack") == "sqrt"
    if not sqrt and header.get("attack") != "linear":
        raise ReplayError(f"header: attack {header.get('attack')!r} is not 'sqrt' or 'linear'")
    if header.get("spec") != spec.name:
        raise ReplayError(f"header: spec {header.get('spec')!r} is not {spec.name!r}")
    top = _count(header, "target_r" if sqrt else "m", "header")
    level = closing = None
    for meta, steps in sections:
        kind = meta.get("record")
        if closing is not None:
            raise ReplayError("a record follows the closing block write")
        if kind == "level":
            rank = 0 if level is None else _check_level(level, sqrt, top).r + 1
            where = f"level {rank}"
            inputs = _inputs(meta, where)
            initial = initial_configuration(spec, inputs)
            count = len(initial.procs)
            roles = {} if sqrt else _pair_roles(meta, where, count)
            exec_ = Execution.from_steps(spec, initial,
                                         _steps_from_records(spec, steps, count, roles=roles))
            if _count(meta, "r", where) != rank:
                raise ReplayError(f"{where}: rank {meta['r']}, not {rank}")
            level = (where, meta, exec_, [])
            continue
        if kind not in ("witness", "closing-block-write") \
                or (kind == "closing-block-write" and sqrt):
            raise ReplayError(f"unexpected {kind!r} record in a {header['attack']} certificate")
        # at m = 0, R_c is empty and so is the closing block write
        if not steps and kind == "witness":
            raise ReplayError("witness section holds no steps")
        witnesses = level[3]
        if kind == "witness":
            decision = meta.get("decision")
            if len(witnesses) > 1 or type(decision) is not int or decision != len(witnesses):
                raise ReplayError(f"{where}: witness {len(witnesses) + 1} does not claim "
                                  "decision 0, then 1")
            witnesses.append(_witness(spec, meta, steps, f"{where} witness", exec_,
                                      "solo" if sqrt else "reserving", roles, decision))
        else:
            closing = _count(meta, "registers_written", "closing block write")
            closing_steps = _steps_from_records(spec, steps, count, len(exec_.steps), roles)
    rebuilt = _check_level(level, sqrt, top)
    if rebuilt.r != top or (closing is None) != sqrt:
        raise ReplayError(f"certificate is not levels 0..{top} of 2 witnesses each"
                          + ("" if sqrt else " and a closing block write"))
    if not sqrt:
        final, written = corollary_finish(rebuilt)
        if closing_steps != list(final.steps[len(exec_.steps):]):
            raise ReplayError("closing block write is not one write per R_c register, "
                              "ascending, by its cover pair's leader")
        if closing != written or closing != top:
            raise ReplayError(f"closing block write: registers_written {closing} is not "
                              f"the {written} registers written, or not m = {top}")
    if header.get("inputs") != inputs or header.get("pairs") != ([] if sqrt else _pairs(count)):
        raise ReplayError("header: inputs or pairs differ from the top level's")
    if not sqrt and header.get("registers_written") != closing:
        raise ReplayError("header: registers_written differs from the closing block write's")
    return {"kind": "certificate", "attack": header.get("attack"),
            "levels": top + 1, "witnesses": 2 * (top + 1)}


def _check_level(level, sqrt: bool, m: int):
    """Rebuild a level (where, record, replayed execution, witnesses) of a
    chain up to `m` as set out above, and run its attack's checker on it;
    returns the rebuilt SqrtLevel or LinearLevel."""
    where, meta, exec_, witnesses = level
    if len(witnesses) != 2:
        raise ReplayError(f"{where}: {len(witnesses)} witness sections, not 2")
    r, count = meta["r"], len(exec_.initial.procs)
    registers = exec_.spec.register_count
    if sqrt:
        if _count(meta, "budget", where) != count:
            raise ReplayError(f"{where}: budget is not its {count} processes")
        rebuilt = SqrtLevel(r, exec_, tuple(_registers(meta, "R", where, registers)), *witnesses)
        check_level(rebuilt)
        return rebuilt
    split_regs = tuple(_registers(meta, "R_s", where, registers))
    covered_regs = tuple(_registers(meta, "R_c", where, registers))
    cover_ids = _pids(meta, "V", where, count // 2, "pair ids")
    cover = recorded_cover(exec_, split_regs, covered_regs, cover_ids)
    rebuilt = LinearLevel(
        r=r, m=m, exec=exec_, split_regs=split_regs, covered_regs=covered_regs, cover=cover,
        p_ids=_pids(meta, "P", where, count // 2, "pair ids"),
        q_ids=_pids(meta, "Q", where, count // 2, "pair ids"),
        alpha=witnesses[0], beta=witnesses[1], case_tag=meta.get("case"),
    )
    assert_properties(rebuilt)
    for field, value in (("U", list(rebuilt.pair_ids)), ("V", sorted(set(cover.values()))),
                         ("L", sorted(rebuilt.stale_ids()))):
        if meta.get(field) != value:
            raise ReplayError(f"{where}: {field} {meta.get(field)!r} is not the level's {value}")
    return rebuilt
