"""Register-forcing chains from solo bivalency and one-shot clone coverage.

Each level holds an execution that wrote r distinct registers and ends in a
configuration where two distinct processes can still return different values
solo.  A step spawns one clone per written register (shadowing the last
writer up to its write), restores the registers with a block write after the
0-returning solo runs, and scans the interleavings for the next bivalent
configuration; the process count is exactly (r-1)r/2 + 2 at level r, and
every contradiction branch of the argument materializes as a replayable
violation instead of an abort.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

from .model import ContradictionError, EngineError, Read, Write, initial_configuration
from .execution import (
    Execution,
    Step,
    add_process,
    mirror_history,
    prefix_configurations,
    restricted_replay,
)
from .reports import Inconclusive, SqrtChainCertificate, ViolationReport
from .valency import Witness, solo_search, solo_terminating, valency


@dataclass
class SqrtLevel:
    r: int
    exec: Execution
    regs: tuple  # R, sorted; every member written during exec
    w0: Witness  # solo run returning 0
    w1: Witness  # solo run returning 1, by a different pid

    @property
    def budget_used(self) -> int:
        return len(self.exec.initial.procs)

    @property
    def pid0(self) -> int:
        return self.w0.members[0][0]

    @property
    def pid1(self) -> int:
        return self.w1.members[0][0]


def expected_budget(r: int) -> int:
    return (r - 1) * r // 2 + 2


def check_level(level: SqrtLevel) -> None:
    """Raise EngineError unless the level holds: R is r distinct written
    registers, two distinct processes return 0 and 1 solo from its end, and
    it spends exactly the budget (r-1)r/2 + 2 processes."""
    if len(set(level.regs)) != level.r or len(level.regs) != level.r:
        raise EngineError(f"level {level.r}: R {list(level.regs)} is not "
                          f"{level.r} distinct registers")
    written = level.exec.written_registers()
    for reg in level.regs:
        if reg not in written:
            raise EngineError(f"register r{reg} in R was never written")
    if level.pid0 == level.pid1:
        raise EngineError("bivalency witnesses share a pid")
    for w, want in ((level.w0, 0), (level.w1, 1)):
        end = level.exec.extend_steps(w.steps)
        decider = end.final.proc(w.members[0][0])
        if decider.decided != want:
            raise EngineError(f"witness does not replay to a {want} return")
    if level.budget_used != expected_budget(level.r):
        raise EngineError(
            f"budget {level.budget_used} != (r-1)r/2+2 = {expected_budget(level.r)}"
        )


def sqrt_base(spec, depth: int) -> Union[SqrtLevel, ViolationReport]:
    exec_ = Execution.start(spec, initial_configuration(spec, [0, 1]))
    witnesses = {}
    for pid, want in ((0, 0), (1, 1)):
        res = solo_search(spec, exec_.final, pid, depth)
        side, other = res.side(want), res.side(1 - want)
        if side.proven:
            witnesses[want] = side.witness
            continue
        if side.status == "unknown":
            raise Inconclusive(f"solo search for pid {pid} hit depth {depth}")
        # no run returns the own input: either nothing terminates (stuck) or
        # every terminating run returns the other value, which is a validity
        # breach in the system of pid alone, whose input is `want`
        if other.proven:
            trace = restricted_replay(exec_, [pid], other.witness.steps)
            return ViolationReport(
                kind="validity",
                trace=trace,
                evidence={"inputs": [want], "decision": other.witness.decision},
            )
        return ViolationReport(
            kind="solo-termination",
            trace=exec_,
            stuck_pids=(pid,),
            depth=depth,
            evidence={"note": "no terminating solo run from the initial configuration"},
        )
    level = SqrtLevel(r=0, exec=exec_, regs=(), w0=witnesses[0], w1=witnesses[1])
    check_level(level)
    return level


def _distinct_bivalency(spec, config, depth):
    """Solo witnesses for 0 and 1 by two distinct processes, or the reason
    there are none: ('univalent', report) / ('unknown', report)."""
    pids = [pid for pid in range(len(config.procs)) if config.procs[pid].active]
    report = valency(spec, config, pids, m=None, depth=depth, mode="solo")
    cls = report.classify()
    if cls != "bivalent":
        return None, (cls, report)
    w0, w1 = report.zero.witness, report.one.witness
    if w0.members[0] != w1.members[0]:
        return (w0, w1), None
    # both witnesses by one process: any other terminating solo run serves the
    # side matching its decision
    owner = w0.members[0][0]
    for pid in pids:
        if pid == owner:
            continue
        w = solo_terminating(spec, config, pid, depth)
        if w is None:
            continue
        return ((w, w1) if w.decision == 0 else (w0, w)), None
    raise Inconclusive(
        "bivalent configuration but no second process has a terminating solo run"
    )


def _last_writer(exec_: Execution, reg: int):
    """(pid, own-step ordinal, action) of the last write to reg."""
    for i in range(len(exec_.steps) - 1, -1, -1):
        s = exec_.steps[i]
        if isinstance(s.action, Write) and s.action.reg == reg:
            ordinal = sum(1 for t in exec_.steps[:i] if t.pid == s.pid)
            return s.pid, ordinal, s.action
    raise EngineError(f"no write to r{reg} in the execution")


def sqrt_step(level: SqrtLevel, depth: int) -> Union[SqrtLevel, ViolationReport]:
    regs = set(level.regs)
    alpha, beta = level.w0, level.w1
    p, q = level.pid0, level.pid1

    # clone the last writer of every register in R up to covering it, poised
    # to rewrite the value the register holds now
    exec_ = level.exec
    shadows, gamma = [], []
    for reg in sorted(regs):
        writer, ordinal, action = _last_writer(level.exec, reg)
        exec_, clone = add_process(exec_, exec_.initial.proc(writer).input)
        shadows.append((writer, ordinal, clone))
        gamma.append(Step(clone, action))
    exec_ = mirror_history(exec_, shadows)

    # a returning run confined to R lets the block write erase it: the other
    # witness still runs, and the combined trace decides both values; a solo
    # witness moves one process, so its move indices are its step indices
    ia = alpha.first_write_outside(regs)
    if ia is None:
        trace = exec_.extend_steps(alpha.steps).extend_steps(gamma).extend_steps(beta.steps)
        return ViolationReport(
            kind="agreement", trace=trace,
            evidence={"pids": [p, q], "decisions": [0, 1], "level": level.r},
        )
    ib = beta.first_write_outside(regs)
    if ib is None:
        trace = exec_.extend_steps(beta.steps).extend_steps(gamma).extend_steps(alpha.steps)
        return ViolationReport(
            kind="agreement", trace=trace,
            evidence={"pids": [q, p], "decisions": [1, 0], "level": level.r},
        )

    alpha_pre, wp, alpha_post = alpha.steps[:ia], alpha.steps[ia], alpha.steps[ia + 1:]
    beta_pre, wq = beta.steps[:ib], beta.steps[ib]

    # candidates: E_r a' B_i w_p for prefixes B_i of (gamma b' w_q), then
    # E_r a' B_len without w_p; first bivalent one becomes the next level.
    # b_seq is stepped once, all of it before the first query, keeping only
    # each prefix's configuration; a candidate's Execution, base extended by
    # B_i w_p, is built only for the next level or the switching point
    b_seq = gamma + list(beta_pre) + [Step(wq.pid, wq.action)]
    base = exec_.extend_steps(alpha_pre)
    first = len(base.steps)
    configs = prefix_configurations(exec_.spec, base.final, b_seq, first)

    def candidate(i):
        return base.extend_steps(b_seq[:i] + [wp])

    classes = []
    for i, config in enumerate(configs):
        cand = prefix_configurations(exec_.spec, config, [wp], first + i)[-1]
        new, info = _next_level(level, cand, functools.partial(candidate, i), wp.action.reg,
                                depth)
        if new is not None:
            return new
        cls, report = info
        if cls in ("unknown", "degenerate"):
            raise Inconclusive(f"candidate {i}: valency {cls} at depth {depth}")
        classes.append((i, report))

    new, info = _next_level(level, configs[-1], functools.partial(base.extend_steps, b_seq),
                            wq.action.reg, depth)
    if new is not None:
        return new
    cls_final, _ = info
    if cls_final in ("unknown", "degenerate"):
        raise Inconclusive(f"full-restore candidate: valency {cls_final}")

    return _switching_point(level, candidate, classes, cls_final, b_seq, wp, depth)


def _next_level(level: SqrtLevel, config, build, reg: int, depth: int) -> tuple:
    """(level r + 1 at the execution `build()`, which ends in `config` and
    adds `reg` to R, or None; the valency information) by whether `config`
    is bivalent with distinct witnesses."""
    found, info = _distinct_bivalency(level.exec.spec, config, depth)
    if found is None:
        return None, info
    new = SqrtLevel(r=level.r + 1, exec=build(), regs=tuple(sorted(set(level.regs) | {reg})),
                    w0=found[0], w1=found[1])
    check_level(new)
    return new, info


def _switching_point(level, candidate, classes, cls_final, b_seq, wp, depth):
    """All candidates univalent: locate the adjacent flip and realize the
    commuting contradiction as a pair of conflicting continuations.
    `classes` holds (i, report) for candidate i, whose execution is
    `candidate(i)`."""
    spec = level.exec.spec
    p = level.pid0
    labels = [report.classify() for _, report in classes]

    if labels[0] != "0-univalent":
        raise ContradictionError(
            f"first candidate classified {labels[0]} although the recorded "
            "0-returning run continues from it"
        )
    if labels[-1] != "1-univalent":
        # the restored configuration is 1-univalent, so p's terminating solo
        # runs from the last candidate must return 1; none existing at all is
        # a solo-termination breach
        if cls_final != "1-univalent":
            raise ContradictionError(
                f"restored candidate classified {cls_final}, expected 1-univalent"
            )
        last_exec = candidate(classes[-1][0])
        res = solo_search(spec, last_exec.final, p, depth)
        if res.classify() == "unknown":
            raise Inconclusive("terminating solo run search for the flip hit depth")
        if not (res.zero.proven or res.one.proven):
            return ViolationReport(
                kind="solo-termination", trace=last_exec, stuck_pids=(p,), depth=depth,
                evidence={"note": "no terminating run after the poised write"},
            )
        raise ContradictionError(
            "last candidate 0-univalent although the restored configuration is 1-univalent"
        )

    flip = next(i for i in range(len(labels) - 1)
                if labels[i] == "0-univalent" and labels[i + 1] == "1-univalent")
    o = b_seq[flip]
    if isinstance(o.action, Read) or (isinstance(o.action, Write) and o.action.reg == wp.action.reg):
        raise ContradictionError(
            "flip step is invisible to the poised writer; differing univalencies "
            "contradict indistinguishability"
        )
    x_exec, x_report = candidate(flip), classes[flip][1]
    y_exec = candidate(flip + 1)
    swapped = x_exec.extend(o.pid, o.action)
    if swapped.final != y_exec.final:
        raise EngineError("write steps to distinct registers failed to commute")
    sigma = solo_terminating(spec, y_exec.final, o.pid, depth)
    if sigma is None:
        return ViolationReport(
            kind="solo-termination", trace=y_exec, stuck_pids=(o.pid,), depth=depth,
            evidence={"note": "flip-step owner has no terminating run"},
        )
    if sigma.decision != 1:
        raise ContradictionError("terminating run from the 1-univalent side returned 0")
    one_side = swapped.extend_steps(sigma.steps)
    zero_side = x_exec.extend_steps(x_report.zero.witness.steps)
    return ViolationReport(
        kind="agreement",
        trace=one_side,
        counter_trace=zero_side,
        prefix_len=len(x_exec.steps),
        evidence={
            "note": "continuations of one configuration return both values, "
                    "refuting its 0-univalency",
            "decisions": [1, 0],
        },
    )


def sqrt_run(spec, r_target: int, depth: int):
    """Iterate the induction to r_target registers; returns the certificate,
    a violation, or an inconclusive marker."""
    if r_target < 0:
        raise ValueError("r_target must be nonnegative")
    try:
        outcome = sqrt_base(spec, depth)
        if not isinstance(outcome, SqrtLevel):
            return outcome
        levels = [outcome]
        while levels[-1].r < r_target:
            outcome = sqrt_step(levels[-1], depth)
            if not isinstance(outcome, SqrtLevel):
                return outcome
            levels.append(outcome)
        return SqrtChainCertificate(levels=levels, depth=depth)
    except Inconclusive as e:
        return e
