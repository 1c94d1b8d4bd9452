"""Register-forcing chains over process-clone pairs with reusable coverage.

Levels keep every written register either freshly split (the leader wrote it,
its clone still covers it with the identical pending write) or covered by a
united pair, so coverage survives from level to level instead of burning a
new clone per register.  Valency is judged by reserving executions of
exactly m+1 non-split pairs drawn from the untouched pool T, the case
analysis follows the split of the scanned witness at its first write outside
the covered set, and stale split pairs left behind by overwrites are
repaired by slipping the old clone's write in front of an existing write to
the same register, invisibly to everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .model import (
    ContradictionError,
    EngineError,
    Write,
    initial_configuration,
)
from .execution import Execution, Step, insert_step
from .pairs import PairLedger, duplicate_pair, new_pair, split_pair, unite_pair
from .reports import Inconclusive, LinearChainCertificate, ViolationReport
from .valency import (
    InconclusiveError,
    Witness,
    compose_prefix,
    construct_reserving,
    covered_injectively,
    disjoint_witnesses,
    is_reserving,
    materialize,
    reserving_search,
    valency,
    _witness as make_witness,
)


@dataclass
class LinearLevel:
    r: int
    m: int
    exec: Execution
    ledger: PairLedger
    pair_ids: tuple  # U
    split_regs: tuple  # registers with a fresh split pair (R_s)
    covered_regs: tuple  # registers covered by united pairs (R_c)
    cover: dict  # reg -> pair id, for every register in the two sets
    cover_actions: dict  # reg -> poised Write, for covered_regs
    p_ids: tuple
    q_ids: tuple
    alpha: Witness  # reserving over P's units, returns 0
    beta: Witness  # reserving over Q's units, returns 1
    case_tag: str = "base"

    def unit(self, pair_id: int) -> tuple:
        return self.ledger.pair(pair_id).members

    def units(self, ids) -> list:
        return [self.unit(i) for i in ids]

    @property
    def regs(self) -> tuple:
        return tuple(sorted(self.split_regs + self.covered_regs))

    def stale_ids(self) -> tuple:
        return tuple(
            p.pair_id for p in self.ledger.pairs
            if not p.united and self.ledger.split_status(self.exec, p.pair_id) == "stale"
        )

    def pool_ids(self) -> tuple:
        used = set(self.cover.values()) | set(self.stale_ids()) | set(self.p_ids) | set(self.q_ids)
        return tuple(i for i in self.pair_ids if i not in used)


def expected_pairs(m: int, r: int) -> int:
    return 5 * m + 6 + 2 * r


def verify_properties(level: LinearLevel) -> list:
    """Machine-check the level invariants by replay and ledger inspection;
    returns [(name, ok, detail), ...]."""
    checks = []
    exec_, ledger, m, r = level.exec, level.ledger, level.m, level.r

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    try:
        exec_.validate()
        check("replay", True)
    except EngineError as e:
        check("replay", False, str(e))

    want = expected_pairs(m, r)
    check("pair-budget", len(level.pair_ids) == want,
          f"|U|={len(level.pair_ids)}, expected {want}")
    check("pid-pool", len(exec_.initial.procs) == 2 * len(level.pair_ids),
          f"{len(exec_.initial.procs)} pids for {len(level.pair_ids)} pairs")

    rs, rc = set(level.split_regs), set(level.covered_regs)
    check("register-partition",
          not (rs & rc) and len(rs) + len(rc) == r and set(level.cover) == rs | rc,
          f"R_s={sorted(rs)} R_c={sorted(rc)}")

    # property 1: fresh splits are exactly the R_s covers; R_c covered united
    fresh = {p.pair_id for p in ledger.pairs
             if not p.united and ledger.split_status(exec_, p.pair_id) == "fresh"}
    rs_pairs = {level.cover[reg] for reg in rs}
    ok1, detail1 = fresh == rs_pairs and len(rs_pairs) == len(rs), ""
    if not ok1:
        detail1 = f"fresh splits {sorted(fresh)} vs R_s covers {sorted(rs_pairs)}"
    for reg in sorted(rs):
        pair = ledger.pair(level.cover[reg])
        if pair.united or pair.split.reg != reg:
            ok1, detail1 = False, f"pair {pair.pair_id} not split on r{reg}"
    for reg in sorted(rc):
        pid_ = level.cover[reg]
        pair = ledger.pair(pid_)
        action = level.cover_actions.get(reg)
        if not pair.united:
            ok1, detail1 = False, f"covering pair {pid_} is split"
        elif action is None or action.reg != reg:
            ok1, detail1 = False, f"no poised write recorded for r{reg}"
        elif action not in exec_.spec.actions(exec_.final.proc(pair.leader).state):
            ok1, detail1 = False, f"pair {pid_} no longer poised on r{reg}"
    cover_ids = list(level.cover.values())
    if len(set(cover_ids)) != len(cover_ids):
        ok1, detail1 = False, "cover assignment not injective"
    check("property-1", ok1, detail1)

    # property 2: stale pairs on pairwise distinct registers of the covered set
    stale = level.stale_ids()
    stale_regs = [ledger.pair(i).split.reg for i in stale]
    check("property-2",
          len(set(stale_regs)) == len(stale_regs)
          and set(stale_regs) <= rs | rc and len(stale) <= r,
          f"stale pairs {list(stale)} on registers {stale_regs}")

    # property 3: disjoint non-split P, Q with replaying reserving witnesses
    p_set, q_set = set(level.p_ids), set(level.q_ids)
    v_set, l_set = set(cover_ids), set(stale)
    ok3 = (
        not (p_set & q_set)
        and not ((p_set | q_set) & (v_set | l_set))
        and len(p_set) + len(q_set) <= 2 * m + 4
        and all(ledger.pair(i).united for i in p_set | q_set)
    )
    detail3 = "" if ok3 else "set structure broken"
    for ids, witness, want_d in ((level.p_ids, level.alpha, 0), (level.q_ids, level.beta, 1)):
        units = level.units(ids)
        if witness.decision != want_d:
            ok3, detail3 = False, f"witness decides {witness.decision}, wanted {want_d}"
            continue
        if sorted(witness.members) != sorted(units):
            ok3, detail3 = False, "witness member set differs from the stored pair set"
            continue
        try:
            end = exec_.extend_steps(witness.steps)
        except EngineError as e:
            ok3, detail3 = False, f"witness replay failed: {e}"
            continue
        if end.final.proc(witness.decider[0]).decided != want_d:
            ok3, detail3 = False, "witness decider did not return the claimed value"
            continue
        if not is_reserving(exec_.spec, exec_.final, units, witness.steps, m):
            ok3, detail3 = False, "witness fails the reserving conditions"
    check("property-3", ok3, detail3)
    return checks


def assert_properties(level: LinearLevel) -> LinearLevel:
    report = verify_properties(level)
    bad = [c for c in report if not c[1]]
    if bad:
        raise EngineError(f"level {level.r} property check failed: {bad}")
    return level


def _restrict_to_units(spec, initial, units, witness: Witness) -> Execution:
    """Replay a witness inside the system holding only the witness units."""
    pids = sorted(pid for u in units for pid in u)
    remap = {pid: i for i, pid in enumerate(pids)}
    inputs = [initial.proc(pid).input for pid in pids]
    restricted = Execution.start(spec, initial_configuration(spec, inputs))
    steps = [Step(remap[s.pid], s.action, s.outcome) for s in witness.steps]
    return restricted.extend_steps(steps)


def linear_base(spec, m: int, depth: int) -> Union[LinearLevel, ViolationReport, Inconclusive]:
    n_pairs = expected_pairs(m, 0)
    n_zero = (n_pairs + 1) // 2
    inputs = []
    for i in range(n_pairs):
        b = 0 if i < n_zero else 1
        inputs.extend([b, b])
    exec_ = Execution.start(spec, initial_configuration(spec, inputs))
    ledger = PairLedger()
    for i in range(n_pairs):
        ledger = ledger.append(2 * i, 2 * i + 1)
    p_ids = tuple(range(m + 1))
    q_ids = tuple(range(n_zero, n_zero + m + 1))

    witnesses = {}
    for ids, want in ((p_ids, 0), (q_ids, 1)):
        units = [ledger.pair(i).members for i in ids]
        try:
            built = construct_reserving(spec, exec_.final, units, m, depth)
        except InconclusiveError as e:
            if e.breach is not None:
                moves, unit = e.breach
                partial = exec_.extend_steps(materialize(spec, exec_.final, moves))
                return ViolationReport(
                    kind="solo-termination", trace=partial, stuck_pids=tuple(unit),
                    depth=depth, evidence={"note": str(e)},
                )
            return Inconclusive(str(e), depth)
        w = built.witness
        if w.decision != want:
            # every process in these units holds input `want`; replayed in the
            # system of only them, the other decision breaks validity
            restricted = _restrict_to_units(spec, exec_.initial, units, w)
            return ViolationReport(
                kind="validity", trace=restricted,
                evidence={"inputs": [want], "decision": w.decision},
            )
        witnesses[want] = w

    level = LinearLevel(
        r=0, m=m, exec=exec_, ledger=ledger,
        pair_ids=tuple(range(n_pairs)),
        split_regs=(), covered_regs=(), cover={}, cover_actions={},
        p_ids=p_ids, q_ids=q_ids,
        alpha=witnesses[0], beta=witnesses[1], case_tag="base",
    )
    return assert_properties(level)


# -- the induction step -------------------------------------------------------

@dataclass
class _Orientation:
    """Resolves the symmetric choice: we scan the witness whose decision the
    covering-block-write configuration D cannot reach through the pool."""
    sd: int  # the scanned witness returns this
    scanned: Witness
    scanned_ids: tuple
    other_ids: tuple
    pool_witness: Witness  # reserving witness at D returning 1 - sd


def gamma_c(level: LinearLevel):
    """The covering block write: each covered register is written by the
    covering pair's leader alone, splitting the pair fresh; reaches D."""
    exec_, ledger = level.exec, level.ledger
    for reg in sorted(level.covered_regs):
        exec_, ledger = split_pair(exec_, ledger, level.cover[reg],
                                   level.cover_actions[reg])
    return exec_, ledger


def gamma_s(level: LinearLevel, exec_, ledger, ext_steps):
    """The trailing-clone block write: every split register overwritten by
    the extension is rewritten by its waiting clone, uniting the pair and
    restoring the value the register held at the level configuration."""
    for reg_s in _gamma_s_regs(level, ext_steps):
        exec_, ledger = unite_pair(exec_, ledger, level.cover[reg_s])
    return exec_, ledger


def _resolve_orientation(level: LinearLevel, t_ids, depth):
    spec = level.exec.spec
    exec_d, _ = gamma_c(level)
    rep_d = valency(spec, exec_d.final, level.units(t_ids), level.m, depth, "reserving")
    if rep_d.one.proven:
        return _Orientation(0, level.alpha, level.p_ids, level.q_ids, rep_d.one.witness)
    if rep_d.zero.proven and rep_d.one.refuted:
        return _Orientation(1, level.beta, level.q_ids, level.p_ids, rep_d.zero.witness)
    return None


def _orient_and_split(level: LinearLevel, t_ids, depth):
    """(orientation, index of the scanned witness's first write outside the
    covered set), or what ends the level instead: the ViolationReport realized
    when no such write exists, or an Inconclusive marker when the orientation
    cannot be decided."""
    orient = _resolve_orientation(level, t_ids, depth)
    if orient is None:
        return Inconclusive(
            f"valency after the covering block write unknown at depth {depth}", depth)
    regs = set(level.regs)
    for i, (_, action) in enumerate(orient.scanned.moves):
        if isinstance(action, Write) and action.reg not in regs:
            return orient, i
    return _confined_witness_violation(level, orient)


def check_alpha_outside(level: LinearLevel, depth: int):
    """Locate the scanned witness's first write outside the covered set.

    Returns (prefix moves, writing unit, write action, tail moves), or the
    ViolationReport or Inconclusive marker of `_orient_and_split`.
    """
    found = _orient_and_split(level, level.pool_ids(), depth)
    if not isinstance(found, tuple):
        return found
    orient, split_at = found
    w = orient.scanned
    wp_unit, wp_action = w.moves[split_at]
    return w.moves[:split_at], wp_unit, wp_action, w.moves[split_at + 1:]


def linear_step(level: LinearLevel, depth: int) -> Union[LinearLevel, ViolationReport, Inconclusive]:
    t_ids = level.pool_ids()
    if len(t_ids) < 3 * level.m + 2:
        raise EngineError(f"|T|={len(t_ids)} < 3m+2; budget bookkeeping broken")
    found = _orient_and_split(level, t_ids, depth)
    if not isinstance(found, tuple):
        return found
    orient, split_at = found
    try:
        return _step_oriented(level, orient, split_at, t_ids, depth)
    except InconclusiveError as e:
        if e.breach is not None:
            _, unit = e.breach
            return ViolationReport(
                kind="solo-termination", trace=level.exec, stuck_pids=tuple(unit),
                depth=depth, evidence={"note": str(e)},
            )
        return Inconclusive(str(e), depth)


def _steps_for_moves(witness: Witness, upto_move: int) -> tuple:
    count = sum(len(unit) for unit, _ in witness.moves[:upto_move])
    return witness.steps[:count]


def _written(steps) -> set:
    return {s.action.reg for s in steps if isinstance(s.action, Write)}


def _step_oriented(level, orient, split_at, t_ids, depth):
    spec = level.exec.spec
    m = level.m
    sd, od = orient.sd, 1 - orient.sd
    w = orient.scanned

    wp_unit, wp_action = w.moves[split_at]
    post_moves = w.moves[split_at + 1:]
    pre_steps = _steps_for_moves(w, split_at)

    exec_pre = level.exec.extend_steps(pre_steps)
    t_units = level.units(t_ids)
    rep_pre = valency(spec, exec_pre.final, t_units, m, depth, "reserving")

    if rep_pre.side(od).proven:
        return _case_one(level, orient, t_ids, exec_pre, pre_steps,
                         wp_unit, wp_action, post_moves, rep_pre, depth)
    if rep_pre.side(sd).proven and rep_pre.side(od).refuted:
        return _case_two(level, orient, t_ids, exec_pre, pre_steps,
                         wp_unit, wp_action, rep_pre, depth)
    return Inconclusive(
        f"valency after the confined witness prefix unknown at depth {depth}", depth)


def _gamma_s_regs(level: LinearLevel, steps) -> list:
    return sorted(_written(steps) & set(level.split_regs))


def _confined_witness_violation(level, orient):
    """The scanned witness never writes outside the covered registers: run
    it, wash its writes out with the trailing clones, block-write the covered
    registers, and the untouched pool still returns the other value in the
    same trace."""
    exec_, ledger = level.exec.extend_steps(orient.scanned.steps), level.ledger
    exec_, ledger = gamma_s(level, exec_, ledger, orient.scanned.steps)
    for reg_c in sorted(level.covered_regs):
        exec_, ledger = split_pair(exec_, ledger, level.cover[reg_c],
                                   level.cover_actions[reg_c])
    exec_ = exec_.extend_steps(orient.pool_witness.steps)
    return ViolationReport(
        kind="agreement", trace=exec_,
        evidence={
            "decisions": sorted((orient.sd, 1 - orient.sd)),
            "level": level.r,
            "note": "returning witness confined to the covered registers",
        },
    )


@dataclass
class _Assembly:
    """Everything the level constructors share once a prefix is chosen."""
    case_tag: str
    exec_now: Execution  # ends at the candidate configuration
    ledger_now: PairLedger
    reg: int  # the register joining the covered sets
    wp_unit: tuple
    wp_action: Write
    new_split_cover: dict  # reg -> pair id (fresh splits at the candidate)
    kept_cover: dict  # reg -> pair id (united coverers carried over)
    kept_actions: dict  # reg -> Write for kept_cover
    match_regs: list  # registers needing coverers from the scanned side
    force_reg: bool  # reg unwritten: its coverer must be wp_unit
    repair_regs: list  # overwritten split registers, repair candidates


def _case_one(level, orient, t_ids, exec_pre, pre_steps, wp_unit, wp_action,
              post_moves, rep_pre, depth):
    """Scan lockstep-pair prefixes of the witness tail."""
    spec = level.exec.spec
    m = level.m
    sd, od = orient.sd, 1 - orient.sd
    t_units = level.units(t_ids)
    scan_moves = [(wp_unit, wp_action)] + list(post_moves)

    reports = [rep_pre]
    execs = [exec_pre]
    cur = exec_pre
    for unit, action in scan_moves:
        cur = cur.extend(unit[0], action).extend(unit[1], action)
        execs.append(cur)
        reports.append(valency(spec, cur.final, t_units, m, depth, "reserving"))

    def build_assembly(j, tag):
        ext = execs[j].steps[len(level.exec.steps):]
        touched = _written(ext) & set(level.split_regs)
        new_split_cover = {reg: level.cover[reg]
                           for reg in level.split_regs if reg not in touched}
        kept_cover = {reg: level.cover[reg] for reg in level.covered_regs}
        kept_actions = dict(level.cover_actions)
        return _Assembly(
            case_tag=tag, exec_now=execs[j], ledger_now=level.ledger,
            reg=wp_action.reg, wp_unit=wp_unit, wp_action=wp_action,
            new_split_cover=new_split_cover, kept_cover=kept_cover,
            kept_actions=kept_actions,
            match_regs=sorted(touched | ({wp_action.reg} if j > 0 else set())),
            force_reg=(j == 0),
            repair_regs=sorted(touched),
        )

    for j, rep in enumerate(reports):
        returned = _returned_decisions(execs[j].final, orient.scanned_ids, level)
        for d in sorted(returned):
            if rep.side(1 - d).proven:
                trace = execs[j].extend_steps(rep.side(1 - d).witness.steps)
                return ViolationReport(
                    kind="agreement", trace=trace,
                    evidence={"decisions": sorted({d, 1 - d}), "level": level.r,
                              "note": "pool witness contradicts a returned value"},
                )
        cls = rep.classify()
        if cls == "bivalent":
            return _finish_bivalent(level, orient, t_ids, build_assembly(j, "1.1"),
                                    rep, depth)
        if cls == "unknown":
            return Inconclusive(f"pair-step prefix {j}: valency unknown", depth)
        if cls == "degenerate":
            return Inconclusive(
                f"pair-step prefix {j}: no reserving execution within depth", depth)

    flip = _find_flip(reports, f"{od}-univalent", f"{sd}-univalent")
    o_unit, o_action = scan_moves[flip]
    if not isinstance(o_action, Write):
        raise ContradictionError(
            "pool valency flipped across a step the pool cannot observe")
    assembly = build_assembly(flip, "1.2")
    o_pair = level.ledger.pair_of(o_unit[0]).pair_id

    def run_o(exec3, ledger3):
        return exec3.extend(o_unit[0], o_action).extend(o_unit[1], o_action), ledger3

    return _finish_switch(level, orient, t_ids, assembly, o_pair, o_action, run_o,
                          flip_side=od, depth=depth)


def _case_two(level, orient, t_ids, exec_pre, pre_steps, wp_unit, wp_action,
              rep_pre, depth):
    """Scan single-step prefixes of the cleanup block writes: trailing clones
    restore the overwritten split registers (uniting their pairs), then the
    covering leaders write one at a time (splitting theirs)."""
    spec = level.exec.spec
    m = level.m
    sd, od = orient.sd, 1 - orient.sd
    t_units = level.units(t_ids)

    w_pre = _written(pre_steps)
    plan = [("unite", level.cover[reg_s], reg_s)
            for reg_s in sorted(w_pre & set(level.split_regs))]
    plan += [("split", level.cover[reg_c], reg_c)
             for reg_c in sorted(level.covered_regs)]

    reports = [rep_pre]
    execs = [exec_pre]
    ledgers = [level.ledger]
    splits_done = [dict()]
    cur, led = exec_pre, level.ledger
    for kind, pair_id, reg_b in plan:
        if kind == "unite":
            cur, led = unite_pair(cur, led, pair_id)
            splits_done.append(splits_done[-1])
        else:
            cur, led = split_pair(cur, led, pair_id, level.cover_actions[reg_b])
            done = dict(splits_done[-1])
            done[reg_b] = pair_id
            splits_done.append(done)
        execs.append(cur)
        ledgers.append(led)
        reports.append(valency(spec, cur.final, t_units, m, depth, "reserving"))

    def build_assembly(j, tag):
        gamma_now = splits_done[j]
        new_split_cover = {reg: level.cover[reg]
                           for reg in level.split_regs if reg not in w_pre}
        new_split_cover.update(gamma_now)
        kept_cover = {reg: level.cover[reg]
                      for reg in level.covered_regs if reg not in gamma_now}
        kept_actions = {reg: level.cover_actions[reg] for reg in kept_cover}
        return _Assembly(
            case_tag=tag, exec_now=execs[j], ledger_now=ledgers[j],
            reg=wp_action.reg, wp_unit=wp_unit, wp_action=wp_action,
            new_split_cover=new_split_cover, kept_cover=kept_cover,
            kept_actions=kept_actions,
            match_regs=sorted(w_pre & set(level.split_regs)),
            force_reg=True,
            repair_regs=sorted(w_pre & set(level.split_regs)),
        )

    for j, rep in enumerate(reports):
        cls = rep.classify()
        if cls == "bivalent":
            return _finish_bivalent(level, orient, t_ids, build_assembly(j, "2.1"),
                                    rep, depth)
        if cls == "unknown":
            return Inconclusive(f"cleanup prefix {j}: valency unknown", depth)
        if cls == "degenerate":
            return Inconclusive(
                f"cleanup prefix {j}: no reserving execution within depth", depth)

    flip = _find_flip(reports, f"{sd}-univalent", f"{od}-univalent")
    kind, o_pair, o_reg = plan[flip]
    if kind == "unite":
        o_action = level.ledger.pair(o_pair).split.action
    else:
        o_action = level.cover_actions[o_reg]
    assembly = build_assembly(flip, "2.2")

    def run_o(exec3, ledger3):
        if kind == "unite":
            return unite_pair(exec3, ledger3, o_pair)
        return split_pair(exec3, ledger3, o_pair, o_action)

    return _finish_switch(level, orient, t_ids, assembly, o_pair, o_action, run_o,
                          flip_side=sd, depth=depth)


def _returned_decisions(config, ids, level) -> set:
    out = set()
    for pid_ in ids:
        entry = config.proc(level.unit(pid_)[0])
        if entry.decided is not None:
            out.add(entry.decided)
    return out


def _find_flip(reports, first_cls: str, last_cls: str) -> int:
    labels = [rep.classify() for rep in reports]
    if labels[0] != first_cls:
        raise ContradictionError(
            f"scan start classified {labels[0]}, expected {first_cls}")
    if labels[-1] != last_cls:
        raise ContradictionError(
            f"scan end classified {labels[-1]}, expected {last_cls}")
    for j in range(len(labels) - 1):
        if labels[j] == first_cls and labels[j + 1] == last_cls:
            return j
    raise ContradictionError("no adjacent univalency flip in an all-univalent scan")


# -- shared level assembly ----------------------------------------------------

def _match_scanned_coverers(level, orient, assembly) -> dict:
    """Unique covering pairs from the scanned side for the overwritten split
    registers (and the new register), guaranteed by the witness being a
    reserving execution; reg itself falls to the poised writer when it is
    still unwritten."""
    spec = level.exec.spec
    config = assembly.exec_now.final
    p_units = level.units(orient.scanned_ids)
    need = [reg for reg in assembly.match_regs if reg != assembly.reg or not assembly.force_reg]
    pool = list(p_units)
    out = {}
    if assembly.force_reg:
        writes = [a for a in spec.actions(config.proc(assembly.wp_unit[0]).state)
                  if isinstance(a, Write) and a.reg == assembly.reg]
        if assembly.wp_action not in writes:
            raise ContradictionError("poised writer no longer covers the new register")
        out[assembly.reg] = (assembly.wp_unit, assembly.wp_action)
        pool = [u for u in pool if u != assembly.wp_unit]
    matched = covered_injectively(spec, config, pool, need)
    if matched is None:
        raise ContradictionError(
            f"no injective cover of {need} by the scanned side at the candidate")
    for reg, unit in matched.items():
        action = next(a for a in spec.actions(config.proc(unit[0]).state)
                      if isinstance(a, Write) and a.reg == reg)
        out[reg] = (unit, action)
    return out


def _repair_stale(level, assembly, marker: int):
    """Unite colliding stale pairs by inserting each old clone's write right
    before an existing write to the same register inside the extension."""
    exec_, ledger = assembly.exec_now, assembly.ledger_now
    stale_by_reg = {}
    for pair_id in level.stale_ids():
        stale_by_reg[level.ledger.pair(pair_id).split.reg] = pair_id
    for reg in assembly.repair_regs:
        pair_id = stale_by_reg.get(reg)
        if pair_id is None:
            continue
        pair = ledger.pair(pair_id)
        idx = next(
            (i for i in range(marker, len(exec_.steps))
             if isinstance(exec_.steps[i].action, Write)
             and exec_.steps[i].action.reg == reg),
            None,
        )
        if idx is None:
            raise EngineError(
                f"repair found no write to r{reg} in the extension although it "
                "is recorded as overwritten")
        before = exec_.final
        exec_ = insert_step(exec_, idx, pair.clone, pair.split.action)
        from dataclasses import replace as _replace
        ledger = ledger.with_pair(_replace(pair, split=None))
        others = [pid_ for pid_ in range(len(before.procs)) if pid_ != pair.clone]
        from .execution import indistinguishable
        if not indistinguishable(before, exec_.final, others):
            raise EngineError("stale repair was visible beyond the repaired clone")
    return exec_, ledger


def _validated_witness(spec, exec_, units, moves, m, want) -> Witness:
    w = make_witness(spec, exec_.final, list(moves), units, "reserving")
    if w.decision != want:
        raise ContradictionError(f"witness decides {w.decision}, expected {want}")
    exec_.extend_steps(w.steps)
    if not is_reserving(spec, exec_.final, units, w.steps, m):
        raise EngineError("derived witness is not reserving")
    return w


def _search_side(spec, exec_, units, m, depth, want) -> Witness:
    moves, cut = reserving_search(spec, exec_.final, units, m, depth, want)
    if moves is not None:
        return _validated_witness(spec, exec_, units, moves, m, want)
    if cut:
        raise InconclusiveError(f"side witness search hit depth {depth}")
    other, cut2 = reserving_search(spec, exec_.final, units, m, depth, 1 - want)
    if other is not None:
        raise ContradictionError(
            f"univalent candidate produced a {1 - want}-returning execution")
    raise InconclusiveError("no reserving execution at all for the chosen side set")


def _finish_bivalent(level, orient, t_ids, assembly: _Assembly, rep, depth):
    spec = level.exec.spec
    m = level.m
    matched = _match_scanned_coverers(level, orient, assembly)
    exec_, ledger = _repair_stale(level, assembly, marker=len(level.exec.steps))
    for _ in range(2):
        exec_, ledger, _new = new_pair(exec_, ledger, 0)

    # the report's witnesses live at the pre-repair candidate; repair and the
    # idle pairs are invisible to the pool, so they replay at the final state
    w0, w1 = rep.zero.witness, rep.one.witness
    exec_.extend_steps(w0.steps)
    exec_.extend_steps(w1.steps)
    t_units = [level.unit(i) for i in t_ids]
    p_units, q_units, w0, w1 = disjoint_witnesses(
        spec, exec_.final, t_units, list(w0.members), list(w1.members), w0, w1, m, depth)

    return _build_level(level, assembly, exec_, ledger, matched,
                        p_units, q_units, w0, w1, depth)


def _finish_switch(level, orient, t_ids, assembly: _Assembly, o_pair, o_action,
                   run_o, flip_side: int, depth):
    """The scan was univalent throughout: duplicate the pair behind the flip
    step twice, let one duplicate fire it while the other covers, and compose
    witnesses so both decisions stay reachable at the new level."""
    spec = level.exec.spec
    m = level.m
    sd = orient.sd
    matched = _match_scanned_coverers(level, orient, assembly)
    marker = len(level.exec.steps)
    exec_, ledger = _repair_stale(level, assembly, marker=marker)
    budget = len(level.pair_ids) + 2
    exec_, ledger, dup1, marker = duplicate_pair(exec_, ledger, o_pair, budget, marker)
    exec_, ledger, dup2, marker = duplicate_pair(exec_, ledger, o_pair, budget, marker)
    dup_units = [ledger.pair(dup1).members, ledger.pair(dup2).members]

    active_t = [i for i in t_ids
                if exec_.final.proc(level.unit(i)[0]).decided is None]
    plain_ids = tuple(active_t[: m + 1])
    rest_ids = tuple(i for i in active_t if i not in plain_ids)[: m + 1]
    if len(plain_ids) < m + 1 or len(rest_ids) < m + 1:
        raise EngineError("pool too small for the switching-point sets")
    plain_units = [level.unit(i) for i in plain_ids]
    f_units = [level.unit(i) for i in rest_ids]

    # the candidate itself is univalent toward flip_side
    plain_w = _search_side(spec, exec_, plain_units, m, depth, flip_side)

    # one step further it is univalent the other way; a duplicate replays that
    # step while its twin keeps the register covered
    exec_o, ledger_o = run_o(exec_, ledger)
    xi_moves, cut = reserving_search(spec, exec_o.final, f_units, m, depth, 1 - flip_side)
    if xi_moves is None:
        if cut:
            raise InconclusiveError(f"switch witness search hit depth {depth}")
        raise InconclusiveError("no reserving execution beyond the flip step")
    xi = make_witness(spec, exec_o.final, list(xi_moves), f_units, "reserving")
    composed = compose_prefix(spec, exec_.final, dup_units[0], o_action,
                              dup_units[1], xi, m)

    if flip_side == 0:
        p_units, w0 = plain_units, plain_w
        q_units, w1 = list(composed.members), composed
    else:
        q_units, w1 = plain_units, plain_w
        p_units, w0 = list(composed.members), composed
    if w0.decision != 0 or w1.decision != 1:
        raise EngineError("switch witnesses carry wrong decisions")
    return _build_level(level, assembly, exec_, ledger, matched,
                        p_units, q_units, w0, w1, depth)


def _build_level(level, assembly, exec_, ledger, matched, p_units, q_units,
                 w0, w1, depth):
    cover = {}
    cover_actions = {}
    for reg, pair_id in assembly.new_split_cover.items():
        cover[reg] = pair_id
    for reg, pair_id in assembly.kept_cover.items():
        cover[reg] = pair_id
        cover_actions[reg] = assembly.kept_actions[reg]
    for reg, (unit, action) in matched.items():
        cover[reg] = ledger.pair_of(unit[0]).pair_id
        cover_actions[reg] = action

    split_regs = tuple(sorted(assembly.new_split_cover))
    covered_regs = tuple(sorted(set(cover) - set(split_regs)))

    def ids_of(units):
        return tuple(sorted(ledger.pair_of(u[0]).pair_id for u in units))

    new = LinearLevel(
        r=level.r + 1, m=level.m, exec=exec_, ledger=ledger,
        pair_ids=tuple(range(len(ledger.pairs))),
        split_regs=split_regs, covered_regs=covered_regs,
        cover=cover, cover_actions=cover_actions,
        p_ids=ids_of(p_units), q_ids=ids_of(q_units),
        alpha=w0, beta=w1, case_tag=assembly.case_tag,
    )
    return assert_properties(new)


# -- driver -------------------------------------------------------------------

def corollary_finish(level: LinearLevel):
    """Block-write the covered registers at the top level; afterwards every
    register of the covered sets has been written in one execution."""
    if level.r != level.m:
        raise ValueError(f"finishing requires r == m, have r={level.r}, m={level.m}")
    exec_, ledger = level.exec, level.ledger
    for reg in sorted(level.covered_regs):
        exec_, ledger = split_pair(exec_, ledger, level.cover[reg],
                                   level.cover_actions[reg])
    return exec_, len(exec_.written_registers())


def linear_run(spec, m: int, depth: int):
    try:
        outcome = linear_base(spec, m, depth)
        if not isinstance(outcome, LinearLevel):
            return outcome
        levels = [outcome]
        while levels[-1].r < m:
            outcome = linear_step(levels[-1], depth)
            if not isinstance(outcome, LinearLevel):
                return outcome
            levels.append(outcome)
        final, count = corollary_finish(levels[-1])
        return LinearChainCertificate(
            spec_name=spec.name, m=m, levels=levels, depth=depth,
            final=final, registers_written=count,
        )
    except InconclusiveError as e:
        return Inconclusive(str(e), depth)
