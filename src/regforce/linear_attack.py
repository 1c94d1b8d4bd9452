"""Register-forcing chains over process-clone pairs with reusable coverage.

Levels keep every written register either freshly split (the leader wrote it,
its clone still covers it with the identical pending write) or covered by a
united pair, so coverage survives from level to level instead of burning a
new clone per register.  Valency is judged by reserving executions of
exactly m+1 non-split pairs drawn from the untouched pool T.

A step runs the scanned witness up to its first write outside the covered
set and then scans one plan of steps, querying the pool's valency after
every prefix.  In case 1 the pool can still return the other value there,
and the plan is the rest of the witness, pair by pair from the poised write.
In case 2 it cannot, and the plan is the cleanup: trailing clones restore
the overwritten split registers, then the covering leaders write one at a
time.  Either scan ends in one of two ways: the first bivalent prefix
becomes the next level (case X.1), or, all prefixes univalent, the adjacent
flip does, by duplicating the pair behind the flip step (case X.2).  Stale
split pairs left behind by overwrites are repaired by slipping the old
clone's write in front of an existing write to the same register,
invisibly to everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .model import ContradictionError, EngineError, Write, initial_configuration
from .execution import Execution, insert_step, restricted_replay
from .pairs import (
    duplicate_pair,
    members,
    new_pair,
    pair_of,
    pair_step,
    split_pair,
    splits,
    unite_pair,
)
from .reports import Inconclusive, LinearChainCertificate, ViolationReport
from .valency import (
    Witness,
    compose_prefix,
    construct_reserving,
    covered_injectively,
    disjoint_witnesses,
    materialize,
    reserving_replay,
    reserving_search,
    valency,
)


@dataclass
class LinearLevel:
    r: int
    m: int
    exec: Execution
    split_regs: tuple  # registers with a fresh split pair (R_s)
    covered_regs: tuple  # registers covered by united pairs (R_c)
    cover: dict  # reg -> pair id, for every register in the two sets
    p_ids: tuple
    q_ids: tuple
    alpha: Witness  # reserving over P's units, returns 0
    beta: Witness  # reserving over Q's units, returns 1
    case_tag: str = "base"

    @property
    def pair_ids(self) -> range:
        """U: every pair of the level's processes."""
        return range(len(self.exec.initial.procs) // 2)

    def units(self, ids) -> list:
        return [members(i) for i in ids]

    def cover_write(self, reg: int) -> Optional[Write]:
        """The block write to the R_c register `reg`: the first write to it
        in the state of its cover pair's leader, or None when there is none."""
        return _poised_write(self.exec.spec, self.exec.final, members(self.cover[reg]), reg)

    @property
    def regs(self) -> tuple:
        return tuple(sorted(self.split_regs + self.covered_regs))

    def stale_ids(self) -> tuple:
        return tuple(i for i, (_, status) in splits(self.exec).items() if status == "stale")

    def pool_ids(self) -> tuple:
        used = set(self.cover.values()) | set(self.stale_ids()) | set(self.p_ids) | set(self.q_ids)
        return tuple(i for i in self.pair_ids if i not in used)


def expected_pairs(m: int, r: int) -> int:
    return 5 * m + 6 + 2 * r


# the case tags of a stepped level: scan case 1 or 2, ending bivalent (.1) or in a flip (.2)
_STEP_CASES = ("1.1", "1.2", "2.1", "2.2")


def verify_properties(level: LinearLevel) -> list:
    """Machine-check the level invariants on the splits read off its trace
    and on its witnesses' replays; returns [(name, ok, detail), ...]."""
    checks = []
    exec_, m, r = level.exec, level.m, level.r

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    check("case", level.case_tag == "base" if r == 0 else level.case_tag in _STEP_CASES,
          f"case {level.case_tag!r} at rank {r}")
    want = expected_pairs(m, r)
    check("pair-budget", len(level.pair_ids) == want,
          f"|U|={len(level.pair_ids)}, expected {want}")
    check("pid-pool", len(exec_.initial.procs) == 2 * len(level.pair_ids),
          f"{len(exec_.initial.procs)} pids for {len(level.pair_ids)} pairs")

    rs, rc = set(level.split_regs), set(level.covered_regs)
    regs = level.split_regs + level.covered_regs
    check("register-partition",
          len(set(regs)) == len(regs) == r and set(level.cover) == rs | rc,
          f"R_s={list(level.split_regs)} R_c={list(level.covered_regs)}")

    # property 1: fresh splits are exactly the R_s covers; R_c covered united
    split = splits(exec_)
    fresh = {i for i, (_, status) in split.items() if status == "fresh"}
    rs_pairs = {level.cover[reg] for reg in rs if reg in level.cover}
    ok1, detail1 = fresh == rs_pairs and len(rs_pairs) == len(rs), ""
    if not ok1:
        detail1 = f"fresh splits {sorted(fresh)} vs R_s covers {sorted(rs_pairs)}"
    for reg in sorted(rs | rc):
        pid_ = level.cover.get(reg)
        if pid_ is None:
            ok1, detail1 = False, f"r{reg} has no covering pair"
        elif reg in rs:
            if pid_ not in split or split[pid_][0].reg != reg:
                ok1, detail1 = False, f"pair {pid_} not split on r{reg}"
        elif pid_ in split:
            ok1, detail1 = False, f"covering pair {pid_} is split"
        elif level.cover_write(reg) is None:
            ok1, detail1 = False, f"pair {pid_} not poised on r{reg}"
    cover_ids = list(level.cover.values())
    if len(set(cover_ids)) != len(cover_ids):
        ok1, detail1 = False, "cover assignment not injective"
    check("property-1", ok1, detail1)

    # property 2: stale pairs on pairwise distinct registers of the covered set
    stale = level.stale_ids()
    stale_regs = [split[i][0].reg for i in stale]
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
        and not (p_set | q_set) & set(split)
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
            end, reserving = reserving_replay(exec_.spec, exec_.final, units, witness.steps,
                                              m, len(exec_.steps))
        except EngineError as e:
            ok3, detail3 = False, f"witness replay failed: {e}"
            continue
        if end.proc(witness.decider[0]).decided != want_d:
            ok3, detail3 = False, "witness decider did not return the claimed value"
            continue
        if not reserving:
            ok3, detail3 = False, "witness fails the reserving conditions"
    check("property-3", ok3, detail3)
    return checks


def recorded_cover(exec_: Execution, split_regs, covered_regs, cover_ids) -> dict:
    """The cover map (register -> pair id) of a level known only by its
    trace, its R_s and R_c, and its cover pairs `cover_ids` (V), as a
    certificate records it.  A register of R_s is covered by the fresh split
    on it, which is unique, since a later write to the register makes an
    earlier split stale; the registers of R_c are matched injectively to the
    united pairs of V poised on them, and each one's block write is read off
    its pair's state (`LinearLevel.cover_write`).  A register with no such
    cover stays out of the map, which `verify_properties` then rejects."""
    split = splits(exec_)
    fresh = {write.reg: i for i, (write, status) in split.items() if status == "fresh"}
    cover = {reg: fresh[reg] for reg in split_regs if reg in fresh}
    united = [members(i) for i in cover_ids if i not in split]
    matched = covered_injectively(exec_.spec, exec_.final, united, covered_regs) or {}
    cover.update((reg, pair_of(unit[0])) for reg, unit in matched.items())
    return cover


def _poised_write(spec, config, unit, reg: int) -> Optional[Write]:
    """The first write to `reg` that `unit` is poised on, or None."""
    return next((a for a in spec.actions(config.proc(unit[0]).state)
                 if isinstance(a, Write) and a.reg == reg), None)


def assert_properties(level: LinearLevel) -> LinearLevel:
    report = verify_properties(level)
    bad = [c for c in report if not c[1]]
    if bad:
        raise EngineError(f"level {level.r} property check failed: {bad}")
    return level


def _breach_report(exec_: Execution, e: Inconclusive, depth: int) -> ViolationReport:
    """The solo-termination breach `construct_reserving` proved from the end
    of exec_: the unit it names is stuck after the breach's moves.  Any other
    inconclusive result is raised on."""
    if e.breach is None:
        raise e
    moves, unit = e.breach
    trace = exec_.extend_steps(materialize(exec_.spec, exec_.final, moves))
    return ViolationReport(
        kind="solo-termination", trace=trace, stuck_pids=tuple(unit),
        depth=depth, evidence={"note": str(e)},
    )


def linear_base(spec, m: int, depth: int) -> Union[LinearLevel, ViolationReport]:
    n_pairs = expected_pairs(m, 0)
    n_zero = (n_pairs + 1) // 2
    inputs = []
    for i in range(n_pairs):
        b = 0 if i < n_zero else 1
        inputs.extend([b, b])
    exec_ = Execution.start(spec, initial_configuration(spec, inputs))
    p_ids = tuple(range(m + 1))
    q_ids = tuple(range(n_zero, n_zero + m + 1))

    witnesses = {}
    for ids, want in ((p_ids, 0), (q_ids, 1)):
        units = [members(i) for i in ids]
        try:
            built = construct_reserving(spec, exec_.final, units, m, depth)
        except Inconclusive as e:
            return _breach_report(exec_, e, depth)
        w = built.witness
        if w.decision != want:
            # every process in these units holds input `want`; replayed in the
            # system of only them, the other decision breaks validity
            restricted = restricted_replay(exec_, [pid for u in units for pid in u], w.steps)
            return ViolationReport(
                kind="validity", trace=restricted,
                evidence={"inputs": [want], "decision": w.decision},
            )
        witnesses[want] = w

    level = LinearLevel(
        r=0, m=m, exec=exec_,
        split_regs=(), covered_regs=(), cover={},
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
    pool_witness: Witness  # reserving witness at D returning 1 - sd


def gamma_c(level: LinearLevel, exec_=None):
    """The covering block write: each covered register is written by the
    covering pair's leader alone, splitting the pair fresh.  It runs at the
    end of `exec_` (default: the level execution, where it reaches D)."""
    if exec_ is None:
        exec_ = level.exec
    for reg in sorted(level.covered_regs):
        exec_ = split_pair(exec_, level.cover[reg], level.cover_write(reg))
    return exec_


def gamma_s(level: LinearLevel, exec_, ext_steps):
    """The trailing-clone block write: every split register overwritten by
    the extension is rewritten by its waiting clone, uniting the pair and
    restoring the value the register held at the level configuration."""
    for reg_s in sorted(_written(ext_steps) & set(level.split_regs)):
        exec_ = unite_pair(exec_, level.cover[reg_s])
    return exec_


def _resolve_orientation(level: LinearLevel, t_ids, depth):
    spec = level.exec.spec
    exec_d = gamma_c(level)
    rep_d = valency(spec, exec_d.final, level.units(t_ids), level.m, depth, "reserving")
    if rep_d.one.proven:
        return _Orientation(0, level.alpha, level.p_ids, rep_d.one.witness)
    if rep_d.zero.proven and rep_d.one.refuted:
        return _Orientation(1, level.beta, level.q_ids, rep_d.zero.witness)
    return None


def _orient_and_split(level: LinearLevel, t_ids, depth):
    """(orientation, index of the scanned witness's first write outside the
    covered set), or the ViolationReport realized when no such write exists;
    raises Inconclusive when the orientation cannot be decided."""
    orient = _resolve_orientation(level, t_ids, depth)
    if orient is None:
        raise Inconclusive(f"valency after the covering block write unknown at depth {depth}")
    split_at = orient.scanned.first_write_outside(level.regs)
    if split_at is None:
        return _confined_witness_violation(level, orient)
    return orient, split_at


def linear_step(level: LinearLevel, depth: int) -> Union[LinearLevel, ViolationReport]:
    t_ids = level.pool_ids()
    if len(t_ids) < 3 * level.m + 2:
        raise EngineError(f"|T|={len(t_ids)} < 3m+2; budget bookkeeping broken")
    found = _orient_and_split(level, t_ids, depth)
    if not isinstance(found, tuple):
        return found
    orient, split_at = found
    return _step_oriented(level, orient, split_at, t_ids, depth)


def _steps_for_moves(witness: Witness, upto_move: int) -> tuple:
    count = sum(len(unit) for unit, _ in witness.moves[:upto_move])
    return witness.steps[:count]


def _written(steps) -> set:
    return {s.action.reg for s in steps if isinstance(s.action, Write)}


def _step_oriented(level, orient, split_at, t_ids, depth):
    """Run the scanned witness up to its first outside write, then pick the
    plan to scan by what the pool can still return there."""
    spec = level.exec.spec
    sd, od = orient.sd, 1 - orient.sd
    w = orient.scanned
    pre_steps = _steps_for_moves(w, split_at)
    exec_pre = level.exec.extend_steps(pre_steps)
    rep_pre = valency(spec, exec_pre.final, level.units(t_ids), level.m, depth, "reserving")

    if rep_pre.side(od).proven:
        # case 1: the poised write and the rest of the witness, pair by pair
        plan = [("pair", pair_of(unit[0]), action)
                for unit, action in w.moves[split_at:]]
        return _scan(level, orient, t_ids, split_at, exec_pre, rep_pre, plan,
                     "1", "pair-step", od, depth)
    if rep_pre.side(sd).proven and rep_pre.side(od).refuted:
        # case 2: the cleanup block writes one step at a time; trailing clones
        # restore the overwritten split registers (uniting their pairs), then
        # the covering leaders write (splitting theirs)
        restore = sorted(_written(pre_steps) & set(level.split_regs))
        split = splits(level.exec)
        plan = [("unite", level.cover[reg], split[level.cover[reg]][0]) for reg in restore]
        plan += [("split", level.cover[reg], level.cover_write(reg))
                 for reg in sorted(level.covered_regs)]
        return _scan(level, orient, t_ids, split_at, exec_pre, rep_pre, plan,
                     "2", "cleanup", sd, depth)
    raise Inconclusive(f"valency after the confined witness prefix unknown at depth {depth}")


def _confined_witness_violation(level, orient):
    """The scanned witness never writes outside the covered registers: run
    it, wash its writes out with the trailing clones, block-write the covered
    registers, and the untouched pool still returns the other value in the
    same trace."""
    steps = orient.scanned.steps
    exec_ = gamma_c(level, gamma_s(level, level.exec.extend_steps(steps), steps))
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
    """The scan prefix a new level is built on."""
    case_tag: str
    exec_now: Execution  # ends at the candidate configuration
    wp_unit: tuple  # the pair poised on the write to `reg`
    reg: int  # the register joining the covered sets
    touched: frozenset  # split registers the extension overwrote
    wp_done: bool  # the poised write is part of the extension
    split_now: tuple  # covered registers whose covering pair the scan split


def _advance(exec_, step):
    """Take one plan step: a lockstep pair move, a trailing clone's
    restoring write, or a covering leader's write."""
    kind, pair_id, action = step
    if kind == "pair":
        return pair_step(exec_, pair_id, action)
    if kind == "unite":
        return unite_pair(exec_, pair_id)
    return split_pair(exec_, pair_id, action)


def _scan(level, orient, t_ids, split_at, exec_pre, rep_pre, plan, tag, word, start, depth):
    """Classify the pool's valency after each prefix of the plan in turn,
    starting `start`-univalent.  The first bivalent prefix becomes the next
    level (case `tag`.1); with none, the adjacent univalency flip does
    (`tag`.2).  A prefix is stepped and queried only once the one before it
    classified univalent.  A valency answer is the same whether a memo or a
    fresh search gives it, so where the scan stops changes no answer."""
    spec = level.exec.spec
    wp_unit, wp_action = orient.scanned.moves[split_at]
    t_units = level.units(t_ids)
    prefixes = [exec_pre]
    reports = [rep_pre]

    def assembly(j, outcome):
        exec_now = prefixes[j]
        taken = plan[:j]
        return _Assembly(
            case_tag=f"{tag}.{outcome}", exec_now=exec_now,
            wp_unit=wp_unit, reg=wp_action.reg,
            touched=frozenset(_written(exec_now.steps[len(level.exec.steps):])
                              & set(level.split_regs)),
            wp_done=any(kind == "pair" for kind, _, _ in taken),
            split_now=tuple(action.reg for kind, _, action in taken if kind == "split"),
        )

    for j in range(len(plan) + 1):
        if j:
            prefixes.append(_advance(prefixes[-1], plan[j - 1]))
            reports.append(valency(spec, prefixes[-1].final, t_units, level.m, depth,
                                   "reserving"))
        exec_now, rep = prefixes[j], reports[j]
        for d in sorted(_returned_decisions(exec_now.final, orient.scanned_ids)):
            if rep.side(1 - d).proven:
                trace = exec_now.extend_steps(rep.side(1 - d).witness.steps)
                return ViolationReport(
                    kind="agreement", trace=trace,
                    evidence={"decisions": sorted({d, 1 - d}), "level": level.r,
                              "note": "pool witness contradicts a returned value"},
                )
        cls = rep.classify()
        if cls == "bivalent":
            return _finish_bivalent(level, orient, t_ids, assembly(j, "1"), rep, depth)
        if cls == "unknown":
            raise Inconclusive(f"{word} prefix {j}: valency unknown")
        if cls == "degenerate":
            raise Inconclusive(f"{word} prefix {j}: no reserving execution at all")

    flip = _find_flip(reports, f"{start}-univalent", f"{1 - start}-univalent")
    if not isinstance(plan[flip][2], Write):
        raise ContradictionError(
            "pool valency flipped across a step the pool cannot observe")
    return _finish_switch(level, orient, t_ids, assembly(flip, "2"), plan[flip],
                          flip_side=start, depth=depth)


def _returned_decisions(config, ids) -> set:
    out = set()
    for pid_ in ids:
        entry = config.proc(members(pid_)[0])
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
    """{reg: unit}: unique covering pairs from the scanned side for the
    overwritten split registers (and the new register), guaranteed by the
    witness being a reserving execution; reg itself falls to the poised
    writer when it is still unwritten."""
    spec = level.exec.spec
    config = assembly.exec_now.final
    need = sorted(assembly.touched | ({assembly.reg} if assembly.wp_done else set()))
    pool = level.units(orient.scanned_ids)
    out = {}
    if not assembly.wp_done:
        if _poised_write(spec, config, assembly.wp_unit, assembly.reg) is None:
            raise ContradictionError("poised writer no longer covers the new register")
        out[assembly.reg] = assembly.wp_unit
        pool = [u for u in pool if u != assembly.wp_unit]
    matched = covered_injectively(spec, config, pool, need)
    if matched is None:
        raise ContradictionError(
            f"no injective cover of {need} by the scanned side at the candidate")
    out.update(matched)
    return out


def _repair_stale(level, assembly):
    """Unite colliding stale pairs by inserting each old clone's write right
    before an existing write to the same register inside the extension."""
    exec_ = assembly.exec_now
    marker = len(level.exec.steps)
    stale_by_reg = {write.reg: (pair_id, write)
                    for pair_id, (write, status) in splits(level.exec).items()
                    if status == "stale"}
    for reg in sorted(assembly.touched & set(stale_by_reg)):
        pair_id, write = stale_by_reg[reg]
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
        exec_ = insert_step(exec_, idx, members(pair_id)[1], write)
    return exec_


def _search_side(spec, exec_, units, m, depth, want) -> Witness:
    tri = reserving_search(spec, exec_.final, units, m, depth, want)
    if tri.proven:
        w = tri.witness
        if w.decision != want:
            raise ContradictionError(f"witness decides {w.decision}, expected {want}")
        if not reserving_replay(spec, exec_.final, units, w.steps, m, len(exec_.steps))[1]:
            raise EngineError("derived witness is not reserving")
        return w
    if not tri.refuted:
        raise Inconclusive(f"side witness search hit depth {depth}")
    if reserving_search(spec, exec_.final, units, m, depth, 1 - want).proven:
        raise ContradictionError(
            f"univalent candidate produced a {1 - want}-returning execution")
    raise Inconclusive("no reserving execution at all for the chosen side set")


def _finish_bivalent(level, orient, t_ids, assembly: _Assembly, rep, depth):
    spec = level.exec.spec
    m = level.m
    matched = _match_scanned_coverers(level, orient, assembly)
    exec_ = _repair_stale(level, assembly)
    for _ in range(2):
        exec_, _new = new_pair(exec_, 0)

    # the report's witnesses live at the pre-repair candidate; repair and the
    # idle pairs are invisible to the pool, so they replay at the final state
    w0, w1 = rep.zero.witness, rep.one.witness
    exec_.extend_steps(w0.steps)
    exec_.extend_steps(w1.steps)
    t_units = level.units(t_ids)
    try:
        p_units, q_units, w0, w1 = disjoint_witnesses(
            spec, exec_.final, t_units, list(w0.members), list(w1.members), w0, w1, m, depth)
    except Inconclusive as e:
        return _breach_report(exec_, e, depth)

    return _build_level(level, assembly, exec_, matched, p_units, q_units, w0, w1)


def _finish_switch(level, orient, t_ids, assembly: _Assembly, o_step, flip_side: int,
                   depth):
    """The scan was univalent throughout: duplicate the pair behind the flip
    step `o_step` twice, let one duplicate fire it while the other covers, and
    compose witnesses so both decisions stay reachable at the new level."""
    spec = level.exec.spec
    m = level.m
    _, o_pair, o_action = o_step
    matched = _match_scanned_coverers(level, orient, assembly)
    exec_ = _repair_stale(level, assembly)
    budget = len(level.pair_ids) + 2
    exec_, dup1 = duplicate_pair(exec_, o_pair, budget)
    exec_, dup2 = duplicate_pair(exec_, o_pair, budget)
    dup_units = [members(dup1), members(dup2)]

    active_t = [i for i in t_ids
                if exec_.final.proc(members(i)[0]).decided is None]
    plain_ids = tuple(active_t[: m + 1])
    rest_ids = tuple(i for i in active_t if i not in plain_ids)[: m + 1]
    if len(plain_ids) < m + 1 or len(rest_ids) < m + 1:
        raise EngineError("pool too small for the switching-point sets")
    plain_units = level.units(plain_ids)
    f_units = level.units(rest_ids)

    # the candidate itself is univalent toward flip_side
    plain_w = _search_side(spec, exec_, plain_units, m, depth, flip_side)

    # one step further it is univalent the other way; a duplicate replays that
    # step while its twin keeps the register covered
    exec_o = _advance(exec_, o_step)
    xi = reserving_search(spec, exec_o.final, f_units, m, depth, 1 - flip_side)
    if xi.refuted:
        raise Inconclusive("no reserving execution beyond the flip step")
    if not xi.proven:
        raise Inconclusive(f"switch witness search hit depth {depth}")
    composed = compose_prefix(spec, exec_.final, dup_units[0], o_action,
                              dup_units[1], xi.witness, m)

    if flip_side == 0:
        p_units, w0 = plain_units, plain_w
        q_units, w1 = list(composed.members), composed
    else:
        q_units, w1 = plain_units, plain_w
        p_units, w0 = list(composed.members), composed
    if w0.decision != 0 or w1.decision != 1:
        raise EngineError("switch witnesses carry wrong decisions")
    return _build_level(level, assembly, exec_, matched, p_units, q_units, w0, w1)


def _build_level(level, assembly, exec_, matched, p_units, q_units, w0, w1):
    # fresh splits: the level's untouched ones and the ones the scan made;
    # covered: the level's unsplit coverers and the scanned side's matches
    fresh = [reg for reg in level.split_regs if reg not in assembly.touched]
    cover = {reg: level.cover[reg] for reg in fresh + list(assembly.split_now)}
    split_regs = tuple(sorted(cover))
    cover.update((reg, level.cover[reg]) for reg in level.covered_regs
                 if reg not in assembly.split_now)
    cover.update((reg, pair_of(unit[0])) for reg, unit in matched.items())
    covered_regs = tuple(sorted(set(cover) - set(split_regs)))

    def ids_of(units):
        return tuple(sorted(pair_of(u[0]) for u in units))

    new = LinearLevel(
        r=level.r + 1, m=level.m, exec=exec_,
        split_regs=split_regs, covered_regs=covered_regs, cover=cover,
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
    exec_ = gamma_c(level)
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
            m=m, levels=levels, depth=depth,
            final=final, registers_written=count,
        )
    except Inconclusive as e:
        return e
