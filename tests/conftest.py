import random

import pytest
from hypothesis import strategies as st

from regforce import zoo
from regforce.execution import Execution
from regforce.model import Write, initial_configuration

# no zoo state can both write and return, or holds more than one action; here
# a returning unit may be the only one covering a written register, and every
# state is a nondeterministic choice
WRITE_OR_RETURN = """\
algorithm write-or-return
values 1 2
registers 2
input 0 -> A
input 1 -> B
state A: write r0 := 1 -> B
state A: write r1 := 2 -> C
state B: write r0 := 2 -> C
state B: return 1
state B: read r1 ? { 2 -> A ; * -> C }
state C: return 0
state C: write r1 := 1 -> A
"""

# every zoo alphabet is {0, 1}; here three values make registers base-4
# digits: B and C read every value and `_` on separate branches, A and C write
# every value by nondeterministic choice, and W spins unless r1 holds 2
THREE_VALUES = """\
algorithm three-values
values 0 1 2
registers 2
input 0 -> A
input 1 -> B
state A: write r0 := 0 -> B
state A: write r0 := 1 -> C
state A: write r0 := 2 -> W
state B: read r0 ? { _ -> A ; 0 -> C ; 1 -> W ; 2 -> R }
state B: write r1 := 2 -> B
state C: read r1 ? { _ -> B ; 0 -> R ; 1 -> A ; 2 -> S }
state C: write r1 := 0 -> C
state C: write r1 := 1 -> A
state W: read r1 ? { 2 -> S ; * -> W }
state R: return 0
state S: return 1
"""


# state S0 holds two writes to r0 by nondeterministic choice: the pair the
# linear attack leaves covering r0 sits there poised on both, and its block
# write is the first
TWO_WRITES_ONE_REGISTER = """\
algorithm fuzzed
values 0 1
registers 1
input 0 -> S0
input 1 -> S3
state S0: write r0 := 1 -> S0
state S0: write r0 := 1 -> S1
state S1: return 0
state S1: read r0 ? { 1 -> S3 ; * -> S4 }
state S2: read r0 ? { _ -> S1 ; 0 -> S1 ; * -> S0 }
state S3: return 1
state S3: return 1
state S4: read r0 ? { * -> S0 }
"""


def write_loop(k: int, tail: str) -> str:
    """State A may write 1 into any of `k` registers and stay in A, so one
    process alone reaches 2^k register vectors there; `tail` adds rows."""
    return "\n".join(["algorithm write-loop", "values 1", f"registers {k}",
                      "input 0 -> A", "input 1 -> A",
                      *(f"state A: write r{i} := 1 -> A" for i in range(k)), tail, ""])


RETURN_HERE = "state A: return 0"
RETURN_AFTER_READ = "state A: read r0 ? { 1 -> R ; * -> A }\nstate R: return 0"
NO_RETURN = ""


def enabled_actions(spec, config, pid: int) -> tuple:
    """The actions `pid` may take next: its state's, none once it returned."""
    p = config.proc(pid)
    if not p.active:
        return ()
    return spec.actions(p.state)


@pytest.fixture
def trivial():
    return zoo.get_zoo("trivial-decider")


@pytest.fixture
def flag():
    return zoo.get_zoo("one-register-flag")


@pytest.fixture
def race3():
    return zoo.get_zoo("of-race-3")


def random_execution(spec, inputs, rng: random.Random, steps: int) -> Execution:
    """A random reachable execution: uniform pid and action choices."""
    exec_ = Execution.start(spec, initial_configuration(spec, inputs))
    for _ in range(steps):
        live = [pid for pid in range(len(exec_.final.procs))
                if exec_.final.procs[pid].active]
        if not live:
            break
        pid = rng.choice(live)
        action = rng.choice(enabled_actions(spec, exec_.final, pid))
        exec_ = exec_.extend(pid, action)
    return exec_


def block_write(exec_: Execution, writers) -> Execution:
    """One write per (pid, register[, value]) entry; registers pairwise distinct.

    Each pid must be poised to write its register; with nondeterministic
    choice the first matching enabled write (declaration order) is taken,
    or the unique one matching the given value.
    """
    regs = [w[1] for w in writers]
    if len(set(regs)) != len(regs):
        raise ValueError(f"duplicate registers in block write: {sorted(regs)}")
    out = exec_
    for pid, reg, *value in writers:
        action = next((a for a in enabled_actions(out.spec, out.final, pid)
                       if isinstance(a, Write) and a.reg == reg
                       and (not value or a.value == value[0])), None)
        if action is None:
            raise ValueError(f"pid {pid} does not cover r{reg}")
        out = out.extend(pid, action)
    return out


@st.composite
def algorithm_texts(draw):
    """Random small valid algorithms: every referenced state and value exists
    and every read is total or carries a default.

    A quarter of them start input 0 in a guard G and input 1 in W, which
    writes 1 to r0: a process in G that reads 1 there spins for ever, so the
    write strands a process that has not moved.  Another quarter start input
    0 in H, which may return or read into that spin, so the read strands its
    mover.  A sweep that skips either re-check finds the stuck process late
    or never."""
    n_states = draw(st.integers(2, 5))
    k = draw(st.integers(1, 3))
    alphabet = ["0", "1"]
    names = [f"S{i}" for i in range(n_states)]
    lines = ["algorithm fuzzed", "values 0 1", f"registers {k}"]
    gadget = draw(st.integers(0, 3))
    if gadget == 0:
        lines += ["input 0 -> G", "input 1 -> W",
                  f"state G: read r0 ? {{ 1 -> Spin ; * -> {draw(st.sampled_from(names))} }}",
                  f"state W: write r0 := 1 -> {draw(st.sampled_from(names))}"]
    elif gadget == 1:
        lines += ["input 0 -> H", f"input 1 -> {draw(st.sampled_from(names))}",
                  "state H: return 0", "state H: read r0 ? { * -> Spin }"]
    else:
        lines.append(f"input 0 -> {draw(st.sampled_from(names))}")
        lines.append(f"input 1 -> {draw(st.sampled_from(names))}")
    if gadget < 2:
        lines.append("state Spin: read r0 ? { * -> Spin }")
    for name in names:
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(["return", "write", "read"]))
            if kind == "return":
                lines.append(f"state {name}: return {draw(st.integers(0, 1))}")
            elif kind == "write":
                reg = draw(st.integers(0, k - 1))
                val = draw(st.sampled_from(alphabet))
                nxt = draw(st.sampled_from(names))
                lines.append(f"state {name}: write r{reg} := {val} -> {nxt}")
            else:
                reg = draw(st.integers(0, k - 1))
                # sorted: a set of strings iterates in an order that depends
                # on PYTHONHASHSEED, and each label draws its own target
                branches = [
                    f"{label} -> {draw(st.sampled_from(names))}"
                    for label in sorted(draw(st.sets(st.sampled_from(alphabet + ['_']))))
                ]
                branches.append(f"* -> {draw(st.sampled_from(names))}")
                lines.append(f"state {name}: read r{reg} ? {{ " + " ; ".join(branches) + " }")
    return "\n".join(lines) + "\n"
