"""Outcome records shared by the adversaries, the oracle, and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .execution import Execution


@dataclass
class ViolationReport:
    """A replayable breach of agreement, validity, or solo termination.

    Agreement reports usually carry one trace containing two conflicting
    returns.  The switching-point contradictions instead produce two traces
    sharing a prefix whose continuations return different values; that pair
    refutes a univalency classification and is packaged with both witnesses.
    Solo-termination reports carry the stuck trace: no terminating solo run
    of `stuck_pids` exists from its final configuration.
    """

    kind: str  # "agreement" | "validity" | "solo-termination"
    trace: Execution
    evidence: dict = field(default_factory=dict)
    counter_trace: Optional[Execution] = None
    prefix_len: Optional[int] = None
    stuck_pids: tuple = ()
    depth: Optional[int] = None


@dataclass
class SqrtChainCertificate:
    levels: list  # of SqrtLevel
    depth: int


@dataclass
class LinearChainCertificate:
    m: int
    levels: list  # of LinearLevel
    depth: int
    final: Execution  # after the closing block write
    registers_written: int


class Inconclusive(Exception):
    """A search hit its depth bound, or an assumption of the construction
    failed to hold: the run cannot conclude either way.  It is raised where
    the query runs; `sqrt_run` and `linear_run` return it as their outcome."""

    def __init__(self, reason: str, breach=None):
        super().__init__(reason)
        self.reason = reason
        # (moves, unit) when the search proved that `unit` has no terminating
        # solo run after `moves`, counted from the search's start
        # configuration: a solo-termination breach, not a mere cutoff
        self.breach = breach
