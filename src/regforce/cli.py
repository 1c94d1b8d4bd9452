"""Command-line front end.

Exit codes: 0 success (oracle ok / certificate built / replay confirmed),
1 usage, parse, or semantic errors, 2 a violation was found (report written),
3 inconclusive (a depth bound or an assumption of the construction gave out,
or a `check` sweep found no violation but was truncated).
Identical invocations produce byte-identical files and output: every knob is
a flag, nothing reads the clock or the environment.
"""

from __future__ import annotations

import argparse
import codecs
import json
import sys

from .model import EngineError, SpecError, initial_configuration, load_algorithm
from .execution import Execution
from .oracle import MAX_STATES, oracle_check
from .reports import LinearChainCertificate, SqrtChainCertificate, ViolationReport
from .sqrt_attack import sqrt_run
from .linear_attack import linear_run
from . import traceio, zoo
from .valency import valency

OK, USAGE, VIOLATION, INCONCLUSIVE = 0, 1, 2, 3

_CHECK_CHUNK = 1 << 16  # bytes checked as UTF-8 at a time

DEPTH_HELP = ("move bound of a reserving search; for a solo query only a cap on "
              "the witness length, since a solo refutation is exact")


class UsageError(Exception):
    """An option value the command cannot use."""


def _bits(text: str) -> list:
    """An `--inputs` string such as 011, one input bit per process."""
    if not text or set(text) - {"0", "1"}:
        raise UsageError(f"--inputs must be a nonempty string of 0s and 1s, got {text!r}")
    return [int(c) for c in text]


def _pids(text: str, count: int) -> list:
    """A `--set` list such as 0,2 of distinct pids below `count`."""
    try:
        pids = [int(p) for p in text.split(",")]
    except ValueError:
        pids = None
    if pids is None or len(set(pids)) != len(pids) or not all(0 <= pid < count for pid in pids):
        raise UsageError(f"--set must list distinct pids below {count}, got {text!r}")
    return pids


def _load_spec(path: str):
    if path.startswith("zoo:"):
        return zoo.get_zoo(path[4:])
    with open(path, "r", encoding="utf-8") as fh:
        return load_algorithm(fh.read())


def _read_file(path: str) -> bytes:
    """The bytes of a file to replay, read once; raises UnicodeDecodeError,
    at its offset in the file, when they are not all UTF-8.  They are checked
    a chunk at a time, so no text of the whole file is built: replay decodes
    one line at a time, and a bad byte must end in an error whatever the
    lines before it hold."""
    with open(path, "rb") as fh:
        data = fh.read()
    view, start = memoryview(data), 0
    while start < len(data):
        end = start + _CHECK_CHUNK
        try:
            _, used = codecs.utf_8_decode(view[start:end], "strict", end >= len(data))
        except UnicodeDecodeError as e:
            raise UnicodeDecodeError("utf-8", data, start + e.start, start + e.end,
                                     e.reason) from None
        start += used
    return data


def _emit(lines, out_path):
    if out_path:
        traceio.write_lines(out_path, lines)
    else:
        traceio.stream_lines(sys.stdout, lines)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="regforce",
        description="drive anonymous consensus algorithms into spending "
                    "registers, or extract a replayable counterexample",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="exhaustive bounded model check")
    check.add_argument("spec")
    check.add_argument("--inputs", default="01", help="input bits, e.g. 011")
    check.add_argument("--depth", type=int, default=64)
    check.add_argument("--max-states", type=int, default=MAX_STATES)
    check.add_argument("--out", default=None)

    attack = sub.add_parser("attack", help="run an adversary")
    atsub = attack.add_subparsers(dest="attack_kind", required=True)
    sq = atsub.add_parser("sqrt", help="solo-valency chain, one clone per register")
    sq.add_argument("spec")
    sq.add_argument("--target-r", type=int, required=True)
    sq.add_argument("--depth", type=int, default=64, help=DEPTH_HELP)
    sq.add_argument("--out", default=None)
    ln = atsub.add_parser("linear", help="process-clone pair chain up to r = m")
    ln.add_argument("spec")
    ln.add_argument("--m", type=int, required=True)
    ln.add_argument("--depth", type=int, default=64, help=DEPTH_HELP)
    ln.add_argument("--out", default=None)

    val = sub.add_parser("valency", help="decision reachability of a configuration")
    val.add_argument("spec")
    val.add_argument("--trace", default=None, help="certificate/report file to replay into")
    val.add_argument("--at", type=int, default=None, help="stop after this many steps of --trace")
    val.add_argument("--inputs", default="01", help="inputs when no trace is given")
    val.add_argument("--set", dest="pidset", default=None,
                     help="comma-separated pids (default: all)")
    val.add_argument("--mode", choices=["solo", "reserving"], default="solo")
    val.add_argument("--m", type=int, default=None)
    val.add_argument("--depth", type=int, default=64, help=DEPTH_HELP)

    rp = sub.add_parser("replay", help="re-execute and confirm a certificate or report")
    rp.add_argument("file")

    zp = sub.add_parser("zoo", help="built-in algorithms")
    zsub = zp.add_subparsers(dest="zoo_cmd", required=True)
    zsub.add_parser("list")
    show = zsub.add_parser("show")
    show.add_argument("name")
    return ap


def _cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    inputs = _bits(args.inputs)
    verdict = oracle_check(spec, inputs, args.depth, args.max_states)
    print(f"agreement: {verdict.agreement}")
    print(f"validity: {verdict.validity}")
    print(f"solo-termination: {verdict.solo_termination}")
    print(f"explored: {verdict.explored} truncated: {str(verdict.truncated).lower()}")
    if verdict.ok and verdict.truncated:
        print("inconclusive: no violation found, but the sweep did not close the reachable space")
        return INCONCLUSIVE
    if verdict.ok:
        return OK
    initial = initial_configuration(spec, inputs)
    report = None
    if verdict.agreement == "violated":
        trace = Execution.from_steps(spec, initial, verdict.agreement_trace)
        report = ViolationReport(kind="agreement", trace=trace)
    elif verdict.validity == "violated":
        trace = Execution.from_steps(spec, initial, verdict.validity_trace)
        report = ViolationReport(kind="validity", trace=trace)
    else:
        steps, pid = verdict.stuck
        trace = Execution.from_steps(spec, initial, steps)
        report = ViolationReport(kind="solo-termination", trace=trace,
                                 stuck_pids=(pid,), depth=args.depth)
    _emit(traceio.violation_lines(report), args.out)
    return VIOLATION


def _cmd_attack(args) -> int:
    spec = _load_spec(args.spec)
    if args.attack_kind == "sqrt":
        if args.target_r < 0:
            raise UsageError(f"--target-r must be nonnegative, got {args.target_r}")
        outcome = sqrt_run(spec, args.target_r, args.depth)
    else:
        outcome = linear_run(spec, args.m, args.depth)
    if isinstance(outcome, SqrtChainCertificate):
        _emit(traceio.sqrt_certificate_lines(outcome), args.out)
        print(f"chain complete: r={outcome.levels[-1].r}, "
              f"processes={outcome.levels[-1].budget_used}", file=sys.stderr)
        return OK
    if isinstance(outcome, LinearChainCertificate):
        _emit(traceio.linear_certificate_lines(outcome), args.out)
        print(f"chain complete: r={outcome.levels[-1].r}, "
              f"pairs={len(outcome.levels[-1].pair_ids)}, "
              f"registers written={outcome.registers_written}", file=sys.stderr)
        return OK
    if isinstance(outcome, ViolationReport):
        _emit(traceio.violation_lines(outcome), args.out)
        print(f"violation: {outcome.kind}", file=sys.stderr)
        return VIOLATION
    print(f"inconclusive: {outcome.reason}", file=sys.stderr)
    if args.out:
        lines = traceio.inconclusive_lines(spec, outcome.reason, args.depth)
        traceio.write_lines(args.out, lines)
    return INCONCLUSIVE


def _cmd_valency(args) -> int:
    if args.at is not None and not args.trace:
        raise UsageError("--at needs --trace: it counts steps of the trace")
    if args.m is not None and args.mode == "solo":
        raise UsageError("--m needs --mode reserving: a solo query has no register budget")
    spec = _load_spec(args.spec)
    if args.trace:
        config = traceio.first_trace(spec, _read_file(args.trace), args.at).final
    else:
        config = initial_configuration(spec, _bits(args.inputs))
    if args.pidset is not None:
        pids = _pids(args.pidset, len(config.procs))
    else:
        pids = list(range(len(config.procs)))
    m = args.m
    if args.mode == "reserving":
        if m is None:
            raise UsageError("--mode reserving requires --m")
        # with fewer than m + 1 active units the library calls both decisions
        # refuted ("degenerate"), which says nothing about reachability here
        active = sum(config.proc(pid).active for pid in pids)
        if active < m + 1:
            raise UsageError(f"--mode reserving --m {m} needs at least {m + 1} active "
                             f"processes in the set, got {active}")
    report = valency(spec, config, pids, m, args.depth, args.mode)
    out = {
        "mode": args.mode,
        "set": pids,
        "m": m,
        "depth": args.depth,
        "classification": report.classify(),
        "zero": report.zero.status,
        "one": report.one.status,
    }
    print(json.dumps(out, sort_keys=True))
    if report.classify() == "unknown":
        return INCONCLUSIVE
    return OK


def _cmd_replay(args) -> int:
    summary = traceio.replay_file(_read_file(args.file))
    print(json.dumps(summary, sort_keys=True))
    return OK


def _cmd_zoo(args) -> int:
    if args.zoo_cmd == "list":
        for entry in zoo.list_zoo():
            print(f"{entry.name}\t{entry.intent}\t{entry.scale_notes}")
        return OK
    sys.stdout.write(zoo.entry(args.name).text)
    return OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # a negative search budget or m would read as "no run exists", a
        # negative state bound as a sweep truncated at its root, and a
        # negative --at as a slice that drops the trace's last steps
        if getattr(args, "depth", 0) < 0:
            raise UsageError(f"--depth must be nonnegative, got {args.depth}")
        if (getattr(args, "m", None) or 0) < 0:
            raise UsageError(f"--m must be nonnegative, got {args.m}")
        if (getattr(args, "at", None) or 0) < 0:
            raise UsageError(f"--at must be nonnegative, got {args.at}")
        if getattr(args, "max_states", 0) < 0:
            raise UsageError(f"--max-states must be nonnegative, got {args.max_states}")
        if args.command == "check":
            code = _cmd_check(args)
        elif args.command == "attack":
            code = _cmd_attack(args)
        elif args.command == "valency":
            code = _cmd_valency(args)
        elif args.command == "replay":
            code = _cmd_replay(args)
        else:
            code = _cmd_zoo(args)
    except (SpecError, OSError, UnicodeDecodeError, KeyError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        code = USAGE
    except traceio.ReplayError as e:
        print(f"replay error: {e}", file=sys.stderr)
        code = USAGE
    except EngineError as e:
        print(f"engine error: {e}", file=sys.stderr)
        code = USAGE
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
