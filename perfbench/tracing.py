"""Per-layer tracing installed from outside the program.

`Tracer.install()` wraps public functions of the `regforce` modules and
rebinds each wrapper at every name a loaded `regforce` module binds the
original to (so `cli.valency`, `oracle.step_with_outcome` and
`linear_attack.covered_injectively` are all caught); `uninstall()` puts the
originals back.  Nothing in the program changes.

Wrapped functions either record a span `[name, start, end, parent, job,
steps at start, steps at end]`, kept in memory until the repetition ends, or,
for the very hot ones, only bump a counter.  Private functions are never
wrapped: the oracle's solo searches run through `valency._Search` and show
only in `oracle.check_s` and `model.step_calls`.
"""

from __future__ import annotations

import sys
import time

# Hot functions: a counter each, no span.
COUNTED = {
    "model.step_with_outcome": "step",
    "model.canonicalize": "canonicalize",
    "valency.covered_injectively": "cover",
}

# Span names, by the module-level function they wrap.
SPANNED = [
    "model.load_algorithm",
    "valency.valency",
    "valency.reserving_search",
    "valency.solo_search",
    "valency.solo_terminating",
    "valency.construct_reserving",
    "valency.is_reserving",
    "valency.disjoint_witnesses",
    "oracle.oracle_check",
    "oracle.replay_violation",
    "execution.mirror_history",
    "execution.insert_step",
    "execution.add_process",
    "pairs.split_pair",
    "pairs.unite_pair",
    "pairs.duplicate_pair",
    "pairs.new_pair",
    "linear_attack.linear_base",
    "linear_attack.linear_step",
    "linear_attack.verify_properties",
    "sqrt_attack.sqrt_step",
    "sqrt_attack.check_level",
    "traceio.sqrt_certificate_lines",
    "traceio.linear_certificate_lines",
    "traceio.violation_lines",
    "traceio.inconclusive_lines",
    "traceio.write_lines",
    "traceio.replay_file",
]

# Methods of `execution.Execution` that get spans.
METHODS = ["from_steps", "extend_steps"]

VALENCY_FAMILY = {
    "valency.valency", "valency.reserving_search", "valency.solo_search",
    "valency.solo_terminating", "valency.construct_reserving",
    "valency.is_reserving", "valency.disjoint_witnesses",
}
EMITTERS = {
    "traceio.sqrt_certificate_lines", "traceio.linear_certificate_lines",
    "traceio.violation_lines", "traceio.inconclusive_lines",
}
SURGERY = {"execution.mirror_history", "execution.insert_step", "execution.add_process"}
PAIR_OPS = {"pairs.split_pair", "pairs.unite_pair", "pairs.duplicate_pair", "pairs.new_pair"}
LINEAR_LEVELS = 3

# name -> unit, in report order
LAYER_METRICS = {
    "model.step_calls": "count",
    "model.canonicalize_calls": "count",
    "model.load_s": "s",
    "valency.query_calls": "count",
    "valency.query_hit_ratio": "1",
    "valency.query_self_s": "s",
    "valency.reserving_searches": "count",
    "valency.reserving_self_s": "s",
    "valency.cover_checks": "count",
    "valency.solo_searches": "count",
    "valency.solo_self_s": "s",
    "valency.construct_s": "s",
    "valency.steps_per_s": "1/s",
    "valency.self_share": "1",
    "oracle.check_s": "s",
    "oracle.states": "count",
    "oracle.states_per_s": "1/s",
    "oracle.replay_violation_s": "s",
    "execution.replayed_steps": "count",
    "execution.from_steps_s": "s",
    "execution.extend_steps_s": "s",
    "execution.surgery_s": "s",
    "pairs.ops": "count",
    "pairs.s": "s",
    "linear_attack.base_s": "s",
    **{f"linear_attack.level{r}_s": "s" for r in range(1, LINEAR_LEVELS + 1)},
    "linear_attack.verify_s": "s",
    "sqrt_attack.level_s": "s",
    "sqrt_attack.check_level_s": "s",
    "traceio.emit_records": "count",
    "traceio.emit_s": "s",
    "traceio.replay_s": "s",
    "traceio.replay_records_per_s": "1/s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters for one repetition."""

    def __init__(self):
        self.spans: list = []
        self.counts = {key: 0 for key in COUNTED.values()}
        self.counts.update(query_hits=0, oracle_states=0, emit_records=0,
                           replayed_steps=0, replay_records=0)
        self.job = None
        self._stack: list = []
        self._reports: dict = {}  # id -> report, kept alive so ids stay unique
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name, fn, after=None):
        """`name` is a string, or a function of the call's arguments."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.job, counts["step"], 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[6] = counts["step"]
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after(self, name):
        counts = self.counts
        if name == "valency.valency":
            def after(args, report):
                if id(report) in self._reports:
                    counts["query_hits"] += 1
                else:
                    self._reports[id(report)] = report
            return after
        if name == "oracle.oracle_check":
            def after(args, verdict):
                counts["oracle_states"] += verdict.explored
            return after
        if name in EMITTERS:
            def after(args, lines):
                counts["emit_records"] += len(lines)
            return after
        if name == "traceio.replay_file":
            def after(args, summary):
                counts["replay_records"] += sum(1 for line in args[0].splitlines() if line.strip())
            return after
        return None

    def run_job(self, label, fn):
        """Run `fn()` as the root span of one job."""
        self.job = label
        try:
            return self._span("job", fn)()
        finally:
            self.job = None

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "regforce" or n.startswith("regforce.")]
        plan = [(_resolve(qual), self._counter(key, _resolve(qual)))
                for qual, key in COUNTED.items()]
        plan += [(_resolve(qual), self._span(_span_name(qual), _resolve(qual), self._after(qual)))
                 for qual in SPANNED]
        for original, wrapper in plan:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        execution_cls = sys.modules["regforce.execution"].Execution
        for attr in METHODS:
            raw = execution_cls.__dict__[attr]
            self._restore.append((execution_cls, attr, raw))
            setattr(execution_cls, attr, self._method(attr, raw))

    def _method(self, attr, raw):
        name = f"execution.Execution.{attr}"
        if isinstance(raw, classmethod):
            counts = self.counts

            def from_steps(cls, spec, initial, steps):
                steps = tuple(steps)
                counts["replayed_steps"] += len(steps)
                return raw.__func__(cls, spec, initial, steps)
            return classmethod(self._span(name, from_steps))
        return self._span(name, raw)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- metrics ----------------------------------------------------------

    def metrics(self, run_s: float) -> dict:
        """The per-layer metrics of `LAYER_METRICS` but `trace.overhead_s`,
        which needs an untraced run; `run_s` is this traced run's.

        A layer the workload never enters reports 0."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]

        def outer(names):
            # spans in `names` with no ancestor in `names`: their time is
            # inclusive and counted once even under recursion
            picked = []
            for i, rec in enumerate(spans):
                if rec[0] not in names:
                    continue
                p = rec[3]
                while p >= 0 and spans[p][0] not in names:
                    p = spans[p][3]
                if p < 0:
                    picked.append(i)
            return picked

        def incl(*names):
            return sum(spans[i][2] - spans[i][1] for i in outer(set(names)))

        def selfs(*names):
            names = set(names)
            return sum(rec[2] - rec[1] - child[i]
                       for i, rec in enumerate(spans) if rec[0] in names)

        def calls(*names):
            names = set(names)
            return sum(1 for rec in spans if rec[0] in names)

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        family = outer(VALENCY_FAMILY)
        family_time = sum(spans[i][2] - spans[i][1] for i in family)
        family_steps = sum(spans[i][6] - spans[i][5] for i in family)
        queries = calls("valency.valency")
        check_s = incl("oracle.oracle_check")
        replay_s = incl("traceio.replay_file")
        out = {
            "model.step_calls": c["step"],
            "model.canonicalize_calls": c["canonicalize"],
            "model.load_s": incl("model.load_algorithm"),
            "valency.query_calls": queries,
            "valency.query_hit_ratio": ratio(c["query_hits"], queries),
            "valency.query_self_s": selfs("valency.valency"),
            "valency.reserving_searches": calls("valency.reserving_search"),
            "valency.reserving_self_s": selfs("valency.reserving_search"),
            "valency.cover_checks": c["cover"],
            "valency.solo_searches": calls("valency.solo_search", "valency.solo_terminating"),
            "valency.solo_self_s": selfs("valency.solo_search", "valency.solo_terminating"),
            "valency.construct_s": incl("valency.construct_reserving"),
            "valency.steps_per_s": ratio(family_steps, family_time),
            "valency.self_share": ratio(selfs(*VALENCY_FAMILY), run_s),
            "oracle.check_s": check_s,
            "oracle.states": c["oracle_states"],
            "oracle.states_per_s": ratio(c["oracle_states"], check_s),
            "oracle.replay_violation_s": incl("oracle.replay_violation"),
            "execution.replayed_steps": c["replayed_steps"],
            "execution.from_steps_s": incl("execution.Execution.from_steps"),
            "execution.extend_steps_s": incl("execution.Execution.extend_steps"),
            "execution.surgery_s": incl(*SURGERY),
            "pairs.ops": calls(*PAIR_OPS),
            "pairs.s": incl(*PAIR_OPS),
            "linear_attack.base_s": incl("linear_attack.linear_base"),
            **{f"linear_attack.level{r}_s": incl(f"linear_attack.level{r}")
               for r in range(1, LINEAR_LEVELS + 1)},
            "linear_attack.verify_s": incl("linear_attack.verify_properties"),
            "sqrt_attack.level_s": incl("sqrt_attack.sqrt_step"),
            "sqrt_attack.check_level_s": incl("sqrt_attack.check_level"),
            "traceio.emit_records": c["emit_records"],
            "traceio.emit_s": incl(*EMITTERS, "traceio.write_lines"),
            "traceio.replay_s": replay_s,
            "traceio.replay_records_per_s": ratio(c["replay_records"], replay_s),
        }
        return out


def _span_name(qual):
    if qual == "linear_attack.linear_step":
        # one span name per level built: linear_step(level) builds level.r + 1
        return lambda args: f"linear_attack.level{args[0].r + 1}"
    return qual


def _resolve(qual):
    # `regforce` re-exports some functions under its submodules' names
    # (`regforce.valency` is the function), so look modules up by full name
    module, _, attr = qual.partition(".")
    return getattr(sys.modules["regforce." + module], attr)
