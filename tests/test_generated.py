"""Both attacks on generated algorithms, every outcome checked by replay.

A spec with k registers cannot force more than k of them, so a chain longer
than that, or any exception but an inconclusive result, is a defect of the
engine; so is a file the attack writes that its own replay rejects."""

from hypothesis import HealthCheck, given, settings

from regforce import traceio
from regforce.linear_attack import linear_run
from regforce.model import load_algorithm
from regforce.reports import Inconclusive, LinearChainCertificate, SqrtChainCertificate
from regforce.sqrt_attack import sqrt_run

from conftest import algorithm_texts

DEPTH = 32


def _file(spec, outcome) -> bytes:
    """The file `attack --out` writes for `outcome`."""
    if isinstance(outcome, SqrtChainCertificate):
        lines = traceio.sqrt_certificate_lines(outcome)
    elif isinstance(outcome, LinearChainCertificate):
        lines = traceio.linear_certificate_lines(outcome)
    elif isinstance(outcome, Inconclusive):
        lines = traceio.inconclusive_lines(spec, outcome.reason, DEPTH)
    else:
        lines = traceio.violation_lines(outcome)
    return "".join(line + "\n" for line in lines).encode()


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(algorithm_texts())
def test_attacks_on_generated_algorithms_replay_and_stay_within_k(text):
    spec = load_algorithm(text)
    k = spec.register_count
    for outcome in (sqrt_run(spec, k + 1, DEPTH), linear_run(spec, k, DEPTH)):
        if isinstance(outcome, (SqrtChainCertificate, LinearChainCertificate)):
            assert outcome.levels[-1].r <= k, text
        # raises unless the file re-executes and its violation is confirmed
        traceio.replay_file(_file(spec, outcome))
