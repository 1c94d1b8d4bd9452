"""Both attacks on generated algorithms, every outcome checked by replay.

A spec with k registers cannot force more than k of them, so a chain longer
than that, or any exception but an inconclusive result, is a defect of the
engine; so is a file the attack writes that its own replay rejects.  The
generator draws almost no chain, so three texts whose linear attack ends in a
certificate run first, and their certificates are replayed too."""

from hypothesis import HealthCheck, example, given, settings

from regforce import traceio, zoo
from regforce.linear_attack import linear_run
from regforce.model import load_algorithm
from regforce.reports import Inconclusive, LinearChainCertificate, SqrtChainCertificate
from regforce.sqrt_attack import sqrt_run

from conftest import TWO_WRITES_ONE_REGISTER, algorithm_texts

DEPTH = 32
# texts whose linear attack at m = k ends in a chain
CHAIN_TEXTS = (TWO_WRITES_ONE_REGISTER, zoo.CLAIM_COMMIT, zoo.ONE_REGISTER_FLAG)


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
@example(CHAIN_TEXTS[0])
@example(CHAIN_TEXTS[1])
@example(CHAIN_TEXTS[2])
def test_attacks_on_generated_algorithms_replay_and_stay_within_k(text):
    spec = load_algorithm(text)
    k = spec.register_count
    for outcome in (sqrt_run(spec, k + 1, DEPTH), linear_run(spec, k, DEPTH)):
        if isinstance(outcome, (SqrtChainCertificate, LinearChainCertificate)):
            assert outcome.levels[-1].r <= k, text
        # raises unless the file re-executes and its violation is confirmed
        traceio.replay_file(_file(spec, outcome))


def test_the_examples_end_in_linear_chains():
    for text in CHAIN_TEXTS:
        spec = load_algorithm(text)
        outcome = linear_run(spec, spec.register_count, DEPTH)
        assert isinstance(outcome, LinearChainCertificate), (spec.name, outcome)
