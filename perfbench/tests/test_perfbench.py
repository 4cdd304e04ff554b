"""Self-tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import numpy as np
import pytest

import oracle
from compare import verdict
from openloop import run_open_loop
from sample_stats import MIN_BEYOND, samples_needed, tail
from repro.core import (
    FLOAT32_LOGIT_TOLERANCE,
    BatchConfig,
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
)


def small_engine(dtype: str):
    network = MemNNConfig(
        embedding_dim=8, num_sentences=400, vocab_size=50, max_words=5, hops=3
    )
    rng = np.random.default_rng(3)
    stories = rng.integers(0, 50, size=(300, 5))
    questions = rng.integers(1, 50, size=(16, 5))
    weights = EngineWeights.random(network, num_answers=20, rng=rng, scale=0.3)
    engine = MnnFastEngine(
        network,
        weights=weights,
        engine_config=EngineConfig().with_chunking(chunk_size=64).with_execution(
            dtype=dtype
        ),
    )
    engine.store_story(stories)
    return engine, weights, stories, questions


def reference_for(weights, stories, questions, rows=None):
    m_in = oracle.embed(weights.embedding_a, stories)
    m_out = oracle.embed(weights.embedding_c, stories)
    return oracle.reference(weights, m_in, m_out, questions, hops=3, rows=rows)


def test_oracle_matches_the_float64_engine():
    engine, weights, stories, questions = small_engine("float64")
    result = engine.answer(questions)
    ref = reference_for(weights, stories, questions)
    np.testing.assert_allclose(result.logits, ref.logits, rtol=1e-10, atol=1e-10)


def test_oracle_accepts_float32_and_rejects_a_perturbed_answer():
    engine, weights, stories, questions = small_engine("float32")
    result = engine.answer(questions)
    ref = reference_for(weights, stories, questions)
    tol = FLOAT32_LOGIT_TOLERANCE
    assert not oracle.mismatches(ref.logits, result.answer_ids, result.logits, tol).any()

    logits = result.logits.copy()
    logits[5, 3] += 10 * tol * (1 + abs(logits[5, 3]))
    wrong = oracle.mismatches(ref.logits, result.answer_ids, logits, tol)
    assert wrong.tolist() == [i == 5 for i in range(16)]

    ids = result.answer_ids.copy()
    ids[2] = (ids[2] + 1) % logits.shape[1]
    assert oracle.mismatches(ref.logits, ids, result.logits, tol)[2]


def test_oracle_scores_a_prefix_of_the_memory():
    engine, weights, stories, questions = small_engine("float64")
    grown = np.vstack([stories, stories[:40]])
    engine.store_story(stories[:40])
    assert not oracle.mismatches(
        reference_for(weights, grown, questions).logits,
        engine.answer(questions).answer_ids,
        engine.answer(questions).logits,
        1e-10,
    ).any()
    before = reference_for(weights, grown, questions, rows=300)
    np.testing.assert_allclose(
        before.logits, reference_for(weights, stories, questions).logits, atol=1e-12
    )


def test_tail_needs_ten_samples_beyond_it():
    assert samples_needed(99) == 1000
    assert samples_needed(95) == 200
    assert samples_needed(50) == 20
    with pytest.raises(ValueError):
        tail(list(range(999)), 99)
    values = list(range(1000))
    p99 = tail(values, 99)
    assert sum(v > p99 for v in values) >= MIN_BEYOND
    assert tail(list(range(200)), 95) == pytest.approx(np.percentile(range(200), 95))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_latency_counts_from_due_time():
    clock = FakeClock()
    due = [0.001 * i for i in range(100)]
    service, stall = 0.0005, 0.050

    def serve(members):
        clock.now += service + (stall if 10 in members else 0.0)

    result = run_open_loop(
        due, serve, BatchConfig(max_batch_size=4, max_wait=0.0), clock=clock,
        sleep=clock.sleep,
    )
    assert result.failed == 0
    stalled_until = next(
        i for i in range(100) if result.latencies[i] < 0.005 and i > 10
    )
    assert stalled_until > 50
    # Requests due during the stall wait for it, counted from their due time.
    for i in range(12, 50):
        assert result.latencies[i] >= 0.050 - (due[i] - due[10]) - 1e-9
        assert result.lags[i] > 0
    # Before the stall, latency is the service time.
    assert max(result.latencies[:10]) < 0.002


def test_open_loop_counts_failed_batches_as_missing():
    clock = FakeClock()

    def serve(members):
        clock.now += 0.001
        if 3 in members:
            raise RuntimeError("boom")

    result = run_open_loop(
        [0.01 * i for i in range(8)], serve, BatchConfig(max_batch_size=1, max_wait=0.0),
        clock=clock, sleep=clock.sleep,
    )
    assert result.failed == 1
    assert result.latencies[3] == float("inf")
    assert result.errors == ["RuntimeError: boom"]


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]
    assert verdict(base, base, bound=0.1, better="lower") == "unchanged"
    assert verdict(base, [x * 1.3 for x in base], bound=0.1, better="lower") == "worse"
    assert verdict(base, [x * 0.8 for x in base], bound=0.1, better="lower") == "better"
    assert verdict(base, [x * 0.8 for x in base], bound=0.1, better="higher") == "worse"
    noisy = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    assert verdict(base, noisy, bound=0.1, better="lower") == "unresolved"
    assert verdict(noisy, base, bound=0.1, better="lower") == "unresolved"
    # Spread wider than the bound, but every new run beats every base run.
    assert verdict(noisy, [10.0 + i for i in range(10)], 0.1, "lower") == "better"
