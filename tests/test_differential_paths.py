"""Cross-path differential harness over every answer-producing engine.

Four paths can answer a question batch — baseline (Fig. 5a), column
(Fig. 5b), column+zero-skip (§3.2) and sharded (§3.1 scale-out) — and
the repo's correctness story is that they agree.  This harness sweeps
the full ``algorithm × zero_skip × stable_softmax × cache ×
execution-backend`` grid
through :meth:`MnnFastEngine.answer` on seeded random engines and
asserts pairwise agreement under the documented tolerance bounds:

* **logits**: all paths with ``th_skip = 0`` are algebraic
  rearrangements of the same expression — they agree to
  ``LOGIT_TOLERANCE`` (1e-10, observed ~1e-15).  Zero-skipping is
  only compared at ``th_skip = 0``, where it must be exact; a positive
  threshold legitimately changes the output.
* **argmax answers**: identical across every configuration pair.
* **cache**: attaching an embedding cache is a pure routing change —
  the embedded question (and hence every downstream number) is
  bitwise identical with and without it.
"""

import itertools

import numpy as np
import pytest

from repro.core import (
    ChunkConfig,
    EngineConfig,
    EngineWeights,
    ExecutionConfig,
    MemNNConfig,
    MnnFastEngine,
    ZeroSkipConfig,
)

#: Documented pairwise logit-agreement bound for exact paths.
LOGIT_TOLERANCE = 1e-10

SEEDS = (0, 1, 2)


def _engine_configs():
    """Every answer-producing engine path, at th_skip=0 (exact)."""
    zero_skip_off = ZeroSkipConfig(0.0)
    zero_skip_zero_threshold = ZeroSkipConfig(0.0, mode="exp")
    configs = {}
    for stable in (True, False):
        configs[("baseline", stable)] = EngineConfig(
            algorithm="baseline", stable_softmax=stable
        )
        configs[("column", stable)] = EngineConfig(
            algorithm="column", chunk=ChunkConfig(16), stable_softmax=stable
        )
        configs[("column+skip0", stable)] = EngineConfig(
            algorithm="column",
            chunk=ChunkConfig(16),
            zero_skip=zero_skip_zero_threshold,
            stable_softmax=stable,
        )
        configs[("sharded-contig", stable)] = EngineConfig(
            algorithm="sharded",
            num_shards=3,
            shard_policy="contiguous",
            chunk=ChunkConfig(16),
            stable_softmax=stable,
        )
        configs[("sharded-strided", stable)] = EngineConfig(
            algorithm="sharded",
            num_shards=4,
            shard_policy="strided",
            chunk=ChunkConfig(16),
            stable_softmax=stable,
        )
        configs[("zero_skip_off", stable)] = EngineConfig(
            algorithm="column", zero_skip=zero_skip_off, stable_softmax=stable
        )
        configs[("sharded-process2", stable)] = EngineConfig(
            algorithm="sharded",
            num_shards=4,
            shard_policy="contiguous",
            chunk=ChunkConfig(16),
            stable_softmax=stable,
            execution=ExecutionConfig(backend="process", num_workers=2),
        )
    return configs


class DictCache:
    """Minimal VectorCache backed by a dict (always hits after insert)."""

    def __init__(self):
        self.store = {}

    def lookup(self, word_id):
        return self.store.get(word_id)

    def insert(self, word_id, vector):
        self.store[word_id] = np.array(vector)


def _random_problem(seed):
    rng = np.random.default_rng(seed)
    config = MemNNConfig(
        embedding_dim=16,
        num_sentences=200,
        num_questions=4,
        vocab_size=60,
        max_words=6,
        hops=2,
    )
    weights = EngineWeights.random(config, rng=rng)
    story = rng.integers(1, 60, size=(53, 6))
    questions = rng.integers(1, 60, size=(4, 6))
    return config, weights, story, questions


def _answers(seed, use_cache=False):
    config, weights, story, questions = _random_problem(seed)
    results = {}
    for key, engine_config in _engine_configs().items():
        engine = MnnFastEngine(config, weights, engine_config=engine_config)
        engine.store_story(story)
        cache = DictCache() if use_cache else None
        results[key] = engine.answer(questions, cache=cache)
        # Process-backed engines own worker pools; release them rather
        # than leaving teardown to GC while the grid keeps growing.
        engine.close()
    return results


@pytest.mark.parametrize("seed", SEEDS)
class TestAllPathsAgree:
    def test_every_pair_of_paths_agrees(self, seed):
        results = _answers(seed)
        for (ka, ra), (kb, rb) in itertools.combinations(results.items(), 2):
            np.testing.assert_allclose(
                ra.logits,
                rb.logits,
                rtol=LOGIT_TOLERANCE,
                atol=LOGIT_TOLERANCE,
                err_msg=f"logits diverge between {ka} and {kb}",
            )
            np.testing.assert_array_equal(
                ra.answer_ids,
                rb.answer_ids,
                err_msg=f"argmax answers diverge between {ka} and {kb}",
            )

    def test_responses_and_probabilities_agree(self, seed):
        results = _answers(seed)
        reference = results[("baseline", True)]
        for key, result in results.items():
            np.testing.assert_allclose(
                result.response,
                reference.response,
                rtol=LOGIT_TOLERANCE,
                atol=LOGIT_TOLERANCE,
                err_msg=f"response diverges on {key}",
            )
            np.testing.assert_allclose(
                result.answer_probabilities,
                reference.answer_probabilities,
                rtol=LOGIT_TOLERANCE,
                atol=LOGIT_TOLERANCE,
                err_msg=f"answer probabilities diverge on {key}",
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_embedding_cache_is_pure_routing(seed):
    """The cache changes where vectors come from, never their values:
    every path's logits are bitwise identical with and without it."""
    without = _answers(seed, use_cache=False)
    with_cache = _answers(seed, use_cache=True)
    for key in without:
        np.testing.assert_array_equal(
            without[key].logits,
            with_cache[key].logits,
            err_msg=f"cache changed the numbers on {key}",
        )
    assert all(r.cache_misses > 0 for r in with_cache.values())


@pytest.mark.parametrize("mode", ("probability", "exp"))
def test_positive_threshold_still_agrees_on_answers(mode):
    """A small positive th_skip may perturb logits (documented: it
    drops sub-threshold mass) but must not flip the argmax answer on
    well-separated problems."""
    config, weights, story, questions = _random_problem(0)
    exact = MnnFastEngine(
        config, weights, engine_config=EngineConfig(algorithm="column")
    )
    exact.store_story(story)
    skipping = MnnFastEngine(
        config,
        weights,
        engine_config=EngineConfig(
            algorithm="column", zero_skip=ZeroSkipConfig(0.001, mode=mode)
        ),
    )
    skipping.store_story(story)
    np.testing.assert_array_equal(
        skipping.answer(questions).answer_ids,
        exact.answer(questions).answer_ids,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_disabled_gate_is_bit_identical_across_grid(seed):
    """The early-exit gate at threshold 0 is OFF, not "on with an
    unreachable bar": every engine path — the full algorithm ×
    zero-skip × sharded × execution grid plus the store tier and the
    top-k tier — produces bitwise-identical logits with and without
    ``with_early_exit(0.0)``, and the emitted trace records zero
    exits."""
    config, weights, story, questions = _random_problem(seed)
    grid = dict(_engine_configs())
    grid[("out-of-core", True)] = EngineConfig.out_of_core()
    grid[("topk", True)] = EngineConfig(algorithm="column").with_topk(
        nprobe=2, min_rows=0
    )
    for key, engine_config in grid.items():
        plain = MnnFastEngine(config, weights, engine_config=engine_config)
        gated = MnnFastEngine(
            config, weights,
            engine_config=engine_config.with_early_exit(0.0),
        )
        for engine in (plain, gated):
            engine.store_story(story)
        reference = plain.answer(questions)
        result = gated.answer(questions)
        plain.close()
        gated.close()
        np.testing.assert_array_equal(
            reference.logits,
            result.logits,
            err_msg=f"threshold-0 gate changed the numbers on {key}",
        )
        trace = result.hop_trace
        assert trace.num_exited == 0, key
        assert list(trace.hops_run) == [config.hops] * len(questions), key
        assert trace.confidence == [], key


def test_sharded_zero_skip_exact_at_zero_threshold():
    """Sharding composes with the zero-skip flag: at th=0 the skip
    mask keeps every row, so sharded+skip equals plain baseline."""
    config, weights, story, questions = _random_problem(1)
    engine_config = EngineConfig(
        algorithm="sharded",
        num_shards=4,
        zero_skip=ZeroSkipConfig(0.0, mode="exp"),
    )
    sharded = MnnFastEngine(config, weights, engine_config=engine_config)
    sharded.store_story(story)
    baseline = MnnFastEngine(
        config, weights, engine_config=EngineConfig.baseline()
    )
    baseline.store_story(story)
    np.testing.assert_allclose(
        sharded.answer(questions).logits,
        baseline.answer(questions).logits,
        rtol=LOGIT_TOLERANCE,
        atol=LOGIT_TOLERANCE,
    )
