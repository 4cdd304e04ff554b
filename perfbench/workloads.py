"""The three benchmark workloads, driven through the engine's public API.

Each workload generates its inputs from the seed, sets the engine up
``SETUPS`` times (reporting the median set-up time), measures a timed
phase, and then checks every answer off the clock.  ``run(name, ...)``
returns an :class:`Outcome` holding the end-to-end metrics (untraced)
or the per-layer metrics (traced).  The README beside this file says
why each workload exists and which metrics it should move.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from openloop import run_open_loop
from sample_stats import median, tail
from repro.core import (
    FLOAT32_LOGIT_TOLERANCE,
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
)
from repro.docqa import (
    QrelsLedger,
    RetrievalRun,
    docqa_network,
    docqa_weights,
    docqa_workload,
    evaluate_retriever_runs,
    generate_queries,
    run_retriever,
    synthetic_corpus,
)
from repro.index.harness import synthetic_topical_workload

#: Engine set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Questions per engine pass in the closed loops.
BATCH = 16
#: Distinct question batches a closed loop cycles through.
POOL_BATCHES = 16
#: Answer-layer width (a bAbI-sized answer vocabulary).
NUM_ANSWERS = 1000
#: Question samples a run collects at least, so p99 has ten beyond it.
MIN_QUESTIONS = 1000
#: Rank cutoff of the qrels metrics.
RECALL_K = 4

# scan: Table 1's CPU shape at a runnable ns.
SCAN_ROWS = 200_000
# ingest_ooc: starting size, rows per write, planned writes, reads per write.
INGEST_ROWS = 100_000
INGEST_APPEND = 1_000
INGEST_MAX_APPENDS = 40
INGEST_READS = 4
# docqa_open: corpus, retrieval tier and serving policy.
DOCQA_DOCS = 64
DOCQA_ROWS_PER_DOC = 512
DOCQA_QUERIES = 512
DOCQA_EVAL_QUERIES = 128
DOCQA_NPROBE = 48
DOCQA_EXIT = 0.8
DOCQA_LADDER = (100, 500)
DOCQA_NOMINAL = 100
#: The corpus, queries and weights are part of the workload's definition;
#: the run's seed draws the request streams.
DOCQA_CORPUS_SEED = 0
DOCQA_SLO_S = 0.100
#: Recall@4 of the served engine may trail the float64 exact scan's by this much.
DOCQA_RECALL_SLACK = 0.1

#: Scratch space inside the checkout (the ingest_ooc spill), removed after a run.
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_run"


@dataclass
class Outcome:
    """One run's result: ``metrics`` maps name -> (value, unit)."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


@dataclass
class Pass:
    """What one engine pass returned that the checks and layers need."""

    latency: float
    nq: int
    answer_ids: np.ndarray
    logits: np.ndarray | None
    hops_run: float
    bytes_read: int
    flops: int
    store: object | None
    candidate_fraction: float | None
    tag: object = None


def record(batch, latency: float, tag=None, keep_logits: bool = True) -> Pass:
    """Keep the small parts of a ``BatchAnswer``."""
    result = batch.batch
    tiers = result.tier_stats()
    stores = [s for s in tiers["store"] if s is not None]
    index = [s for s in tiers["index"] if s is not None and s.used_index]
    return Pass(
        latency=latency,
        nq=batch.batch_size,
        answer_ids=np.array(result.answer_ids),
        logits=np.array(result.logits) if keep_logits else None,
        hops_run=float(np.mean(batch.hops_run)),
        bytes_read=result.stats.bytes_read,
        flops=result.stats.flops,
        store=stores[-1] if stores else None,
        candidate_fraction=(
            float(np.mean([s.candidate_fraction for s in index])) if index else None
        ),
        tag=tag,
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def question_latencies(passes: list[Pass]) -> list[float]:
    """Per-question latency: every question waits for its whole pass."""
    return [p.latency for p in passes for _ in range(p.nq)]


@contextlib.contextmanager
def collector_paused():
    """Collect now and pause the cyclic collector for a timed phase, so
    the harness's own garbage is not collected inside engine calls."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def timed(fn: Callable[[], object]) -> tuple[object, float]:
    began = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - began


# --- inputs ------------------------------------------------------------------


def topical_inputs(rows: int, capacity: int, seed: int):
    """Topical stories, question batches that each copy a stored row
    from the first ``rows``, and weights, all from ``seed``."""
    network = MemNNConfig(
        embedding_dim=48,
        num_sentences=capacity,
        num_questions=BATCH,
        vocab_size=50_000,
        max_words=12,
        hops=3,
    )
    rng = np.random.default_rng([seed, 0])
    stories, _ = synthetic_topical_workload(network, 0, rng=rng)
    supporting = rng.integers(0, rows, size=POOL_BATCHES * BATCH)
    questions = stories[supporting].copy()
    weights = EngineWeights.random(
        network, num_answers=NUM_ANSWERS, rng=np.random.default_rng([seed, 1])
    )
    return network, stories, questions, supporting, weights


def copied_row_qrels(supporting: np.ndarray) -> QrelsLedger:
    """One relevant row per question: the stored row it copies."""
    return QrelsLedger(judgments={i: {int(row): 2} for i, row in enumerate(supporting)})


def qrels_from_reference(ref: oracle.Reference, ledger: QrelsLedger, rows: int, hops: int):
    """Score the reference's final-hop ranking (query ``i`` is row
    ``i`` of ``ref``) against ``ledger``."""
    runs = [
        RetrievalRun(
            query_id=i,
            ranking=tuple(int(r) for r in ref.top_rows[i]),
            scores=tuple(float(s) for s in ref.top_scores[i]),
            hops_run=hops,
            num_rows=rows,
            used_index=False,
        )
        for i in range(len(ref.top_rows))
    ]
    return evaluate_retriever_runs(runs, ledger, k=RECALL_K)


# --- shared reporting ---------------------------------------------------------


def end_to_end(
    setup: list[float],
    writes: list[float],
    latencies: list[float],
    throughput: float,
    max_rate: float,
    recall: float,
    rss: float,
    attempted: int,
    failed: int,
) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (median(setup), "s"),
        "throughput_qps": (throughput, "q/s"),
        "latency_p50_ms": (1000 * median(latencies), "ms"),
        "latency_p95_ms": (1000 * tail(latencies, 95), "ms"),
        "latency_p99_ms": (1000 * tail(latencies, 99), "ms"),
        "write_p50_ms": (1000 * median(writes), "ms"),
        "max_rate_at_slo_qps": (max_rate, "q/s"),
        "recall_at_4": (recall, "frac"),
        "peak_rss_mb": (rss, "MB"),
        "success_rate": (1.0 - failed / attempted, "frac"),
    }


def numpy_floor_ms(nq: int, ns: int, ed: int, repeats: int = 7) -> float:
    """``softmax(u M_IN^T) M_OUT`` as one float32 GEMM pair (one hop)."""
    rng = np.random.default_rng(0)
    u = rng.standard_normal((nq, ed), dtype=np.float32)
    m_in = rng.standard_normal((ns, ed), dtype=np.float32)
    m_out = rng.standard_normal((ns, ed), dtype=np.float32)
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        scores = u @ m_in.T
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
        scores @ m_out
        times.append(time.perf_counter() - began)
    return 1000 * median(times)


def store_deltas(passes: list[Pass]) -> list:
    """Per-pass store ledgers from the cumulative per-solver ones (a
    solver rebuilt after a write starts its ledger from zero)."""
    deltas, previous = [], None
    for p in passes:
        current = p.store
        if current is None:
            deltas.append(None)
            continue
        if previous is None or current.chunks_served < previous.chunks_served:
            delta = current
        else:
            delta = type(current)(
                ram_bytes=current.ram_bytes - previous.ram_bytes,
                disk_bytes=current.disk_bytes - previous.disk_bytes,
                prefetch_hits=current.prefetch_hits - previous.prefetch_hits,
                prefetch_late=current.prefetch_late - previous.prefetch_late,
                demand_fetches=current.demand_fetches - previous.demand_fetches,
                stall_seconds=current.stall_seconds - previous.stall_seconds,
                chunks_served=current.chunks_served - previous.chunks_served,
            )
        deltas.append(delta)
        previous = current
    return deltas


def per_layer(
    tracer,
    setup_spans: list,
    passes: list[Pass],
    first_answer: list[float],
    untraced_rate: float,
    traced_rate: float,
    evaluation,
    error_rate: float,
    ed: int,
    batching: dict | None = None,
    bench: dict | None = None,
) -> dict[str, tuple[float, str]]:
    """The traced run's per-layer metrics (zero where a layer is idle)."""
    hop_spans = tracer.named("core.hop")
    if hop_spans:
        nq = int(median([s.attrs["nq"] for s in hop_spans]))
        ns = int(median([s.attrs["ns"] for s in hop_spans]))
        floor = numpy_floor_ms(nq, ns, ed)
    else:
        floor = 0.0
    hop = tracer.mean_ms("core.hop", self_time=True)
    builds = [
        s.seconds for s in setup_spans + tracer.spans if s.name == "index.build"
    ]
    n_pass = max(1, len(tracer.named("core.answer")))
    stores = [d for d in store_deltas(passes) if d is not None]
    served = sum(d.chunks_served for d in stores)
    fractions = [p.candidate_fraction for p in passes if p.candidate_fraction is not None]
    questions = sum(p.nq for p in passes)
    batching = batching or {}
    bench = bench or {}
    metrics = {
        "core.hop_ms": (hop, "ms"),
        "core.floor_ms": (floor, "ms"),
        "core.hop_x_floor": (hop / floor if floor else 0.0, "x"),
        "core.embed_ms": (tracer.mean_ms("core.embed"), "ms"),
        "core.answer_self_ms": (tracer.mean_ms("core.answer", self_time=True), "ms"),
        "core.hops_run_mean": (
            sum(p.hops_run * p.nq for p in passes) / questions, "hops"
        ),
        "core.bytes_read_per_q": (sum(p.bytes_read for p in passes) / questions, "B"),
        "core.flops_per_q": (sum(p.flops for p in passes) / questions, "flop"),
        "core.first_answer_ms": (1000 * median(first_answer), "ms"),
        "store.spill_ms": (tracer.mean_ms("store.spill"), "ms"),
        "store.read_chunk_ms": (1000 * tracer.total("store.read_chunk") / n_pass, "ms"),
        "store.stall_ms": (
            1000 * sum(d.stall_seconds for d in stores) / len(stores) if stores else 0.0,
            "ms",
        ),
        "store.prefetch_hit_rate": (
            sum(d.prefetch_hits for d in stores) / served if served else 0.0, "frac"
        ),
        "store.prefetch_late_frac": (
            sum(d.prefetch_late for d in stores) / served if served else 0.0, "frac"
        ),
        "store.disk_bytes_per_pass": (
            sum(d.disk_bytes for d in stores) / len(stores) if stores else 0.0, "B"
        ),
        "index.build_ms": (1000 * median(builds) if builds else 0.0, "ms"),
        "index.probe_ms": (tracer.mean_ms("index.probe"), "ms"),
        "index.topk_self_ms": (tracer.mean_ms("index.topk", self_time=True), "ms"),
        "index.candidate_fraction": (
            float(np.mean(fractions)) if fractions else 0.0, "frac"
        ),
        "batching.queue_wait_p50_ms": (batching.get("wait_p50_ms", 0.0), "ms"),
        "batching.queue_wait_p99_ms": (batching.get("wait_p99_ms", 0.0), "ms"),
        "batching.batch_size_mean": (questions / len(passes), "q"),
        "batching.fill_ratio": (questions / len(passes) / BATCH, "frac"),
    }
    for reason in ("full", "wait", "deadline", "flush"):
        metrics[f"batching.dispatch_{reason}"] = (
            batching.get(f"dispatch_{reason}", 0), "count"
        )
    metrics.update(
        {
            "docqa.mrr": (evaluation.mrr, "frac"),
            "docqa.span_hit_rate": (evaluation.span_hit_rate, "frac"),
            "bench.generator_lag_p99_ms": (bench.get("lag_p99_ms", 0.0), "ms"),
            "bench.backlog_end": (bench.get("backlog_end", 0), "count"),
            "bench.trace_coverage": (tracer.coverage("core.answer"), "frac"),
            "bench.trace_overhead_frac": (
                1.0 - traced_rate / untraced_rate if untraced_rate else 0.0, "frac"
            ),
            "bench.error_rate": (error_rate, "frac"),
        }
    )
    return metrics


def install_spans(tracer) -> None:
    """Wrap the public methods each layer is timed through."""
    from repro.core import ColumnMemNN
    from repro.index import IVFIndex, TopKMemNN
    from repro.store import MmapStore

    tracer.wrap(MnnFastEngine, "answer", "core.answer")
    tracer.wrap(MnnFastEngine, "embed_question", "core.embed")
    tracer.wrap(
        ColumnMemNN,
        "output",
        "core.hop",
        describe=lambda self, u, *a, **k: {"nq": len(u), "ns": self.num_sentences},
    )
    tracer.wrap(TopKMemNN, "output", "index.topk")
    tracer.wrap(IVFIndex, "build", "index.build")
    tracer.wrap(IVFIndex, "probe", "index.probe")
    tracer.wrap(MmapStore, "save", "store.spill")
    tracer.wrap(MmapStore, "read_chunk", "store.read_chunk")


# --- closed loops: scan and ingest_ooc ----------------------------------------


@dataclass
class ClosedLoop:
    """A closed-loop workload: one client, next pass after the last.

    ``cycle(engine, k)`` runs the ``k``-th unit of work and returns its
    passes, write times and first-answer-after-write times, or ``None``
    when the workload has no more work planned.
    """

    network: MemNNConfig
    weights: EngineWeights
    stories: np.ndarray
    questions: np.ndarray
    supporting: np.ndarray
    initial_rows: int
    make_engine: Callable[[], MnnFastEngine]
    cycle: Callable[[MnnFastEngine, int], tuple | None]


def question_batch(questions: np.ndarray, b: int) -> np.ndarray:
    b %= POOL_BATCHES
    return questions[b * BATCH : (b + 1) * BATCH]


def answer(engine: MnnFastEngine, questions: np.ndarray, b: int) -> Pass:
    """One checked closed-loop pass, tagged with what its reference needs."""
    q = question_batch(questions, b)
    batch, latency = timed(lambda: engine.answer_batch(q))
    return record(batch, latency, tag=(b % POOL_BATCHES, engine.num_stored_sentences))


def run_closed_loop(spec: ClosedLoop, seconds: float, tracer) -> Outcome:
    setup, bulk_writes, setup_first, checked = [], [], [], []
    engine = None
    for _ in range(SETUPS):
        if engine is not None:
            engine.close()
        if tracer is not None:
            tracer.enabled = True
        began = time.perf_counter()
        engine = spec.make_engine()
        _, write = timed(lambda: engine.store_story(spec.stories[: spec.initial_rows]))
        warm = [answer(engine, spec.questions, b) for b in range(2)]
        setup.append(time.perf_counter() - began)
        bulk_writes.append(write)
        setup_first.append(warm[0].latency)
        checked += warm
        if tracer is not None:
            tracer.enabled = False
    setup_spans = tracer.take() if tracer is not None else []
    # Timed phase.  The traced run alternates untraced and traced
    # cycles, so both see the same memory size, and reports the layers
    # from the traced ones; the rates of the two give the overhead.
    # Rates are questions per cycle over the median cycle time, which a
    # short burst of host contention cannot drag far.
    passes, writes, first = [], [], []
    cycle_seconds: dict[bool, list[float]] = {False: [], True: []}
    cycle_questions = 0
    began = time.perf_counter()
    try:
        with collector_paused():
            for k in range(10**9):
                traced = tracer is not None and k % 2 == 1
                if tracer is not None:
                    tracer.enabled = traced
                cycle_began = time.perf_counter()
                done = spec.cycle(engine, k)
                if tracer is not None:
                    tracer.enabled = False
                if done is None:
                    break
                cycle_seconds[traced].append(time.perf_counter() - cycle_began)
                cycle_questions = sum(p.nq for p in done[0])
                checked.extend(done[0])
                if traced or tracer is None:
                    passes += done[0]
                    writes += done[1]
                    first += done[2]
                enough = (
                    len(cycle_seconds[True]) > 0
                    if tracer is not None
                    else len(passes) * BATCH >= MIN_QUESTIONS
                )
                if enough and time.perf_counter() - began >= seconds:
                    break
        rss = peak_rss_mb()
        final_rows = engine.num_stored_sentences
    finally:
        engine.close()
    rate = cycle_questions / median(cycle_seconds[tracer is not None])
    untraced_rate = cycle_questions / median(cycle_seconds[False])

    # Off the clock: every answer against the float64 reference over
    # the memory as it stood at that pass, then qrels scoring.
    m_in = oracle.embed(spec.weights.embedding_a, spec.stories[:final_rows])
    m_out = oracle.embed(spec.weights.embedding_c, spec.stories[:final_rows])
    hops = spec.network.hops
    by_rows: dict[int, set[int]] = {final_rows: set(range(POOL_BATCHES))}
    for b, rows in {p.tag for p in checked}:
        by_rows.setdefault(rows, set()).add(b)
    refs = {}
    for rows, batches in by_rows.items():
        order = sorted(batches)
        q = np.concatenate([question_batch(spec.questions, b) for b in order])
        ref = oracle.reference(spec.weights, m_in, m_out, q, hops, rows=rows)
        for i, b in enumerate(order):
            refs[(b, rows)] = ref.logits[i * BATCH : (i + 1) * BATCH]
        if rows == final_rows:
            evaluation = qrels_from_reference(
                ref, copied_row_qrels(spec.supporting), rows, hops
            )
    wrong = sum(
        int(
            oracle.mismatches(
                refs[p.tag], p.answer_ids, p.logits, FLOAT32_LOGIT_TOLERANCE
            ).sum()
        )
        for p in checked
    )
    attempted = sum(p.nq for p in checked)

    notes = {
        "question_samples": sum(p.nq for p in passes),
        "passes": len(passes),
        "writes": len(writes),
        "final_rows": final_rows,
    }
    if tracer is None:
        metrics = end_to_end(
            setup,
            writes or bulk_writes,
            question_latencies(passes),
            rate,
            rate,
            evaluation.recall_at_k,
            rss,
            attempted,
            wrong,
        )
    else:
        metrics = per_layer(
            tracer,
            setup_spans,
            passes,
            first or setup_first,
            untraced_rate,
            rate,
            evaluation,
            wrong / attempted,
            spec.network.embedding_dim,
        )
    return Outcome(metrics, attempted, wrong, notes)


def scan(seed: int, seconds: float, tracer=None) -> Outcome:
    network, stories, questions, supporting, weights = topical_inputs(
        SCAN_ROWS, SCAN_ROWS, seed
    )
    # Algorithm, chunk size and kernel stay at the engine defaults.
    config = EngineConfig().with_execution(dtype="float32")
    spec = ClosedLoop(
        network=network,
        weights=weights,
        stories=stories,
        questions=questions,
        supporting=supporting,
        initial_rows=SCAN_ROWS,
        make_engine=lambda: MnnFastEngine(
            network, weights=weights, engine_config=config
        ),
        cycle=lambda engine, k: ([answer(engine, questions, k)], [], []),
    )
    return run_closed_loop(spec, seconds, tracer)


def ingest_ooc(seed: int, seconds: float, tracer=None) -> Outcome:
    capacity = INGEST_ROWS + INGEST_APPEND * INGEST_MAX_APPENDS
    network, stories, questions, supporting, weights = topical_inputs(
        INGEST_ROWS, capacity, seed
    )
    # Resident chunk budget: 1/8 of the float32 M_IN + M_OUT footprint
    # after the planned writes.
    budget = capacity * network.embedding_dim * 4 * 2 // 8
    spill = SCRATCH / f"store-{seed}"
    config = EngineConfig.out_of_core(
        path=str(spill), resident_bytes=budget, prefetch_depth=2
    ).with_execution(dtype="float32")

    def cycle(engine: MnnFastEngine, k: int):
        if k >= INGEST_MAX_APPENDS:
            return None
        rows = engine.num_stored_sentences
        block = stories[rows : rows + INGEST_APPEND]
        _, write = timed(lambda: engine.store_story(block))
        passes = [answer(engine, questions, k * INGEST_READS + r) for r in range(INGEST_READS)]
        return passes, [write], [passes[0].latency]

    spec = ClosedLoop(
        network=network,
        weights=weights,
        stories=stories,
        questions=questions,
        supporting=supporting,
        initial_rows=INGEST_ROWS,
        make_engine=lambda: MnnFastEngine(
            network, weights=weights, engine_config=config
        ),
        cycle=cycle,
    )
    try:
        return run_closed_loop(spec, seconds, tracer)
    finally:
        shutil.rmtree(spill, ignore_errors=True)


# --- open loop: docqa_open -----------------------------------------------------


def docqa_open(seed: int, seconds: float, tracer=None) -> Outcome:
    corpus = synthetic_corpus(
        num_docs=DOCQA_DOCS,
        rows_per_doc=DOCQA_ROWS_PER_DOC,
        max_words=8,
        seed=DOCQA_CORPUS_SEED,
    )
    queries, qrels = generate_queries(corpus, DOCQA_QUERIES, seed=DOCQA_CORPUS_SEED)
    network = docqa_network(corpus, embedding_dim=64, hops=2)
    weights = docqa_weights(network, seed=DOCQA_CORPUS_SEED + 7)
    config = (
        EngineConfig()
        .with_execution(dtype="float32")
        .with_topk(nprobe=DOCQA_NPROBE, min_rows=0)
        .with_early_exit(DOCQA_EXIT)
        .with_batching(BATCH, max_wait=0.005)
    )
    words = np.stack([q.words for q in queries])

    setup, writes, first = [], [], []
    engine = None
    for _ in range(SETUPS):
        if engine is not None:
            engine.close()
        if tracer is not None:
            tracer.enabled = True
        began = time.perf_counter()
        engine = MnnFastEngine(network, weights=weights, engine_config=config)
        _, write = timed(lambda: engine.store_story(corpus.rows))
        _, latency = timed(lambda: engine.answer_batch(words[:BATCH]))
        for size in (1, 4, 8):
            engine.answer_batch(words[BATCH : BATCH + size])
        setup.append(time.perf_counter() - began)
        writes.append(write)
        first.append(latency)
        if tracer is not None:
            tracer.enabled = False
    setup_spans = tracer.take() if tracer is not None else []

    passes: list[Pass] = []
    malformed = [0]
    num_answers = weights.answer_weight.shape[0]

    def check(members: list[int], batch) -> None:
        logits = batch.batch.logits
        if logits.shape != (len(members), num_answers) or not np.isfinite(logits).all():
            malformed[0] += len(members)
        passes.append(record(batch, 0.0, keep_logits=False))

    def step(rate: int, count: int, stream_seed: int):
        requests = docqa_workload(
            queries,
            session_rate=rate / 4,
            questions_per_session=4,
            num_sessions=count // 4,
            seed=stream_seed,
        )
        # Stretch the stream so it offers exactly ``rate`` on average.
        start, end = requests[0].arrival, requests[-1].arrival
        scale = (len(requests) - 1) / rate / (end - start)
        due = [(r.arrival - start) * scale for r in requests]
        ids = np.array([r.query.query_id for r in requests])
        with collector_paused():
            return run_open_loop(
                due,
                lambda members: engine.answer_batch(words[ids[members]]),
                config.batch,
                after=check,
            )

    # Every rung offers MIN_QUESTIONS requests; the nominal rung also
    # gets whatever is left of the run's seconds.
    counts = {rate: MIN_QUESTIONS for rate in DOCQA_LADDER}
    others = sum(MIN_QUESTIONS / rate for rate in DOCQA_LADDER if rate != DOCQA_NOMINAL)
    counts[DOCQA_NOMINAL] = max(
        MIN_QUESTIONS, 4 * math.ceil((seconds - others) * DOCQA_NOMINAL / 4)
    )
    if tracer is None:
        steps = {
            rate: step(rate, counts[rate], seed * 1000 + rate) for rate in DOCQA_LADDER
        }
        result = steps[DOCQA_NOMINAL]
        ran = list(steps.values())
    else:
        count = max(MIN_QUESTIONS, 4 * math.ceil(seconds / 2 * DOCQA_NOMINAL / 4))
        untraced = step(DOCQA_NOMINAL, count, seed * 1000 + DOCQA_NOMINAL)
        passes.clear()
        tracer.enabled = True
        result = step(DOCQA_NOMINAL, count, seed * 1000 + DOCQA_NOMINAL + 1)
        tracer.enabled = False
        ran = [untraced, result]
    rss = peak_rss_mb()
    engine.close()

    # Off the clock: qrels scoring of the served configuration, held
    # against the float64 full-depth exact scan of the same queries.
    evaluated = queries[:DOCQA_EVAL_QUERIES]
    judge = MnnFastEngine(
        network,
        weights=weights,
        engine_config=config.with_topk(nprobe=DOCQA_NPROBE, record_candidates=True),
    )
    try:
        judge.store_story(corpus.rows)
        evaluation = evaluate_retriever_runs(
            run_retriever(judge, evaluated), qrels, k=RECALL_K
        )
    finally:
        judge.close()
    m_in = oracle.embed(weights.embedding_a, corpus.rows)
    m_out = oracle.embed(weights.embedding_c, corpus.rows)
    ref = oracle.reference(
        weights, m_in, m_out, words[:DOCQA_EVAL_QUERIES], network.hops
    )
    exact_recall = qrels_from_reference(
        ref, qrels, corpus.num_rows, network.hops
    ).recall_at_k
    recall_short = evaluation.recall_at_k < exact_recall - DOCQA_RECALL_SLACK

    # A short recall fails every scored query.
    attempted = sum(len(r.latencies) for r in ran) + DOCQA_EVAL_QUERIES
    failed = sum(r.failed for r in ran) + malformed[0]
    failed += DOCQA_EVAL_QUERIES if recall_short else 0
    latencies = result.latencies
    notes = {
        "question_samples": len(latencies),
        "rung_requests": counts,
        "exact_recall_at_4": exact_recall,
        "errors": [e for r in ran for e in r.errors][:3],
    }
    if tracer is None:
        passing = [
            rate
            for rate, r in steps.items()
            if r.failed == 0 and tail(r.latencies, 99) <= DOCQA_SLO_S
            and r.backlog_end <= 2 * BATCH
        ]
        notes["ladder_p99_ms"] = {
            rate: round(1000 * tail(r.latencies, 99), 2) for rate, r in steps.items()
        }
        metrics = end_to_end(
            setup,
            writes,
            latencies,
            len(latencies) / result.elapsed,
            float(max(passing, default=0)),
            evaluation.recall_at_k,
            rss,
            attempted,
            failed,
        )
    else:
        waits = [w for f in result.formations for w in f.queue_waits]
        reasons = [f.reason for f in result.formations]
        batching = {
            "wait_p50_ms": 1000 * median(waits),
            "wait_p99_ms": 1000 * tail(waits, 99),
        }
        for reason in ("full", "wait", "deadline", "flush"):
            batching[f"dispatch_{reason}"] = reasons.count(reason)
        bench = {
            "lag_p99_ms": 1000 * tail(result.lags, 99),
            "backlog_end": result.backlog_end,
        }
        metrics = per_layer(
            tracer,
            setup_spans,
            passes,
            first,
            len(untraced.latencies) / untraced.busy_seconds,
            len(result.latencies) / result.busy_seconds,
            evaluation,
            failed / attempted,
            network.embedding_dim,
            batching=batching,
            bench=bench,
        )
    return Outcome(metrics, attempted, failed, notes)


WORKLOADS = {"scan": scan, "docqa_open": docqa_open, "ingest_ooc": ingest_ooc}


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    SCRATCH.mkdir(exist_ok=True)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        install_spans(tracer)
    try:
        return WORKLOADS[name](seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
