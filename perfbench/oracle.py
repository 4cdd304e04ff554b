"""Float64 reference answers the benchmark checks the engine against.

The reference is the benchmark's own: it embeds the generated stories
with a bag-of-words sum of the engine's weight rows (pad word 0
contributes nothing), then runs the End-To-End Memory Networks hop
recurrence with a log-sum-exp softmax in float64:

    p = exp(u M_IN^T - logsumexp(u M_IN^T)),  o = p M_OUT,  u <- u + o

and answers with ``logits = u W^T``.  It shares no code with the
engine beyond the weight arrays, so a kernel change that alters the
numbers cannot alter the reference too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Story rows embedded per block (bounds the (rows, nw, ed) gather).
EMBED_BLOCK_ROWS = 8192
#: Questions scored per block (bounds the (nq, ns) score matrix).
QUESTION_BLOCK = 64


def embed(table: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Bag-of-words sum of ``table`` rows, float64; word 0 is padding."""
    table = np.asarray(table, dtype=np.float64)
    words = np.asarray(words)
    out = np.empty((len(words), table.shape[1]))
    for start in range(0, len(words), EMBED_BLOCK_ROWS):
        block = words[start : start + EMBED_BLOCK_ROWS]
        vectors = table[block]
        vectors[block == 0] = 0.0
        out[start : start + len(block)] = vectors.sum(axis=1)
    return out


@dataclass
class Reference:
    """Float64 answers for a set of questions.

    Attributes:
        logits: ``(nq, num_answers)`` reference logits.
        top_rows: ``(nq, k)`` memory rows with the most final-hop
            attention, best first.
        top_scores: their attention probabilities.
    """

    logits: np.ndarray
    top_rows: np.ndarray
    top_scores: np.ndarray


def reference(
    weights,
    m_in: np.ndarray,
    m_out: np.ndarray,
    questions: np.ndarray,
    hops: int,
    rows: int | None = None,
    top: int = 16,
) -> Reference:
    """Reference answers over the first ``rows`` memory rows.

    ``weights`` is the engine's ``EngineWeights`` (layer-wise tying);
    ``m_in``/``m_out`` come from :func:`embed`.
    """
    rows = len(m_in) if rows is None else rows
    m_in, m_out = m_in[:rows], m_out[:rows]
    top = min(top, rows)
    answer = np.asarray(weights.answer_weight, dtype=np.float64)
    logits, top_rows, top_scores = [], [], []
    for start in range(0, len(questions), QUESTION_BLOCK):
        u = embed(weights.embedding_a, questions[start : start + QUESTION_BLOCK])
        for _ in range(hops):
            scores = u @ m_in.T
            peak = scores.max(axis=1, keepdims=True)
            lse = peak + np.log(np.exp(scores - peak).sum(axis=1, keepdims=True))
            p = np.exp(scores - lse)
            u = u + p @ m_out
        best = np.argpartition(-p, top - 1, axis=1)[:, :top]
        order = np.argsort(-np.take_along_axis(p, best, axis=1), axis=1, kind="stable")
        best = np.take_along_axis(best, order, axis=1)
        top_rows.append(best)
        top_scores.append(np.take_along_axis(p, best, axis=1))
        logits.append(u @ answer.T)
    return Reference(
        logits=np.concatenate(logits),
        top_rows=np.concatenate(top_rows),
        top_scores=np.concatenate(top_scores),
    )


def mismatches(
    ref_logits: np.ndarray,
    answer_ids: np.ndarray,
    logits: np.ndarray,
    tolerance: float,
) -> np.ndarray:
    """Boolean mask of questions the engine got wrong.

    A question is wrong when its answer ID differs from the reference's
    or any logit differs from the reference by more than ``tolerance``
    (``tolerance`` absolute plus ``tolerance`` relative, as
    ``numpy.allclose`` counts it).
    """
    ref_logits = np.asarray(ref_logits, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != ref_logits.shape:
        return np.ones(len(ref_logits), dtype=bool)
    allowed = tolerance + tolerance * np.abs(ref_logits)
    off = ~(np.abs(logits - ref_logits) <= allowed).all(axis=1)
    return off | (np.asarray(answer_ids) != np.argmax(ref_logits, axis=1))
