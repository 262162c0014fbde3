"""Corpus fan-out: parallel document preprocessing over the worker pool.

The NLP chain (HTML strip, sentence split, tokenize, POS-tag) is pure
Python and embarrassingly parallel per document, so
:func:`parallel_preprocess` fans :func:`~repro.nlp.pipeline.
preprocess_document` out across worker processes with a chunked,
order-preserving merge: the result is exactly
``[preprocess_document(d) for d in documents]`` -- same sentences, same
order -- or ``None`` when the pool fails, in which case the caller runs
the sequential path (so ``load_corpus`` output is byte-identical either
way).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.parallel.pool import DEFAULT_TIMEOUT, fanout_map


def parallel_preprocess(documents: Sequence, *, workers: int,
                        mode: str = "auto",
                        timeout: float = DEFAULT_TIMEOUT,
                        fn: Callable | None = None) -> list | None:
    """Per-document sentence lists, computed across ``workers`` processes.

    ``fn`` is the per-document function to map (default
    :func:`~repro.nlp.pipeline.preprocess_document`; the row loader passes
    ``preprocess_document_rows``).  Returns ``None`` if the fan-out fails;
    callers fall back to the sequential loop.  Worker metrics
    (``nlp.documents`` etc.) and chunk spans merge into the parent's profile
    when tracing is enabled.
    """
    if fn is None:
        from repro.nlp.pipeline import preprocess_document as fn

    return fanout_map(fn, documents, workers=workers,
                      mode=mode, timeout=timeout)
