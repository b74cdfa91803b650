"""Observability: span tracing, codec metrics, cross-process telemetry.

* :mod:`repro.obs.tracer` — the :class:`Collector` (contextvar-activated
  span tree + metrics registry) and the module-level no-op-when-disabled
  hooks (:func:`span`, :func:`metric_add`, :func:`metric_observe`,
  :func:`metric_hist`, :func:`annotate`) the pipeline calls.  The
  pipeline's stage spans are its only stage instrumentation: the bench
  (:mod:`repro.perf.bench`) reads its per-stage table from them too.
* :mod:`repro.obs.export` — the schema-versioned run report
  (``repro-obs/1``), its validator, the Chrome trace-event export
  (``chrome://tracing`` / Perfetto loadable) and the text summary.

Activate a collector around any pipeline call to gather telemetry; the
output bytes are identical either way::

    from repro.obs import Collector, run_report
    with Collector() as col:
        blob = codec.encode(data)
    report = run_report(col)          # spans + counters + histograms

Cross-process paths (:func:`repro.parallel.pool_map`, tiled compression
with ``workers > 1``) ship each worker's spans and metrics back with its
result and merge them into the parent's collector with per-worker lane
attribution — one trace covers the whole run.

Decode-side entropy telemetry (``repro-sz trace`` surfaces all of it):
``huffman/rounds`` (vectorized lookup rounds per decode) and
``huffman/symbols_per_lookup`` (multi-symbol table efficiency) describe
the block-parallel decoder; ``huffman/table_cache_hits`` /
``huffman/table_cache_misses`` count the process-level decode-table
cache (keyed by the canonical lengths array — tiled reads share tables
across tiles); ``tiled/reads`` / ``tiled/bytes_read`` account container
byte traffic per run.

The tuning layer (:mod:`repro.tuning`) reports under its own prefixes:
``estimate/calls``, ``estimate/sampled_values``, ``estimate/
predicted_cf`` and ``estimate/seconds`` describe each sampled
estimation (with an ``estimate`` span around the whole pass), and
``tune/calls``, ``tune/trials``, ``tune/relative_miss`` summarize every
auto-tuner search (a ``tune`` span wraps the trial sequence).
"""

from repro.obs.export import (
    SCHEMA,
    chrome_trace,
    run_report,
    summarize_run_report,
    validate_run_report,
    write_run_report,
)
from repro.obs.tracer import (
    Collector,
    SpanRecord,
    active_collector,
    annotate,
    metric_add,
    metric_hist,
    metric_observe,
    span,
)

__all__ = [
    "SCHEMA",
    "Collector",
    "SpanRecord",
    "active_collector",
    "annotate",
    "chrome_trace",
    "metric_add",
    "metric_hist",
    "metric_observe",
    "run_report",
    "span",
    "summarize_run_report",
    "validate_run_report",
    "write_run_report",
]
