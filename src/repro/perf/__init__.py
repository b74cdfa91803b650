"""Performance substrate: bench runner and CI gate.

* :mod:`repro.perf.bench` — ``python -m repro.perf.bench`` sweeps
  {dtype x dims x mode} and writes the schema-versioned
  ``BENCH_micro.json`` perf-trajectory point.  Its per-stage table is
  read from the :mod:`repro.obs` span tree each timed repeat records.
* :mod:`repro.perf.gate` — ``python -m repro.perf.gate`` compares a
  fresh run against the committed baseline and fails CI on a >1.5x
  per-stage slowdown.

The pipeline's stage hooks are :func:`repro.obs.span` calls; profile a
call of your own under a :class:`repro.obs.Collector`.
"""
