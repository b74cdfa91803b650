"""Performance substrate: bench runner and CI gate.

* :mod:`repro.perf.bench` — ``python -m repro.perf.bench`` sweeps
  {dtype x dims x mode} and writes the schema-versioned
  ``BENCH_micro.json`` perf-trajectory point.  Its per-stage table is
  read from the :mod:`repro.obs` span tree each timed repeat records.
* :mod:`repro.perf.gate` — ``python -m repro.perf.gate BASE_SRC`` runs
  the tiny sweep of a base tree and of this one alternately on one
  machine and fails CI when a case's median paired change/base ratio of
  compress, decompress or stage time exceeds 1.5x.

The pipeline's stage hooks are :func:`repro.obs.span` calls; profile a
call of your own under a :class:`repro.obs.Collector`.
"""
