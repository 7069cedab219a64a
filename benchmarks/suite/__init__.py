"""The repo's one benchmark suite: four workloads, four bounded
end-to-end metrics, and a per-layer attribution table.

Everything is measured from outside ``src/`` — through ``repro.api``,
``ExperimentContext.run_batch``, the ``repro-dsm serve`` process and its
HTTP routes.  ``README.md`` beside this file is the glossary;
``BENCHMARK.json`` at the repo root is the contract the names, units and
bounds come from.

Entry points:

``python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one mode; the last stdout line is the result object.
``python -m benchmarks.suite run [--workload W] [--seed N] [--traced] [--quick] [--out FILE]``
    Every workload, each in a fresh interpreter, folded into one document.
``python -m benchmarks.suite compare A.json B.json``
    Ratio, bound and verdict per end-to-end metric x workload.
"""
