"""Seeded workload generators shared by the tests and ``perfbench/``.

The package holds only :mod:`repro.bench.workloads`: the bench grammars
(static, constraint-based, emit-action) and the deterministic forest
generators (random trees, DAG-heavy and shared-reduction forests,
recurring-shape streams, dynamic-constraint forests, and the synthetic
grammar-size sweep).  Import them from ``repro.bench.workloads``; the
end-to-end benchmark lives in ``perfbench/``.
"""
