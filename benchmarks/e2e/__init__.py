"""Two-clock end-to-end benchmark of the ActivePy reproduction.

Four workloads (``paper_suite``, ``warm_rotation``, ``fleet_serve``,
``chaos_sdc``) time the program from the outside on the host clock
while checking its simulated-clock results.  See ``README.md`` here,
``python -m benchmarks.e2e --help`` and ``python -m
benchmarks.e2e.compare --help``.
"""
