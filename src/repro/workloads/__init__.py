"""Workload generation: the five Table 1 benchmarks and primitives.

The paper evaluates on Sysbench (OLTP, NTRX) and Filebench (Webserver,
Varmail, Fileserver) running against the BlueDBM board.  We have no
host filesystem stack, so :mod:`repro.workloads.benchmarks` generates
closed-loop I/O streams matching Table 1's read:write ratios and I/O
intensiveness classes (think-time/burst structure), with Zipfian data
locality.  :mod:`repro.workloads.synthetic` provides lower-level
primitives; :mod:`repro.workloads.trace` a simple trace file format.
"""

from repro.workloads.zipf import ZipfSampler
from repro.workloads.trace import iter_trace, load_trace, save_trace
from repro.workloads.synthetic import (
    burst_stream,
    mixed_stream,
    sequential_fill,
    uniform_random_writes,
)
from repro.workloads.benchmarks import (
    PROFILES,
    WorkloadProfile,
    ProfileScenario,
    workload_table,
)

__all__ = [
    "ZipfSampler",
    "iter_trace",
    "load_trace",
    "save_trace",
    "sequential_fill",
    "uniform_random_writes",
    "burst_stream",
    "mixed_stream",
    "WorkloadProfile",
    "PROFILES",
    "ProfileScenario",
    "workload_table",
]
