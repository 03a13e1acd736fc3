"""Reliability substrate: cell-to-cell interference, Vth and BER models.

The paper validates RPS on real 2X-nm MLC chips by measuring Vth
distribution widths (``WPi``) and bit error rates under worst-case
operating conditions (3K P/E cycles, 1-year retention).  We have no
silicon, so this subpackage provides the closest synthetic equivalent:

* :mod:`repro.reliability.interference` counts, for a given in-block
  program order, the *aggressor* program operations each word line
  suffers after its data is finalised — the quantity the paper states
  the total interference is proportional to;
* :mod:`repro.reliability.vth` turns aggressor counts into Monte-Carlo
  threshold-voltage distributions and ``WPi`` widths;
* :mod:`repro.reliability.ber` adds P/E-cycling noise and retention
  loss and derives gray-coded bit error rates;
* :mod:`repro.reliability.montecarlo` drives the block/page population
  of Figure 4 (90+ blocks, 5000+ pages);
* :mod:`repro.reliability.physics` arms the same models inside the live
  simulation (a seeded runtime error engine driven by each page's real
  program/read history); ``run_workload(physics=...)`` in
  :mod:`repro.experiments.runner` runs whole workloads with it attached.
"""

from repro.reliability.interference import (
    aggressor_counts,
    aggressor_events,
    max_aggressors,
)
from repro.reliability.vth import MlcVthModel, PageVthSample, simulate_page_vth
from repro.reliability.ber import (
    OperatingCondition,
    StressModel,
    expected_page_ber,
    page_bit_error_rate,
)
from repro.reliability.ecc import (
    EccConfig,
    codeword_failure_probability,
    max_tolerable_ber,
    page_failure_probability,
)
from repro.reliability.montecarlo import (
    BoxStats,
    ReliabilityResult,
    run_reliability_experiment,
)
from repro.reliability.physics import (
    PhysicsConfig,
    PhysicsEngine,
    ReadOutcome,
    oracle_page_state,
    oracle_read_probability,
)

__all__ = [
    "aggressor_counts",
    "aggressor_events",
    "max_aggressors",
    "MlcVthModel",
    "PageVthSample",
    "simulate_page_vth",
    "OperatingCondition",
    "StressModel",
    "expected_page_ber",
    "page_bit_error_rate",
    "EccConfig",
    "codeword_failure_probability",
    "page_failure_probability",
    "max_tolerable_ber",
    "BoxStats",
    "ReliabilityResult",
    "run_reliability_experiment",
    "PhysicsConfig",
    "PhysicsEngine",
    "ReadOutcome",
    "oracle_page_state",
    "oracle_read_probability",
]
