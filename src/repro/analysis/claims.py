"""The paper's claims, one row each: the paper's value, a band and a pin.

Every number the reproduction compares with the DAC'23 paper lives in
:data:`CLAIMS`.  A row names the driver whose result it reads, an
extractor, the paper's value (``None`` where it states none), the open
band the value must lie in (``None``: no band) and the pin, compared
after rounding to ``decimals``.  ``repro selfcheck`` and tier-1 assert
every row; a moved pin is edited here and in EXPERIMENTS.md, whose
figure blocks (the output of ``python -m repro <figure>``) and prose a
tier-1 test compares with these rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import DEFAULT_CONFIG
from ..units import GB
from . import experiments
from .metrics import slowdown_fraction
from .report import format_table

#: The CSE availability of Fig. 2's and Fig. 5's headline numbers.
_LOW = 0.1
_INF = math.inf


@dataclass(frozen=True)
class Claim:
    name: str
    driver: str  # a key of DRIVERS
    extract: Callable[[Any], Any]
    paper: Any
    band: Optional[Tuple[float, float]]
    pin: Any
    decimals: Optional[int] = None


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    measured: Any
    in_band: Optional[bool]  # None when the row has no band
    pinned: bool

    @property
    def ok(self) -> bool:
        return self.pinned and self.in_band is not False


def _rounded(value: Any, decimals: Optional[int]) -> Any:
    if decimals is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, dict):
        return {key: _rounded(item, decimals) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(_rounded(item, decimals) for item in value)
    return round(value, decimals)


def _inside(value: Any, band: Tuple[float, float]) -> bool:
    """Whether ``value`` (or each value of a dict or tuple) is in ``band``."""
    if not isinstance(value, (dict, tuple)):
        value = (value,)
    values = value.values() if isinstance(value, dict) else value
    return all(x is not None and band[0] < x < band[1] for x in values)


#: Table I input sizes in GB, in ``TABLE1_WORKLOADS`` order.
_TABLE1_GB = (9.1, 5.3, 7.1, 6.0, 9.4, 7.7, 6.9, 6.9, 7.1)
#: Fig. 4 rows pinned whole: (baseline s, static, ActivePy, CSD lines).
_WHOLE_ROWS = {
    "tpch_q6": (6.111, 1.4005, 1.3358, 2),
    "pagerank": (9.0318, 1.2451, 1.115, 1),
    "mixedgemm": (9.5819, 1.3825, 1.3297, 3),
}

CLAIMS: Tuple[Claim, ...] = (
    # --- Table I -------------------------------------------------------
    Claim("table1 SESE regions", "run_table1",
          lambda rows: tuple(row.sese_regions for row in rows),
          None, None, (3, 3, 4, 3, 5, 4, 2, 2, 3)),
    Claim("table1 input sizes GB", "run_table1",
          lambda rows: tuple(row.data_bytes / GB for row in rows),
          _TABLE1_GB, None, _TABLE1_GB, 2),
    # --- Fig. 2 (§II-B) ---------------------------------------------------
    Claim("fig2 static geomean at 100% CSE", "run_fig2",
          lambda fig2: fig2.mean_at(1.0), 1.25, (1.15, 1.45), 1.3316, 4),
    Claim("fig2 best speedup at 10% CSE", "run_fig2",
          lambda fig2: max(s[fig2.availabilities.index(_LOW)] for s in fig2.series.values()),
          None, (-_INF, 0.35), 0.1664, 4),
    Claim("fig2 crossovers", "run_fig2",
          lambda fig2: {name: fig2.crossover(name) for name in fig2.series},
          0.6, (0.2, 0.8), {"tpch_q1": 0.7, "tpch_q6": 0.6, "tpch_q14": 0.6}),
    # --- Fig. 4 (§V) -----------------------------------------------------
    Claim("fig4 static geomean", "run_fig4",
          lambda fig4: fig4.static_geomean, 1.33, (1.25, 1.41), 1.3324, 4),
    Claim("fig4 ActivePy geomean", "run_fig4",
          lambda fig4: fig4.activepy_geomean, 1.34, (1.20, 1.45), 1.2700, 4),
    Claim("fig4 ActivePy / static geomean", "run_fig4",
          lambda fig4: fig4.activepy_geomean / fig4.static_geomean,
          None, (0.92, _INF), 0.9531, 4),
    Claim("fig4 rows with the same regions", "run_fig4",
          lambda fig4: sum(row.same_regions for row in fig4.rows), 9, None, 8),
    Claim("fig4 lowest static speedup", "run_fig4",
          lambda fig4: min(row.static_speedup for row in fig4.rows),
          None, (1.05, _INF), 1.2353, 4),
    Claim("fig4 lowest ActivePy speedup", "run_fig4",
          lambda fig4: min(row.activepy_speedup for row in fig4.rows),
          None, (1.0, _INF), 1.115, 4),
    Claim("fig4 fastest baseline s", "run_fig4",
          lambda fig4: min(row.baseline_seconds for row in fig4.rows),
          11.0, (3.0, 15.0), 6.111, 4),
    Claim("fig4 slowest baseline", "run_fig4",
          lambda fig4: max(fig4.rows, key=lambda row: row.baseline_seconds).name,
          "kmeans", None, "kmeans"),
    Claim("fig4 kmeans baseline s", "run_fig4",
          lambda fig4: fig4.row("kmeans").baseline_seconds,
          73.0, (30.0, 90.0), 48.9117, 4),
    # A scan, the CSR case and the compute-heavy mixture, whole.
    Claim("fig4 (baseline s, static, ActivePy, CSD lines)", "run_fig4",
          lambda fig4: {r.name: (r.baseline_seconds, r.static_speedup,
                                 r.activepy_speedup, r.activepy_plan.count("csd"))
                        for r in fig4.rows if r.name in _WHOLE_ROWS},
          None, None, _WHOLE_ROWS, 4),
    # --- Fig. 5 (§V) -----------------------------------------------------
    Claim("fig5 migration gain at 10% availability", "run_fig5",
          lambda fig5: fig5.mean_gain(_LOW), 2.82, (2.0, _INF), 2.448, 3),
    Claim("fig5 mean loss without migration at 10%", "run_fig5",
          lambda fig5: slowdown_fraction(1.0, 1.0 / fig5.mean_without(_LOW)),
          0.67, (0.55, _INF), 0.5713, 4),
    Claim("fig5 worst loss without migration at 10%", "run_fig5",
          lambda fig5: slowdown_fraction(
              1.0, 1.0 / min(r.without_migration_speedup for r in fig5.at(_LOW))),
          0.88, (0.65, _INF), 0.7489, 4),
    Claim("fig5 ActivePy speedup at 10%", "run_fig5",
          lambda fig5: fig5.mean_with(_LOW), 0.92, (0.80, 1.25), 1.0495, 4),
    Claim("fig5 speedup without migration at 50%", "run_fig5",
          lambda fig5: fig5.mean_without(0.5), None, (0.8, _INF), 1.0122, 4),
    # --- §V language-runtime ladder ---------------------------------------
    Claim("ladder python overhead %", "run_overhead_ladder",
          lambda ladder: 100 * ladder.mean_overhead("python"),
          41.0, (39.0, 43.0), 41.0, 1),
    Claim("ladder cython overhead %", "run_overhead_ladder",
          lambda ladder: 100 * ladder.mean_overhead("cython"),
          20.0, (18.0, 22.0), 20.0, 1),
    Claim("ladder activepy overhead %", "run_overhead_ladder",
          lambda ladder: 100 * ladder.mean_overhead("activepy"),
          1.0, (-_INF, 3.0), 0.5, 1),
    # --- §V prediction accuracy --------------------------------------------
    Claim("volume error excluding outliers %", "run_prediction_accuracy",
          lambda p: 100 * p.geomean_error_excluding_outliers(),
          9.0, (-_INF, 9.0), 2.4, 1),
    Claim("CSR volume over-estimate", "run_prediction_accuracy",
          lambda p: p.max_csr_overestimate(), 2.41, (1.8, 3.0), 2.40, 2),
    Claim("CSR always over-estimated", "run_prediction_accuracy",
          lambda p: p.csr_always_overestimated(), True, None, True),
    Claim("CSR sweep always over-estimates", "run_csr_matrix_sweep",
          lambda rows: all(row.ratio > 1.0 for row in rows), True, None, True),
    Claim("CSR sweep max over-estimate", "run_csr_matrix_sweep",
          lambda rows: max(row.ratio for row in rows),
          2.41, (1.0, 3.5), 2.675, 3),
    # --- the calibrated platform -----------------------------------------
    Claim("config break-even instr/byte", "config",  # docs/calibration.md
          lambda c: (1 / c.bw_host_storage - 1 / c.bw_internal)
          / (1 / c.cse_ips - 1 / c.host_ips), None, (4.10, 4.12), 4.1111, 4),
    # The paper's prototype (§IV-A) and runtime costs (§V): each pin is
    # the paper's own value.
    *(Claim(f"config {name}", "config", extract, paper, None, paper, 7)
      for name, extract, paper in (
          ("sampling factors log2",
           lambda c: tuple(math.log2(f) for f in c.sampling_factors),
           (-10.0, -9.0, -8.0, -7.0)),
          ("internal bandwidth GB/s", lambda c: c.bw_internal / GB, 9.0),
          ("CSE cores", lambda c: c.cse_cores, 8),
          ("NAND capacity GB", lambda c: c.nand_capacity_bytes / GB, 2000.0),
          ("compile overhead s", lambda c: c.compile_overhead_s, 0.1),
          ("python overhead",
           lambda c: c.interp_dispatch_overhead + c.copy_overhead, 0.41),
          ("cython overhead", lambda c: c.copy_overhead, 0.20),
      )),
)

#: Driver name -> zero-argument callable producing its result.  After
#: Fig. 4/5, every sampling of the prediction driver is a cache hit.
DRIVERS: Dict[str, Callable[[], Any]] = {
    name: getattr(experiments, name) for name in (
        "run_table1", "run_fig2", "run_fig4", "run_fig5", "run_overhead_ladder",
        "run_prediction_accuracy", "run_csr_matrix_sweep",
    )
}
DRIVERS["config"] = lambda: DEFAULT_CONFIG


def claim(name: str) -> Claim:
    """The row called ``name``."""
    (row,) = [row for row in CLAIMS if row.name == name]
    return row


def evaluate(results: Mapping[str, Any]) -> List[Verdict]:
    """Judge every row whose driver's result ``results`` holds, keyed as
    :data:`DRIVERS` is; rows of other drivers are skipped."""
    verdicts = []
    for row in CLAIMS:
        if row.driver in results:
            measured = _rounded(row.extract(results[row.driver]), row.decimals)
            in_band = None if row.band is None else _inside(measured, row.band)
            verdicts.append(Verdict(row, measured, in_band, measured == row.pin))
    return verdicts


def run_claims() -> List[Verdict]:
    """Run each driver the table needs once, then evaluate every row."""
    needed = dict.fromkeys(row.driver for row in CLAIMS)
    return evaluate({driver: DRIVERS[driver]() for driver in needed})


def render(verdicts: Sequence[Verdict]) -> str:
    """The claim table: paper | band | pin | measured | ok, then a status."""
    table = format_table(
        ["claim", "paper", "band", "pin", "measured", "ok"],
        [[v.claim.name, "-" if v.claim.paper is None else str(v.claim.paper),
          "-" if v.claim.band is None else "({:g}, {:g})".format(*v.claim.band),
          str(v.claim.pin), str(v.measured), "ok" if v.ok else "MISS"]
         for v in verdicts],
    )
    misses = sum(not v.ok for v in verdicts)
    return f"{table}\n\nclaims: {f'FAIL ({misses} missed)' if misses else 'PASS'}"
