"""Cost estimation: Equation 1 and per-line host/device estimates.

The paper's Equation 1 quantifies the net profit of performing a code
region on the CSD instead of the host:

    S = (DS_raw / BW_D2H + CT_host) - (CT_device + DS_processed / BW_D2H)

A region is worth offloading when S > 0.  :func:`net_profit` exposes
the equation directly; :func:`build_estimates` turns a sampling report
into the per-line numbers Algorithm 1 consumes, extrapolating fitted
curves to the raw input size and scaling host compute time to device
compute time by the calibration constant C (queried from the device's
performance counters, §III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..config import SystemConfig
from ..errors import PlanningError
from .sampling import SamplingReport


def net_profit(
    raw_bytes: float,
    processed_bytes: float,
    ct_host: float,
    ct_device: float,
    bw_d2h: float,
) -> float:
    """Equation 1: seconds saved by running a region on the CSD.

    Positive means the CSD wins.  ``raw_bytes`` is the input the host
    would otherwise pull across the interconnect; ``processed_bytes``
    is what the device ships back instead.
    """
    if bw_d2h <= 0:
        raise PlanningError(f"bw_d2h must be positive, got {bw_d2h}")
    host_side = raw_bytes / bw_d2h + ct_host
    device_side = ct_device + processed_bytes / bw_d2h
    return host_side - device_side


@dataclass(frozen=True)
class LineEstimate:
    """Predicted full-scale behaviour of one line.

    All values are extrapolations from sampled observations — they can
    be wrong, and the planner's decisions inherit that error (which is
    the point of the paper's §V accuracy discussion).
    """

    index: int
    name: str
    #: Predicted execution time on the host, storage access included.
    ct_host: float
    #: Predicted execution time on the CSD, internal reads included.
    ct_device: float
    #: Predicted bytes arriving from the previous line (memory input).
    d_in: float
    #: Predicted bytes passed to the next line.
    d_out: float
    #: Predicted bytes streamed from storage.
    d_storage: float
    #: Predicted host compute seconds, storage access excluded.
    compute_host: float


@dataclass(frozen=True)
class RegionProfit:
    """Equation 1 evaluated for one contiguous candidate region."""

    first_line: int
    last_line: int
    names: tuple
    raw_bytes: float
    processed_bytes: float
    ct_host: float
    ct_device: float
    profit_seconds: float

    @property
    def worthwhile(self) -> bool:
        return self.profit_seconds > 0


def region_profits(
    estimates: List["LineEstimate"],
    config: SystemConfig,
) -> List[RegionProfit]:
    """Equation 1 over every contiguous line region.

    The paper's offload criterion made explicit: for each candidate
    single-entry-single-exit region [i..j], the region's raw input is
    what the host would otherwise pull (its memory input plus its
    storage streams) and its processed output is the last line's value.
    Diagnostic/teaching API — the planner itself uses Algorithm 1's
    incremental form.
    """
    profits: List[RegionProfit] = []
    for i in range(len(estimates)):
        ct_host = 0.0
        ct_device = 0.0
        storage = 0.0
        for j in range(i, len(estimates)):
            line = estimates[j]
            # Compute-only host time: the raw input transfer is the
            # equation's DS_raw term, not part of CT_host.
            ct_host += line.compute_host
            ct_device += line.ct_device
            storage += line.d_storage
            profits.append(RegionProfit(
                first_line=i,
                last_line=j,
                names=tuple(e.name for e in estimates[i:j + 1]),
                raw_bytes=estimates[i].d_in + storage,
                processed_bytes=line.d_out,
                ct_host=ct_host,
                ct_device=ct_device,
                profit_seconds=net_profit(
                    raw_bytes=estimates[i].d_in + storage,
                    processed_bytes=line.d_out,
                    ct_host=ct_host,
                    ct_device=ct_device,
                    bw_d2h=config.bw_d2h,
                ),
            ))
    return profits


def calibration_constant(config: SystemConfig, counters: Optional[dict] = None) -> float:
    """The constant C that scales host compute time to CSD compute time.

    When the device exposes performance counters (our CSE does), C is
    derived from its nominal per-cycle throughput; otherwise it is the
    configured host-to-CSE instruction-rate ratio.
    """
    if counters is not None:
        device_ips = counters["ipc_nominal"] * counters["clock_hz"]
        if device_ips <= 0:
            raise PlanningError("device counters report non-positive throughput")
        return config.host_ips / device_ips
    return config.host_ips / config.cse_ips


def build_estimates(
    report: SamplingReport,
    full_records: int,
    config: SystemConfig,
    device_counters: Optional[dict] = None,
) -> List[LineEstimate]:
    """Extrapolate a sampling report to full scale, line by line."""
    if full_records <= 0:
        raise PlanningError(f"full_records must be positive, got {full_records}")
    c_factor = calibration_constant(config, device_counters)
    estimates: List[LineEstimate] = []
    previous_out = 0.0
    n = float(full_records)
    for fit in report.fits:
        compute = fit.compute.predict(n)
        storage_bytes = fit.storage_bytes.predict(n)
        d_out = fit.output_bytes.predict(n)
        # The profiler observed data-access time at host bandwidth; on
        # the device the same bytes stream over the internal bus.
        host_access = storage_bytes / config.bw_host_storage
        device_access = storage_bytes / config.bw_internal
        estimates.append(
            LineEstimate(
                index=fit.index,
                name=fit.name,
                ct_host=compute + host_access,
                ct_device=compute * c_factor + device_access,
                d_in=previous_out,
                d_out=d_out,
                d_storage=storage_bytes,
                compute_host=compute,
            )
        )
        previous_out = d_out
    return estimates
