"""QoR conformity metric (paper Table 6, last column).

The paper validates merged modes by comparing per-endpoint worst slacks:
an endpoint *conforms* when its worst slack across the merged modes
deviates from its worst slack across the individual modes by no more than
1% of the capture-clock period.  The reported number is the percentage of
conforming endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.baselines.no_merge import MultiModeStaResult


@dataclass
class EndpointConformity:
    endpoint: str
    individual_slack: float
    merged_slack: float
    capture_period: float
    conforms: bool

    @property
    def deviation(self) -> float:
        return abs(self.merged_slack - self.individual_slack)


@dataclass
class ConformityReport:
    """Endpoint-slack conformity between two multi-mode STA runs."""

    rows: List[EndpointConformity] = field(default_factory=list)
    #: endpoints analyzed in one run but absent from the other
    unmatched: List[str] = field(default_factory=list)

    @property
    def conforming(self) -> int:
        return sum(1 for r in self.rows if r.conforms)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def percent(self) -> float:
        if not self.rows:
            return 100.0
        return 100.0 * self.conforming / len(self.rows)

    def worst_deviations(self, n: int = 10) -> List[EndpointConformity]:
        return sorted(self.rows, key=lambda r: -r.deviation)[:n]

    def summary(self) -> str:
        return (f"conformity: {self.conforming}/{self.total} endpoints "
                f"({self.percent:.2f}%) within tolerance; "
                f"{len(self.unmatched)} unmatched")


def compare_conformity(individual: MultiModeStaResult,
                       merged: MultiModeStaResult,
                       period_fraction: float = 0.01) -> ConformityReport:
    """Compare worst endpoint slacks of two runs (the Table 6 metric)."""
    report = ConformityReport()
    ind_slacks = individual.worst_endpoint_slacks()
    merged_slacks = merged.worst_endpoint_slacks()
    periods = individual.capture_periods()
    merged_periods = merged.capture_periods()

    for endpoint, ind_slack in sorted(ind_slacks.items()):
        if endpoint not in merged_slacks:
            report.unmatched.append(endpoint)
            continue
        merged_slack = merged_slacks[endpoint]
        period = periods.get(endpoint) or merged_periods.get(endpoint) or 1.0
        deviation = abs(merged_slack - ind_slack)
        report.rows.append(EndpointConformity(
            endpoint=endpoint,
            individual_slack=ind_slack,
            merged_slack=merged_slack,
            capture_period=period,
            conforms=deviation <= period_fraction * period,
        ))
    for endpoint in merged_slacks:
        if endpoint not in ind_slacks:
            report.unmatched.append(endpoint)
    return report
