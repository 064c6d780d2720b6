"""Online linear cost models for the adaptive splitting optimizer.

The paper uses "two simple linear models" mapping input size to runtime:
one for from-scratch runs (x = |GV_i|) and one for differential runs
(x = |δC_i|). We fit ``y ≈ a·x + b`` by ordinary least squares over all
observations so far; with a single observation the model degrades to a
proportional estimate, which is exactly what step 1-2 of the paper's
protocol provides.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class LinearCostModel:
    """Least-squares ``cost ≈ a·size + b`` fitted online."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.observations: List[Tuple[float, float]] = []

    def observe(self, size: float, cost: float) -> None:
        """Record one (input size, measured cost) sample."""
        self.observations.append((float(size), float(cost)))

    def coefficients(self) -> Optional[Tuple[float, float]]:
        """Return (a, b), or None when no data has been observed."""
        n = len(self.observations)
        if n == 0:
            return None
        if n == 1:
            size, cost = self.observations[0]
            if size <= 0:
                return (0.0, cost)
            return (cost / size, 0.0)
        sum_x = sum(x for x, _y in self.observations)
        sum_y = sum(y for _x, y in self.observations)
        sum_xx = sum(x * x for x, _y in self.observations)
        sum_xy = sum(x * y for x, y in self.observations)
        denom = n * sum_xx - sum_x * sum_x
        if abs(denom) < 1e-12:
            # All sizes identical; fall back to the mean cost.
            return (0.0, sum_y / n)
        a = (n * sum_xy - sum_x * sum_y) / denom
        b = (sum_y - a * sum_x) / n
        return (a, b)

    def predict(self, size: float) -> Optional[float]:
        """Estimated cost for an input of ``size``; None without data."""
        coeffs = self.coefficients()
        if coeffs is None:
            return None
        a, b = coeffs
        return max(0.0, a * float(size) + b)
