"""Uniform pass/fail reporting for quantitative checks.

Every checker in the package returns a :class:`CheckReport` so the CLI can
serialize margins and verdicts into one manifest format.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckItem:
    """One verified inequality or comparison.

    ``value`` is the measured quantity, ``bound`` the limit it was judged
    against, ``tolerance`` the slack that was granted on top of the bound.
    """

    check_id: str
    passed: bool
    value: float
    bound: float
    tolerance: float = 0.0
    detail: str = ""

    @property
    def margin(self) -> float:
        """Slack left before the check would fail (negative = failed)."""
        return self.bound + self.tolerance - self.value

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "passed": bool(self.passed),
            "value": float(self.value),
            "bound": float(self.bound),
            "tolerance": float(self.tolerance),
            "margin": float(self.margin),
            "detail": self.detail,
        }


@dataclass
class CheckReport:
    """Collection of check items with an aggregate verdict."""

    items: list[CheckItem] = field(default_factory=list, init=False)

    def add(
        self,
        check_id: str,
        value: float,
        bound: float,
        tolerance: float = 0.0,
        detail: str = "",
    ) -> CheckItem:
        """Record ``value <= bound + tolerance`` as a check item."""
        item = CheckItem(
            check_id=check_id,
            passed=bool(value <= bound + tolerance),
            value=float(value),
            bound=float(bound),
            tolerance=float(tolerance),
            detail=detail,
        )
        self.items.append(item)
        return item

    def extend(self, other: "CheckReport") -> None:
        self.items.extend(other.items)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "items": [item.to_dict() for item in self.items],
        }

    def __str__(self) -> str:
        lines = []
        for item in self.items:
            status = "PASS" if item.passed else "FAIL"
            lines.append(
                f"[{status}] {item.check_id}: value={item.value:.6g} "
                f"bound={item.bound:.6g} tol={item.tolerance:.3g}"
            )
        return "\n".join(lines)
