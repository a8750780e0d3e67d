"""Uniform pass/fail reports for the verification entry points."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class CheckItem:
    """One named check: how many cases ran, a description of each failed
    case (or of the first few, when a check caps them), and the true number
    of failed cases.  Where `checked` counts cases that the item does not
    itself test, `tested` is the number it does test."""

    name: str
    checked: int = 0
    violations: list = field(default_factory=list)
    violation_count: Optional[int] = None
    tested: Optional[int] = None

    def __post_init__(self):
        if self.violation_count is None:
            self.violation_count = len(self.violations)

    @property
    def ok(self):
        return not self.violations

    def to_dict(self):
        out = {"name": self.name, "checked": self.checked,
               "ok": self.ok, "violations": list(self.violations),
               "violation_count": self.violation_count}
        if self.tested is not None:
            out["tested"] = self.tested
        return out


@dataclass
class CheckReport:
    items: list = field(default_factory=list)

    def record(self, name, checked, violations=(), violation_count=None):
        item = CheckItem(name, checked, list(violations), violation_count)
        self.items.append(item)
        return item

    def extend(self, other: "CheckReport"):
        self.items.extend(other.items)
        return self

    @property
    def ok(self):
        return all(it.ok for it in self.items)

    @property
    def total_checked(self):
        return sum(it.checked for it in self.items)

    def to_dict(self):
        return {"ok": self.ok, "total_checked": self.total_checked,
                "items": [it.to_dict() for it in self.items]}

    def summary(self):
        lines = []
        for it in self.items:
            status = "ok" if it.ok else "FAIL(%d)" % it.violation_count
            lines.append("%-40s %6d checks  %s" % (it.name, it.checked, status))
        return "\n".join(lines)
