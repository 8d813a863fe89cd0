"""Structured pass/fail reports shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    expected: str
    computed: str
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class Report:
    suite: str
    results: tuple[CheckResult, ...]
    seed: Optional[int] = None
    cases: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))

    @classmethod
    def merged(cls, suite: str, reports: Iterable["Report"]) -> "Report":
        """One report holding the checks of ``reports``, in order."""
        return cls(suite, tuple(r for rep in reports for r in rep.results))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def counts(self) -> tuple[int, int]:
        return sum(r.passed for r in self.results), len(self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {r.check_id} | expected {r.expected} | computed {r.computed}"
            if r.note:
                line += f" | {r.note}"
            lines.append(line)
        ok, total = self.counts
        lines.append(f"suite {self.suite}: {ok}/{total} checks passed")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        obj: dict = {
            "suite": self.suite,
            "passed": self.passed,
            "passed_count": self.counts[0],
            "total": self.counts[1],
            "checks": [
                {
                    "check_id": r.check_id,
                    "expected": r.expected,
                    "computed": r.computed,
                    "passed": r.passed,
                    "note": r.note,
                }
                for r in self.results
            ],
        }
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.cases is not None:
            obj["cases"] = self.cases
        return obj
