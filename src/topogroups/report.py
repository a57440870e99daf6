"""Report datatypes shared by the verifiers and the suite runner."""

from __future__ import annotations

from typing import NamedTuple


class ValidationFailure(NamedTuple):
    """A single violated law together with a concrete witness.

    Every verifier returns its first failure, or None when the check passes.
    """

    kind: str
    witness: tuple
    detail: str = ""


PASS = "pass"
FAIL = "fail"
FINDING = "finding"


class CheckReport(NamedTuple):
    """One suite check on one (group, topo-system) cell."""

    check: str
    group: str
    toposys: str
    status: str
    witness: str | None = None
    # reruns must be byte-identical, so elapsed_ms is emitted as null unless
    # timings are explicitly requested
    elapsed_ms: float | None = None

    def to_dict(self, timings: bool = False) -> dict:
        return {
            "check": self.check,
            "group": self.group,
            "toposys": self.toposys,
            "status": self.status,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed_ms, 3) if timings and self.elapsed_ms is not None else None,
        }

    def text_line(self, timings: bool = False) -> str:
        head = f"{self.status.upper():7s} {self.check} group={self.group}"
        if self.toposys:
            head += f" sys={self.toposys}"
        if self.witness:
            head += f" witness={self.witness}"
        if timings and self.elapsed_ms is not None:
            head += f" ({self.elapsed_ms:.1f} ms)"
        return head
