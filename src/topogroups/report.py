"""Report datatypes shared by the verifiers and the suite runner."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
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
ERROR = "error"


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

    def json_line(self, timings: bool = False) -> str:
        """The row as JSONEncoder(sort_keys=True) writes its six keys, from one template."""
        elapsed = repr(round(self.elapsed_ms, 3)) if timings and self.elapsed_ms is not None else "null"
        witness = "null" if self.witness is None else _quote(self.witness)
        return (
            f'{{"check": {_quote(self.check)}, "elapsed_ms": {elapsed}, "group": {_quote(self.group)}, '
            f'"status": {_quote(self.status)}, "toposys": {_quote(self.toposys)}, "witness": {witness}}}'
        )

    def text_line(self, timings: bool = False) -> str:
        head = f"{self.status.upper():7s} {self.check} group={self.group}"
        if self.toposys:
            head += f" sys={self.toposys}"
        if self.witness:
            head += f" witness={self.witness}"
        if timings and self.elapsed_ms is not None:
            head += f" ({self.elapsed_ms:.1f} ms)"
        return head
