"""Machine-readable experiment reports.

One schema for every subcommand: a config echo, a list of named checks, and
an overall status.  Exact rationals serialize as "p/q" strings, exact
multi-quadratic values sum_w q_w sqrt(w) as {"w": "q_w"} objects, Monte Carlo
estimates as floats with standard errors; every numeric is tagged one or the
other so reports diff cleanly and can be golden-file tested.  The wall-time
field is excluded from byte comparisons by convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exact import RadSum, frac_str

__all__ = ["Check", "ExperimentReport", "jsonable"]


def jsonable(x):
    """Recursively convert report values to JSON-stable types."""
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, RadSum):
        return {str(w): frac_str(q) for w, q in sorted(x.terms.items())}
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


@dataclass
class Check:
    """A single named verification with a tagged value."""

    name: str
    kind: str  # "exact" | "estimate" | "info"
    value: object
    stderr: Optional[float] = None
    tol: Optional[object] = None
    passed: Optional[bool] = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind, "value": jsonable(self.value)}
        if self.stderr is not None:
            out["stderr"] = self.stderr
        if self.tol is not None:
            out["tol"] = jsonable(self.tol)
        if self.passed is not None:
            out["passed"] = self.passed
        return out


@dataclass
class ExperimentReport:
    command: str
    config: dict
    results: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def add(self, check: Check) -> None:
        self.results.append(check)

    @property
    def status(self) -> str:
        flags = [c.passed for c in self.results if c.passed is not None]
        return "pass" if all(flags) else "fail"

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": jsonable(self.config),
            "results": [c.to_dict() for c in self.results],
            "status": self.status,
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
