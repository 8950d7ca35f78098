"""Machine-readable record of published-formula corrections.

The published recursions for the null law and for the conditional
counts contain misprints.  Each engine that re-implements a published
formula carries a DiscrepancyReport: the resolutions it applied
(literal formula vs. the corrected form actually evaluated) and any
remaining numeric mismatches against the authoritative engine.  An
empty ``mismatches`` list means the corrected form reproduces the
oracle exactly everywhere it was checked.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Resolution:
    """One documented correction to a published formula."""

    location: str
    literal: str
    corrected: str
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Corrections applied by a published-formula engine plus residual mismatches."""

    engine: str
    resolutions: tuple[Resolution, ...] = ()
    mismatches: tuple[dict, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "resolutions": [r.to_dict() for r in self.resolutions],
            "mismatches": list(self.mismatches),
        }
