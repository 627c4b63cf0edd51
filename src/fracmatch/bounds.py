"""The complement-sum bounds as a sweep runs them: each bound's verdict
from doubled matching numbers, edge counts and isolate-free flags, and
the counts and CSV rows of a stream of solved graphs. It needs no graph,
matching or family code, so a sweep does not load those layers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import PreconditionError
from .halfint import half_text

if TYPE_CHECKING:
    from .families import FamilyLabel

    # A solved sweep graph: graph6 key, n, alpha2(G), alpha2(Gc), the verdict
    # of the swept bound, and the equality family label (None without one).
    SweepRecord = Tuple[str, int, int, int, "Verdict", Optional[FamilyLabel]]

BOUND_NAMES = ("basic", "nonempty", "isolate_free")

# Smallest order at which the two stronger bounds and the near-quarter
# construction are stated to hold.
MIN_STATED_ORDER = 28

# Each bound's value in half-units is n plus this offset.
_BOUND_OFFSET = {"basic": 0, "nonempty": 1, "isolate_free": 4}


class Verdict(NamedTuple):
    """One bound on one graph; bound is in half-units."""

    applies: bool
    bound: int
    satisfied: bool
    equality: bool


def check_sum_order(n: int) -> None:
    """The sum bounds speak of a graph and its complement on n >= 2
    vertices."""
    if n < 2:
        raise PreconditionError(f"sum bounds need n >= 2, got {n}")


def bound_verdict(
    which: str, n: int, a_g: int, a_gc: int, m_g: int, m_gc: int,
    g_isolate_free: bool, gc_isolate_free: bool,
) -> Verdict:
    """The named bound on a graph of order n whose graph and complement
    have doubled matching numbers a_g, a_gc and edge counts m_g, m_gc.
    The two stronger bounds apply only from MIN_STATED_ORDER on."""
    check_sum_order(n)
    if which == "basic":
        applies = True
    elif which == "nonempty":
        applies = n >= MIN_STATED_ORDER and m_g > 0 and m_gc > 0
    elif which == "isolate_free":
        applies = n >= MIN_STATED_ORDER and g_isolate_free and gc_isolate_free
    else:
        raise ValueError(f"unknown bound name {which!r}")
    bound = n + _BOUND_OFFSET[which]
    total = a_g + a_gc
    return Verdict(applies, bound, total >= bound, total == bound)


@dataclass(frozen=True)
class SweepStats:
    which: str
    total: int
    applies: int
    satisfied: int
    equality: int
    characterization_match: int
    violations: Tuple[str, ...]
    unmatched_equalities: Tuple[str, ...]

    def merge(self, other: "SweepStats") -> "SweepStats":
        if self.which != other.which:
            raise ValueError("cannot merge sweeps of different bounds")
        return SweepStats(
            which=self.which,
            total=self.total + other.total,
            applies=self.applies + other.applies,
            satisfied=self.satisfied + other.satisfied,
            equality=self.equality + other.equality,
            characterization_match=self.characterization_match + other.characterization_match,
            violations=tuple(sorted(set(self.violations) | set(other.violations))),
            unmatched_equalities=tuple(
                sorted(set(self.unmatched_equalities) | set(other.unmatched_equalities))
            ),
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "bound": self.which,
            "total": self.total,
            "applies": self.applies,
            "satisfied": self.satisfied,
            "equality": self.equality,
            "characterization_match": self.characterization_match,
            "violations": list(self.violations),
            "unmatched_equalities": list(self.unmatched_equalities),
        }


CSV_HEADER = "graph6,n,alpha_g,alpha_gc,sum,bound,satisfied,equality,family"


def empty_stats(which: str) -> SweepStats:
    return SweepStats(which, 0, 0, 0, 0, 0, (), ())


def _sweep_pairs(
    records: Iterable[SweepRecord], which: str
) -> Tuple[SweepStats, List[str]]:
    """Counts, violations, unmatched equalities and CSV rows of a stream
    of solved graphs."""
    if which not in BOUND_NAMES:
        raise ValueError(f"unknown bound name {which!r}")
    total = applies = satisfied = equality = char_match = 0
    violations: List[str] = []
    unmatched: List[str] = []
    rows: List[str] = []
    for g6, n, a_g, a_gc, v, label in records:
        total += 1
        family = "" if label is None else label.tag.value
        if v.applies:
            applies += 1
            if v.satisfied:
                satisfied += 1
            else:
                violations.append(g6)
            if v.equality:
                equality += 1
                if family:
                    char_match += 1
                else:
                    unmatched.append(g6)
        rows.append(
            f"{g6},{n},{half_text(a_g)},{half_text(a_gc)},{half_text(a_g + a_gc)},"
            f"{half_text(v.bound)},{int(v.satisfied)},{int(v.equality)},{family}"
        )
    stats = SweepStats(
        which=which,
        total=total,
        applies=applies,
        satisfied=satisfied,
        equality=equality,
        characterization_match=char_match,
        violations=tuple(sorted(violations)),
        unmatched_equalities=tuple(sorted(unmatched)),
    )
    return stats, rows
