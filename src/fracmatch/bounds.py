"""The complement-sum bounds as a sweep runs them, per graph or per batch
in columns: each bound's verdict from doubled matching numbers, edge
counts and isolate-free flags, and the counts and CSV rows of a solved
batch. It needs no graph, matching or family code, and no numpy."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import PreconditionError
from .halfint import half_text

if TYPE_CHECKING:
    from .families import FamilyLabel

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
    The two stronger bounds apply only from MIN_STATED_ORDER on. Given
    numpy columns, it gives columns, bar bound and basic's applies."""
    check_sum_order(n)
    big = n >= MIN_STATED_ORDER
    if which == "basic":
        applies = True
    elif which == "nonempty":
        applies = big & (m_g > 0) & (m_gc > 0)
    elif which == "isolate_free":
        applies = big & g_isolate_free & gc_isolate_free
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
        fields = asdict(self)
        return {"bound": fields.pop("which"), **fields}


CSV_HEADER = "graph6,n,alpha_g,alpha_gc,sum,bound,satisfied,equality,family"


def empty_stats(which: str) -> SweepStats:
    if which not in BOUND_NAMES:
        raise ValueError(f"unknown bound name {which!r}")
    return SweepStats(which, 0, 0, 0, 0, 0, (), ())


def _row_tail(n: int, bound: int, a_g: int, a_gc: int, satisfied: bool, equality: bool) -> str:
    return (
        f",{n},{half_text(a_g)},{half_text(a_gc)},{half_text(a_g + a_gc)},"
        f"{half_text(bound)},{int(satisfied)},{int(equality)},"
    )


def tally(
    which: str, n: int, keys: Sequence[str], a_g: List[int], a_gc: List[int], v: Verdict,
    label_of: Callable[[int], Optional[FamilyLabel]], tails: Dict[tuple, str],
) -> Tuple[SweepStats, List[str]]:
    """Counts, violations, unmatched equalities and CSV rows of a batch of
    order n: keys, doubled matching numbers, and the Verdict on columns.
    label_of(i) labels equality row i. A row is its key, its tail (memoised
    in tails, one per bound and order) and its family."""
    ok, bad = v.applies & v.satisfied, v.applies & ~v.satisfied
    hit = v.applies & v.equality
    labels = {i: label_of(i) for i in v.equality.nonzero()[0].tolist()}
    columns = zip(a_g, a_gc, v.satisfied.tolist(), v.equality.tolist())
    rows = [
        key + (tails.get(t) or tails.setdefault(t, _row_tail(n, v.bound, *t)))
        for key, t in zip(keys, columns)
    ]
    for i, label in labels.items():
        if label is not None:
            rows[i] += label.tag.value
    hits = hit.nonzero()[0].tolist()
    stats = SweepStats(
        which=which,
        total=len(keys),
        applies=int(ok.sum() + bad.sum()),
        satisfied=int(ok.sum()),
        equality=len(hits),
        characterization_match=sum(labels[i] is not None for i in hits),
        violations=tuple(sorted(keys[i] for i in bad.nonzero()[0].tolist())),
        unmatched_equalities=tuple(sorted(keys[i] for i in hits if labels[i] is None)),
    )
    return stats, rows
