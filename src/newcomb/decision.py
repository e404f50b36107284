"""Closed-form expected-utility analysis of Newcomb's game.

Two players: S moves first with choices S1/S2, C moves second with
choices C1/C2. The payoff to C is a 2x2 table v_ij (row = S's choice,
column = C's choice). S's move is driven by a prediction of C, whose
quality is summarized by two conditional accuracies

    p1 = P(S = S1 | C = C1),    p2 = P(S = S2 | C = C2).

C's expected utilities are affine in the accuracies:

    U1 = v21 + p1 * (v11 - v21)
    U2 = v12 + p2 * (v22 - v12)

C picks C1 whenever U1 >= U2 (ties resolve to C1). Rearranged, that
rule is the half-plane

    a1 * p1 + a2 * p2 >= b,   a1 = v11 - v21,  a2 = v12 - v22,
                              b  = v12 - v21,

which for the classic payoff table (10000 / 0 / 1010000 / 1000000
euros) reduces to p1 + p2 <= 1.01.

Everything here is a pure function of its inputs; all values are
64-bit floats and no shared state exists, so concurrent use is safe.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum

from ._validate import as_tuple, check_int, check_number, check_type
from .errors import ValidationError

__all__ = [
    "CChoice",
    "SChoice",
    "UtilityMatrix",
    "PredictorProfile",
    "DecisionBoundary",
    "RegionGrid",
    "expected_utilities",
    "choose",
    "decision_boundary",
    "region_grid",
    "dominant_choice",
]

# The largest grid resolution: its CSV already has 2^32 rows (56 GiB), and
# setup to the first row grows with it (20 MB, 2 s; 325 MB, 30 s at 2^20).
MAX_RESOLUTION = 1 << 16


class CChoice(Enum):
    """C's move: take both boxes (C1) or only the opaque box (C2)."""

    C1 = "C1"
    C2 = "C2"


class SChoice(Enum):
    """S's move, fixed before C plays: S1 matches C1, S2 matches C2."""

    S1 = "S1"
    S2 = "S2"


@dataclass(frozen=True)
class UtilityMatrix:
    """C's payoff table in euros; rows are S's choice, columns are C's.

    Entries must be finite and nonnegative (the classic table contains
    a literal zero).
    """

    v11: float
    v12: float
    v21: float
    v22: float

    def __post_init__(self) -> None:
        for name in ("v11", "v12", "v21", "v22"):
            object.__setattr__(self, name, check_number(getattr(self, name), name, minimum=0))

    @classmethod
    def classic(cls) -> "UtilityMatrix":
        """The classic million-euro table."""
        return cls(v11=10_000.0, v12=0.0, v21=1_010_000.0, v22=1_000_000.0)

    @classmethod
    def from_rows(cls, rows) -> "UtilityMatrix":
        """Build from [[v11, v12], [v21, v22]]."""
        try:
            (v11, v12), (v21, v22) = rows
        except (TypeError, ValueError):
            raise ValidationError(f"utilities must be a 2x2 table, got {rows!r}") from None
        return cls(v11=v11, v12=v12, v21=v21, v22=v22)

    def as_rows(self) -> list[list[float]]:
        return [[self.v11, self.v12], [self.v21, self.v22]]

    def payoff(self, s: SChoice, c: CChoice) -> float:
        """Table lookup v[s][c]."""
        check_type(s, "s", SChoice)
        check_type(c, "c", CChoice)
        if s is SChoice.S1:
            return self.v11 if c is CChoice.C1 else self.v12
        return self.v21 if c is CChoice.C1 else self.v22

    def column(self, c: CChoice) -> tuple[float, float]:
        """The (v1j, v2j) column for C's choice j."""
        check_type(c, "c", CChoice)
        if c is CChoice.C1:
            return (self.v11, self.v21)
        return (self.v12, self.v22)


@dataclass(frozen=True)
class PredictorProfile:
    """Predictor accuracies: p1 = P(S=S1|C=C1), p2 = P(S=S2|C=C2).

    The complementary conditionals are implied: P(S=S2|C=C1) = 1 - p1
    and P(S=S1|C=C2) = 1 - p2.
    """

    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            object.__setattr__(self, name, check_number(getattr(self, name), name, 0, 1))

    @classmethod
    def random(cls) -> "PredictorProfile":
        return cls(0.5, 0.5)

    def s1_probability(self, c: CChoice) -> float:
        """P(S = S1 | C = c)."""
        check_type(c, "c", CChoice)
        return self.p1 if c is CChoice.C1 else 1.0 - self.p2


@dataclass(frozen=True)
class DecisionBoundary:
    """Affine half-plane form of the choice rule: C1 iff a1*p1 + a2*p2 >= b."""

    a1: float
    a2: float
    b: float

    def prefers_c1(self, p1: float, p2: float) -> bool:
        return self.a1 * p1 + self.a2 * p2 >= self.b


@dataclass(frozen=True)
class RegionGrid:
    """Optimal choice sampled on an inclusive uniform grid over [0,1]^2.

    Row i is p1 = i/(resolution-1) and column j is p2 = j/(resolution-1).
    U2 is monotone along a row, so each row chooses C1 on one run of
    columns: c1_spans[i] = (lo, hi) means C1 for lo <= j < hi and C2
    elsewhere, and either lo == 0 or hi == resolution. Built by
    region_grid(); choice_at() looks up one cell. Any iterable of
    pairs is stored as a tuple of (lo, hi) tuples.
    """

    resolution: int
    c1_spans: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        r = check_int(self.resolution, "resolution", 2, MAX_RESOLUTION)
        spans = as_tuple(self.c1_spans, "c1_spans")
        if len(spans) != r:
            raise ValidationError(f"grid must hold {r} C1 spans, got {len(spans)}")
        pairs = []
        for i, span in enumerate(spans):
            try:
                lo, hi = span
            except (TypeError, ValueError):
                raise ValidationError(f"c1_spans[{i}] must be a pair (lo, hi), got {span!r}") from None
            check_int(lo, f"c1_spans[{i}] lo", 0, r)
            check_int(hi, f"c1_spans[{i}] hi", lo, r)
            if lo != 0 and hi != r:
                raise ValidationError(f"c1_spans[{i}] = {span!r} must start at 0 or end at {r}")
            pairs.append((lo, hi))
        object.__setattr__(self, "c1_spans", tuple(pairs))

    def axis_value(self, index: int) -> float:
        """Grid coordinate for an axis index (endpoints inclusive)."""
        return index / (self.resolution - 1)

    def choice_at(self, i: int, j: int) -> CChoice:
        check_int(i, "i", 0, self.resolution - 1)
        check_int(j, "j", 0, self.resolution - 1)
        lo, hi = self.c1_spans[i]
        return CChoice.C1 if lo <= j < hi else CChoice.C2


def expected_utilities(v: UtilityMatrix, p: PredictorProfile) -> tuple[float, float]:
    """Return (U1, U2), C's expected payoff for each choice.

    U1 = v21 + p1*(v11 - v21) and U2 = v12 + p2*(v22 - v12), evaluated
    directly in double precision with no extra rounding.
    """
    check_type(v, "v", UtilityMatrix)
    check_type(p, "p", PredictorProfile)
    u1 = v.v21 + p.p1 * (v.v11 - v.v21)
    u2 = v.v12 + p.p2 * (v.v22 - v.v12)
    return (u1, u2)


def choose(v: UtilityMatrix, p: PredictorProfile) -> CChoice:
    """C's optimal choice: C1 iff U1 >= U2 (ties go to C1)."""
    u1, u2 = expected_utilities(v, p)
    return CChoice.C1 if u1 >= u2 else CChoice.C2


def decision_boundary(v: UtilityMatrix) -> DecisionBoundary:
    """Canonical half-plane coefficients of the choice rule for v."""
    check_type(v, "v", UtilityMatrix)
    return DecisionBoundary(a1=v.v11 - v.v21, a2=v.v12 - v.v22, b=v.v12 - v.v21)


def region_grid(v: UtilityMatrix, resolution: int = 101) -> RegionGrid:
    """Evaluate choose() on an inclusive resolution x resolution grid.

    The first index runs over p1, the second over p2, both ascending
    from 0 to 1 in steps of 1/(resolution-1). U1 depends only on p1 and
    U2 only on p2; both vectors use the same float operations as
    expected_utilities(). U2 = v12 + p2*(v22 - v12) is affine in p2, and
    rounded multiplication and addition by a constant are monotone, so
    the u2 vector is monotone too: ascending when v22 >= v12, descending
    otherwise. A row's C1 cells, where u1 >= u2, are then a prefix or a
    suffix of the p2 axis, and one bisection per row finds it, O(r log r)
    in all instead of r^2 comparisons.
    """
    check_type(v, "v", UtilityMatrix)
    check_int(resolution, "resolution", 2, MAX_RESOLUTION)
    step = resolution - 1
    axis = [i / step for i in range(resolution)]
    u1 = [v.v21 + x * (v.v11 - v.v21) for x in axis]
    u2 = [v.v12 + x * (v.v22 - v.v12) for x in axis]
    if v.v22 >= v.v12:
        # u2 ascends: C1 where u2[j] <= u1, a prefix
        spans = tuple((0, bisect_right(u2, a)) for a in u1)
    else:
        # u2 descends, so -u2 ascends (negation is exact): C1 where
        # -u2[j] >= -u1, a suffix
        negated = [-b for b in u2]
        spans = tuple((bisect_left(negated, -a), resolution) for a in u1)
    return RegionGrid(resolution=resolution, c1_spans=spans)


def dominant_choice(v: UtilityMatrix) -> CChoice | None:
    """The strictly dominant choice for C, or None when neither dominates.

    C1 dominates when it beats C2 in both of S's rows (v11 > v12 and
    v21 > v22); symmetrically for C2.
    """
    check_type(v, "v", UtilityMatrix)
    if v.v11 > v.v12 and v.v21 > v.v22:
        return CChoice.C1
    if v.v12 > v.v11 and v.v22 > v.v21:
        return CChoice.C2
    return None
