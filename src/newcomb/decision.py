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
euros) has a1 = a2 < 0, so dividing by a1 reduces it to
p1 + p2 <= b / a1 = 1.01:

    >>> line = decision_boundary(UtilityMatrix.classic())
    >>> line.a1 == line.a2 < 0, line.b / line.a1
    (True, 1.01)

Everything here is a pure function of its inputs; all values are
64-bit floats and no shared state exists, so concurrent use is safe.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum

from . import _PUBLIC
from ._record import Record, set_field
from ._validate import as_tuple, check_int, check_number, check_pair, check_type, show
from .errors import ValidationError

__all__ = list(_PUBLIC["decision"])

# The largest grid resolution: its CSV already has 2^32 rows (56 GiB), and
# setup to the first row grows with it (20 MB, 2 s; 325 MB, 30 s at 2^20).
MAX_RESOLUTION = 1 << 16
# The grid resolution of region_grid and of a configuration that names none.
DEFAULT_RESOLUTION = 101


class CChoice(Enum):
    """C's move: take both boxes (C1) or only the opaque box (C2)."""

    C1 = "C1"
    C2 = "C2"


class SChoice(Enum):
    """S's move, fixed before C plays: S1 matches C1, S2 matches C2."""

    S1 = "S1"
    S2 = "S2"


class UtilityMatrix(Record):
    """C's payoff table in euros; rows are S's choice, columns are C's.

    Entries must be finite and nonnegative (the classic table contains
    a literal zero).
    """

    __slots__ = ("v11", "v12", "v21", "v22")

    def __init__(self, v11: float, v12: float, v21: float, v22: float):
        set_field(self, "v11", check_number(v11, "v11", minimum=0))
        set_field(self, "v12", check_number(v12, "v12", minimum=0))
        set_field(self, "v21", check_number(v21, "v21", minimum=0))
        set_field(self, "v22", check_number(v22, "v22", minimum=0))

    @classmethod
    def classic(cls) -> "UtilityMatrix":
        """The classic million-euro table."""
        return cls(v11=10_000.0, v12=0.0, v21=1_010_000.0, v22=1_000_000.0)

    def as_rows(self) -> list[list[float]]:
        return [[self.v11, self.v12], [self.v21, self.v22]]

    def payoff(self, s: SChoice, c: CChoice) -> float:
        """Table lookup v[s][c]."""
        check_type(s, "s", SChoice)
        return self.column(c)[s is SChoice.S2]

    def column(self, c: CChoice) -> tuple[float, float]:
        """The (v1j, v2j) column for C's choice j."""
        check_type(c, "c", CChoice)
        if c is CChoice.C1:
            return (self.v11, self.v21)
        return (self.v12, self.v22)


class PredictorProfile(Record):
    """Predictor accuracies: p1 = P(S=S1|C=C1), p2 = P(S=S2|C=C2).

    The complementary conditionals are implied: P(S=S2|C=C1) = 1 - p1
    and P(S=S1|C=C2) = 1 - p2.
    """

    __slots__ = ("p1", "p2")

    def __init__(self, p1: float, p2: float):
        set_field(self, "p1", check_number(p1, "p1", 0, 1))
        set_field(self, "p2", check_number(p2, "p2", 0, 1))

    def s1_probability(self, c: CChoice) -> float:
        """P(S = S1 | C = c)."""
        check_type(c, "c", CChoice)
        return self.p1 if c is CChoice.C1 else 1.0 - self.p2


class DecisionBoundary(Record):
    """Affine half-plane form of the choice rule: C1 iff a1*p1 + a2*p2 >= b.

    The coefficients must be finite.
    """

    __slots__ = ("a1", "a2", "b")

    def __init__(self, a1: float, a2: float, b: float):
        set_field(self, "a1", check_number(a1, "a1"))
        set_field(self, "a2", check_number(a2, "a2"))
        set_field(self, "b", check_number(b, "b"))


class RegionGrid(Record):
    """Optimal choice sampled on an inclusive uniform grid over [0,1]^2.

    Row i is p1 = i/(resolution-1) and column j is p2 = j/(resolution-1).
    U2 is monotone along a row, so each row chooses C1 on one run of
    columns: c1_spans[i] = (lo, hi) means C1 for lo <= j < hi and C2
    elsewhere, and either lo == 0 or hi == resolution. Built by
    region_grid(); choice_at() looks up one cell. Any iterable of
    spans, each a tuple or list of two ints, is stored as a tuple of
    (lo, hi) tuples.
    """

    __slots__ = ("resolution", "c1_spans")

    def __init__(self, resolution: int, c1_spans: tuple[tuple[int, int], ...]):
        r = check_int(resolution, "resolution", 2, MAX_RESOLUTION)
        spans = as_tuple(c1_spans, "c1_spans")
        if len(spans) != r:
            raise ValidationError(f"grid must hold {r} C1 spans, got {len(spans)}")
        pairs = []
        for i, span in enumerate(spans):
            lo, hi = check_pair(span, f"c1_spans[{i}]")
            check_int(lo, f"c1_spans[{i}] lo", 0, r)
            check_int(hi, f"c1_spans[{i}] hi", lo, r)
            if lo != 0 and hi != r:
                raise ValidationError(f"c1_spans[{i}] = {show(span)} must start at 0 or end at {r}")
            pairs.append((lo, hi))
        set_field(self, "resolution", r)
        set_field(self, "c1_spans", tuple(pairs))

    def axis_value(self, index: int) -> float:
        """Grid coordinate for an axis index (endpoints inclusive)."""
        check_int(index, "index", 0, self.resolution - 1)
        return index / (self.resolution - 1)

    def choice_at(self, i: int, j: int) -> CChoice:
        check_int(i, "i", 0, self.resolution - 1)
        check_int(j, "j", 0, self.resolution - 1)
        lo, hi = self.c1_spans[i]
        return CChoice.C1 if lo <= j < hi else CChoice.C2


def _utility(missed: float, predicted: float, accuracy: float) -> float:
    # A choice's expected payoff: it pays `predicted` when S follows the
    # prediction, with probability `accuracy`, and `missed` otherwise.
    # expected_utilities and region_grid both evaluate it here, so they
    # round alike.
    return missed + accuracy * (predicted - missed)


def expected_utilities(v: UtilityMatrix, p: PredictorProfile) -> tuple[float, float]:
    """Return (U1, U2), C's expected payoff for each choice.

    U1 = v21 + p1*(v11 - v21) and U2 = v12 + p2*(v22 - v12), evaluated
    directly in double precision with no extra rounding. At p1 = 0 and
    p2 = 0 that gives v21 and v12 exactly, but at p1 = 1 or p2 = 1 the
    rounding can miss v11 or v22 on a table with non-integer entries:

    >>> v = UtilityMatrix(1142.8, 493577.9, 867602.8, 243910.9)
    >>> expected_utilities(v, PredictorProfile(1, 1))
    (1142.8000000000466, 243910.9)

    A perfect predictor's batch mean, which is exact, gives 1142.8 for
    U1. The form is kept, as region_grid's bisection relies on its being
    monotone in p.
    """
    check_type(v, "v", UtilityMatrix)
    check_type(p, "p", PredictorProfile)
    return (_utility(v.v21, v.v11, p.p1), _utility(v.v12, v.v22, p.p2))


def choose(v: UtilityMatrix, p: PredictorProfile) -> CChoice:
    """C's optimal choice: C1 iff U1 >= U2 (ties go to C1)."""
    u1, u2 = expected_utilities(v, p)
    return CChoice.C1 if u1 >= u2 else CChoice.C2


def decision_boundary(v: UtilityMatrix) -> DecisionBoundary:
    """Canonical half-plane coefficients of the choice rule for v."""
    check_type(v, "v", UtilityMatrix)
    return DecisionBoundary(a1=v.v11 - v.v21, a2=v.v12 - v.v22, b=v.v12 - v.v21)


def region_grid(v: UtilityMatrix, resolution: int = DEFAULT_RESOLUTION) -> RegionGrid:
    """Evaluate choose() on an inclusive resolution x resolution grid.

    The first index runs over p1, the second over p2, both ascending
    from 0 to 1 in steps of 1/(resolution-1). U1 depends only on p1 and
    U2 only on p2, and both vectors are evaluated as expected_utilities()
    evaluates them. U2 = v12 + p2*(v22 - v12) is affine in p2, and
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
    u1 = [_utility(v.v21, v.v11, x) for x in axis]
    u2 = [_utility(v.v12, v.v22, x) for x in axis]
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
