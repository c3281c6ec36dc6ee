"""Inductive parallelepiped sequences, their multiplicity, roundness, and
the vertical subdivision with level classification.

A vertical subdivision stores only its box and per-depth piece lengths;
level chains and admissibility are computed from them in O(dim).

Three box constructions are provided:

* ``B-d2``  -- staggered planar rectangles whose endpoints are floors of
  4^(n*alpha); two factors, every step raises one lower and one upper
  endpoint by the factor's own growth base.
* ``B-general`` -- the d >= 3 analogue seeded at [[1, 4^d]]^d: at step n the
  factor indexed by the residue class m(n) has its lower endpoint scaled by
  2^(d*alpha_m) (with a catch-up to one growth factor below the upper one,
  which is what keeps the cover multiplicity at d+2) and the cyclically
  next factor has its upper endpoint scaled likewise.
* ``FF`` -- the (d-1)-dimensional sequence seeded at [1, 1+4^(d+1)]^(d-1)
  whose factor i scales by 4^i, once per cycle on each endpoint, the last
  factor moving first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .lattice import Box

N_MAX_GUARD = 200
RADICAND_BITS_GUARD = 1 << 19


def integer_root(x: int, q: int) -> int:
    """Largest r >= 0 with r**q <= x (exact, arbitrary precision).

    At every size the start is the root's log2, (low + log2 t) / q for
    t = x >> low and low = max(0, bits - 53): t is x itself when x has at
    most 53 bits, and otherwise its top 53 bits, short of x / 2^low by
    under 2^-52 relative.  Its float error is below 2^-45 for any q
    (log2 t to one ulp of 53, that shortfall, and one rounding each of the
    sum and the quotient), so raised by 2^-40 and rounded up it gives a
    start of at least 1 above the root, over it by 2^-40 in relative terms
    plus 1 for the rounding up.  Integer Newton steps
    r -> ((q-1) r + x // r^(q-1)) // q from any start above the root
    decrease until they stop on it; `math.isqrt` does the same for q = 2.
    """
    if x < 0 or q < 1:
        raise ValueError("need x >= 0 and q >= 1")
    if x < 2 or q == 1:
        return x
    if q == 2:
        return math.isqrt(x)
    bits = x.bit_length()
    # the start is 2^(a + f), f in [0, 19)
    low = max(0, bits - 53)
    a, b = divmod(low, q)
    f = (b + math.log2(x >> low)) / q + 2.0 ** -40
    e = math.floor(f)
    top = int(2.0 ** (f - e + 52)) + 1  # above 2^(f - e + 52), below 2^53 + 2
    shift = a + e - 52
    r = top << shift if shift >= 0 else -(-top >> -shift)
    while True:
        s = ((q - 1) * r + x // r ** (q - 1)) // q
        if s >= r:
            return r
        r = s


def scaled_root(value: int, base: int, exponent: Fraction, *, ceil: bool = False) -> int:
    """floor(value * base**exponent), or with `ceil` its ceiling, exactly,
    for value >= 0, base >= 1 and a rational exponent p/q of either sign.

    It is the q-th root of value^q * base^p, one `integer_root` of the
    radicand's integer part; the ceiling is the floor, plus one unless the
    root is exact.  A radicand longer than RADICAND_BITS_GUARD bits, by
    the bound q * bits(value) + |p| * bits(base), raises ValueError before
    it is built.
    """
    e = Fraction(exponent)
    p, q = e.numerator, e.denominator
    if q * value.bit_length() + abs(p) * base.bit_length() > RADICAND_BITS_GUARD:
        raise ValueError(
            f"{value} * {base}^({e}) needs a root of a radicand past "
            f"{RADICAND_BITS_GUARD} bits; use exponents with smaller denominators")
    num, den = value ** q * base ** max(p, 0), base ** max(-p, 0)
    r = integer_root(num // den, q)
    return r + 1 if ceil and r ** q * den != num else r


class _BoxSequenceFields(NamedTuple):
    kind: str
    start_index: int
    boxes: tuple[Box, ...]
    d: int
    alphas: tuple[Fraction, ...] | None = None


class BoxSequence(_BoxSequenceFields):
    """Boxes Q(n), n in `indices()`.  Every construction only raises
    endpoints, and the type enforces it: on every axis both endpoints are
    nondecreasing in n, or construction raises ValueError.  `alphas` are
    the chains' per-axis Holder exponents: a B sequence's own, and
    2/(d(d-1)) on every axis of an FF sequence."""

    __slots__ = ()

    def __new__(
        cls, kind: str, start_index: int, boxes: tuple[Box, ...], d: int,
        alphas: tuple[Fraction, ...] | None = None,
    ) -> BoxSequence:
        for n, (a, b) in enumerate(zip(boxes, boxes[1:]), start_index):
            for (lo_a, hi_a), (lo_b, hi_b) in zip(a.intervals, b.intervals, strict=True):
                if lo_b < lo_a or hi_b < hi_a:
                    raise ValueError(f"an endpoint falls from Q({n}) to Q({n + 1})")
        return tuple.__new__(cls, (kind, start_index, boxes, d, alphas))

    def box(self, n: int) -> Box:
        """Q(n); IndexError outside `indices()`, where an offset into
        `boxes` would wrap or run off the end."""
        i = n - self.start_index
        if not 0 <= i < len(self.boxes):
            raise IndexError(f"box index {n} outside {self.indices()}")
        return self.boxes[i]

    def indices(self) -> range:
        return range(self.start_index, self.start_index + len(self.boxes))

    def touched(self, n: int) -> tuple[int, int]:
        """(lower-raised axis, upper-raised axis) of the step Q(n) -> Q(n+1),
        on every kind: `step_axes` of n, or of n - 1 on B-d2, whose step n
        is the general rule's step n - 1."""
        return step_axes(n - (self.kind == "B-d2"), self.boxes[0].dim)


def step_axes(n: int, dim: int) -> tuple[int, int]:
    """The step rule of the box sequences on Z^dim: step n raises the lower
    endpoint of axis (n - 1) mod dim and the upper endpoint of the
    cyclically next axis."""
    low = (n - 1) % dim
    return low, (low + 1) % dim


def _check_alphas(alphas: Sequence[Fraction]) -> tuple[Fraction, ...]:
    a = tuple(Fraction(x) for x in alphas)
    if any(not 0 < x <= 1 for x in a):
        raise ValueError("exponents must lie in (0, 1]")
    if sum(a) != 1:
        raise ValueError(f"exponent sum must be 1, got {sum(a)}")
    return a


def _build_b_d2(alphas: Sequence[Fraction], n_max: int) -> BoxSequence:
    if len(alphas) != 2:
        raise ValueError("B-d2 takes two exponents")
    a1, a2 = _check_alphas(alphas)
    # the endpoints floor(4^(m*a)), once each for m up to the last box's m + 2
    top = (n_max - 1) // 2 + 3
    p1 = [scaled_root(1, 4, m * a1) for m in range(top)]
    p2 = [scaled_root(1, 4, m * a2) for m in range(top)]
    boxes = []
    for n in range(1, n_max + 1):
        m, odd = divmod(n - 1, 2)
        if odd == 0:  # n = 2m+1
            ivs = ((p1[m], p1[m + 1]), (p2[m], p2[m + 2]))
        else:  # n = 2m+2
            ivs = ((p1[m], p1[m + 2]), (p2[m + 1], p2[m + 2]))
        boxes.append(Box(ivs))
    return BoxSequence("B-d2", 1, tuple(boxes), alphas=(a1, a2), d=2)


def _build_b_general(alphas: Sequence[Fraction], n_max: int) -> BoxSequence:
    a = _check_alphas(alphas)
    d = len(a)
    if d < 3:
        raise ValueError("B-general needs d >= 3 (use B-d2 for two factors)")
    growth = [d * ak for ak in a]  # endpoints scale by 2^(d*alpha_k)
    boxes = [Box(tuple((1, 4 ** d) for _ in range(d)))]
    for n in range(1, n_max):
        prev = boxes[-1].intervals
        m, mm = step_axes(n, d)  # factor m's lower endpoint rises, and factor mm's upper one
        ivs = list(prev)
        x, y = ivs[m]
        # the raised lower endpoint also catches up to within one growth
        # factor of the upper one; without the catch-up the seed's aspect
        # ratio 4^d persists and the cover multiplicity exceeds d+2
        new_x = max(scaled_root(x, 2, growth[m]), scaled_root(y, 2, -growth[m], ceil=True))
        if new_x > y:
            raise ValueError(f"sequence degenerates at step {n}: {new_x} > {y}")
        ivs[m] = (new_x, y)
        x2, y2 = ivs[mm]
        ivs[mm] = (x2, scaled_root(y2, 2, growth[mm]))
        boxes.append(Box(tuple(ivs)))
    return BoxSequence("B-general", 1, tuple(boxes), alphas=a, d=d)


def _build_ff(d: int, n_max: int) -> BoxSequence:
    if d < 3:
        raise ValueError("FF sequence needs d >= 3")
    dim = d - 1
    side = 1 + 4 ** (d + 1)
    boxes = [Box(tuple((1, side) for _ in range(dim)))]
    for n in range(0, n_max):
        prev = boxes[-1].intervals
        i, j = step_axes(n, dim)  # i's lower end scales by 4^(i+1), j's upper by 4^(j+1)
        ivs = list(prev)
        x, y = ivs[i]
        new_x = 4 ** (i + 1) * x
        if new_x > y:
            raise ValueError(f"sequence degenerates at step {n}: {new_x} > {y}")
        ivs[i] = (new_x, y)
        x2, y2 = ivs[j]
        ivs[j] = (x2, 4 ** (j + 1) * y2)
        boxes.append(Box(tuple(ivs)))
    return BoxSequence("FF", 0, tuple(boxes), d=d, alphas=(Fraction(2, d * (d - 1)),) * dim)


def build_sequence(
    kind: str,
    *,
    alphas: Sequence[Fraction] | None = None,
    d: int | None = None,
    n_max: int,
) -> BoxSequence:
    """Build one of the inductive box sequences.

    ``B-d2`` and ``B-general`` take per-direction exponents summing to 1 and
    produce boxes Q(1)..Q(n_max); ``FF`` takes the dimension d and produces
    Q(0)..Q(n_max) in Z^(d-1).
    """
    if not 1 <= n_max <= N_MAX_GUARD:
        raise ValueError(f"n_max must be in [1, {N_MAX_GUARD}]")
    if kind == "B-d2":
        if alphas is None:
            raise ValueError("B-d2 needs alphas")
        return _build_b_d2(alphas, n_max)
    if kind == "B-general":
        if alphas is None:
            raise ValueError("B-general needs alphas")
        return _build_b_general(alphas, n_max)
    if kind == "FF":
        if d is None:
            raise ValueError("FF needs d")
        return _build_ff(d, n_max)
    raise ValueError(f"unknown sequence kind {kind!r}")


def sequence_multiplicity(seq: BoxSequence) -> int:
    """Maximum number of boxes covering a common lattice point.

    Both endpoints are nondecreasing in n on every axis, so a point of Q(a)
    and Q(c) lies in every Q(b) between them, and boxes a..b share a point
    exactly when lo(b) <= hi(a) on every axis (the corner lo(b) is one).
    The multiplicity is the longest such run.  One two-pointer pass finds
    it: the run from a ends at the last b with lo(b) <= hi(a), and that b
    never falls as a rises, because hi(a) never falls.
    """
    boxes = seq.boxes
    best = b = 0
    for a, top in enumerate(boxes):
        his = [hi for _, hi in top.intervals]
        while b + 1 < len(boxes) and all(
                lo <= hi for (lo, _), hi in zip(boxes[b + 1].intervals, his)):
            b += 1
        best = max(best, b - a + 1)
    return best


# ---------------------------------------------------------------------------
# A-roundness
# ---------------------------------------------------------------------------


def minimal_round_constant(box: Box) -> Fraction:
    """Least A >= 1 making the box A-round.

    The box must have integer endpoints, as every builder makes them, and
    lower endpoints >= 1, as every builder's are: the constraints force
    positive coordinates, so no A works at a lower endpoint <= 0.  Any
    other box raises ValueError.  The constraints compare every endpoint
    and side of factor i against p = s^i, the i-th power of the first side
    length.  Of the four bounds p/x, y/p, p/side and side/p, the last
    never binds: with integer x >= 1, side = 1 + y - x <= y, so
    side/p <= y/p.  The largest ratio num/den is found by integer
    cross-multiplication (all denominators are positive) and made a
    Fraction once.
    """
    if not all(isinstance(v, int) for iv in box.intervals for v in iv):
        raise ValueError(f"the round constant needs integer endpoints, got {box.intervals}")
    s = box.side(0)
    num = den = 1
    for i, (x, y) in enumerate(box.intervals, 1):
        if x <= 0:
            raise ValueError(f"the round constant needs lower endpoints >= 1, got {box.intervals}")
        p = s ** i
        for a, b in ((p, x), (y, p), (p, 1 + y - x)):
            if a * den > num * b:
                num, den = a, b
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# vertical subdivision
# ---------------------------------------------------------------------------


class LevelInfo(NamedTuple):
    chain: tuple[int, ...]
    admissible: bool


def _piece(lo: int, hi: int, plen: int, m: int) -> tuple[int, int, bool]:
    """(low, high, trailing) of piece m >= 1 of [lo, hi] cut every plen."""
    p_lo = lo + (m - 1) * plen
    if m < 1 or p_lo > hi:
        raise ValueError(f"piece index {m} out of range for [{lo}, {hi}]")
    p_hi = min(p_lo + plen - 1, hi)
    return p_lo, p_hi, p_hi == hi


class SubdivisionTree(NamedTuple):
    """Nested cut of an A-round box along its last coordinate.

    At depth k the pieces have last-axis extent ``piece_lengths[k-1]`` (the
    trailing piece may be shorter), and the tree's depth is the number of
    piece lengths.  A level is admissible when its chain never lands in a
    trailing piece.  Levels, chains and pieces are mixed-radix arithmetic on
    ``piece_lengths``, computed on demand in O(depth); the tree stores
    nothing whose size grows with the box.
    """

    box: Box
    piece_lengths: tuple[int, ...]

    def level(self, i: int) -> LevelInfo:
        """Chain of pieces containing last-axis value i, up to a trailing one."""
        lo, hi = self.box.intervals[-1]
        if not lo <= i <= hi:
            raise ValueError(f"level {i} outside the last axis [{lo}, {hi}]")
        chain = []
        for plen in self.piece_lengths:
            m = (i - lo) // plen + 1
            chain.append(m)
            lo, hi, trailing = _piece(lo, hi, plen, m)
            if trailing:
                return LevelInfo(tuple(chain), False)
        return LevelInfo(tuple(chain), True)

    def chain_box(self, chain: Sequence[int]) -> Box:
        """The nested piece reached by a (1-based) chain prefix."""
        ivs = self.box.intervals
        for k, m in enumerate(chain):
            lo, hi, _ = _piece(*ivs[-1], self.piece_lengths[k], m)
            ivs = ivs[:-1] + ((lo, hi),)
        return Box(ivs)


def vertical_subdivision(box: Box, a: Fraction) -> SubdivisionTree:
    """Cut an A-round box along its last axis into the nested piece tree.

    Depth-k pieces have last-axis length ``y_(dim-k) - 1`` taken from the
    ambient box's upper endpoints, so the piece lengths shrink geometrically
    down to ``y_1 - 1``.
    """
    if box.dim < 2:
        raise ValueError("vertical subdivision needs at least 2 axes")
    if a < 1:
        raise ValueError("roundness constant must be >= 1")
    least = minimal_round_constant(box)
    if least > a:
        raise ValueError(f"box is not {a}-round (minimal {least})")
    plens = []
    for k in range(1, box.dim):
        y = box.intervals[box.dim - k - 1][1]
        if y < 2:
            raise ValueError(f"degenerate piece length from endpoint y={y}")
        plens.append(y - 1)
    return SubdivisionTree(box, tuple(plens))


def side_growth_bracket(seq: BoxSequence) -> float:
    """Smallest c with side_i(n) / 4^(i*n/(d-1)) in [1/c, c] over the FF range."""
    if seq.kind != "FF":
        raise ValueError("side bracket is defined for FF sequences")
    dim = seq.d - 1
    c = 1.0
    for n in seq.indices():
        b = seq.box(n)
        for i in range(1, dim + 1):
            # compare through log2 so huge endpoints cannot overflow
            gap = abs(math.log2(b.side(i - 1)) - 2.0 * i * n / dim)
            c = max(c, 2.0 ** gap)
    return c


def inocent_constant(seq: BoxSequence) -> Fraction:
    """Largest D2 with the two side-retention inequalities along the sequence.

    Measures min over steps of new-side/old-side for the lower-raised factor
    and old-side/new-side for the upper-raised factor.  The least ratio
    num/den is found by integer cross-multiplication (sides are positive)
    and made a Fraction once.
    """
    if seq.kind not in ("B-d2", "B-general"):
        raise ValueError("inocent constant applies to B sequences")
    num = den = None
    for n, (cur, nxt) in enumerate(zip(seq.boxes, seq.boxes[1:]), seq.start_index):
        low, up = seq.touched(n)
        for a, b in ((nxt.side(low), cur.side(low)), (cur.side(up), nxt.side(up))):
            if num is None or a * den < num * b:
                num, den = a, b
    if num is None:
        raise ValueError("sequence too short to measure the retention constant")
    return Fraction(num, den)
