"""Unipotent integer matrices acting on [0,1] through lexicographic interval
packings, with exact rational slopes.

The group consists of (d+1)x(d+1) lower-triangular integer matrices with
unit diagonal, generated by the elementary matrices f(i,j).  A matrix acts
on the index lattice Z^d as the linear action on the affine slice {1} x Z^d;
packing a summable family of interval lengths in lexicographic order then
turns every group element into a piecewise-affine homeomorphism of [0,1]
whose slope on the v-th interval is weight(f(v)) / weight(v).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .lattice import Coords, LengthFamily, ProductFamily, symmetric_geometric_family


@dataclass(frozen=True)
class UnipotentMatrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError("matrix must be square")
            if row[i] != 1:
                raise ValueError("diagonal entries must be 1")
            if any(row[j] != 0 for j in range(i + 1, n)):
                raise ValueError("matrix must be lower triangular")

    @property
    def size(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(size: int) -> "UnipotentMatrix":
        return UnipotentMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))
        )

    @staticmethod
    def generator(size: int, i: int, j: int) -> "UnipotentMatrix":
        """f(i,j): single off-diagonal 1 at row i, column j (1-based, i > j)."""
        if not 1 <= j < i <= size:
            raise ValueError(f"generator needs 1 <= j < i <= {size}")
        rows = [[1 if a == b else 0 for b in range(size)] for a in range(size)]
        rows[i - 1][j - 1] = 1
        return UnipotentMatrix(tuple(tuple(r) for r in rows))

    def __mul__(self, other: "UnipotentMatrix") -> "UnipotentMatrix":
        n = self.size
        if other.size != n:
            raise ValueError("size mismatch")
        rows = tuple(
            tuple(
                sum(self.rows[i][k] * other.rows[k][j] for k in range(j, i + 1))
                for j in range(n)
            )
            for i in range(n)
        )
        return UnipotentMatrix(rows)

    def inverse(self) -> "UnipotentMatrix":
        """Exact integer inverse by forward substitution."""
        n = self.size
        inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i):
                s = sum(self.rows[i][k] * inv[k][j] for k in range(j, i))
                inv[i][j] = -s
        return UnipotentMatrix(tuple(tuple(r) for r in inv))

    def power(self, k: int) -> "UnipotentMatrix":
        base = self if k >= 0 else self.inverse()
        out = UnipotentMatrix.identity(self.size)
        for _ in range(abs(k)):
            out = out * base
        return out

    def commutes_with(self, other: "UnipotentMatrix") -> bool:
        return self * other == other * self

    def act(self, v: Sequence[int]) -> Coords:
        """Action on Z^d through the invariant affine slice {1} x Z^d."""
        n = self.size
        if len(v) != n - 1:
            raise ValueError(f"index must have {n - 1} coordinates")
        w = (1, *v)
        return tuple(
            sum(self.rows[i][k] * w[k] for k in range(i + 1)) for i in range(1, n)
        )


@dataclass(frozen=True)
class CommutationReport:
    d: int
    center: UnipotentMatrix
    table: dict[tuple[tuple[int, int], tuple[int, int]], bool]
    center_commutes_with_all: bool


def center_and_commutators(d: int) -> CommutationReport:
    """The central generator f(d+1,1) and the full pairwise commutation table."""
    if d < 1:
        raise ValueError("need d >= 1")
    size = d + 1
    gens = {
        (i, j): UnipotentMatrix.generator(size, i, j)
        for i in range(2, size + 1)
        for j in range(1, i)
    }
    g = gens[(size, 1)]
    table = {
        (a, b): ga.commutes_with(gb)
        for a, ga in gens.items()
        for b, gb in gens.items()
    }
    central = all(g.commutes_with(f) for f in gens.values())
    return CommutationReport(d, g, table, central)


_WORD_TOKEN = re.compile(r"f\((\d+),(\d+)\)(?:\^(-?1))?")


@dataclass(frozen=True)
class Word:
    """A composition of generators, applied left to right."""

    letters: tuple[tuple[int, int, int], ...]  # (i, j, exponent +-1)
    size: int

    def matrices(self) -> list[UnipotentMatrix]:
        out = []
        for i, j, e in self.letters:
            m = UnipotentMatrix.generator(self.size, i, j)
            out.append(m if e == 1 else m.inverse())
        return out

    def product(self) -> UnipotentMatrix:
        out = UnipotentMatrix.identity(self.size)
        for m in self.matrices():
            out = m * out  # left-to-right application: later letters act last
        return out

    def prefixes(self) -> list[UnipotentMatrix]:
        """h_0 = id, h_1, ..., h_n as matrices."""
        out = [UnipotentMatrix.identity(self.size)]
        for m in self.matrices():
            out.append(m * out[-1])
        return out


def parse_word(text: str, d: int) -> Word:
    """Parse `f(i,j)` / `f(i,j)^-1` tokens, composed left to right."""
    size = d + 1
    letters = []
    pos = 0
    for m in _WORD_TOKEN.finditer(text):
        if text[pos:m.start()].strip():
            raise ValueError(f"unparsable word fragment {text[pos:m.start()]!r}")
        i, j = int(m.group(1)), int(m.group(2))
        e = int(m.group(3) or 1)
        if not 1 <= j < i <= size:
            raise ValueError(f"letter f({i},{j}) outside the rank-{size} group")
        letters.append((i, j, e))
        pos = m.end()
    if text[pos:].strip() or not letters:
        raise ValueError(f"unparsable word {text!r}")
    return Word(tuple(letters), size)


# ---------------------------------------------------------------------------
# interval packing
# ---------------------------------------------------------------------------


class IntervalPacking:
    """Lexicographic packing of an exact weight family into [0,1].

    Interval left endpoints are prefix sums of the weights over the strict
    lexicographic predecessors; for product families these prefixes have a
    closed form, so endpoints are exact rationals on the full lattice.
    """

    def __init__(self, family: LengthFamily) -> None:
        if family.total_mass != 1:
            raise ValueError("packing needs a family of total mass 1")
        if not isinstance(family, ProductFamily):
            raise ValueError("packing needs per-axis closed forms")
        self.family = family
        self.d = family.d

    def length(self, v: Sequence[int]) -> Fraction:
        return self.family.weight(v)

    def left(self, v: Sequence[int]) -> Fraction:
        """Exact left endpoint: mass of all lexicographically smaller indices."""
        axes = self.family.axes
        total = Fraction(0)
        head = self.family.scale
        for k, c in enumerate(v):
            total += head * axes[k].prefix(c)
            head *= axes[k].weight(c)
        return total

    def interval(self, v: Sequence[int]) -> tuple[Fraction, Fraction]:
        a = self.left(v)
        return a, a + self.length(v)

    def block_length(self, head: Sequence[int]) -> Fraction:
        """Mass of the fiber over a partial index (all last coords joined)."""
        if len(head) >= self.d:
            raise ValueError("partial index must drop at least the last axis")
        m = self.family.scale
        for k, c in enumerate(head):
            m *= self.family.axes[k].weight(c)
        for k in range(len(head), self.d):
            m *= self.family.axes[k].total()
        return m


class AffineRealization:
    """Piecewise-affine interval map induced by a group element.

    Slopes and breakpoints are evaluated lazily per queried index and are
    exact; composition of realizations agrees with realization of products
    because both reduce to the same index bookkeeping.
    """

    def __init__(self, packing: IntervalPacking, element: UnipotentMatrix) -> None:
        if element.size != packing.d + 1:
            raise ValueError("element rank does not match the packing lattice")
        self.packing = packing
        self.element = element
        self._slopes: dict[Coords, Fraction] = {}

    def image_index(self, v: Sequence[int]) -> Coords:
        return self.element.act(v)

    def slope(self, v: Sequence[int]) -> Fraction:
        key = tuple(v)
        if key not in self._slopes:
            self._slopes[key] = self.packing.length(self.image_index(key)) / (
                self.packing.length(key)
            )
        return self._slopes[key]

    def maps_interval_exactly(self, v: Sequence[int]) -> bool:
        """Check I_v is carried onto I_{f(v)} by the affine piece."""
        a, b = self.packing.interval(v)
        fa, fb = self.packing.interval(self.image_index(v))
        s = self.slope(v)
        return fa + s * (b - a) == fb and s == (fb - fa) / (b - a)

    def compose(self, other: "AffineRealization") -> "AffineRealization":
        """self after other (apply `other` first)."""
        return AffineRealization(self.packing, self.element * other.element)


def realize(packing: IntervalPacking, f: UnipotentMatrix | Word) -> AffineRealization:
    el = f.product() if isinstance(f, Word) else f
    return AffineRealization(packing, el)


def translation_model(d: int) -> tuple[IntervalPacking, list[UnipotentMatrix]]:
    """Packing over Z^(d+1) where the d+1 letters are coordinate shifts.

    The shifts are the generators f(j+1,1); they commute pairwise, so the
    slope identity below holds with zero residual for any word in them.
    """
    packing = IntervalPacking(symmetric_geometric_family(d + 1))
    letters = [UnipotentMatrix.generator(d + 2, j + 1, 1) for j in range(1, d + 2)]
    return packing, letters


def full_group_model(d: int) -> IntervalPacking:
    """Packing over Z^d for the full rank-(d+1) unipotent action."""
    return IntervalPacking(symmetric_geometric_family(d))


# ---------------------------------------------------------------------------
# distortion identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistortionReport:
    residuals: tuple[Fraction, ...]
    all_zero: bool
    m_values: tuple[float, ...]  # cumulative block-length power sums
    bound_exp_cm: float  # exp(C * M_n) for the supplied C

    @property
    def max_abs_residual(self) -> Fraction:
        return max((abs(r) for r in self.residuals), default=Fraction(0))


def conjugacy_distortion_check(
    packing: IntervalPacking,
    word: Word,
    g: UnipotentMatrix,
    k: int,
    indices: Iterable[Sequence[int]],
    holder_exponent: float = 1.0,
    holder_constant: float = 1.0,
) -> DistortionReport:
    """Verify the exact slope identity of the conjugated power on intervals.

    With h the word's product and y-index = g^k(v), the claim is

        slope(g^k, v) = slope(h, v) / slope(h, g^k v) * slope(g^k, h v),

    which holds with exact-zero residual whenever g commutes with every
    letter of the word.  Also returns M_n = sum of |h_j(I)|^a over word
    prefixes (block lengths through the fiber marginal) and exp(C*M_n).
    """
    letters = word.matrices()
    for i, m in enumerate(letters):
        if not g.commutes_with(m):
            raise ValueError(f"letter {word.letters[i]} does not commute with g")
    h = word.product()
    gk = g.power(k)
    residuals = []
    for v in indices:
        v = tuple(v)
        lhs = packing.length(gk.act(v)) / packing.length(v)
        num = packing.length(h.act(v)) / packing.length(v)
        yv = gk.act(v)
        den = packing.length(h.act(yv)) / packing.length(yv)
        hv = h.act(v)
        tail = packing.length(gk.act(hv)) / packing.length(hv)
        residuals.append(lhs - num / den * tail)
    m_vals = []
    acc = 0.0
    origin = tuple([0] * packing.d)
    for hj in word.prefixes()[:-1]:
        u = hj.act(origin)[:-1]
        acc += float(packing.block_length(u)) ** holder_exponent
        m_vals.append(acc)
    bound = math.exp(holder_constant * (m_vals[-1] if m_vals else 0.0))
    return DistortionReport(
        tuple(residuals),
        all(r == 0 for r in residuals),
        tuple(m_vals),
        bound,
    )


# ---------------------------------------------------------------------------
# slope growth of the central iterates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeGrowth:
    max_slopes: tuple[Fraction, ...]  # index k-1 -> max slope of g^k
    classification: str
    fit: float


def slope_growth_scan(
    packing,
    k_max: int,
    window: int = 64,
) -> SlopeGrowth:
    """Per-k maximum of length(g^k v)/length(v) over the fiber above I.

    g is the last-coordinate shift (the central generator); the fiber is
    scanned over a window wide enough to contain the ratio's maximizer for
    the built-in families.  Accepts a packing or a bare axis weight.
    """
    if isinstance(packing, IntervalPacking):
        axis = packing.family.axes[-1]
    else:
        axis = packing
    out = []
    for k in range(1, k_max + 1):
        lo, hi = -(k + window), window
        best = None
        for t in range(lo, hi + 1):
            if not (axis.contains(t) and axis.contains(t + k)):
                continue
            r = axis.weight(t + k) / axis.weight(t)
            if best is None or r > best:
                best = r
        out.append(best if best is not None else Fraction(1))
    ratios = [float(x) for x in out]
    if all(abs(r - 1.0) < 1e-12 for r in ratios):
        return SlopeGrowth(tuple(out), "bounded", 0.0)
    # exponential growth shows a linear log2-slope in k, polynomial a
    # logarithmic one; compare the tail increments
    tail = math.log2(ratios[-1]) - math.log2(ratios[max(0, len(ratios) - 2)])
    if tail > 0.5:
        return SlopeGrowth(tuple(out), "exponential", tail)
    if ratios[-1] > 1.0 + 1e-9:
        # fit exponent of polynomial growth on the log-log tail
        k1, k2 = max(2, len(ratios) // 2), len(ratios)
        p = (math.log(ratios[k2 - 1]) - math.log(ratios[k1 - 1])) / (
            math.log(k2) - math.log(k1)
        )
        return SlopeGrowth(tuple(out), "polynomial", p)
    return SlopeGrowth(tuple(out), "bounded", 0.0)
