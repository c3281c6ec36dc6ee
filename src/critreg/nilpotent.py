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

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .lattice import Coords, LengthFamily, symmetric_geometric_family


@dataclass(frozen=True)
class UnipotentMatrix:
    """A lower-unitriangular integer matrix, rows as tuples of ints.

    The public constructor ``UnipotentMatrix(rows)`` validates its input.
    ``identity``, ``generator``, ``*``, ``inverse``, ``power`` and
    ``Word.prefixes`` build their results through the trusted
    ``_trusted`` constructor, which skips that check: each result is
    lower-unitriangular by construction.
    """

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

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "UnipotentMatrix":
        """Wrap rows known to be lower-unitriangular, without validation."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @property
    def size(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(size: int) -> "UnipotentMatrix":
        return UnipotentMatrix._trusted(_identity_rows(size))

    @staticmethod
    def generator(size: int, i: int, j: int) -> "UnipotentMatrix":
        """f(i,j): single off-diagonal 1 at row i, column j (1-based, i > j)."""
        if not 1 <= j < i <= size:
            raise ValueError(f"generator needs 1 <= j < i <= {size}")
        return UnipotentMatrix._elementary(size, i - 1, j - 1, 1)

    @staticmethod
    def _elementary(size: int, i: int, j: int, c: int) -> "UnipotentMatrix":
        """I + c * E_ij for 0-based j < i."""
        rows = _identity_rows(size)
        row = rows[i][:j] + (c,) + rows[i][j + 1:]
        return UnipotentMatrix._trusted(rows[:i] + (row,) + rows[i + 1:])

    def __mul__(self, other: "UnipotentMatrix") -> "UnipotentMatrix":
        n = self.size
        if other.size != n:
            raise ValueError("size mismatch")
        # both factors are lower-unitriangular, so is the product: compute
        # its strict lower triangle only, the diagonal and above are fixed
        cols = list(zip(*other.rows))
        return UnipotentMatrix._trusted(tuple(
            tuple([sum(map(operator.mul, row, col)) for col in cols[:i]])
            + (1,) + (0,) * (n - i - 1)
            for i, row in enumerate(self.rows)
        ))

    def inverse(self) -> "UnipotentMatrix":
        """Exact integer inverse by forward substitution."""
        n = self.size
        inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i):
                s = sum(self.rows[i][k] * inv[k][j] for k in range(j, i))
                inv[i][j] = -s
        return UnipotentMatrix._trusted(tuple(tuple(r) for r in inv))

    def power(self, k: int) -> "UnipotentMatrix":
        """self^k: I + k*c*E_ij for a single off-diagonal entry c (E_ij^2 = 0),
        binary exponentiation otherwise."""
        off = [
            (i, j, c) for i, row in enumerate(self.rows) for j, c in enumerate(row[:i]) if c
        ]
        if len(off) == 1:
            i, j, c = off[0]
            return UnipotentMatrix._elementary(self.size, i, j, k * c)
        out = UnipotentMatrix.identity(self.size)
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def commutes_with_generator(self, i: int, j: int) -> bool:
        """Whether self commutes with f(i,j), and so with f(i,j)^-1, in O(size).

        self*f(i,j) - f(i,j)*self = self*E_ij - E_ij*self is column i of self
        moved to column j minus row j of self moved to row i; it vanishes
        exactly when column i and row j of self are zero off the diagonal.
        """
        if not 1 <= j < i <= self.size:
            raise ValueError(f"generator needs 1 <= j < i <= {self.size}")
        rows = self.rows
        return not any(row[i - 1] for row in rows[i:]) and not any(rows[j - 1][: j - 1])

    def act(self, v: Sequence[int]) -> Coords:
        """Action on Z^d through the invariant affine slice {1} x Z^d."""
        n = self.size
        if len(v) != n - 1:
            raise ValueError(f"index must have {n - 1} coordinates")
        w = (1, *v)
        # entries above the diagonal are 0, so whole-row dot products suffice
        return tuple([sum(map(operator.mul, row, w)) for row in self.rows[1:]])


def _identity_rows(size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        (0,) * i + (1,) + (0,) * (size - i - 1) for i in range(size)
    )


@dataclass(frozen=True)
class Word:
    """A composition of generators, applied left to right."""

    letters: tuple[tuple[int, int, int], ...]  # (i, j, exponent +-1)
    size: int

    def __post_init__(self) -> None:
        for i, j, _ in self.letters:
            if not 1 <= j < i <= self.size:
                raise ValueError(f"letter f({i},{j}) outside the rank-{self.size} group")

    def prefixes(self) -> list[UnipotentMatrix]:
        """h_0 = id, h_1, ..., h_n as matrices.

        Later letters act last, so h_t = f_t * h_(t-1): left-multiplying by
        f(i,j)^e adds e * row j to row i, and every other row is shared.
        """
        rows = _identity_rows(self.size)
        out = [UnipotentMatrix._trusted(rows)]
        for i, j, e in self.letters:
            new = tuple(x + e * y for x, y in zip(rows[i - 1], rows[j - 1]))
            rows = rows[: i - 1] + (new,) + rows[i:]
            out.append(UnipotentMatrix._trusted(rows))
        return out


# ---------------------------------------------------------------------------
# interval packing
# ---------------------------------------------------------------------------


class IntervalPacking:
    """Lexicographic packing of an exact weight family of total mass 1 into
    [0,1]: the v-th interval has length weight(v)."""

    def __init__(self, family: LengthFamily) -> None:
        if family.total_mass != 1:
            raise ValueError("packing needs a family of total mass 1")
        self.family = family

    def length(self, v: Sequence[int]) -> Fraction:
        return self.family.weight(v)


def translation_model(d: int) -> IntervalPacking:
    """Packing over Z^(d+1) for words in the d+1 coordinate shifts.

    The shifts are the generators f(j+1,1); they commute pairwise, so the
    slope identity below holds with zero residual for any word in them.
    """
    return IntervalPacking(symmetric_geometric_family(d + 1))


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

    @property
    def max_abs_residual(self) -> Fraction:
        return max((abs(r) for r in self.residuals), default=Fraction(0))


def conjugacy_distortion_check(
    packing: IntervalPacking,
    word: Word,
    g: UnipotentMatrix,
    k: int,
    indices: Iterable[Sequence[int]],
) -> DistortionReport:
    """Verify the exact slope identity of the conjugated power on intervals.

    With h the word's product and y-index = g^k(v), the claim is

        slope(g^k, v) = slope(h, v) / slope(h, g^k v) * slope(g^k, h v),

    which holds with exact-zero residual whenever g commutes with every
    letter of the word.
    """
    if g.size != word.size:
        raise ValueError("size mismatch")
    # g commutes with f(i,j)^e exactly when it commutes with f(i,j)
    for letter in word.letters:
        if not g.commutes_with_generator(letter[0], letter[1]):
            raise ValueError(f"letter {letter} does not commute with g")
    h = word.prefixes()[-1]
    gk = g.power(k)
    length = packing.length
    residuals = []
    for v in indices:
        v = tuple(v)
        yv = gk.act(v)
        hv = h.act(v)
        lv, lyv, lhv = length(v), length(yv), length(hv)
        lhs = lyv / lv
        num = lhv / lv
        hyv, ghv = h.act(yv), gk.act(hv)
        lhyv = length(hyv)
        # when h and g^k commute, h(g^k v) and g^k(h v) are one index
        lghv = lhyv if ghv == hyv else length(ghv)
        den = lhyv / lyv
        tail = lghv / lhv
        residuals.append(lhs - num / den * tail)
    return DistortionReport(tuple(residuals), all(r == 0 for r in residuals))

