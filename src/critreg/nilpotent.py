"""Unipotent integer matrices acting on [0,1] through lexicographic interval
packings, with exact slopes.

The group consists of (d+1)x(d+1) lower-triangular integer matrices with
unit diagonal, generated by the elementary matrices f(i,j).  A matrix acts
on the index lattice Z^d as the linear action on the affine slice {1} x Z^d;
packing a summable family of interval lengths in lexicographic order then
turns every group element into a piecewise-affine homeomorphism of [0,1]
whose slope on the v-th interval is weight(f(v)) / weight(v).

Both models of the identity kind pack the symmetric-geometric weights
2^-|v|_1 / 3^d, so every slope is an exact power of two: `exponent` gives
the integer log2 of a length times 3^d, and the slope identity compares
integers.  A residual becomes an exact `Fraction` only when it is nonzero.
The packing holds no state: the lattice Z^d is the matrices' own, whose
action checks an index's dimension.

The module holds only what the identity kind computes with: the action,
the powers of one elementary matrix, a word's product and a matrix's
commutation with a generator.  General products and inverses are left to
the tests' naive reference.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .lattice import Coords


class _UnipotentMatrixFields(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class UnipotentMatrix(_UnipotentMatrixFields):
    """A lower-unitriangular integer matrix, rows as tuples of ints.

    The public constructor ``UnipotentMatrix(rows)`` validates its input.
    ``generator``, ``power`` and ``Word.product`` build their results
    through the trusted ``_trusted`` constructor, which skips that check:
    each result is lower-unitriangular by construction.
    """

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]) -> UnipotentMatrix:
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix must be square")
            if row[i] != 1:
                raise ValueError("diagonal entries must be 1")
            if any(row[j] != 0 for j in range(i + 1, n)):
                raise ValueError("matrix must be lower triangular")
        return tuple.__new__(cls, (rows,))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> UnipotentMatrix:
        """Wrap rows known to be lower-unitriangular, without validation."""
        return tuple.__new__(cls, (rows,))

    @property
    def size(self) -> int:
        return len(self.rows)

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

    def power(self, k: int) -> "UnipotentMatrix":
        """self^k of an elementary matrix I + c*E_ij: since E_ij^2 = 0 it is
        I + k*c*E_ij.  Any other matrix raises ValueError."""
        off = [
            (i, j, c) for i, row in enumerate(self.rows) for j, c in enumerate(row[:i]) if c
        ]
        if len(off) != 1:
            raise ValueError("power needs an elementary matrix I + c*E_ij")
        i, j, c = off[0]
        return UnipotentMatrix._elementary(self.size, i, j, k * c)

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


class _WordFields(NamedTuple):
    letters: tuple[tuple[int, int, int], ...]  # (i, j, exponent +-1)
    size: int


class Word(_WordFields):
    """A composition of generators, applied left to right."""

    __slots__ = ()

    def __new__(cls, letters: tuple[tuple[int, int, int], ...], size: int) -> Word:
        for i, j, _ in letters:
            if not 1 <= j < i <= size:
                raise ValueError(f"letter f({i},{j}) outside the rank-{size} group")
        return tuple.__new__(cls, (letters, size))

    def product(self) -> UnipotentMatrix:
        """h = f_n * ... * f_1, the whole word as one matrix.

        Later letters act last, so each letter left-multiplies the product
        so far: f(i,j)^e adds e * row j to row i, one row operation per
        letter.
        """
        rows = list(_identity_rows(self.size))
        for i, j, e in self.letters:
            rows[i - 1] = tuple([x + e * y for x, y in zip(rows[i - 1], rows[j - 1])])
        return UnipotentMatrix._trusted(tuple(rows))


# ---------------------------------------------------------------------------
# interval packing and the distortion identity
# ---------------------------------------------------------------------------


def exponent(v: Sequence[int]) -> int:
    """e(v) = -sum |v_k|: the v-th interval of the lexicographic packing of
    the symmetric-geometric weights over Z^d has length 2^e(v) / 3^d."""
    return -sum(map(abs, v))


def conjugacy_distortion_check(
    word: Word, gk: UnipotentMatrix, indices: Iterable[Sequence[int]]
) -> tuple[Fraction, ...]:
    """The residuals of the exact slope identity of the conjugated power
    gk = g^k on intervals, one per index (`_residuals`).

    With h the word's product and y-index = gk(v), the claim is

        slope(gk, v) = slope(h, v) / slope(h, gk v) * slope(gk, h v),

    which holds with exact-zero residual whenever gk commutes with every
    letter of the word.  The group is torsion-free nilpotent, so for k != 0
    that is exactly when g does; a caller checks many words against a few
    powers and builds each once.  An index off the group's lattice raises
    the ValueError of `UnipotentMatrix.act`.
    """
    if gk.size != word.size:
        raise ValueError("size mismatch")
    # gk commutes with f(i,j)^e exactly when it commutes with f(i,j)
    for letter in word.letters:
        if not gk.commutes_with_generator(letter[0], letter[1]):
            raise ValueError(f"letter {letter} does not commute with g^k")
    return _residuals(word.product(), gk, indices)


_ZERO = Fraction(0)


def _residuals(
    h: UnipotentMatrix, gk: UnipotentMatrix, indices: Iterable[Sequence[int]]
) -> tuple[Fraction, ...]:
    """slope(gk, v) - slope(h, v) / slope(h, gk v) * slope(gk, h v) per index.

    The lengths at v, gk v and h v cancel down to

        2^(e(gk v) - e(v)) * (1 - 2^(e(gk h v) - e(h gk v))),

    which is zero exactly when the two exponents of the bracket agree.
    """
    out = []
    for v in indices:
        yv = gk.act(v)
        tail = exponent(gk.act(h.act(v))) - exponent(h.act(yv))
        if tail:
            two = Fraction(2)
            out.append(two ** (exponent(yv) - exponent(v)) * (1 - two ** tail))
        else:
            out.append(_ZERO)
    return tuple(out)
