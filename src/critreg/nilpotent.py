"""Unipotent integer matrices acting on [0,1] through lexicographic interval
packings, with exact slopes.

The group consists of (d+1)x(d+1) lower-triangular integer matrices with
unit diagonal, generated by the elementary matrices f(i,j).  A matrix acts
on the index lattice Z^d as the linear action on the affine slice {1} x Z^d;
packing a summable family of interval lengths in lexicographic order then
turns every group element into a piecewise-affine homeomorphism of [0,1]
whose slope on the v-th interval is weight(f(v)) / weight(v).

Both models of the identity kind pack the symmetric-geometric weights
2^-|v|_1 / 3^d, so the v-th interval has length 2^e(v) / 3^d with
e(v) = -sum |v_k|, every slope is an exact power of two, and the slope
identity compares integer exponents.  A residual becomes an exact
`Fraction` only when it is nonzero.

A matrix is a tuple of row tuples and a word a sequence of letters
(i, j, +-1), each f(i,j)^(+-1).  The module holds only what the identity
kind computes with: the powers of a generator, commutation with the
generators, a word's product, and the check of one (word, power, index)
triple that runs them.  General products and inverses are left
to the tests' naive reference.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub
from typing import Callable, Iterable, Sequence

Rows = tuple[tuple[int, ...], ...]
Letter = tuple[int, int, int]


def identity(size: int) -> Rows:
    return tuple((0,) * r + (1,) + (0,) * (size - r - 1) for r in range(size))


def generator(size: int, i: int, j: int, k: int = 1) -> Rows:
    """f(i,j)^k = I + k*E_ij, since E_ij^2 = 0: a single off-diagonal k at
    row i, column j (1-based, i > j)."""
    if not 1 <= j < i <= size:
        raise ValueError(f"letter f({i},{j}) outside the rank-{size} group")
    rows = list(identity(size))
    rows[i - 1] = rows[i - 1][: j - 1] + (k,) + rows[i - 1][j:]
    return tuple(rows)


def commuting_letters(m: Rows, gens: Iterable[tuple[int, int]]) -> frozenset[Letter]:
    """The letters f(i,j)^(+-1), for (i, j) in gens, that commute with m.

    m*f(i,j) - f(i,j)*m = m*E_ij - E_ij*m is column i of m moved to column
    j minus row j of m moved to row i; it vanishes exactly when column i
    and row j of m are zero off the diagonal, and then f(i,j)^-1 commutes
    with m too.
    """
    cols = tuple(zip(*m))
    return frozenset((i, j, e) for i, j in gens
                     if not any(cols[i - 1][i:]) and not any(m[j - 1][: j - 1])
                     for e in (1, -1))


def product(letters: Iterable[Letter], m: Rows) -> Rows:
    """f_n^e_n * ... * f_1^e_1 * m for the letters f_1^e_1 .. f_n^e_n, each
    e = +-1.

    Later letters act last, so each letter left-multiplies the product so
    far: f(i,j)^e adds or subtracts row j to row i, one row operation per
    letter.
    """
    rows = list(m)
    for i, j, e in letters:
        rows[i - 1] = tuple(map(add if e > 0 else sub, rows[i - 1], rows[j - 1]))
    return tuple(rows)


def conjugacy_distortion_check(
    powers: dict[int, Rows], gens: Sequence[tuple[int, int]]
) -> Callable[[Sequence[Letter], int, Sequence[int]], Fraction]:
    """The residual of the exact slope identity of a conjugated power on
    intervals (`_residual`), as a function of one sample (letters, k, v):
    the word's letters are f(i,j)^(+-1) for (i, j) in gens, and
    powers[k] = g^k.

    With h the word's product and y-index = g^k(v), the claim is

        slope(g^k, v) = slope(h, v) / slope(h, g^k v) * slope(g^k, h v),

    which holds with exact-zero residual whenever g^k commutes with every
    letter of the word.  Each letter's commutation with each power is
    decided here, once; a generator off the triangle, or a power that is
    not lower-unitriangular of the powers' size n, raises ValueError here
    too.  The check raises ValueError on a sample with a letter that does
    not commute with its power or is not one of gens' letters, and on an
    index off the lattice Z^(n-1).
    """
    n = len(powers[min(powers)])
    ident = identity(n)
    for i, j in gens:
        if not 1 <= j < i <= n:
            raise ValueError(f"letter f({i},{j}) outside the rank-{n} group")
    table = {}
    for k, gk in powers.items():
        if len(gk) != n or any(row[r:] != ident[r][r:] for r, row in enumerate(gk)):
            raise ValueError(f"g^{k} is not a lower-unitriangular {n}x{n} matrix")
        table[k] = gk, commuting_letters(gk, gens)

    def check(letters: Sequence[Letter], k: int, v: Sequence[int]) -> Fraction:
        gk, ok = table[k]
        if not ok.issuperset(letters):
            raise ValueError(next(
                f"letter {x} does not commute with g^k" if x[:2] in gens and x[2] in (1, -1)
                else f"letter {x} is not f(i,j)^(+-1) for (i, j) in gens"
                for x in letters if x not in ok))
        if len(v) != n - 1:
            raise ValueError(f"index must have {n - 1} coordinates")
        return _residual(product(letters, ident), gk, v)

    return check


_ZERO = Fraction(0)


def _residual(h: Rows, gk: Rows, v: Sequence[int]) -> Fraction:
    """slope(gk, v) - slope(h, v) / slope(h, gk v) * slope(gk, h v).

    The lengths at v, gk v and h v cancel down to

        2^(e(gk v) - e(v)) * (1 - 2^(e(gk h v) - e(h gk v))),

    which is zero exactly when the two exponents of the bracket agree.  The
    four actions are dot products of the rows with the affine point
    w = (1, v); the unit first row keeps its 1, so it is prepended instead
    of computed, and e(v) = 1 - |w|_1.
    """
    w = (1, *v)
    h, gk = h[1:], gk[1:]
    gw = (1, *[sum(map(mul, row, w)) for row in gk])
    hw = (1, *[sum(map(mul, row, w)) for row in h])
    tail = (sum(map(abs, [sum(map(mul, row, gw)) for row in h]))
            - sum(map(abs, [sum(map(mul, row, hw)) for row in gk])))
    if tail:
        two = Fraction(2)
        return two ** (sum(map(abs, w)) - sum(map(abs, gw))) * (1 - two ** tail)
    return _ZERO
