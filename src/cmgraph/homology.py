"""Reduced simplicial homology over the rationals or a prime field, exactly.

Boundary matrices use the augmented chain complex: the boundary of a vertex
is the empty face, so the degree-0 matrix is a single row of ones.  Ranks are
computed with fraction-free integer elimination (characteristic 0) or Gaussian
elimination modulo p (characteristic p), on int bitsets when p = 2; no
floating point anywhere.  Betti numbers over F_2 never build the dense
matrix: each boundary column is a bitset made straight from its face.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable

from .complexes import SimplicialComplex

_PRIME_LIMIT = 2**31 - 1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: characteristic 0 (rationals) or a prime p (F_p)."""

    characteristic: int

    def __post_init__(self):
        c = self.characteristic
        if c == 0:
            return
        if not (2 <= c <= _PRIME_LIMIT) or not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or a prime <= 2^31 - 1, got {c}")


@dataclass(frozen=True)
class BoundaryMatrix:
    """The degree-d boundary map, rows indexed by (d-1)-faces, columns by d-faces.

    Row and column labels are faces in lexicographic order; entries[i][j] is
    the signed incidence of row face i in column face j.
    """

    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[int, ...], ...]


def boundary_matrices(cx: SimplicialComplex) -> list[BoundaryMatrix]:
    """Augmented boundary matrices in degrees 0..dim(cx).

    The face removed at position t carries sign (-1)^t.  For the empty
    complex the list is empty.
    """
    dim = cx.dimension()
    out: list[BoundaryMatrix] = []
    for d in range(dim + 1):
        rows = tuple(cx.faces_of_dim(d - 1))
        cols = tuple(cx.faces_of_dim(d))
        index = {f: i for i, f in enumerate(rows)}
        entries = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for t in range(len(f)):
                entries[index[f[:t] + f[t + 1 :]]][j] = -1 if t % 2 else 1
        out.append(
            BoundaryMatrix(rows, cols, tuple(tuple(r) for r in entries))
        )
    return out


def _rank_char0(entries: tuple[tuple[int, ...], ...]) -> int:
    """Rank over the rationals by Bareiss fraction-free elimination.

    All intermediate values stay integers; divisions are exact.
    """
    a = [list(row) for row in entries]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        piv = -1
        for i in range(row, nrows):
            if a[i][col]:
                piv = i
                break
        if piv == -1:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        ar = a[row]
        for i in range(row + 1, nrows):
            ai = a[i]
            f = ai[col]
            # rows below the pivot are rescaled even when f is zero: the
            # Bareiss update divides by the previous pivot exactly
            for j in range(col + 1, ncols):
                ai[j] = (p * ai[j] - f * ar[j]) // prev
            ai[col] = 0
        prev = p
        row += 1
        rank += 1
    return rank


def _f2_rank(vectors: Iterable[int]) -> int:
    """Rank over F_2 of vectors given as int bitsets.

    Each vector is reduced by XOR against a basis keyed by the highest set
    bit of its members, and joins the basis when a bit survives.
    """
    basis: dict[int, int] = {}
    for bits in vectors:
        while bits:
            top = bits.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = bits
                break
            bits ^= b
    return len(basis)


def _f2_boundary_ranks(cx: SimplicialComplex) -> list[int]:
    """Ranks over F_2 of the augmented boundary maps in degrees 0..dim(cx).

    Each column is built straight from its face: a bitset over the indices
    of the (d-1)-faces, with one bit per face left by removing a vertex.
    Signs vanish mod 2, so no dense matrix is needed.
    """
    ranks = []
    index = {(): 0}
    for d in range(cx.dimension() + 1):
        faces = cx.faces_of_dim(d)
        ranks.append(
            _f2_rank(sum(1 << index[f[:t] + f[t + 1 :]] for t in range(d + 1)) for f in faces)
        )
        index = {f: i for i, f in enumerate(faces)}
    return ranks


def _rank_mod_p(entries: tuple[tuple[int, ...], ...], p: int) -> int:
    """Rank over F_p by Gaussian elimination.

    Over F_2 each row becomes an int with bit j set when entry j is odd, and
    _f2_rank reduces the rows.
    """
    if p == 2:
        # compress skips the zero entries at C speed
        return _f2_rank(
            sum(1 << j for j in compress(count(), row) if row[j] & 1) for row in entries
        )
    a = [[x % p for x in row] for row in entries]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        piv = -1
        for i in range(row, nrows):
            if a[i][col]:
                piv = i
                break
        if piv == -1:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], p - 2, p)
        ar = a[row]
        for j in range(col, ncols):
            ar[j] = ar[j] * inv % p
        for i in range(row + 1, nrows):
            f = a[i][col]
            if f:
                ai = a[i]
                for j in range(col, ncols):
                    ai[j] = (ai[j] - f * ar[j]) % p
        row += 1
        rank += 1
    return rank


def rank_over(matrix: BoundaryMatrix, field: FieldSpec) -> int:
    """Exact rank of a boundary matrix over the given field."""
    if field.characteristic == 0:
        return _rank_char0(matrix.entries)
    return _rank_mod_p(matrix.entries, field.characteristic)


def reduced_betti(cx: SimplicialComplex, field: FieldSpec) -> tuple[int, ...]:
    """Reduced Betti numbers (b~_{-1}, b~_0, ..., b~_dim) over the field.

    The empty complex {{}} has b~_{-1} = 1 and nothing else.
    """
    dim = cx.dimension()
    if dim == -1:
        return (1,)
    if field.characteristic == 2:
        ranks = _f2_boundary_ranks(cx)
    else:
        ranks = [rank_over(m, field) for m in boundary_matrices(cx)]
    fvec = cx.f_vector()
    out = [1 - ranks[0]]
    for i in range(dim + 1):
        below = ranks[i + 1] if i < dim else 0
        out.append(fvec[i + 1] - ranks[i] - below)
    return tuple(out)
