"""Reduced simplicial homology over the rationals or a prime field, exactly.

Boundary maps use the augmented chain complex: the boundary of a vertex is
the empty face, so the degree-0 matrix is a single row of ones.  Betti
numbers build no dense matrix: each boundary column is made straight from
its face as a sparse dict of integer entries, and one reducer, for the
rationals and every prime alike, reduces the columns against a basis keyed
by pivot row, over the rationals with integer entries alone.  No floating
point anywhere.

Before any reduction a complex is strong-collapsed to its core: a vertex v
is dominated when every facet holding v holds some other vertex w too, and
deleting it keeps the homotopy type (Barmak & Minian, "Strong homotopy
types, nerves and collapses", Discrete Comput. Geom. 47, 2012), hence every
reduced Betti number over every field.  On Ind(H) a dominated vertex is one
with N(w) <= N(v) for some w, the fold lemma (Engstrom, "Independence
complexes of claw-free graphs", European J. Combin. 29, 2008).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Iterable

from .complexes import SimplicialComplex
from .graphs import _Value, _full_mask, _mask_to_tuple, _require_int

_PRIME_LIMIT = 2**31 - 1


def _is_prime(p: int) -> bool:
    # p >= 2: FieldSpec checks the range first
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class FieldSpec(_Value):
    """A coefficient field: characteristic 0 (rationals) or a prime p (F_p)."""

    __slots__ = ("characteristic",)
    characteristic: int

    def _check(self) -> None:
        c = self.characteristic
        _require_int(c, "characteristic")
        if c == 0:
            return
        if not (2 <= c <= _PRIME_LIMIT) or not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or a prime <= 2^31 - 1, got {c}")


def _require_field(field: object) -> None:
    if not isinstance(field, FieldSpec):
        raise ValueError(f"field {field!r} is not a FieldSpec")


class BoundaryMatrix(_Value):
    """The degree-d boundary map, rows indexed by (d-1)-faces, columns by d-faces.

    Row and column labels are faces in lexicographic order; entries[i][j] is
    the signed incidence of row face i in column face j.
    """

    __slots__ = ("rows", "cols", "entries")
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


def _sparse_basis(columns: Iterable[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Reduce sparse columns over F_p, p any prime, or over Q when p = 0; return the basis.

    A column maps row indices to its entries, integers that p does not
    divide (nonzero ones when p = 0), and is consumed.  It is reduced
    against a basis keyed by the highest row index of its members, and joins
    the basis when an entry survives.  Over F_p a basis column's entry at
    its key is 1, the column being scaled by the inverse pow(x, p - 2, p) of
    that entry x (1 at p = 2, where every entry is odd), so a multiple of it
    is subtracted mod p.  Over Q entries stay integers: the column is first
    multiplied by the basis column's entry at its key, and a column joining
    the basis is divided by the gcd of its entries.  The rank is the size of
    the basis.
    """
    basis: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            top = max(col)
            b = basis.get(top)
            if b is None:
                if p:
                    x = col[top]
                    if x != 1:
                        inv = pow(x, p - 2, p)
                        for i in col:
                            col[i] = col[i] * inv % p
                else:
                    g = gcd(*col.values())
                    if g != 1:
                        for i in col:
                            col[i] //= g
                basis[top] = col
                break
            f = col[top]
            c = b[top]
            if c != 1:
                for i in col:
                    col[i] *= c
            for i, x in b.items():
                # zero only where col has an entry, since f * x is nonzero
                y = col.get(i, 0) - f * x
                if p:
                    y %= p
                if y:
                    col[i] = y
                else:
                    del col[i]
    return basis


def _boundary_ranks(cx: SimplicialComplex, p: int) -> list[int]:
    """Ranks of the augmented boundary maps in degrees 0..dim(cx), over F_p or Q if p = 0.

    Each column is built straight from its face f as a dict from row index
    to entry: the (d-1)-face left by removing the t-th vertex of f gets
    (-1)^t.  _sparse_basis reduces the columns for every p.  The maps are
    reduced from the top degree down, with clearing (Chen & Kerber,
    "Persistent homology computation with a twist", 2011): when a column of
    the degree-(d+1) map keeps pivot row i, column i of the degree-d map is
    a combination of the columns before it, so it is skipped without
    changing the rank.
    """
    dim = cx.dimension()
    ranks = [0] * (dim + 1)
    pivots: dict = {}
    cols = cx.faces_of_dim(dim)
    for d in range(dim, -1, -1):
        rows = cx.faces_of_dim(d - 1)
        cols = [f for j, f in enumerate(cols) if j not in pivots]
        # combinations(f, d) removes the vertices of f from the last to the
        # first, so its k-th face is f minus its (d-k)-th vertex
        index = {f: i for i, f in enumerate(rows)}
        signs = tuple((-1) ** (d - k) for k in range(d + 1))
        pivots = _sparse_basis(
            (dict(zip(map(index.__getitem__, combinations(f, d)), signs)) for f in cols), p
        )
        ranks[d] = len(pivots)
        cols = rows
    return ranks


def rank_over(matrix: BoundaryMatrix, field: FieldSpec) -> int:
    """Exact rank of a boundary matrix over the given field.

    Each column becomes a dict of its nonzero entries, taken mod p over
    F_p, and _sparse_basis reduces the columns.
    """
    _require_field(field)
    p = field.characteristic
    return len(
        _sparse_basis(
            ({i: y for i, x in enumerate(col) if (y := x % p if p else x)} for col in zip(*matrix.entries)),
            p,
        )
    )


def _strong_core(cx: SimplicialComplex, masks: list[int]) -> SimplicialComplex:
    """The core cx collapses to by deleting dominated vertices, relabelled
    order-preservingly to 1..n'; cx itself when no vertex is dominated.
    masks holds the vertex mask of each facet (bit v for vertex v).

    A vertex v is dominated when the AND of the facets holding it is more
    than {v}.  Deleting it turns each facet F holding v into F - v, kept as
    a facet of K - v unless some facet without v contains it: one AND of
    the incidence per vertex of F - v, since F - v lies in no other facet
    holding v.  F - v is never empty, as it holds the vertex w that
    dominates v.  Only the vertices of the facets that held v can become
    dominated by the deletion, so they alone are tried again, lowest first,
    on the incidence and the facet masks updated in place.
    """
    masks = list(masks)
    incidence = dict(cx._vertex_facets())
    todo = _full_mask(cx.n)
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        held = _mask_to_tuple(incidence[v])
        common = -1
        for i in held:
            common &= masks[i]
        if common == low:
            continue
        outside = ~incidence.pop(v)
        for i in held:
            m = masks[i] ^ low
            todo |= m
            cover = outside
            for u in _mask_to_tuple(m):
                cover &= incidence[u]
            if cover:
                masks[i] = 0
                for u in _mask_to_tuple(m):
                    incidence[u] ^= 1 << i
            else:
                masks[i] = m
    if len(incidence) == cx.n:
        return cx
    label = {v: i for i, v in enumerate(sorted(incidence), start=1)}
    return SimplicialComplex._antichain(
        len(label), sorted(tuple(label[v] for v in _mask_to_tuple(m)) for m in masks if m)
    )


def _betti(cx: SimplicialComplex, p: int, dim: int) -> tuple[int, ...]:
    """Reduced Betti numbers of cx over F_p (Q when p = 0), padded with
    zeros up to degree dim."""
    d = cx.dimension()
    if d == -1:
        return (1,)
    # no boundary map comes into the top degree
    ranks = _boundary_ranks(cx, p) + [0]
    fvec = cx.f_vector()
    out = [1 - ranks[0]] + [fvec[i + 1] - ranks[i] - ranks[i + 1] for i in range(d + 1)]
    return tuple(out) + (0,) * (dim - d)


def reduced_betti(cx: SimplicialComplex, field: FieldSpec) -> tuple[int, ...]:
    """Reduced Betti numbers (b~_{-1}, b~_0, ..., b~_dim) over the field.

    The empty complex {{}} has b~_{-1} = 1 and nothing else.  The numbers
    are reduced on cx's strong core (_strong_core), which has the same ones,
    and padded with zeros up to cx's dimension.
    """
    _require_field(field)
    masks = [sum(1 << v for v in f) for f in cx.facets]
    return _betti(_strong_core(cx, masks), field.characteristic, cx.dimension())
