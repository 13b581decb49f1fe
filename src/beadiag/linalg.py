"""Exact sparse linear algebra over the rationals.

Vectors are plain dicts mapping basis keys to nonzero exact rationals:
``int`` or ``Fraction``, never ``float``.  Arithmetic keeps ``int``
coefficients ``int``; a ``Fraction`` appears only where one goes in or where
normalising an echelon row divides inexactly, so rows built from ``int``
vectors whose pivots are +-1 stay ``int``.
Keys may be any mutually comparable hashable values; within one computation
all keys come from a single universe (canonical diagram keys, abstract
indices, ...).  Echelon bases are kept fully inter-reduced with pivot
coefficient 1, pivots chosen as the smallest key, so the row set is the
unique reduced echelon form of the row space.
"""

from __future__ import annotations

from fractions import Fraction


def vec(items=()) -> dict:
    """Sum a dict or an iterable of (key, coefficient) pairs into a sparse
    vector: repeated keys add up and zero sums drop out."""
    if isinstance(items, dict):
        items = items.items()
    out = {}
    for key, coeff in items:
        out[key] = out.get(key, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def vscale(u: dict, c) -> dict:
    if not c:
        return {}
    return {key: coeff * c for key, coeff in u.items()}


def vaxpy(u: dict, c, v: dict) -> dict:
    """u + c*v, as a new dict."""
    if not c:
        return dict(u)
    out = dict(u)
    for key, coeff in v.items():
        s = out.get(key, 0) + c * coeff
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _ratio(a, b):
    """a / b, an int where the quotient is exact (most are +-1), else a Fraction."""
    return a // b if type(a) is int and type(b) is int and not a % b else Fraction(a) / b


class EchelonBasis:
    """Inter-reduced echelon rows of sparse vectors, pivoted on smallest keys."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}  # pivot key -> row vector (pivot coeff 1)

    def __getstate__(self):
        return self.rows

    def __setstate__(self, rows):
        # inter-reduced rows pivot on their smallest key with coefficient 1
        # and meet no other pivot; raising makes a corrupt cache entry a miss
        if any(min(r) != p or r[p] != 1 or len(r.keys() & rows.keys()) > 1
               for p, r in rows.items()):
            raise ValueError("rows are not in reduced echelon form")
        self.rows = rows

    def __copy__(self):
        # the pickle protocol's copy would share the rows dict with self
        basis = EchelonBasis()
        basis.rows = dict(self.rows)
        return basis

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        """v minus its projection onto the row space; no support on pivots."""
        out = dict(v)
        # rows carry no other pivots in their support, so one pass suffices;
        # out is a private copy, so each elimination updates it in place
        for pivot in sorted(out.keys() & self.rows.keys()):
            coeff = out.get(pivot)
            if coeff:
                for key, c in self.rows[pivot].items():
                    s = out.get(key, 0) - coeff * c
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return out

    def insert(self, v: dict) -> bool:
        """Add v to the span; returns True iff the rank grew."""
        r = self.reduce(v)
        if not r:
            return False
        pivot = min(r)
        p = r[pivot]
        r = {key: _ratio(c, p) for key, c in r.items()}
        for key, row in list(self.rows.items()):
            c = row.get(pivot)
            if c:
                self.rows[key] = vaxpy(row, -c, r)
        self.rows[pivot] = r
        return True


def echelonize(vectors) -> EchelonBasis:
    """Echelonize sparse vectors (row space preserved).  One- and two-term
    vectors merge keys: k = w * root(k), the root the largest key of its
    class, and a one-term vector or a cycle of weight product != 1 zeroes a
    class.  The rest, projected onto live roots, go in shortest first.  A
    merged key k gets the row k - w * (root(k) in free keys)."""
    parent, zero, longer = {}, {}, []  # key -> (root, w); zero roots, ordered

    def find(key):
        path, w = [], 1
        while key in parent:
            path.append(key)
            key = parent[key][0]
        for k in reversed(path):  # compress the path onto the root
            w *= parent[k][1]
            parent[k] = (key, w)
        return key, w

    for v in filter(None, vectors):
        if len(v) > 2:
            longer.append(v)
            continue
        # ca * ra + cb * rb = 0; a one-term c * k = 0 is read as c * k + c * k = 0
        (ra, ca), (rb, cb) = [(r, c * w) for k, c in v.items() for r, w in [find(k)]] * (3 - len(v))
        if ra != rb:
            if ra > rb:
                ra, rb, ca, cb = rb, ra, cb, ca
            parent[ra] = (rb, _ratio(-cb, ca))
        if ra in zero or (ra == rb and ca + cb):  # a merged ra keeps its entry
            zero[rb] = None

    basis = EchelonBasis()
    projected = (vec((r, c * w) for k, c in v.items() for r, w in [find(k)] if r not in zero)
                 for v in longer)
    for v in sorted(projected, key=len):
        basis.insert(v)
    rows = basis.rows
    for key in [*parent, *zero]:
        root, w = find(key)
        rows[key] = {key: 1} if root in zero else vaxpy({key: 1, root: -w}, w, rows.get(root, {}))
    return basis
