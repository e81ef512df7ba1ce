"""The classical operator families, generated for any number of variables.

Each family is a constant-coefficient operator on a vector field
xi = (xi1..xin) in the variables x1..xn, built term by term as an
`OpMatrix` and labelled as `corpus/killing_flat_n2.dms` is: unknowns
xi1..xin and second members o{i}{j}.  Per i come first the diagonal row
of the family, if it has one, then the symmetric rows
d_j(xi_i) + d_i(xi_j) for j > i.

- `killing(n)`: the flat isometry (Killing) operator, whose diagonal
  rows are d_i(xi_i), the Killing equations halved.
- `conformal(n)`: the flat conformal Killing operator, whose diagonal
  rows d_i(xi_i) - d_n(xi_n), i < n, are the trace-free part of the
  diagonal.

The Spencer tables (`spencer.SymbolSpace.of`) and the Janet sequences
(`syzygy.build_sequence`) both read these operators, so the two sides of
their cross-check compute on one definition.
"""

from __future__ import annotations

from .field import DiffField
from .ops import OpMatrix, ScalarOp


def _flat(n, diagonal):
    """The flat operator whose diagonal row i, 0-based, has the terms
    diagonal(i): {k: c} for c d_k(xi_k), or none."""
    field = DiffField(n)
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]

    def row(terms):
        """The row with a term c d_j(xi_k) for each (k, j): c of terms."""
        entries = [{} for _ in range(n)]
        for (k, j), c in terms.items():
            entries[k][unit[j]] = c
        return [ScalarOp(field, e) for e in entries]

    rows, labels = [], []
    for i in range(n):
        terms = diagonal(i)
        if terms:
            rows.append(row({(k, k): c for k, c in terms.items()}))
            labels.append(f"o{i + 1}{i + 1}")
        for j in range(i + 1, n):
            rows.append(row({(i, j): 1, (j, i): 1}))
            labels.append(f"o{i + 1}{j + 1}")
    return OpMatrix.from_rows(field, rows, n, row_labels=labels,
                              col_labels=[f"xi{k}" for k in range(1, n + 1)])


def killing(n):
    """The flat Killing operator on n variables."""
    return _flat(n, lambda i: {i: 1})


def conformal(n):
    """The flat conformal Killing operator on n variables."""
    return _flat(n, lambda i: {i: 1, n - 1: -1} if i < n - 1 else {})
