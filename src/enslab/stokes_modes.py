"""The lowest eigenpairs of the Stokes operator P K P on the divergence-free
no-slip subspace (K = -Lap_noslip, P the Leray projector), by symmetry.

The subspace is the range of the stream-function curl C.  In the node sine
basis (the closed-form DST-I eigenpairs lam, q of ``linsolve``) of the
pencil (C^T K C, C^T C), B = C^T C is diagonal, -(lam_k + lam_l), and
C^T K C = B^2 + (2/h^4) (I x P + P x I), with P = q_0 q_0^T +
q_last q_last^T from K's wall term (Bjorstad 1983).  The modes C psi / h
are divergence-free by construction.

The square's symmetries split B^(-1/2) C^T K C B^(-1/2) into five blocks,
each solved by ``numpy.linalg.eigh`` (Bossavit 1986).  The x and y
reflections give the parity blocks (even, even), (even, odd) and
(odd, odd); the (odd, even) modes are the swaps of the (even, odd) ones.
A block whose x and y index sets agree commutes with the swap of its two
indices, the diagonal reflection, and splits into a swap-symmetric part of
order m (m + 1) / 2 and an antisymmetric one of order m (m - 1) / 2,
gathered entry by entry from the wall terms.  Each eigenvector is mapped
back to its parity block, (i, j) and (j, i) getting y / sqrt2 and
+-y / sqrt2 and (i, i) getting y, and its largest entry there, the first
on ties, is made positive, so the signs do not depend on the LAPACK build;
an antisymmetric mode's largest entries tie exactly, and (i, j) with i < j
is the first.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, VectorField, _adopt, _curl_values
from .linsolve import _tridiagonal_eigh

__all__ = ["lowest_modes"]


def lowest_modes(grid: Grid, k: int) -> tuple[np.ndarray, tuple]:
    """The k lowest eigenvalues of the Stokes operator on the grid and their
    modes, in ascending order; see the module docstring."""
    n, h = grid.n, grid.h
    lam, q = _tridiagonal_eigh(n, "node")
    odd = np.abs(q[0] - q[-1]) > np.abs(q[0] + q[-1])
    parity = (np.flatnonzero(~odd), np.flatnonzero(odd))
    wall = np.outer(q[0], q[0]) + np.outer(q[-1], q[-1])
    vals, parts = [], []
    for a, b in ((0, 0), (0, 1), (1, 1)):
        ix, iy = parity[a], parity[b]
        d = -(lam[ix, None] + lam[iy]).ravel()
        s = 1.0 / np.sqrt(d)
        # I x P + P x I on the block, indexed [i, j, i', j'] by the positions in ix and iy
        terms = np.zeros((ix.size, iy.size, ix.size, iy.size))
        terms[range(ix.size), :, range(ix.size)] = wall[np.ix_(iy, iy)]
        terms[:, range(iy.size), :, range(iy.size)] += wall[np.ix_(ix, ix)]
        # sign 0: the block whole; sign 1 / -1: the swap-symmetric /
        # antisymmetric part of a block with ix = iy, on the pairs i <= j
        # (i < j) whose orthonormal vectors are (e_ij + sign e_ji) / sqrt2
        # and e_ii, weighted w in the block and f in block coordinates
        for sign in (1, -1) if a == b else (0,):
            block, rows, w, f = terms.reshape(d.size, d.size), slice(None), 1.0, 1.0
            if sign:
                i, j = np.triu_indices(ix.size, 0 if sign > 0 else 1)
                rows = i * iy.size + j
                w, f = np.where(i == j, np.sqrt(0.5), 1.0), np.where(i == j, 1.0, np.sqrt(0.5))
                block = terms[i, j]
                block = block[:, i, j] + sign * block[:, j, i]
            block *= (2.0 / h ** 4) * np.outer(s[rows] * w, s[rows] * w)
            block[np.diag_indices_from(block)] += d[rows]
            mu, z = np.linalg.eigh(block)
            y = np.zeros((d.size, min(k, mu.size)))
            y[rows] = z[:, :k] * np.reshape(f, (-1, 1))
            if sign:
                y[j * iy.size + i] = sign * y[rows]
            # eigh fixes no signs: the largest entry (the first on ties) is positive
            y *= np.sign(y[np.argmax(np.abs(y), axis=0), np.arange(y.shape[1])])
            vals.append(mu[:k])
            parts.append((ix, iy, (s[:, None] * y).T.reshape(-1, ix.size, iy.size)))
        if a != b:  # the swapped twins, (odd, even)
            vals.append(mu[:k])
            parts.append(None)
    # the k lowest: a prefix of each part, as eigh sorts its eigenvalues
    order = np.argsort(np.concatenate(vals), kind="stable")[:k]
    part = np.repeat(np.arange(len(vals)), [v.size for v in vals])[order]
    nodes = np.zeros((k, n + 1, n + 1))
    for p, entry in enumerate(parts):
        kept = np.flatnonzero(part == p)
        if entry is None:  # a twin's nodes are the transposes of its (even, odd) pair
            nodes[kept] = nodes[np.flatnonzero(part == p - 1)[:kept.size]].transpose(0, 2, 1)
        else:
            ix, iy, coeffs = entry
            nodes[kept, 1:-1, 1:-1] = q[:, ix] @ coeffs[:kept.size] @ q[:, iy].T
    nodes /= h
    u, v = _curl_values(nodes, h)
    return np.concatenate(vals)[order], tuple(_adopt(VectorField, grid, *w) for w in zip(u, v))
