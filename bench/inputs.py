"""Seeded inputs that are valid by construction, and oracles independent of hermsymp.

Every space is the standard model (identity gram, complex structure
``J = [[0, -I], [I, 0]]``) pulled back through a random invertible map ``T``:
gram ``T^H T`` and gamma ``T^{-1} J T``.  A Lagrangian is pulled back from the
graph of a unitary ``U`` in the model's eigenframes, so its invariants are
known from the unitaries alone: ``phi`` is ``U`` up to a change of orthonormal
eigenbasis, which leaves the spectrum of ``-phi(V) phi(W)^*`` unchanged.  The
oracles below use only numpy and never call hermsymp.
"""
from __future__ import annotations

import math

import numpy as np

MIX_SPREAD = 4.0   # conditioning of the column mixing applied to raw bases
EXCLUDE = 1e-6     # an oracle eigenvalue this close to -1 is exactly -1


def unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def invertible(n: int, rng: np.random.Generator, spread: float) -> np.ndarray:
    """Random matrix with singular values log-uniform in [spread^-1/2, spread^1/2]."""
    half = math.log(spread) / 2.0
    return (unitary(n, rng) * np.exp(rng.uniform(-half, half, n))) @ unitary(n, rng)


def standard_gamma(k: int) -> np.ndarray:
    gamma = np.zeros((2 * k, 2 * k), dtype=np.complex128)
    gamma[:k, k:] = -np.eye(k)
    gamma[k:, :k] = np.eye(k)
    return gamma


def eigenframes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal +i and -i eigenvectors of ``standard_gamma(k)``."""
    ident = np.eye(k)
    plus = np.vstack([ident, -1j * ident]) / math.sqrt(2)
    minus = np.vstack([ident, 1j * ident]) / math.sqrt(2)
    return plus, minus


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.complex128)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


class Pullback:
    """The standard model of half-dimension ``k`` pulled back through a random ``T``."""

    def __init__(self, k: int, rng: np.random.Generator, spread: float):
        self.k = k
        t = invertible(2 * k, rng, spread)
        self.t_inv = np.linalg.inv(t)
        gram = t.conj().T @ t
        self.gram = (gram + gram.conj().T) / 2.0
        self.gamma = self.t_inv @ standard_gamma(k) @ t
        self.plus, self.minus = eigenframes(k)

    def raw_basis(self, u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Mixed spanning matrix of the pulled-back graph of ``u``."""
        return graph_basis(self.t_inv, self.plus, self.minus, u, rng)


def graph_basis(t_inv, plus, minus, u, rng) -> np.ndarray:
    return t_inv @ (plus + minus @ u) @ invertible(u.shape[0], rng, MIX_SPREAD)


def flipped_product(a: Pullback, b: Pullback):
    """``t_inv`` and eigenframes of ``negated(a) (+) b``; negation swaps a's frames."""
    return (
        block_diag(a.t_inv, b.t_inv),
        block_diag(a.minus, b.plus),
        block_diag(a.plus, b.minus),
    )


def unitary_with_intersection(u0: np.ndarray, d: int, rng) -> np.ndarray:
    """Unitary agreeing with ``u0`` on exactly ``d`` directions, so that the
    two graphs meet in dimension ``d``; the other eigenvalues of
    ``-u0 u^*`` stay at least 0.4 rad away from -1."""
    k = u0.shape[0]
    frame = unitary(k, rng)
    eigs = np.concatenate([np.ones(d), np.exp(1j * rng.uniform(0.4, 1.4, k - d))])
    return u0 @ (frame * eigs) @ frame.conj().T


def pair_oracle(uv: np.ndarray, uw: np.ndarray) -> tuple[float, int]:
    """(m, dim(V & W)) of the graphs of two unitaries."""
    lam = np.linalg.eigvals(-uv @ uw.conj().T)
    at_minus_one = np.abs(lam + 1.0) <= EXCLUDE
    value = -float(np.sum(np.angle(lam[~at_minus_one]))) / math.pi
    return value, int(np.sum(at_minus_one))


def triple_oracle(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """Real sum m(U,V) + m(V,W) + m(W,U); an integer up to roundoff."""
    return pair_oracle(u, v)[0] + pair_oracle(v, w)[0] + pair_oracle(w, u)[0]


def torus_oracle(a: int, b: int, aa: int, bb: int, t: float) -> float:
    """Pair invariant of span{1, a dx + b dy} and span{1, A dx + B dy} at stretch t.

    The two line angles are theta = arg(b + i t a) and arg(B + i t A); the
    unitary's non-trivial eigenvalue is -exp(2i (theta1 - theta2)), which is
    -1 exactly for parallel lines (both eigenvalues excluded, m = 0).
    """
    if a * bb == b * aa:
        return 0.0
    theta = math.atan2(t * a, b) - math.atan2(t * aa, bb)
    return -math.remainder(2.0 * theta + math.pi, 2.0 * math.pi) / math.pi


def null_space(mat: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > rel_tol * s[0])) if s.size else 0
    return vh[rank:].conj().T


def column_span(mat: np.ndarray, rank: int) -> np.ndarray:
    u, _, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, :rank]


def reduce_oracle(graph: np.ndarray, d0: int, w: np.ndarray, rank: int) -> np.ndarray:
    """Basis of {z : (x, z) in span(graph) for some x in span(w)}."""
    null = null_space(np.hstack([graph[:d0], -w]))
    return column_span(graph[d0:] @ null[: graph.shape[1]], rank)


def gram_orthonormal(gram: np.ndarray, basis: np.ndarray) -> np.ndarray:
    chol = np.linalg.cholesky(basis.conj().T @ gram @ basis)
    return np.linalg.solve(chol, basis.conj().T).conj().T


def gram_distance(gram: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """sin of the largest principal angle between span(a) and span(b)."""
    if a.shape[1] != b.shape[1]:
        return 1.0
    qa, qb = gram_orthonormal(gram, a), gram_orthonormal(gram, b)
    resid = qb - qa @ (qa.conj().T @ gram @ qb)
    m = resid.conj().T @ gram @ resid
    return math.sqrt(max(0.0, float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[-1])))


def lagrangian_residual(gram: np.ndarray, gamma: np.ndarray, basis: np.ndarray) -> float:
    """max |omega(x, y)| over a gram-orthonormal basis of the span."""
    q = gram_orthonormal(gram, basis)
    return float(np.max(np.abs(q.conj().T @ gram @ gamma @ q)))
