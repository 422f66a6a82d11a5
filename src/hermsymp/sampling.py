"""Seeded random generators for spaces, Lagrangians, and relations.

Deterministic given a numpy Generator; used by the test suite, the shipped
fixtures, and exploratory scripts.
"""
from __future__ import annotations

import math

import numpy as np

from .bordism import BordismRelation, _flipped_product
from .errors import ValidationError, _positive_float
from .spaces import HermitianSymplecticSpace, Lagrangian, lagrangian_from_graph, standard_space


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q @ np.diag(d / np.abs(d))


def random_invertible(n: int, rng: np.random.Generator, spread: float = 4.0) -> np.ndarray:
    """Random matrix with singular values log-uniform in [1/sqrt(spread), sqrt(spread)].

    ``spread`` must be a finite number of at least 1, else :class:`ValidationError`.
    """
    rule = "spread must be finite and at least 1"
    spread = _positive_float(spread, rule)
    if spread < 1.0:
        raise ValidationError(f"{rule}, got {spread!r}")
    half = math.log(spread) / 2.0
    d = np.exp(rng.uniform(-half, half, n))
    return random_unitary(n, rng) @ np.diag(d) @ random_unitary(n, rng)


def random_space(
    half_dim: int, rng: np.random.Generator, *, spread: float = 4.0
) -> HermitianSymplecticSpace:
    """Pull the standard model back through a random invertible map.

    The pullback has gram T^H T and complex structure T^{-1} gamma0 T, which
    satisfies every space invariant exactly in exact arithmetic.  ``spread`` is
    that of :func:`random_invertible`, which checks it before any draw.
    """
    n = 2 * half_dim
    tmat = random_invertible(n, rng, spread)
    gamma0 = standard_space(half_dim).gamma
    gram = tmat.conj().T @ tmat
    gram = (gram + gram.conj().T) / 2.0
    gamma = np.linalg.solve(tmat, gamma0 @ tmat)
    return HermitianSymplecticSpace(gram, gamma)


def random_lagrangian(space: HermitianSymplecticSpace, rng: np.random.Generator) -> Lagrangian:
    return lagrangian_from_graph(space, random_unitary(space.half_dim, rng))


def random_lagrangian_pair(
    space: HermitianSymplecticSpace,
    rng: np.random.Generator,
    intersection: int,
) -> tuple[Lagrangian, Lagrangian]:
    """Pair (V, W) with dim(V & W) equal to ``intersection``, engineered by
    making the two graph unitaries agree on exactly that many eigenvectors
    and rotating the rest well away from agreement."""
    k = space.half_dim
    if not 0 <= intersection <= k:
        raise ValidationError(f"intersection must lie in [0, {k}], got {intersection}")
    u_v = random_unitary(k, rng)
    frame = random_unitary(k, rng)
    angles = rng.uniform(0.4, 1.4, k - intersection)
    eigs = np.concatenate([np.ones(intersection), np.exp(1j * angles)])
    u_w = u_v @ frame @ np.diag(eigs) @ frame.conj().T
    return lagrangian_from_graph(space, u_v), lagrangian_from_graph(space, u_w)


def form_preserving_map(form: np.ndarray, rng: np.random.Generator, *, scale: float = 0.4) -> np.ndarray:
    """Random invertible S with S^H form S = form, via a Cayley transform.

    A random matrix is projected onto the Lie algebra {X : X^H form = -form X}
    and mapped through S = (I - X)(I + X)^{-1}, which preserves the form up
    to roundoff for any algebra element.
    """
    n = form.shape[0]
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = (x - np.linalg.solve(form, x.conj().T @ form)) / 2.0
    norm = float(np.linalg.norm(x, 2))
    if norm > 0:
        x *= scale / norm
    ident = np.eye(n, dtype=np.complex128)
    return (ident - x) @ np.linalg.inv(ident + x)


def matched_omega_spaces(
    half_dim: int, rng: np.random.Generator
) -> tuple[HermitianSymplecticSpace, HermitianSymplecticSpace]:
    """Two compatible (gram, gamma) pairs realizing the same symplectic form.

    The second space is the pullback of the first through a random
    form-preserving map, so both omega matrices agree to roundoff while gram
    and gamma differ; any Lagrangian basis of one is a Lagrangian basis of
    the other.
    """
    base = random_space(half_dim, rng)
    s = form_preserving_map(base.omega(), rng)
    gram = s.conj().T @ base.gram @ s
    gram = (gram + gram.conj().T) / 2.0
    gamma = np.linalg.solve(s, base.gamma @ s)
    return base, HermitianSymplecticSpace(gram, gamma, base.tol)


def random_bordism_relation(
    source: HermitianSymplecticSpace,
    target: HermitianSymplecticSpace,
    rng: np.random.Generator,
) -> BordismRelation:
    graph = random_lagrangian(_flipped_product(source, target), rng)
    return BordismRelation(source=source, target=target, graph=graph)
