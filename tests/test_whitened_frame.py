"""Decisions on a space are made in its whitened frame, against one rule.

With ``gram = U^H U``, residuals of algebraic identities are measured in the
coordinates ``U x`` and compared with ``tol.alg`` scaled by cond(U); rank
decisions use whitened singular values.  So the verdicts depend on the
geometry of a space, not on the units or the conditioning of its coordinates.
"""
import ast
import pathlib

import numpy as np
import pytest

import hermsymp as hs
from hermsymp import sampling

SRC = pathlib.Path(hs.__file__).parent


@pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e8, 1e12, 1e16])
def test_decisions_are_invariant_under_gram_scaling(rng, scale):
    for draw in range(5):
        space = sampling.random_space(3, rng)
        v, w = sampling.random_lagrangian_pair(space, rng, intersection=draw % 2)
        expected = hs.m_details(v, w)
        scaled = hs.HermitianSymplecticSpace(space.gram * scale, space.gamma)
        assert hs.validate_space(scaled).passed
        got = hs.m_details(
            hs.lagrangian_from_basis(scaled, v.basis), hs.lagrangian_from_basis(scaled, w.basis)
        )
        assert got.intersection_dim == expected.intersection_dim == draw % 2
        assert abs(got.value - expected.value) < 1e-9


@pytest.mark.parametrize("half_dim", [2, 3, 8])
def test_ill_conditioned_spaces_validate_and_keep_their_lagrangians(half_dim):
    # cond(gram) up to 1e4: exact by construction, so every check must pass.
    rng = np.random.default_rng(0)
    for _ in range(50):
        space = sampling.random_space(half_dim, rng, spread=1e4)
        assert hs.validate_space(space).passed
        u, v, w = (sampling.random_lagrangian(space, rng) for _ in range(3))
        hs.triple_index(u, v, w)  # raises unless the sum is integral


@pytest.mark.parametrize("cond", [1.0, 30.0])
def test_perturbed_gamma_rejected_at_any_conditioning(rng, cond):
    half_dim = 2
    n = 2 * half_dim
    gamma0 = hs.standard_space(half_dim).gamma
    for _ in range(20):
        singular = np.geomspace(1.0, cond, n)
        tmat = sampling.random_unitary(n, rng) @ np.diag(singular) @ sampling.random_unitary(n, rng)
        gram = tmat.conj().T @ tmat
        gram = (gram + gram.conj().T) / 2.0
        gamma = np.linalg.solve(tmat, gamma0 @ tmat)
        assert np.linalg.cond(np.linalg.cholesky(gram)) == pytest.approx(cond, rel=1e-6)
        assert hs.validate_space(hs.HermitianSymplecticSpace(gram, gamma)).passed
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        perturbed = hs.HermitianSymplecticSpace(gram, gamma + 1e-6 * noise)
        assert not hs.validate_space(perturbed).passed


def _attribute_readers(attr: str, skip_owner: str | None = None) -> set[str]:
    """Qualified names of the functions in the package that read ``<x>.attr``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                owner = child.value
                if not (isinstance(owner, ast.Name) and owner.id == skip_owner):
                    found.add(".".join(scope))
            visit(child, scope)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), (path.stem,))
    return found


def test_one_factorization_and_one_threshold_rule():
    # The space factors its gram once; gram_mgs keeps its own factorization.
    assert _attribute_readers("cholesky") == {
        "spaces.HermitianSymplecticSpace.__post_init__",
        "linalg.gram_mgs",
    }
    # Residuals meet tol.alg only through the space's rule; the relation
    # document's block check is the one input check that reads it.  The CLI
    # reads the class default ``Tolerances.alg`` for its flag.
    assert _attribute_readers("alg", skip_owner="Tolerances") == {
        "spaces.HermitianSymplecticSpace._exceeds_alg",
        "serialization.relation_from_dict",
    }
