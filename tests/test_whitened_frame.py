"""Decisions on a space are made in its whitened frame, against one rule.

With ``gram = U^H U``, residuals of algebraic identities are measured in the
coordinates ``U x`` and compared with ``tol.alg`` scaled by cond(U); rank
decisions use whitened singular values.  So the verdicts depend on the
geometry of a space, not on the units or the conditioning of its coordinates.
"""
import ast
import inspect
import pathlib

import numpy as np
import pytest

import hermsymp as hs
from hermsymp import linalg, sampling

SRC = pathlib.Path(hs.__file__).parent


@pytest.mark.parametrize("scale", [1e-20, 1e-16, 1e-12, 1e-8, 1e8, 1e12, 1e16, 1e20])
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


@pytest.mark.parametrize(
    "half_dim,seed",
    [
        pytest.param(k, seed, id=f"{k}-seed{seed}" if seed else str(k))
        for seed in (0, 60)
        for k in (2, 3, 8)
    ],
)
def test_ill_conditioned_spaces_validate_and_keep_their_lagrangians(half_dim, seed):
    # cond(gram) up to 1e4: exact by construction, so every check must pass.
    # Seed 60 draws Lagrangians whose omega residual, measured in raw
    # coordinates, exceeded the rule; it is measured in the whitened frame.
    rng = np.random.default_rng(seed)
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
    # The space factors its gram once; gram_mgs takes that factor.
    assert _attribute_readers("cholesky") == {"spaces.HermitianSymplecticSpace.__post_init__"}
    # Residuals meet tol.alg only through the space's rule; the relation
    # document's block check is the one input check that reads it.  The CLI
    # reads the class default ``Tolerances.alg`` for its flag.
    assert _attribute_readers("alg", skip_owner="Tolerances") == {
        "spaces.HermitianSymplecticSpace._exceeds_alg",
        "serialization.relation_from_dict",
    }


# One fragment of the message of each check that the scalar route and the
# stacked kernel share.
SHARED_CHECKS = (
    "symplectic form does not vanish on the span",
    "eigenspaces not separated within tolerance",
    "projection onto the +i eigenspace is singular",
    "graph map is not unitary",
    "ambiguity band (tol.eig=",
)


def _message_sites_and_calls():
    """String literals with the top-level function holding each, and the callers of each name.

    A literal is a plain string or an f-string, whose fields read ``{}``;
    docstrings are skipped.  Functions are named ``module.function``.
    """
    sites, callers = [], {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope if "." in scope else f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue  # a docstring
            if isinstance(child, ast.JoinedStr):
                parts = (v.value if isinstance(v, ast.Constant) else "{}" for v in child.values)
                sites.append(("".join(parts), scope))
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                sites.append((child.value, scope))
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                callers.setdefault(child.func.id, set()).add(scope)
            visit(child, scope)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return sites, callers


def test_each_shared_check_has_one_implementation():
    # The scalar route and m_stack make each of these checks through one
    # function, so each message is worded at one site, in a function that
    # both the kernel and a scalar function call, directly or through the
    # pair kernel that every route calls.
    sites, callers = _message_sites_and_calls()
    for fragment in SHARED_CHECKS:
        owners = [scope for text, scope in sites if fragment in text]
        assert len(owners) == 1, (fragment, owners)
        users = callers.get(owners[0].split(".")[1], set())
        if owners[0] == "maslov._pair_values" or "maslov._pair_values" in users:
            users = users - {"maslov._pair_values"} | callers["_pair_values"]
        assert "maslov._stacked_m" in users, (fragment, owners, users)
        assert users - {"maslov._stacked_m"}, (fragment, owners, users)


def test_linalg_never_sees_a_gram_matrix():
    # The space owns its frame; linalg works in Euclidean coordinates only.
    for name, fn in inspect.getmembers(linalg, inspect.isfunction):
        if fn.__module__ == linalg.__name__:
            assert "gram" not in inspect.signature(fn).parameters, name


def test_pair_invariants_never_reach_the_pinned_split():
    # m, the triple index and the correction take their graph maps in the
    # split's own eigenvectors; only phi_of and lagrangian_from_graph read the
    # pinned bases of eigensplit.
    tree = ast.parse((SRC / "maslov.py").read_text())
    called = {
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    for name in ("eigensplit", "phi_of", "_splitting"):
        assert name not in called | read | imported, name
