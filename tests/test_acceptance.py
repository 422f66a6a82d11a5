"""Acceptance criteria, one test per criterion, each printing a PASS line.

Runtime limits are asserted with the stated budgets; all tolerances are the
stated ones.  Random streams are seeded so every run checks the same cases.
"""
import json
import time
from fractions import Fraction

import numpy as np

import hermsymp as hs
from hermsymp import bordism, cli, sampling
from hermsymp.spaces import direct_sum, lagrangian_from_graph, negated
from hermsymp.torus import TorusModel, torus_m_closed_form, torus_m_sweep


def _report(number, label, elapsed, limit):
    print(f"PASS criterion {number}: {label} (elapsed {elapsed:.3f} s, limit {limit} s)")
    assert elapsed < limit


def test_criterion_1_trefoil_chern_simons_golden(capsys):
    start = time.perf_counter()
    assert cli.main(["--json", "trefoil", "--t", "1/5"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert cli.main(["--json", "trefoil", "--t", "2/5"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert cli.main(["--json", "rho-diff", "--t1", "1/5", "--t2", "2/5"]) == 0
    diff = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start

    assert (first["phi"], first["psi"]) == ("1/5", "-7/10")
    assert first["cohomology"] == [0, 0, 0]
    assert first["condition"] is True
    assert first["winding"] == ["3", "-2"]
    assert first["cs"] == "7/10"
    assert (second["phi"], second["psi"]) == ("2/5", "-19/10")
    assert second["cohomology"] == [0, 0, 0]
    assert second["condition"] is True
    assert second["winding"] == ["7", "-5"]
    assert second["cs"] == "3/10"
    assert diff["rho_diff"] == "3/5"
    assert Fraction(diff["rho_diff"]) == Fraction(3, 5)
    with capsys.disabled():
        _report(1, "trefoil Chern-Simons golden values, exact", elapsed, 0.1)


def test_criterion_2_torus_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 200:
        a, b, A, B = (int(x) for x in rng.integers(-5, 6, size=4))
        if (a, b) == (0, 0) or (A, B) == (0, 0):
            continue
        t = float(rng.uniform(0.1, 10.0))
        model = TorusModel(t)
        generic = hs.m_invariant(
            model.lagrangian(a, b), model.lagrangian(A, B)
        )
        closed = torus_m_closed_form(a, b, A, B, t)
        worst = max(worst, abs(closed - generic))
        assert abs(closed - generic) < 1e-9
        checked += 1
    spot_model = TorusModel(1.0)
    spot_generic = hs.m_invariant(
        spot_model.lagrangian(1, 1),
        spot_model.lagrangian(1, 0),
    )
    spot_closed = torus_m_closed_form(1, 1, 1, 0, 1.0)
    assert abs(spot_generic + 0.5) < 1e-10
    assert abs(spot_closed + 0.5) < 1e-10
    elapsed = time.perf_counter() - start
    _report(2, f"torus oracle equivalence on 200 points, worst delta {worst:.2e}", elapsed, 5.0)


def test_criterion_3_metric_dependence():
    start = time.perf_counter()
    result = torus_m_sweep(1, 1, 1, 0, [0.5, 1.0, 2.0])
    values = [row.m_generic for row in result.rows]
    gaps = [abs(values[i] - values[j]) for i in range(3) for j in range(i)]
    assert len(set(round(v, 6) for v in values)) == 3
    assert min(gaps) > 1e-3
    elapsed = time.perf_counter() - start
    _report(3, f"pair invariant takes 3 distinct values over t, min gap {min(gaps):.3f}", elapsed, 1.0)


def test_criterion_4_triple_index_integrality():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    total = 0
    worst = 0.0
    for half_dim in (1, 2, 3, 4):
        for _ in range(5):
            space = sampling.random_space(half_dim, rng)
            for _ in range(50):
                u, v, w = (
                    sampling.random_lagrangian(space, rng) for _ in range(3)
                )
                raw = (
                    hs.m_invariant(u, v)
                    + hs.m_invariant(v, w)
                    + hs.m_invariant(w, u)
                )
                defect = abs(raw - round(raw))
                worst = max(worst, defect)
                assert defect < 1e-9
                total += 1
    assert total >= 1000
    elapsed = time.perf_counter() - start
    _report(4, f"{total} triple indices integral, worst defect {worst:.2e}", elapsed, 30.0)


def test_criterion_5_pair_invariant_identities():
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    pair_count = 0
    for half_dim in (1, 2, 3, 4):
        space = sampling.random_space(half_dim, rng)
        for _ in range(125):
            v, w = sampling.random_lagrangian_pair(space, rng, 0)
            forward = hs.m_invariant(v, w)
            backward = hs.m_invariant(w, v)
            assert abs(forward + backward) < 1e-9
            flipped = hs.m_invariant(
                hs.gamma_image(v), hs.gamma_image(w)
            )
            assert abs(flipped - forward) < 1e-9
            pair_count += 1
        lagr = sampling.random_lagrangian(space, rng)
        assert hs.m_invariant(lagr, lagr) == 0.0
    assert pair_count >= 500

    exclusion_count = 0
    for half_dim in (2, 3, 4):
        space = sampling.random_space(half_dim, rng)
        for target in (0, 1, 2):
            for _ in range(60):
                v, w = sampling.random_lagrangian_pair(space, rng, target)
                details = hs.m_details(v, w)
                assert details.excluded == target
                assert details.intersection_dim == target
                exclusion_count += 1
    assert exclusion_count >= 500
    elapsed = time.perf_counter() - start
    _report(
        5,
        f"antisymmetry/gamma-invariance on {pair_count} pairs, exclusion "
        f"counts on {exclusion_count} pairs",
        elapsed,
        30.0,
    )


def test_criterion_6_bordism_laws():
    rng = np.random.default_rng(106)
    start = time.perf_counter()

    def build_relation(h0, h1, prod_cache):
        key = (id(h0), id(h1))
        if key not in prod_cache:
            prod_cache[key] = direct_sum(negated(h0), h1)
        prod = prod_cache[key]
        graph = lagrangian_from_graph(
            prod, sampling.random_unitary(prod.half_dim, rng)
        )
        return bordism.BordismRelation(source=h0, target=h1, graph=graph)

    instances = 0
    dims = [(1, 2, 1), (2, 2, 2), (3, 2, 3), (4, 4, 4), (2, 4, 3), (4, 3, 2)]
    spaces = {}
    prod_cache = {}
    for k0, k1, k2 in dims:
        for key in (k0, k1, k2):
            if key not in spaces:
                spaces[key] = sampling.random_space(key, rng)
    per_combo = 34
    for k0, k1, k2 in dims:
        h0, h1, h2 = spaces[k0], spaces[k1], spaces[k2]
        for _ in range(per_combo):
            rel1 = build_relation(h0, h1, prod_cache)
            rel2 = build_relation(h1, h2, prod_cache)
            lagr = sampling.random_lagrangian(h0, rng)

            reduced = bordism.reduce(rel1, lagr)
            residual = np.max(
                np.abs(reduced.basis.conj().T @ h1.omega() @ reduced.basis)
            )
            assert reduced.half_dim == k1
            assert residual < 1e-10

            ident = bordism.identity_relation(h0)
            assert hs.subspace_distance(bordism.reduce(ident, lagr), lagr) < 1e-8

            one_step = bordism.reduce(bordism.compose(rel1, rel2), lagr)
            two_step = bordism.reduce(rel2, reduced)
            assert hs.subspace_distance(one_step, two_step) < 1e-8
            instances += 1
    assert instances >= 200
    elapsed = time.perf_counter() - start
    _report(6, f"reduction/cylinder/functoriality laws on {instances} instances", elapsed, 30.0)


def test_criterion_7_triple_index_depends_only_on_omega():
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    triples = 0
    for half_dim in (1, 2, 3):
        for _ in range(4):
            s1, s2 = sampling.matched_omega_spaces(half_dim, rng)
            for _ in range(9):
                bases = [
                    sampling.random_lagrangian(s1, rng).basis for _ in range(3)
                ]
                first = [hs.lagrangian_from_basis(s1, b) for b in bases]
                second = [hs.lagrangian_from_basis(s2, b) for b in bases]
                assert hs.triple_index(*first) == hs.triple_index(
                    *second
                )
                triples += 1
    assert triples >= 100
    elapsed = time.perf_counter() - start
    _report(7, f"{triples} triple indices identical across matched-form realizations", elapsed, 10.0)


def test_criterion_8_correction_chain_algebra():
    rng = np.random.default_rng(108)
    start = time.perf_counter()
    tuples = 0
    worst = 0.0
    for half_dim in (1, 2, 3):
        space = sampling.random_space(half_dim, rng)
        for _ in range(70):
            vx, vy, wx, wy = (
                sampling.random_lagrangian(space, rng) for _ in range(4)
            )
            g_vx = hs.gamma_image(vx)
            g_vy = hs.gamma_image(vy)
            g_wy = hs.gamma_image(wy)
            chain = (
                hs.m_invariant(vx, vy)
                - hs.m_invariant(g_vx, wx)
                + hs.m_invariant(g_vy, wy)
                - hs.m_invariant(wx, wy)
            )
            integer = hs.triple_index(vx, vy, g_wy) - hs.triple_index(
                g_vx, wx, wy
            )
            defect = abs(chain - integer)
            worst = max(worst, defect)
            assert defect < 1e-8
            tuples += 1
    assert tuples >= 200
    elapsed = time.perf_counter() - start
    _report(8, f"correction chain equals triple-index difference on {tuples} tuples, worst {worst:.2e}", elapsed, 20.0)
