"""Command-line surface: outputs, exit codes, determinism, golden fixture."""
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import hermsymp as hs
from hermsymp import cli, sampling
from hermsymp import serialization as ser
from hermsymp.errors import NonIntegerSum
from hermsymp.torus import TorusModel, SweepResult, SweepRow

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def standard_files(tmp_path):
    space = hs.standard_space(1)
    v = hs.lagrangian_from_basis(space, [[1.0], [0.0]])
    return {
        "space": write_json(tmp_path / "space.json", ser.space_to_dict(space)),
        "v": write_json(tmp_path / "v.json", ser.lagrangian_to_dict(v)),
    }


def test_validate_pass_and_fail(capsys, tmp_path, standard_files):
    code, out, _ = run_cli(capsys, ["validate", standard_files["space"]])
    assert code == 0
    assert "result = PASS" in out
    bad = hs.HermitianSymplecticSpace(np.eye(2), np.diag([1j, 1j]))
    bad_file = write_json(tmp_path / "bad.json", ser.space_to_dict(bad))
    code, out, _ = run_cli(capsys, ["validate", bad_file])
    assert code == 2
    assert "result = FAIL" in out


@pytest.mark.parametrize("command,lagrangians", [("m", 2), ("triple", 3)])
def test_m_and_triple_refuse_a_space_that_fails_validation(
    capsys, tmp_path, standard_files, command, lagrangians
):
    # gram I_2 with gamma diag(i, i) constructs, but the signature of i gamma is -2
    bad = hs.HermitianSymplecticSpace(np.eye(2), np.diag([1j, 1j]))
    bad_file = write_json(tmp_path / "bad.json", ser.space_to_dict(bad))
    for flags in ([], ["--json"]):
        argv = [*flags, command, bad_file, *[standard_files["v"]] * lagrangians]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ValidationError"
        assert error["message"] == "space fails validation; run the validate command"


def test_validate_honours_tol_rank(capsys):
    # A rank threshold above every eigenvalue of i*gamma leaves them all null.
    code, out, _ = run_cli(
        capsys, ["--tol-rank", "1e3", "validate", str(FIXTURES / "space.json")]
    )
    assert code == 2
    assert "igamma_signature_zero" in out
    assert any(
        line.startswith("igamma_signature_zero") and line.endswith("FAIL")
        for line in out.splitlines()
    )


def test_validate_fails_a_space_whose_whitened_gamma_overflows():
    # gram diag(1e308, 1e308, 1e-320, 1e-320) with the standard gamma: U gamma U^-1
    # overflows and eigh fails on it, which reads as failing checks, not a traceback
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "hermsymp.cli", "validate", str(FIXTURES / "overflow_space.json")],
        env=env, capture_output=True, text=True,
    )
    assert (out.returncode, out.stderr) == (2, "")
    assert out.stdout.splitlines() == [
        "dim = 4",
        "gamma_squares_to_minus_identity: residual=nan FAIL",
        "gamma_gram_unitary: residual=nan FAIL",
        "igamma_signature_zero: residual=4 positive=0 negative=0 null=4 FAIL",
        "result = FAIL",
    ]


def test_m_equal_lagrangians(capsys, standard_files):
    code, out, _ = run_cli(
        capsys, ["m", standard_files["space"], standard_files["v"], standard_files["v"]]
    )
    assert code == 0
    assert "m = 0" in out
    assert "intersection_dim = 1" in out


def test_m_torus_value(capsys, tmp_path):
    model = TorusModel(1.0)
    space_file = write_json(tmp_path / "ts.json", ser.space_to_dict(model.space))
    vx = write_json(tmp_path / "vx.json", ser.lagrangian_to_dict(model.lagrangian(1, 1)))
    vy = write_json(tmp_path / "vy.json", ser.lagrangian_to_dict(model.lagrangian(1, 0)))
    code, out, _ = run_cli(capsys, ["--json", "m", space_file, vx, vy])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["m"] + 0.5) < 1e-10
    assert payload["intersection_dim"] == 1


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["validate", str(bad)])
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b'{"gram": ' + b"1" * 5000 + b"}", b"[" * 200000 + b"]" * 200000],
    ids=["not-utf8", "long-integer", "deep-nesting"],
)
@pytest.mark.parametrize("command", ["validate", "m"])
def test_undecodable_document_exits_2(capsys, tmp_path, content, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = [command, str(bad)] + ([str(FIXTURES / "v.json")] * 2 if command == "m" else [])
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ValidationError"


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, ["validate", "/nonexistent/space.json"])
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("bad", [math.nan, math.inf, pytest.param(10**330, id="huge-int")])
def test_non_finite_space_exits_2(capsys, tmp_path, bad):
    doc = json.loads((FIXTURES / "space.json").read_text())
    doc["gram"][0][0]["re"] = bad
    space = write_json(tmp_path / "space.json", doc)
    v, w = str(FIXTURES / "v.json"), str(FIXTURES / "w.json")
    for argv in (["validate", space], ["m", space, v, w]):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert json.loads(err)["error"] == "SpaceValidationError"


@pytest.mark.parametrize(
    "flag, value, command",
    [
        ("--tol-alg", "inf", "m"),
        ("--tol-alg", "nan", "m"),
        ("--tol-rank", "0", "m"),
        ("--tol-rank", "-1", "validate"),
    ],
)
def test_invalid_tolerance_flag_exits_2(capsys, flag, value, command):
    files = [str(FIXTURES / f"{name}.json") for name in ("space", "u", "v")]
    argv = [flag, value, command] + (files if command == "m" else files[:1])
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValidationError"
    assert f"tolerance {flag[len('--tol-'):]} " in error["message"]


def test_triple_golden_fixture(capsys):
    # Fixture triple generated once with seed 20260810 and committed; the
    # index must stay pinned at its recorded value.
    code, out, _ = run_cli(
        capsys,
        [
            "triple",
            str(FIXTURES / "space.json"),
            str(FIXTURES / "u.json"),
            str(FIXTURES / "v.json"),
            str(FIXTURES / "w.json"),
        ],
    )
    assert code == 0
    assert out.strip() == "triple_index = 2"


def test_tol_alg_reaches_m_and_triple(capsys, tmp_path):
    # u moved off the Lagrangian by 1e-7 (symplectic residual about 3e-7):
    # rejected at the default tol.alg, accepted under --tol-alg 1e-5.
    doc = json.loads((FIXTURES / "u.json").read_text())
    basis = ser.obj_to_matrix(doc["basis"], 4, 2)
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    u = write_json(tmp_path / "u.json", {"basis": ser.matrix_to_obj(basis + 1e-7 * noise)})
    space, v, w = (str(FIXTURES / f"{name}.json") for name in ("space", "v", "w"))
    for argv in (["m", space, u, v], ["triple", space, u, v, w]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "LagrangianValidationError"
        code, out, err = run_cli(capsys, ["--tol-alg", "1e-5", *argv])
        assert code == 0 and err == ""


def test_triple_repeated_argument_zero(capsys, standard_files):
    code, out, _ = run_cli(
        capsys,
        [
            "triple",
            standard_files["space"],
            standard_files["v"],
            standard_files["v"],
            standard_files["v"],
        ],
    )
    assert code == 0
    assert out.strip() == "triple_index = 0"


def test_dimension_mismatch_exits_2(capsys, tmp_path, standard_files):
    other = hs.standard_space(2)
    lagr = hs.lagrangian_from_basis(other, np.eye(4)[:, :2])
    wrong = write_json(tmp_path / "wrong.json", ser.lagrangian_to_dict(lagr))
    code, _, err = run_cli(
        capsys, ["m", standard_files["space"], standard_files["v"], wrong]
    )
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


def pair_near_minus_one(tmp_path, angle):
    """Files of a space and a pair whose eigenvalue lies about ``angle`` from -1."""
    space = hs.standard_space(1)
    v = hs.lagrangian_from_graph(space, [[1.0]])
    w = hs.lagrangian_from_graph(space, [[np.exp(1j * angle)]])
    return [
        write_json(tmp_path / "s.json", ser.space_to_dict(space)),
        write_json(tmp_path / "v.json", ser.lagrangian_to_dict(v)),
        write_json(tmp_path / "w.json", ser.lagrangian_to_dict(w)),
    ]


def test_eigenvalue_ambiguity_exits_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["m", *pair_near_minus_one(tmp_path, 1e-7)])
    assert code == 3
    assert json.loads(err)["error"] == "EigenvalueAmbiguity"


@pytest.mark.parametrize("angle,expected", [(5e-9, 0), (1e-7, 3)])
def test_one_decision_at_minus_one_sets_the_exit_code(capsys, tmp_path, angle, expected):
    # Within tol.eig = 1e-8 of -1 the eigenvalue is excluded and counted in
    # dim(V & W); in (tol.eig, 100 tol.eig) the invariant is ambiguous.
    code, out, err = run_cli(capsys, ["--json", "m", *pair_near_minus_one(tmp_path, angle)])
    assert code == expected
    if expected:
        assert out == "" and json.loads(err)["error"] == "EigenvalueAmbiguity"
        return
    payload = json.loads(out)
    eigenvalues = [complex(z["re"], z["im"]) for z in payload["eigenvalues"]]
    excluded = sum(abs(z + 1.0) <= hs.Tolerances().eig for z in eigenvalues)
    assert (err, payload["intersection_dim"], excluded) == ("", 1, 1)


@pytest.mark.parametrize("angle,expected", [(5e-9, 0), (1e-7, 3)])
def test_triple_with_a_nearly_meeting_pair_sets_the_exit_code(capsys, tmp_path, angle, expected):
    # U and V meet at principal-angle sine angle / 2, where the Kashiwara form
    # has an eigenvalue: null within tol.eig / 2, ambiguous in
    # (tol.eig / 2, 50 tol.eig)
    rng = np.random.default_rng(22)
    space = sampling.random_space(2, rng)
    u, frame = sampling.random_unitary(2, rng), sampling.random_unitary(2, rng)
    close = u @ frame @ np.diag(np.exp(1j * np.array([angle, 0.9]))) @ frame.conj().T
    triple = [hs.lagrangian_from_graph(space, x) for x in (u, close)]
    triple.append(sampling.random_lagrangian(space, rng))
    files = [write_json(tmp_path / "space.json", ser.space_to_dict(space))] + [
        write_json(tmp_path / f"{name}.json", ser.lagrangian_to_dict(x))
        for name, x in zip("uvw", triple)
    ]
    code, out, err = run_cli(capsys, ["--json", "triple", *files])
    assert code == expected
    if expected:
        assert out == "" and json.loads(err)["error"] == "EigenvalueAmbiguity"
        return
    total = sum(hs.m_invariant(a, b) for a, b in zip(triple, triple[1:] + triple[:1]))
    assert err == "" and json.loads(out) == {"triple_index": round(total)}


def test_non_integer_sum_exits_4(capsys, standard_files, monkeypatch):
    def explode(*args, **kwargs):
        raise NonIntegerSum("forced")

    monkeypatch.setattr(hs.maslov, "triple_index", explode)
    code, _, err = run_cli(
        capsys,
        [
            "triple",
            standard_files["space"],
            standard_files["v"],
            standard_files["v"],
            standard_files["v"],
        ],
    )
    assert code == 4
    assert json.loads(err)["error"] == "NonIntegerSum"


def test_reduce_identity_relation(capsys, tmp_path, rng):
    space = sampling.random_space(1, rng)
    from hermsymp import bordism

    rel = bordism.identity_relation(space)
    lagr = sampling.random_lagrangian(space, rng)
    rel_file = write_json(tmp_path / "rel.json", ser.relation_to_dict(rel))
    w_file = write_json(tmp_path / "w.json", ser.lagrangian_to_dict(lagr))
    code, out, _ = run_cli(capsys, ["reduce", rel_file, w_file])
    assert code == 0
    reduced = ser.lagrangian_from_dict(space, json.loads(out))
    assert hs.subspace_distance(reduced, lagr) < 1e-10


def test_compose_cylinder_neutral(capsys, tmp_path, rng):
    from hermsymp import bordism

    space = sampling.random_space(1, rng)
    rel = sampling.random_bordism_relation(space, space, rng)
    ident = bordism.identity_relation(space)
    f1 = write_json(tmp_path / "ident.json", ser.relation_to_dict(ident))
    f2 = write_json(tmp_path / "rel.json", ser.relation_to_dict(rel))
    code, out, _ = run_cli(capsys, ["compose", f1, f2])
    assert code == 0
    composed = ser.relation_from_dict(json.loads(out))
    assert bordism.relation_distance(composed, rel) < 1e-10


def test_torus_sweep_single_row(capsys):
    code, out, _ = run_cli(capsys, ["torus-sweep", "1", "1", "1", "0", "1", "1", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,m_closed,m_generic,delta"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert abs(float(fields[1]) + 0.5) < 1e-12
    assert abs(float(fields[2]) + 0.5) < 1e-12


def test_torus_sweep_equal_pair_zero(capsys):
    code, out, _ = run_cli(capsys, ["torus-sweep", "1", "1", "1", "1", "0.5", "2", "4"])
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[1]) == 0.0
        assert abs(float(line.split(",")[2])) < 1e-12


def test_torus_sweep_bad_steps(capsys):
    code, _, err = run_cli(capsys, ["torus-sweep", "1", "1", "1", "0", "1", "1", "0"])
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


def test_torus_sweep_bad_range(capsys):
    code, _, _ = run_cli(capsys, ["torus-sweep", "1", "1", "1", "0", "2", "1", "3"])
    assert code == 2


@pytest.mark.parametrize(
    "a,grid", [(10**300, ["1e10", "1e10", "1"]), (10**400, ["0.5", "2", "3"])]
)
def test_torus_sweep_entry_past_the_double_range_exits_2(a, grid):
    # t * a overflows, or a has no float at all: a typed error, never a traceback
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "hermsymp.cli", "torus-sweep", str(a), "1", "1", "0", *grid],
        env=env, capture_output=True, text=True,
    )
    assert (out.returncode, out.stdout) == (2, ""), out.stderr
    # no warning before it: all of stderr is the one JSON error
    assert set(json.loads(out.stderr)) == {"error", "message"}


@pytest.mark.parametrize(
    "argv,error",
    [
        ([str(10**300), "1", "1", "0", "1e10", "1e10", "1"], "closed form overflows"),
        ([str(10**300), "1", "1", "0", "1e18", "1e18", "1"], "closed form overflows"),
        (["10", "1", "1", "0", "1e308", "1e308", "1"], "must have finite entries"),
        (["10", "1", "1", "0", "5e-324", "5e-324", "1"], "must have finite entries"),
        # an infinite bound is out of range before the grid is built
        (["1", "2", "3", "4", "1", "inf", "2"], "need a finite t_max, got t_max=inf"),
        (["1", "2", "3", "4", "1", "inf", "1"], "need a finite t_max, got t_max=inf"),
        (["1", "2", "3", "4", "inf", "inf", "3"], "need a finite t_max, got t_max=inf"),
    ],
)
def test_torus_sweep_past_the_double_range_writes_one_json_error(argv, error):
    # No numpy warning and no rank verdict on an overflow: stderr is one JSON object.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "hermsymp.cli", "torus-sweep", *argv],
        env=env, capture_output=True, text=True,
    )
    assert (out.returncode, out.stdout) == (2, ""), out.stderr
    assert error in json.loads(out.stderr)["message"]


def test_torus_sweep_takes_the_tolerance_flags(capsys):
    # the +i projection of each line has smallest singular value 1/sqrt(2),
    # which a rank threshold of 0.9 rejects, as m_stack does under it
    code, out, err = run_cli(
        capsys, ["--tol-rank", "0.9", "torus-sweep", "1", "1", "1", "0", "0.5", "2", "2"]
    )
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "LagrangianValidationError"
    assert "smallest singular value 7.071e-01" in error["message"]
    # a tolerance flag fails like any other command's
    argv = ["--tol-alg", "inf", "torus-sweep", "1", "1", "1", "0", "1", "1", "1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "tolerance alg must be finite and positive" in json.loads(err)["message"]


def test_sweep_mismatch_exits_5(capsys, monkeypatch):
    rows = (SweepRow(t=1.0, m_closed=0.0, m_generic=1e-3),)

    monkeypatch.setattr(hs.torus, "torus_m_sweep", lambda *a, **k: SweepResult(rows=rows))
    code, out, err = run_cli(capsys, ["torus-sweep", "1", "1", "1", "0", "1", "1", "1"])
    assert code == 5
    assert json.loads(err)["error"] == "SweepMismatch"
    assert out.startswith("t,m_closed")


def test_trefoil_golden(capsys):
    code, out, _ = run_cli(capsys, ["trefoil", "--t", "1/5"])
    assert code == 0
    assert "phi = 1/5" in out
    assert "psi = -7/10" in out
    assert "cohomology = (0, 0, 0)" in out
    assert "condition = true" in out
    assert "winding = (3, -2)" in out
    assert "cs = 7/10" in out


def test_trefoil_out_of_arc_exits_2(capsys):
    code, _, err = run_cli(capsys, ["trefoil", "--t", "1/2"])
    assert code == 2
    assert json.loads(err)["error"] == "OutOfArc"


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
def test_trefoil_at_a_point_that_does_not_extend_writes_one_condition_failed_error(capsys, flags):
    # t = 1/4 lies on the arc, but (phi, psi)(f + I) is not an integer vector
    code, out, err = run_cli(capsys, [*flags, "trefoil", "--t", "1/4"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and json.loads(err)["error"] == "ConditionFailed"


def test_trefoil_bad_rational_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["trefoil", "--t", "0.2x"])
    assert code == 2


@pytest.mark.parametrize("t,expected", [("1/5", 0), ("1e-5", 2)])
def test_the_console_script_exits_with_mains_code(capsys, monkeypatch, t, expected):
    # pyproject.toml installs cli.entry as the hermsymp command
    monkeypatch.setattr(sys, "argv", ["hermsymp", "trefoil", "--t", t])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == expected
    out = capsys.readouterr().out
    assert ("cs = 7/10" in out) == (expected == 0)


@pytest.mark.parametrize(
    "argv", [["trefoil", "--t", "1e-99999999"], ["rho-diff", "--t1", "1/5", "--t2", "1e99999999"]]
)
def test_rational_exponent_exits_2_at_once(argv):
    # Fraction would expand the power of ten for minutes; the grammar is p/q
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-m", "hermsymp.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=5)
    assert out.returncode == 2 and out.stdout == ""
    assert "not a rational p/q" in out.stderr


def test_rho_diff_golden(capsys):
    code, out, _ = run_cli(capsys, ["rho-diff", "--t1", "1/5", "--t2", "2/5"])
    assert code == 0
    assert "rho_diff = 3/5" in out


def test_outputs_deterministic(capsys, tmp_path, rng):
    model = TorusModel(0.7)
    space_file = write_json(tmp_path / "s.json", ser.space_to_dict(model.space))
    vx = write_json(tmp_path / "vx.json", ser.lagrangian_to_dict(model.lagrangian(2, 3)))
    vy = write_json(tmp_path / "vy.json", ser.lagrangian_to_dict(model.lagrangian(1, -1)))
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, ["m", space_file, vx, vy])
        outputs.append(out)
    assert outputs[0] == outputs[1]
    sweeps = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, ["torus-sweep", "2", "3", "1", "-1", "0.3", "3", "7"])
        sweeps.append(out)
    assert sweeps[0] == sweeps[1]


def test_json_flag_outputs_parse(capsys, standard_files):
    code, out, _ = run_cli(capsys, ["--json", "validate", standard_files["space"]])
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run_cli(capsys, ["--json", "rho-diff", "--t1", "1/5", "--t2", "2/5"])
    assert code == 0
    assert json.loads(out)["rho_diff"] == "3/5"


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def test_the_strict_parse_rejects_each_non_finite_constant():
    for text in ('{"x": NaN}', '[Infinity]', '[-Infinity]'):
        with pytest.raises(ValueError, match="not JSON"):
            strict_json(text)


def test_every_json_output_is_strict_json(capsys, tmp_path):
    # each command that prints JSON, on the fixtures; a figure that is not
    # finite, as the overflowing space's residuals, is written null
    from hermsymp import bordism

    space = ser.space_from_dict(json.loads((FIXTURES / "space.json").read_text()))
    rel = write_json(tmp_path / "rel.json", ser.relation_to_dict(bordism.identity_relation(space)))
    files = FIXTURE_FILES
    for argv, expected in (
        (["validate", files["space"]], 0),
        (["validate", str(FIXTURES / "overflow_space.json")], 2),
        (["m", files["space"], files["v"], files["w"]], 0),
        (["triple", files["space"], files["u"], files["v"], files["w"]], 0),
        (["reduce", rel, files["w"]], 0),
        (["compose", rel, rel], 0),
        (["trefoil", "--t", "1/5"], 0),
        (["rho-diff", "--t1", "1/5", "--t2", "2/5"], 0),
    ):
        code, out, err = run_cli(capsys, ["--json", *argv])
        assert (code, err) == (expected, ""), argv
        strict_json(out)
    code, out, _ = run_cli(capsys, ["--json", "validate", str(FIXTURES / "overflow_space.json")])
    residuals = [check["residual"] for check in strict_json(out)["checks"]]
    assert residuals == [None, None, 4.0]


def test_json_output_refuses_a_non_finite_float(capsys, monkeypatch):
    # a later figure that is not finite and not written null raises, rather
    # than printing NaN
    monkeypatch.setattr(cli, "_finite", lambda x: x)
    with pytest.raises(ValueError, match="JSON compliant"):
        cli.main(["--json", "validate", str(FIXTURES / "overflow_space.json")])


def test_json_flag_leaves_the_csv_and_document_outputs_as_they_are(capsys, tmp_path):
    from hermsymp import bordism

    space = ser.space_from_dict(json.loads((FIXTURES / "space.json").read_text()))
    rel = write_json(tmp_path / "rel.json", ser.relation_to_dict(bordism.identity_relation(space)))
    for argv in (["torus-sweep", "1", "2", "3", "4", "0.5", "2", "5"],
                 ["reduce", rel, str(FIXTURES / "w.json")], ["compose", rel, rel]):
        assert run_cli(capsys, ["--json", *argv]) == run_cli(capsys, argv)
        assert run_cli(capsys, argv)[0] == 0


def _plain_text(value):
    # the plain form of a --json value: floats with 15 significant digits,
    # complex numbers as a+bi, lists of them joined, other lists as tuples
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.15g" % value
    if isinstance(value, dict):
        return f"{value['re']:.15g}{value['im']:+.15g}i"
    if isinstance(value, list) and all(isinstance(x, dict) for x in value):
        return ", ".join(map(_plain_text, value))
    if isinstance(value, list):
        return f"({', '.join(map(_plain_text, value))})"
    return str(value)


FIXTURE_FILES = {name: str(FIXTURES / f"{name}.json") for name in ("space", "u", "v", "w")}


@pytest.mark.parametrize("argv", [
    ["m", *(FIXTURE_FILES[n] for n in ("space", "v", "w"))],
    ["triple", *(FIXTURE_FILES[n] for n in ("space", "u", "v", "w"))],
    ["trefoil", "--t", "1/5"], ["trefoil", "--t", "2/5"],
    ["rho-diff", "--t1", "1/5", "--t2", "2/5"],
], ids=["m", "triple", "trefoil-0.2", "trefoil-0.4", "rho-diff"])
def test_plain_and_json_report_the_same_fields(capsys, argv):
    code, plain, _ = run_cli(capsys, argv)
    json_code, out, _ = run_cli(capsys, ["--json", *argv])
    assert code == json_code == 0
    fields = dict(line.split(" = ", 1) for line in plain.splitlines())
    assert fields == {name: _plain_text(value) for name, value in json.loads(out).items()}


@pytest.mark.parametrize("flags", [[], ["--tol-rank", "1e3"]], ids=["pass", "fail"])
def test_validate_reports_the_same_checks_plain_and_json(capsys, flags):
    argv = [*flags, "validate", FIXTURE_FILES["space"]]
    code, plain, _ = run_cli(capsys, argv)
    json_code, out, _ = run_cli(capsys, [*flags, "--json", *argv[len(flags):]])
    report = json.loads(out)
    assert code == json_code == (0 if report["passed"] else 2)
    verdict = {True: "PASS", False: "FAIL"}
    # the plain form leaves out the signature
    assert plain.splitlines() == [
        f"dim = {report['dim']}",
        *(f"{c['name']}: residual={_plain_text(c['residual'])}"
          f"{' ' + c['detail'] if c['detail'] else ''} {verdict[c['passed']]}"
          for c in report["checks"]),
        f"result = {verdict[report['passed']]}",
    ]


def test_cli_import_does_not_load_scipy():
    # scipy's import time would land on every CLI command.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    code = "import hermsymp.cli, sys; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# Runs one command in-process, then reports on stderr whether numpy was loaded.
NUMPY_PROBE = (
    "import sys, hermsymp.cli; code = hermsymp.cli.main(sys.argv[1:]); "
    "print('numpy' in sys.modules, file=sys.stderr); sys.exit(code)"
)
EXACT_OUTPUTS = {
    ("trefoil", "--t", "1/5"): "phi = 1/5\npsi = -7/10\ncohomology = (0, 0, 0)\n"
    "condition = true\nconstraint = (-1, -5)\nwinding = (3, -2)\ncs = 7/10\n",
    ("--json", "trefoil", "--t", "1/5"): '{"cohomology": [0, 0, 0], "condition": true, '
    '"constraint": ["-1", "-5"], "cs": "7/10", "phi": "1/5", "psi": "-7/10", '
    '"winding": ["3", "-2"]}\n',
    ("rho-diff", "--t1", "1/5", "--t2", "2/5"): "cs1 = 7/10\ncs2 = 3/10\nrho_diff = 3/5\n",
    ("--json", "rho-diff", "--t1", "1/5", "--t2", "2/5"):
        '{"cs1": "7/10", "cs2": "3/10", "rho_diff": "3/5"}\n',
}


def test_exact_commands_do_not_load_numpy():
    # The numeric modules are lazy, so only the commands that need them pay
    # for numpy; the benchmark's tracer still finds every layer registered.
    from test_bench_layers import LAYERS

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))

    def python(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, check=True)

    layers = {f"hermsymp.{layer}" for layer in LAYERS}
    code = f"import hermsymp.cli, sys; print('numpy' in sys.modules, {layers} <= sys.modules.keys())"
    assert python("-c", code).stdout == "False True\n"
    assert python("-c", "import hermsymp, sys; print('numpy' in sys.modules)").stdout == "False\n"
    for argv, expected in EXACT_OUTPUTS.items():
        out = python("-c", NUMPY_PROBE, *argv)
        assert (out.stdout, out.stderr) == (expected, "False\n")
    out = python("-c", NUMPY_PROBE, "--help")
    assert out.stdout.startswith("usage: hermsymp") and out.stderr == "False\n"


# Runs one command in-process, then prints on stderr the loaded modules and, on
# a second line, the package's lazy modules whose code has not run.
MODULES_PROBE = (
    "import sys, hermsymp, hermsymp.cli; code = hermsymp.cli.main(sys.argv[1:]); "
    "print(*sys.modules, file=sys.stderr); print(*(name for name, module in "
    "sys.modules.items() if type(module) is hermsymp._LazyModule), file=sys.stderr); "
    "sys.exit(code)"
)
NUMERIC_MODULES = {f"hermsymp.{name}" for name in
                   ("linalg", "spaces", "maslov", "bordism", "torus", "serialization")}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # Outside the package, the exact path loads what the standard library
    # loads to import json and parse the same flags with argparse, and, to
    # compute, fractions; in particular no dataclasses, whose import chain once
    # cost more than the package itself.  __future__ is the annotations flag of
    # the package's modules.  Of the numeric commands, none reads a rational,
    # and those that read no relation leave bordism's code unrun.
    from hermsymp import bordism

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))

    def modules(*args):
        """The modules a process loaded, and the package's modules still lazy."""
        out = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
        assert out.returncode == 0, (args, out.stderr)
        loaded, _, lazy = out.stderr.partition("\n")
        outside = {name for name in loaded.split() if name.split(".")[0] != "hermsymp"}
        return outside, set(lazy.split())

    def standard(imports, *argv):
        """The modules a parse of ``argv`` by a bare argparse parser loads, after ``imports``."""
        code = (f"import sys, argparse, __future__, {imports}\n"
                "try: argparse.ArgumentParser().parse_args(sys.argv[1:])\n"
                "except SystemExit: pass\n"
                "print(*sys.modules, file=sys.stderr)")
        return modules("-c", code, *argv)[0]

    plain = standard("json")
    for target in ("hermsymp", "hermsymp.cli"):
        loaded = modules("-c", f"import sys, {target}; print(*sys.modules, file=sys.stderr)")[0]
        assert "dataclasses" not in loaded and loaded <= plain, (target, loaded - plain)
    for argv, allowed in (
        (["--help"], standard("json", "--help")),
        (["trefoil", "--t", "1/5"], standard("fractions, json")),
        (["--json", "rho-diff", "--t1", "1/5", "--t2", "2/5"], standard("fractions, json")),
    ):
        loaded, lazy = modules("-c", MODULES_PROBE, *argv)
        assert "dataclasses" not in loaded and loaded <= allowed, (argv, loaded - allowed)
        assert NUMERIC_MODULES <= lazy, argv

    space, u, v, w = (str(FIXTURES / f"{name}.json") for name in ("space", "u", "v", "w"))
    document = json.loads(pathlib.Path(space).read_text())
    identity = bordism.identity_relation(ser.space_from_dict(document))
    rel = write_json(tmp_path / "rel.json", ser.relation_to_dict(identity))
    for argv in (
        ["validate", space],
        ["m", space, v, w],
        ["triple", space, u, v, w],
        ["reduce", rel, w],
        ["compose", rel, rel],
        ["torus-sweep", "1", "2", "3", "4", "0.5", "2", "5"],
    ):
        loaded, lazy = modules("-c", MODULES_PROBE, *argv)
        assert "fractions" not in loaded, argv
        assert ("hermsymp.bordism" in lazy) == (argv[0] not in ("reduce", "compose")), argv


def test_m_on_an_ill_conditioned_space_prints_the_stacked_value(tmp_path):
    # The space validates with cond(U) about 6.4e6
    # (test_spaces.ill_conditioned_split_space): as a process, m prints the
    # value m_stack gives.
    space = sampling.random_space(24, np.random.default_rng(8), spread=1e7)
    pullback = np.linalg.inv(sampling.random_invertible(48, np.random.default_rng(8), 1e7))
    v, w = (hs.lagrangian_from_basis(space, pullback[:, h]) for h in (slice(24), slice(24, 48)))
    files = [
        write_json(tmp_path / "s.json", ser.space_to_dict(space)),
        write_json(tmp_path / "v.json", ser.lagrangian_to_dict(v)),
        write_json(tmp_path / "w.json", ser.lagrangian_to_dict(w)),
    ]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "hermsymp.cli", "--json", "m", *files],
        env=env, capture_output=True, text=True,
    )
    assert (out.returncode, out.stderr) == (0, ""), out.stderr
    stacked = hs.m_stack(*(x[None] for x in (space.gram, space.gamma, v.basis, w.basis)))
    assert abs(json.loads(out.stdout)["m"] - stacked[0]) < 1e-9


MUTATIONS = {
    "nan": lambda rows: rows[0][0].update(re=math.nan),
    "huge-int": lambda rows: rows[0][0].update(re=10**330),
    "string": lambda rows: rows[0][0].update(re="1"),
    "bool": lambda rows: rows[0][0].update(re=True),
    "nested-list": lambda rows: rows[0].__setitem__(0, [rows[0][0]]),
    "short-row": lambda rows: rows[0].pop(),
    "missing-key": lambda rows: rows[0][0].pop("im"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutated_documents_exit_2_with_json_error(capsys, tmp_path, rng, mutation):
    # One entry of one document is broken per run; every command reading that
    # document must reject it with exit code 2 and one JSON error object.
    docs = {name: json.loads((FIXTURES / f"{name}.json").read_text()) for name in ("space", "v")}
    source = ser.space_from_dict(docs["space"])
    rel = sampling.random_bordism_relation(source, sampling.random_space(1, rng), rng)
    docs["rel"] = ser.relation_to_dict(rel)
    commands = [["validate", "space"], ["m", "space", "v", "v"], ["reduce", "rel", "v"]]
    matrices = [("space", lambda d: d["gram"]), ("v", lambda d: d["basis"]),
                ("rel", lambda d: d["basis"]), ("rel", lambda d: d["space"]["gamma"])]
    runs = 0
    for name, matrix in matrices:
        broken = json.loads(json.dumps(docs[name]))
        MUTATIONS[mutation](matrix(broken))
        paths = {n: write_json(tmp_path / f"{n}.json", broken if n == name else doc)
                 for n, doc in docs.items()}
        for command in commands:
            if name not in command:
                continue
            code, _, err = run_cli(capsys, [paths.get(arg, arg) for arg in command])
            assert code == 2
            assert set(json.loads(err)) == {"error", "message"}
            runs += 1
    assert runs == 6
