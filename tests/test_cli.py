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


def test_eigenvalue_ambiguity_exits_3(capsys, tmp_path):
    space = hs.standard_space(1)
    v = hs.lagrangian_from_graph(space, [[1.0]])
    w = hs.lagrangian_from_graph(space, [[np.exp(1e-7j)]])
    files = [
        write_json(tmp_path / "s.json", ser.space_to_dict(space)),
        write_json(tmp_path / "v.json", ser.lagrangian_to_dict(v)),
        write_json(tmp_path / "w.json", ser.lagrangian_to_dict(w)),
    ]
    code, _, err = run_cli(capsys, ["m", *files])
    assert code == 3
    assert json.loads(err)["error"] == "EigenvalueAmbiguity"


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


def test_trefoil_bad_rational_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["trefoil", "--t", "0.2x"])
    assert code == 2


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


def test_m_on_a_space_whose_split_cannot_be_pinned(tmp_path):
    # The space validates, but its pinned eigenbases cannot be formed
    # (test_spaces.ill_conditioned_split_space).  m does not read them: as a
    # process it prints the value m_stack gives.
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
