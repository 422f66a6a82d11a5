"""The four benchmark workloads.

Each workload is built from a seed and exposes one *pass*: a list of
operations with a fixed composition, whose order and matrices depend on the
seed.  The harness in ``run.py`` repeats passes, times each operation and
hands its result to ``check``, which compares it with an oracle outside the
timed region and returns ``None`` or a description of what is wrong.

Operations look hermsymp functions up on their modules at call time, so the
tracer in ``tracer.py`` sees every call.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from hermsymp import bordism, maslov, serialization, spaces, torus

import inputs

TOL_VALUE = 1e-9      # invariant values and triple/chain integrality
TOL_DISTANCE = 1e-8   # subspace distances (bordism laws, criterion 6)
TOL_RESIDUAL = 1e-10  # Lagrangian residual of every computed span


class Workload:
    """One pass of operations plus the oracle that checks their results."""

    name = ""
    children_rss = False   # peak memory is the children's, not this process's
    reference = "compute"  # the clock.py reference that calibrates its times

    def __init__(self):
        self.ops: list = []         # one pass: zero-argument callables
        self.warmup: list = []      # indices of ops run once during setup

    def check(self, index: int, result) -> str | None:
        raise NotImplementedError

    def corrupt(self, index: int, result):
        """A wrong version of ``result``, to show that ``check`` rejects it."""
        raise NotImplementedError

    def conformance(self, expected_error):
        """Untimed queries on input the seed code is known to reject, or None.

        Returns (queries run, rejections by error class, wrong results).
        """
        return None

    def diagnostics(self) -> dict[str, float]:
        return {}


# --------------------------------------------------------------------------
# invariants


class Invariants(Workload):
    """Pair invariants, triple indices and correction terms from raw bases.

    Per half-dimension k there are two well-conditioned spaces and four with
    ``spread=1e3``; each space has a pool of raw bases, some pairs of which
    meet in dimension 1 or 2.  Every operation builds its Lagrangians with
    ``lagrangian_from_basis`` and then calls one invariant with default
    keyword arguments only.

    The seed code rejects every valid basis of about one ``spread=1e3`` space
    in eight; which spaces, depends on the seed.  So the ``spread=1e3``
    queries are not operations: ``conformance`` runs one draw of them (three
    per space) once per run, untimed, checks what comes back and counts what
    the validators reject.  The operations, and so the timing metrics, use
    the well-conditioned spaces only, whose mix a fix of the validators
    leaves unchanged.
    """

    name = "invariants"
    K_VALUES = (1, 2, 4, 8, 16)
    SPREADS = (4.0, 4.0, 1e3, 1e3, 1e3, 1e3)
    POOL = 8            # raw bases per space: 0, 1 and 2 meet in dims 1 and 2
    PASSES = 4          # distinct query draws, cycled
    # per pass and space; the first two are the designed intersections 1 and 2
    SLOTS = {4.0: ("m", "m", "m", "triple", "triple", "eta"), 1e3: ("m", "m", "triple")}

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng([seed, 1])
        self.spaces = []
        self.spreads = []
        self.unitaries = []
        self.raws = []
        for k in self.K_VALUES:
            for spread in self.SPREADS:
                model = inputs.Pullback(k, rng, spread)
                u0 = inputs.unitary(k, rng)
                pool = [u0]
                for d in (1, 2):
                    pool.append(inputs.unitary_with_intersection(u0, d, rng) if d <= k
                                else inputs.unitary(k, rng))
                pool += [inputs.unitary(k, rng) for _ in range(self.POOL - len(pool))]
                self.spaces.append(spaces.HermitianSymplecticSpace(model.gram, model.gamma))
                self.spreads.append(spread)
                self.unitaries.append(pool)
                self.raws.append([model.raw_basis(u, rng) for u in pool])
        self.queries = []   # the operations: well-conditioned spaces
        self.probes = []    # the conformance queries: spread=1e3 spaces, first draw
        for draw in range(self.PASSES):
            batch = []
            for s, spread in enumerate(self.spreads):
                for slot, kind in enumerate(self.SLOTS[spread]):
                    if slot < 2:
                        idx = (0, slot + 1)
                    else:
                        n = {"m": 2, "triple": 3, "eta": 4}[kind]
                        idx = tuple(int(i) for i in rng.choice(self.POOL, n, replace=False))
                    batch.append((kind, s, idx))
            rng.shuffle(batch)
            self.queries += [q for q in batch if self.spreads[q[1]] < 100]
            if draw == 0:
                self.probes += [q for q in batch if self.spreads[q[1]] >= 100]
        self.ops = [lambda q=q: self._run(*q) for q in self.queries]
        self.pass_len = len(self.queries) // self.PASSES
        first_m = {}
        for i, (kind, s, _) in enumerate(self.queries):
            if kind == "m":
                first_m.setdefault(self.spaces[s].half_dim, i)
        self.warmup = sorted(first_m.values())
        self._pair_oracle: dict = {}
        self._library_m: dict = {}
        self._lagrangians: dict = {}
        self.worst_defect = 0.0

    def _run(self, kind, s, idx):
        space, raws = self.spaces[s], self.raws[s]
        lagr = [spaces.lagrangian_from_basis(space, raws[i]) for i in idx]
        if kind == "m":
            return maslov.m_details(*lagr)
        if kind == "triple":
            return maslov.triple_index(*lagr)
        return maslov.eta_correction_rhs(*lagr)

    def _oracle(self, s, i, j, flip_i=False, flip_j=False):
        key = (s, i, j, flip_i, flip_j)
        if key not in self._pair_oracle:
            u = self.unitaries[s]
            # gamma maps the graph of U to the graph of -U
            self._pair_oracle[key] = inputs.pair_oracle(
                -u[i] if flip_i else u[i], -u[j] if flip_j else u[j])
        return self._pair_oracle[key]

    def _library_pair(self, s, i, j):
        """m(L_i, L_j) from hermsymp, for the integrality defect of a triple."""
        if (s, i, j) not in self._library_m:
            lagr = []
            for n in (i, j):
                if (s, n) not in self._lagrangians:
                    self._lagrangians[s, n] = spaces.lagrangian_from_basis(
                        self.spaces[s], self.raws[s][n])
                lagr.append(self._lagrangians[s, n])
            self._library_m[s, i, j] = maslov.m_invariant(*lagr)
        return self._library_m[s, i, j]

    def check(self, index, result):
        return self._check(self.queries[index], result)

    def conformance(self, expected_error):
        rejected, wrong = {}, []
        for q in self.probes:
            try:
                result = self._run(*q)
            except expected_error as exc:
                label = type(exc).__name__
                rejected[label] = rejected.get(label, 0) + 1
                continue
            except Exception:
                wrong.append(f"conformance {q} raised: {traceback.format_exc(limit=3)}")
                continue
            problem = self._check(q, result)
            if problem is not None:
                wrong.append(f"conformance {q}: {problem}")
        return len(self.probes), rejected, wrong

    def _check(self, query, result):
        kind, s, idx = query
        if kind == "m":
            value, dim = self._oracle(s, *idx)
            if abs(result.value - value) > TOL_VALUE:
                return f"m = {result.value!r}, oracle {value!r}"
            if result.intersection_dim != dim or result.excluded != dim:
                return (f"dim(V & W) = {result.intersection_dim}, excluded "
                        f"{result.excluded}, oracle {dim}")
            return None
        if kind == "triple":
            i, j, l = idx
            expected = round(sum(self._oracle(s, *p)[0] for p in ((i, j), (j, l), (l, i))))
            total = sum(self._library_pair(s, *p) for p in ((i, j), (j, l), (l, i)))
            defect = abs(total - round(total))
            self.worst_defect = max(self.worst_defect, defect)
            if result != expected:
                return f"triple index {result}, oracle {expected}"
            if defect >= TOL_VALUE or round(total) != expected:
                return f"triple sum {total!r} has integrality defect {defect:.3e}"
            return None
        vx, vy, wx, wy = idx
        integer = (round(self._oracle(s, vx, vy)[0] + self._oracle(s, vy, wy, False, True)[0]
                         + self._oracle(s, wy, vx, True, False)[0])
                   - round(self._oracle(s, vx, wx, True, False)[0] + self._oracle(s, wx, wy)[0]
                           + self._oracle(s, wy, vx, False, True)[0]))
        chain = (self._oracle(s, vx, vy)[0] - self._oracle(s, vx, wx, True, False)[0]
                 + self._oracle(s, vy, wy, True, False)[0] - self._oracle(s, wx, wy)[0])
        m_wx_wy, got = result
        if got != integer or abs(chain - got) > TOL_VALUE:
            return f"correction integer {got}, oracle {integer}, oracle chain {chain!r}"
        if abs(m_wx_wy - self._oracle(s, wx, wy)[0]) > TOL_VALUE:
            return f"m(WX, WY) = {m_wx_wy!r}, oracle {self._oracle(s, wx, wy)[0]!r}"
        return None

    def corrupt(self, index, result):
        if isinstance(result, maslov.PairSpectrum):
            return replace(result, value=result.value + 0.5)
        if isinstance(result, tuple):
            return (result[0], result[1] + 1)
        return result + 1

    def diagnostics(self):
        return {"maslov.triple_index.worst_defect": self.worst_defect}


# --------------------------------------------------------------------------
# bordism


class Bordism(Workload):
    """Composition and reduction along chains of random relations.

    Never calls ``eigensplit``; the cost is relation composition, null
    spaces, Gram-Schmidt and space construction.
    """

    name = "bordism"
    # half-dimensions of the spaces along each chain of 2 or 3 relations
    CHAINS = ((1, 2, 1), (2, 3, 4), (3, 5, 2), (4, 4, 4), (5, 3, 6), (6, 8, 7),
              (8, 6, 3), (7, 7, 8), (1, 3, 5, 7), (2, 4, 6, 8), (8, 5, 2, 1), (4, 6, 4, 2))

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng([seed, 2])
        models = {k: inputs.Pullback(k, rng, 4.0) for k in range(1, 9)}
        self.models = models
        self.spaces = {k: spaces.HermitianSymplecticSpace(m.gram, m.gamma)
                       for k, m in models.items()}
        self.chains = []    # (half-dims, relations, raw graphs, W, raw W)
        for dims in self.CHAINS:
            rels, graphs = [], []
            for a, b in zip(dims, dims[1:]):
                t_inv, plus, minus = inputs.flipped_product(models[a], models[b])
                raw = inputs.graph_basis(t_inv, plus, minus, inputs.unitary(a + b, rng), rng)
                rels.append(bordism.relation_from_graph(self.spaces[a], self.spaces[b], raw))
                graphs.append(raw)
            raw_w = models[dims[0]].raw_basis(inputs.unitary(dims[0], rng), rng)
            w = spaces.lagrangian_from_basis(self.spaces[dims[0]], raw_w)
            self.chains.append((dims, rels, graphs, w, raw_w))
        order = rng.permutation(len(self.chains))
        self.order = [int(i) for i in order]
        self.ops = [lambda c=c: self._run(self.chains[c][1], self.chains[c][3])
                    for c in self.order]
        self.pass_len = len(self.ops)
        self.warmup = [self.order.index(0), self.order.index(len(self.CHAINS) - 1)]
        self.worst_distance = 0.0

    @staticmethod
    def _run(rels, w):
        composite = rels[0]
        for rel in rels[1:]:
            composite = bordism.compose(composite, rel)
        through = bordism.reduce(composite, w)
        stepwise = w
        for rel in rels:
            stepwise = bordism.reduce(rel, stepwise)
        glued = bordism.glued_boundary_lagrangian(w, composite)
        return composite, through, stepwise, glued

    def check(self, index, result):
        dims, rels, graphs, w, raw_w = self.chains[self.order[index]]
        composite, through, stepwise, glued = result
        first, last = self.models[dims[0]], self.models[dims[-1]]
        expected = raw_w
        for a, graph in zip(dims, graphs):
            expected = inputs.reduce_oracle(graph, 2 * a, expected, graph.shape[0] // 2 - a)
        glued_expected = inputs.block_diag(first.gamma @ raw_w, expected)
        glued_gram = inputs.block_diag(first.gram, last.gram)
        cylinder = bordism.reduce(bordism.identity_relation(self.spaces[dims[0]]), w)
        distances = {
            "functoriality": inputs.gram_distance(last.gram, through.basis, stepwise.basis),
            "oracle": inputs.gram_distance(last.gram, through.basis, expected),
            "glued": inputs.gram_distance(glued_gram, glued.basis, glued_expected),
            "cylinder": inputs.gram_distance(first.gram, cylinder.basis, raw_w),
        }
        self.worst_distance = max(self.worst_distance, *distances.values())
        for label, dist in distances.items():
            if not dist < TOL_DISTANCE:
                return f"{label} distance {dist:.3e}"
        flipped_gamma = inputs.block_diag(-first.gamma, last.gamma)
        residuals = {
            "reduced": inputs.lagrangian_residual(last.gram, last.gamma, through.basis),
            "stepwise": inputs.lagrangian_residual(last.gram, last.gamma, stepwise.basis),
            "glued": inputs.lagrangian_residual(
                glued_gram, inputs.block_diag(first.gamma, last.gamma), glued.basis),
            "composite": inputs.lagrangian_residual(
                glued_gram, flipped_gamma, composite.graph.basis),
        }
        for label, res in residuals.items():
            if not res < TOL_RESIDUAL:
                return f"{label} Lagrangian residual {res:.3e}"
        return None

    def corrupt(self, index, result):
        composite, through, stepwise, glued = result
        dims = self.chains[self.order[index]][0]
        bent = through.basis.copy()
        bent[:, 0] += 1e-3 * np.roll(bent[:, 0], 1)
        wrong = spaces.Lagrangian(space=self.spaces[dims[-1]], basis=bent)
        return composite, wrong, stepwise, glued

    def diagnostics(self):
        return {"bordism.reduce.worst_distance": self.worst_distance}


# --------------------------------------------------------------------------
# torus-sweep


class TorusSweep(Workload):
    """One ``torus_m_sweep`` per operation on a log grid over [1e-3, 1e3].

    Every grid point builds a fresh space and Lagrangians used once.
    """

    name = "torus-sweep"
    GRID = np.logspace(-3.0, 3.0, 32)
    SWEEPS = 8

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng([seed, 3])
        self.pairs = []
        for _ in range(self.SWEEPS):
            entries = rng.integers(1, 6, 4) * rng.choice((-1, 1), 4)
            self.pairs.append(tuple(int(x) for x in entries))
        self.ops = [lambda p=p: torus.torus_m_sweep(*p, self.GRID) for p in self.pairs]
        self.pass_len = len(self.ops)
        self.warmup = [0]
        self.worst_delta = 0.0

    def check(self, index, result):
        pair = self.pairs[index]
        if len(result.rows) != len(self.GRID):
            return f"{len(result.rows)} rows for {len(self.GRID)} grid points"
        for t, row in zip(self.GRID, result.rows):
            self.worst_delta = max(self.worst_delta, row.delta)
            expected = inputs.torus_oracle(*pair, float(t))
            if row.t != t or not row.delta < TOL_VALUE or abs(row.m_generic - expected) > TOL_VALUE:
                return (f"{pair} at t={row.t!r}: closed {row.m_closed!r}, generic "
                        f"{row.m_generic!r}, oracle {expected!r}")
        return None

    def corrupt(self, index, result):
        rows = list(result.rows)
        rows[0] = replace(rows[0], m_generic=rows[0].m_generic + 1e-6)
        return replace(result, rows=tuple(rows))

    def diagnostics(self):
        return {"torus.torus_m_sweep.worst_delta": self.worst_delta}


# --------------------------------------------------------------------------
# cli


def _matrix(doc) -> np.ndarray:
    return np.array([[complex(e["re"], e["im"]) for e in row] for row in doc], dtype=np.complex128)


class Cli(Workload):
    """Each operation is one ``python -m hermsymp.cli`` process.

    A pass runs all eight commands once.  ``validate``, ``m`` and ``triple``
    read the shipped fixtures; ``reduce`` and ``compose`` read relations and a
    Lagrangian that setup writes from the seed; ``torus-sweep`` takes a
    seeded integer pair.
    """

    name = "cli"
    children_rss = True
    reference = "import"
    TREFOIL = ("1/5", "7/10")                 # arc point and its cs value
    RHO = ("1/5", "2/5", "3/5")               # two arc points and rho_diff

    def __init__(self, seed: int, root: Path, workdir: Path):
        super().__init__()
        rng = np.random.default_rng([seed, 4])
        self.root = root
        fixtures = root / "tests" / "fixtures"
        self.fixtures = {n: fixtures / f"{n}.json" for n in ("space", "u", "v", "w")}
        missing = [str(p) for p in self.fixtures.values() if not p.is_file()]
        if missing:
            raise FileNotFoundError(f"missing fixtures: {', '.join(missing)}")
        models = [inputs.Pullback(k, rng, 4.0) for k in (2, 3, 2)]
        hs = [spaces.HermitianSymplecticSpace(m.gram, m.gamma) for m in models]
        files = {}
        for n, (a, b) in enumerate(zip(models, models[1:]), start=1):
            t_inv, plus, minus = inputs.flipped_product(a, b)
            raw = inputs.graph_basis(t_inv, plus, minus, inputs.unitary(a.k + b.k, rng), rng)
            rel = bordism.relation_from_graph(hs[n - 1], hs[n], raw)
            files[f"rel{n}"] = serialization.relation_to_dict(rel)
        raw_w = models[0].raw_basis(inputs.unitary(2, rng), rng)
        files["w0"] = serialization.lagrangian_to_dict(
            spaces.lagrangian_from_basis(hs[0], raw_w))
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = {}
        for n, doc in files.items():
            path = workdir / f"{n}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.files[n] = path
        entries = rng.integers(1, 6, 4) * rng.choice((-1, 1), 4)
        self.sweep = tuple(int(x) for x in entries)
        f, g = self.fixtures, self.files
        self.commands = [
            ("validate", ["--json", "validate", f["space"]]),
            ("m", ["--json", "m", f["space"], f["v"], f["w"]]),
            ("triple", ["--json", "triple", f["space"], f["u"], f["v"], f["w"]]),
            ("reduce", ["reduce", g["rel1"], g["w0"]]),
            ("compose", ["compose", g["rel1"], g["rel2"]]),
            ("torus-sweep", ["torus-sweep", *map(str, self.sweep), "0.001", "1000", "16"]),
            ("trefoil", ["--json", "trefoil", "--t", self.TREFOIL[0]]),
            ("rho-diff", ["--json", "rho-diff", "--t1", self.RHO[0], "--t2", self.RHO[1]]),
        ]
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.stats_dir = workdir
        self.traced = None       # callback receiving each traced child's span summary
        self.ops = [lambda c=c: self._run(c) for c in range(len(self.commands))]
        self.pass_len = len(self.ops)
        self.warmup = [0]
        self._expected: dict = {}

    def _run(self, index):
        args = [str(a) for a in self.commands[index][1]]
        if self.traced is None:
            argv = [sys.executable, "-m", "hermsymp.cli", *args]
        else:
            stats = self.stats_dir / "child-spans.json"
            argv = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(stats), *args]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        if self.traced is not None and stats.is_file():
            self.traced(json.loads(stats.read_text(encoding="utf-8")))
            stats.unlink()
        return proc.returncode, proc.stdout, proc.stderr

    def _reference(self, name):
        """What the library computes for the same documents."""
        if name not in self._expected:
            load = lambda p: json.loads(Path(p).read_text(encoding="utf-8"))
            if name in ("m", "triple"):
                space = serialization.space_from_dict(load(self.fixtures["space"]))
                lagr = {n: serialization.lagrangian_from_dict(space, load(self.fixtures[n]))
                        for n in ("u", "v", "w")}
                self._expected["m"] = maslov.m_details(lagr["v"], lagr["w"])
                self._expected["triple"] = maslov.triple_index(lagr["u"], lagr["v"], lagr["w"])
            elif name == "reduce":
                rel = serialization.relation_from_dict(load(self.files["rel1"]))
                w = serialization.lagrangian_from_dict(rel.source, load(self.files["w0"]))
                self._expected[name] = bordism.reduce(rel, w).basis
            else:
                rel1 = serialization.relation_from_dict(load(self.files["rel1"]))
                rel2 = serialization.relation_from_dict(load(self.files["rel2"]))
                self._expected[name] = bordism.compose(rel1, rel2).graph.basis
        return self._expected[name]

    def check(self, index, result):
        name = self.commands[index][0]
        code, out, err = result
        if code != 0:
            return f"{name}: exit code {code}: {err.strip()[-300:]}"
        try:
            return self._check_output(name, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{name}: unreadable output ({exc}): {out[:200]!r}"

    def _check_output(self, name, out):
        if name == "torus-sweep":
            lines = out.strip().splitlines()
            if lines[0] != "t,m_closed,m_generic,delta" or len(lines) != 17:
                return f"torus-sweep: unexpected CSV layout: {lines[:2]}"
            for line in lines[1:]:
                t, closed, generic, delta = map(float, line.split(","))
                expected = inputs.torus_oracle(*self.sweep, t)
                if not delta < TOL_VALUE or abs(generic - expected) > TOL_VALUE:
                    return f"torus-sweep at t={t}: generic {generic}, oracle {expected}"
            return None
        doc = json.loads(out)
        if name == "validate":
            return None if doc["passed"] is True else "validate: fixture space fails"
        if name == "m":
            ref = self._reference("m")
            if doc["m"] != ref.value or doc["intersection_dim"] != ref.intersection_dim:
                return f"m: cli {doc['m']!r}, library {ref.value!r}"
            return None
        if name == "triple":
            ref = self._reference("triple")
            return None if doc["triple_index"] == ref else f"triple: cli {doc}, library {ref}"
        if name == "trefoil":
            return None if Fraction(doc["cs"]) == Fraction(self.TREFOIL[1]) else f"trefoil: {doc}"
        if name == "rho-diff":
            return None if Fraction(doc["rho_diff"]) == Fraction(self.RHO[2]) else f"rho-diff: {doc}"
        got = _matrix(doc["basis"])
        ref = self._reference(name)
        if got.shape != ref.shape or not np.max(np.abs(got - ref)) <= 1e-12:
            return f"{name}: cli basis differs from the library's"
        return None

    def corrupt(self, index, result):
        code, out, err = result
        return 1, out, err + "corrupted"


CLASSES = {cls.name: cls for cls in (Invariants, Bordism, TorusSweep, Cli)}


def make(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    if name == "cli":
        return Cli(seed, root, workdir)
    return CLASSES[name](seed)
