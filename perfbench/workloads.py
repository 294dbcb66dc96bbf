"""The four benchmark workloads: query, audit, oracle and cli.

Every workload is a closed loop with one client: an operation starts only
after the previous one ends, and nothing runs in parallel.  A workload
provides

* ``<name>_setup(seed)``: inputs made from the seed alone, through public
  ``hsproj`` names (the library only ever sees these generated inputs),
  with a count of the draws excluded because a foot was undefined;
* ``<name>_run(inputs, seconds)``: the timed loop, returning a :class:`Run`;
* ``<name>_check(inputs, run)``: the correctness gate, applied after the
  loop, returning one flag per operation (True = wrong or raised);
* ``<name>_trace(inputs)``: one pass over a fixed part of the inputs for
  the traced run, so that its call counts repeat exactly for a fixed seed.

Library calls go through the ``hsproj`` module attribute at call time, so
the tracer's wrappers are seen.  Only names in ``hsproj.__all__`` and the
``hsproj.cli`` entry point are used.

Where the cost of an operation depends strongly on its shape (simplex
dimension, face size), the inputs come in strata with fixed proportions
and the loop runs whole rounds of them, so that the seed changes the
geometry but not the mix.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from itertools import cycle
from time import perf_counter

import numpy as np

import hsproj as hp

MODELS = ("hyperbolic", "spherical")

# acceptance bounds (criteria 3, 4 and 5, and the identity bound)
MEMBERSHIP_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-8
ROUTE_TOL = 1e-9
IDENTITY_TOL = 1e-8
ORACLE_DISTANCE_TOL = 1e-6
ORACLE_FOOT_TOL = 1e-5


# A shared virtual machine's speed is often not steady: the one the
# baseline was taken on switches between states 1.5 to 2 times apart, each
# lasting from seconds to minutes, so a wall time varies more from run to
# run than any bound the benchmark could keep.  The timed loop therefore
# also runs a fixed reference loop, which calls no hsproj code, at least
# every REFERENCE_EVERY_S, and each latency is also given at reference
# speed: scaled by REFERENCE_NOMINAL_S over the mean of the reference times
# measured just before and just after the operation.
REFERENCE_EVERY_S = 0.2
REFERENCE_NOMINAL_S = 0.005
_REF_MATRIX = np.random.default_rng(0).standard_normal((6, 6))
_REF_ROWS = np.arange(24576, dtype=np.int64)
_REF_TABLE = np.cos(np.linspace(0.0, np.pi, 16))
_REF_WEIGHTS = np.random.default_rng(1).standard_normal(4)


def reference_s() -> float:
    """Wall time of a fixed loop of the two kinds of work hsproj does.

    About a quarter of it is interpreted: Python arithmetic and dictionary
    updates, then determinants, products and reductions of 6x6 matrices,
    whose cost is call overhead (the closed forms).  The rest is
    vectorized: digit extraction, table lookups and reductions over 24576
    rows (the oracle's grid scan).  A host's slow state slows the first
    kind more than the second, and a reference of one kind alone mis-scales
    the other; this mix is meant to mis-scale both by about as much.
    """
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(1000):
        acc += i * i % 7
        table[i % 50] = acc
    for i in range(100):
        b = _REF_MATRIX + i
        np.linalg.det(b)
        b @ b
        np.abs(b).max()
        np.array([1.0, 2.0, 3.0])
    digits = [(_REF_ROWS >> (4 * k)) & 15 for k in range(4)]
    rows = np.stack([_REF_TABLE[d] for d in digits], axis=1)
    q = np.einsum("nd,de,ne->n", rows, _REF_MATRIX[:4, :4], rows)
    int(np.argmin((rows @ _REF_WEIGHTS) / np.sqrt(np.abs(q) + 1.0)))
    return perf_counter() - t0


@dataclass
class Run:
    """What a timed loop did: per-operation latencies and outputs, in order.

    ``reference`` holds the reference times measured during the loop, the
    first before the first operation and the last after the last one;
    ``ref_index[i]`` is the index of the last one measured before operation
    i.  ``wall_s`` leaves out the time spent in the reference loop.
    """

    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    wall_s: float = 0.0
    reference: list[float] = field(default_factory=list)
    ref_index: list[int] = field(default_factory=list)

    def scaled_latencies(self) -> list[float]:
        """Latencies at reference speed (see ``REFERENCE_NOMINAL_S``)."""
        ref = self.reference
        return [
            lat * REFERENCE_NOMINAL_S * 2 / (ref[k] + ref[k + 1])
            for lat, k in zip(self.latencies, self.ref_index)
        ]


def model_of(name: str, n: int):
    return hp.Model.hyperbolic(n + 1) if name == "hyperbolic" else hp.Model.spherical(n + 1)


def random_face(rng, m: int, size: int) -> tuple[int, ...]:
    return tuple(sorted(int(x) + 1 for x in rng.choice(m, size=size, replace=False)))


def seed_of(rng) -> int:
    return int(rng.integers(2**31))


def _timed_rounds(rounds, seconds: float, do_one) -> Run:
    """Run whole rounds while the next one is expected to end by ``seconds``.

    A round's duration is taken as the mean of the rounds so far, and a round
    that would overrun by less than half its length still runs, so the loop
    ends within half a round of ``seconds``.  At least one round runs.  The
    reference loop runs between operations (see ``REFERENCE_EVERY_S``); its
    time counts neither in ``seconds`` nor in ``wall_s``.
    """
    run = Run()
    reference_s()  # warm-up: numpy's first calls set up its dispatch
    run.reference.append(reference_s())
    start = last_ref = perf_counter()
    ref_total = 0.0
    done = 0
    for items in rounds:
        if done and (perf_counter() - start - ref_total) * (done + 0.5) / done > seconds:
            break
        for item in items:
            t0 = perf_counter()
            out = do_one(item)
            t1 = perf_counter()
            run.latencies.append(t1 - t0)
            run.outputs.append(out)
            run.ref_index.append(len(run.reference) - 1)
            if t1 - last_ref >= REFERENCE_EVERY_S:
                run.reference.append(reference_s())
                ref_total += perf_counter() - t1
                last_ref = perf_counter()
        done += 1
    run.wall_s = perf_counter() - start - ref_total
    run.reference.append(reference_s())
    return run


def _call(fn, *args):
    try:
        return fn(*args)
    except hp.GeometryError as exc:
        return exc


def _membership(model, x) -> float:
    return abs(float((x * model.signature) @ x) - model.curvature)


def _scale(model, d: float) -> float:
    return math.cosh(d) if model.curvature == -1 else math.cos(d)


def _orthogonality(simplex, p, result, vertices) -> float:
    """max |<p - scale*foot, v>| over the plane's vertices (criterion 4)."""
    model = simplex.model
    r = p - _scale(model, result.distance) * result.foot
    sig = model.signature
    return max(abs(float((r * sig) @ simplex.vertices[i - 1])) for i in vertices)


def _feet_agree(a, b) -> bool:
    return float(np.abs(a.foot - b.foot).max()) <= ROUTE_TOL and abs(a.distance - b.distance) <= ROUTE_TOL


# --------------------------------------------------------------------- query

QUERY_SIMPLICES_PER_CLASS = 2
QUERY_REPEATS = 8
QUERY_CALLS = ("project_to_face", "distance_to_face", "project_to_hyperplane", "vertex_foot", "altitude")


@dataclass
class Triple:
    simplex: object
    face: tuple[int, ...]
    p: np.ndarray
    j: int

    def args(self, call: str) -> tuple:
        if call in ("project_to_face", "distance_to_face"):
            return (self.simplex, self.face, self.p)
        if call == "project_to_hyperplane":
            return (self.simplex, self.j, self.p)
        return (self.simplex, self.face, self.j)


def query_setup(seed: int) -> dict:
    """Fixed simplices (both models, n 2..8) and a pool of query triples.

    Every simplex gets ``QUERY_REPEATS`` triples of each face size 1..n,
    with random faces, points and opposite vertices; the pool is shuffled.
    A draw whose spherical foot is undefined for one of the foot-building
    calls is redrawn and counted.
    """
    rng = np.random.default_rng([seed, 1])
    simplices = [
        hp.random_simplex(model_of(name, n), n, seed_of(rng))
        for name in MODELS
        for n in range(2, 9)
        for _ in range(QUERY_SIMPLICES_PER_CLASS)
    ]
    triples: list[Triple] = []
    excluded = 0
    for s in simplices:
        m = s.vertex_count
        for size in range(1, m):
            for _ in range(QUERY_REPEATS):
                while True:
                    face = random_face(rng, m, size)
                    comp = [v for v in range(1, m + 1) if v not in face]
                    t = Triple(s, face, hp.random_point(s.model, rng), comp[int(rng.integers(len(comp)))])
                    if s.model.curvature == -1:
                        break
                    try:
                        hp.project_to_face(s, t.face, t.p)
                        hp.project_to_hyperplane(s, t.j, t.p)
                        hp.vertex_foot(s, t.face, t.j)
                    except hp.ProjectionUndefined:
                        excluded += 1
                        continue
                    break
                triples.append(t)
    rng.shuffle(triples)
    return {"triples": triples, "excluded": excluded}


def _query_round(triples):
    return [(t, call) for t in triples for call in QUERY_CALLS]


def _query_one(item):
    t, call = item
    return _call(getattr(hp, call), *t.args(call))


def query_run(inputs: dict, seconds: float) -> Run:
    run = _timed_rounds(cycle([_query_round(inputs["triples"])]), seconds, _query_one)
    run.kinds = list(QUERY_CALLS) * (len(run.latencies) // len(QUERY_CALLS))
    return run


def query_trace(inputs: dict) -> Run:
    return _timed_rounds([_query_round(inputs["triples"][:256])], math.inf, _query_one)


def query_check(inputs: dict, run: Run) -> list[bool]:
    """Criterion 4 on every foot, criterion 5 across the five routes."""
    bad = []
    refs: dict[tuple[int, str], object] = {}

    def reference(t: Triple, what: str):
        key = (id(t), what)
        if key not in refs:
            m = t.simplex.vertex_count
            if what == "facet":
                facet = tuple(v for v in range(1, m + 1) if v != t.j)
                refs[key] = _call(hp.project_to_face, t.simplex, facet, t.p)
            else:
                refs[key] = _call(hp.project_to_face, t.simplex, t.face, t.simplex.vertices[t.j - 1])
        return refs[key]

    items = _query_round(inputs["triples"])
    n_calls = len(QUERY_CALLS)
    for start in range(0, len(run.outputs), n_calls):
        t = items[start % len(items)][0]
        ptf, dtf, hyp, vf, alt = run.outputs[start : start + n_calls]
        s, model = t.simplex, t.simplex.model
        m = s.vertex_count
        ok_ptf = not isinstance(ptf, Exception) and (
            _membership(model, ptf.foot) <= MEMBERSHIP_TOL
            and _orthogonality(s, t.p, ptf, t.face) <= ORTHOGONALITY_TOL
        )
        ok_dtf = (
            not isinstance(dtf, Exception)
            and not isinstance(ptf, Exception)
            and abs(dtf - ptf.distance) <= ROUTE_TOL
        )
        facet_ref = reference(t, "facet")
        ok_hyp = (
            not isinstance(hyp, Exception)
            and not isinstance(facet_ref, Exception)
            and _membership(model, hyp.foot) <= MEMBERSHIP_TOL
            and _orthogonality(s, t.p, hyp, [v for v in range(1, m + 1) if v != t.j])
            <= ORTHOGONALITY_TOL
            and _feet_agree(hyp, facet_ref)
        )
        vertex_ref = reference(t, "vertex")
        ok_vf = (
            not isinstance(vf, Exception)
            and not isinstance(vertex_ref, Exception)
            and _membership(model, vf.foot) <= MEMBERSHIP_TOL
            and _feet_agree(vf, vertex_ref)
        )
        ok_alt = (
            not isinstance(alt, Exception)
            and not isinstance(vf, Exception)
            and abs(alt - vf.distance) <= ROUTE_TOL
        )
        bad.extend(not ok for ok in (ok_ptf, ok_dtf, ok_hyp, ok_vf, ok_alt))
    return bad


# --------------------------------------------------------------------- audit

AUDIT_POOL_PER_CLASS = 30


def audit_setup(seed: int) -> dict:
    """Vertex arrays of fresh simplices like the criteria 1-2 population.

    Item i has model ``MODELS[i % 2]`` and n = 2 + (i // 2) % 7, so every
    run of 14 consecutive items covers both models and n 2..8 once.
    """
    rng = np.random.default_rng([seed, 2])
    items = []
    for i in range(AUDIT_POOL_PER_CLASS * 14):
        name, n = MODELS[i % 2], 2 + (i // 2) % 7
        model = model_of(name, n)
        items.append((model, np.array(hp.random_simplex(model, n, seed_of(rng)).vertices)))
    return {"items": items, "excluded": 0}


def audit_one(item):
    """Build one simplex and run the identity suite at every split."""
    model, vertices = item
    try:
        s = hp.build_simplex(model, vertices)
        m = s.vertex_count
        scaling = hp.scaling_matrix(s)
        reports = [hp.verify_inverse_identity(s)]
        schur, kinv = [], []
        for k in range(m - 1):
            reports.append(hp.verify_block_inverse_identities(s, k))
            trail = tuple(range(k + 2, m + 1))
            schur.append((
                hp.schur_complement(s.edge_matrix, trail).values,
                hp.schur_complement_via_minors(s.edge_matrix, trail).values,
            ))
            kinv.append(hp.complement_gram_inverse(s, tuple(range(1, k + 2))))
    except hp.GeometryError as exc:
        return exc
    return s, scaling, reports, schur, kinv


def _audit_rounds(items):
    return (items[i : i + 14] for i in range(0, len(items), 14))


def audit_run(inputs: dict, seconds: float) -> Run:
    return _timed_rounds(cycle(list(_audit_rounds(inputs["items"]))), seconds, audit_one)


def audit_trace(inputs: dict) -> Run:
    return _timed_rounds(_audit_rounds(inputs["items"][:140]), math.inf, audit_one)


def audit_check(inputs: dict, run: Run) -> list[bool]:
    """Every IdentityReport passes and both Schur routes agree within 1e-8.

    Each complement_gram_inverse is also checked against the Gram block it
    inverts: max |K G22 - I| <= 1e-8.
    """
    bad = []
    for out in run.outputs:
        if isinstance(out, Exception):
            bad.append(True)
            continue
        s, scaling, reports, schur, kinv = out
        m = s.vertex_count
        ok = bool(np.all(np.isfinite(scaling.diag)) and np.all(scaling.diag > 0))
        ok = ok and all(r.passed for r in reports)
        ok = ok and all(float(np.abs(a - b).max()) <= IDENTITY_TOL for a, b in schur)
        for k, K in enumerate(kinv):
            comp = np.arange(k + 1, m)
            g22 = s.gram_matrix[np.ix_(comp, comp)]
            ok = ok and float(np.abs(K @ g22 - np.eye(comp.size)).max()) <= IDENTITY_TOL
        bad.append(not ok)
    return bad


# -------------------------------------------------------------------- oracle

# Criterion 3 draws n uniformly from 2..6, then the face size uniformly from
# 1..n, so face size d has probability sum_{n >= max(d, 2)} 1 / (5 n).  The
# oracle's cost grows steeply with d (a six-vertex face takes seconds, a
# two-vertex face milliseconds); a batch of 30 records holds each d in its
# rounded expected count, n is drawn from P(n | d), proportional to 1/n over
# max(d, 2)..6, and the models alternate within each d and across batches.
ORACLE_BATCH = {1: 9, 2: 9, 3: 6, 4: 3, 5: 2, 6: 1}
ORACLE_BATCHES = 8


@dataclass
class Record:
    simplex: object
    face: tuple[int, ...]
    p: np.ndarray
    probe_seed: int


def oracle_setup(seed: int) -> dict:
    """Batches of criterion-3 records; undefined spherical feet are redrawn and counted."""
    rng = np.random.default_rng([seed, 3])
    batches, excluded = [], 0
    for b in range(ORACLE_BATCHES):
        batch = []
        for d, count in ORACLE_BATCH.items():
            ns = np.arange(max(d, 2), 7)
            weights = (1.0 / ns) / (1.0 / ns).sum()
            for r in range(count):
                name = MODELS[(b + r) % 2]
                while True:
                    n = int(rng.choice(ns, p=weights))
                    s = hp.random_simplex(model_of(name, n), n, seed_of(rng))
                    rec = Record(s, random_face(rng, n + 1, d), hp.random_point(s.model, rng), seed_of(rng))
                    try:
                        hp.project_to_face(s, rec.face, rec.p)
                    except hp.ProjectionUndefined:
                        excluded += 1
                        continue
                    break
                batch.append(rec)
        rng.shuffle(batch)
        batches.append(batch)
    return {"batches": batches, "excluded": excluded}


def oracle_one(rec: Record):
    try:
        closed = hp.project_to_face(rec.simplex, rec.face, rec.p)
        found = hp.oracle_project(rec.simplex, rec.face, rec.p, hp.OracleOptions(seed=rec.probe_seed))
    except hp.GeometryError as exc:
        return exc
    return closed, found


def _oracle_rounds(batches):
    # a round is two batches, so that its six-vertex faces are one of each model
    return [batches[i] + batches[i + 1] for i in range(0, len(batches) - 1, 2)]


def oracle_run(inputs: dict, seconds: float) -> Run:
    return _timed_rounds(cycle(_oracle_rounds(inputs["batches"])), seconds, oracle_one)


def oracle_trace(inputs: dict) -> Run:
    return _timed_rounds(_oracle_rounds(inputs["batches"])[:1], math.inf, oracle_one)


def oracle_check(inputs: dict, run: Run) -> list[bool]:
    """Criterion 3: distance deviation <= 1e-6, foot deviation <= 1e-5."""
    records = [r for b in inputs["batches"] for r in b]
    bad = []
    for i, out in enumerate(run.outputs):
        if isinstance(out, Exception):
            bad.append(True)
            continue
        closed, found = out
        model = records[i % len(records)].simplex.model
        try:
            foot_dev = hp.distance(model, closed.foot, found.foot)
        except hp.GeometryError:
            bad.append(True)
            continue
        bad.append(not (abs(closed.distance - found.distance) <= ORACLE_DISTANCE_TOL
                        and foot_dev <= ORACLE_FOOT_TOL))
    return bad


# ----------------------------------------------------------------------- cli

CLI_COMMANDS = ("validate", "project", "project_check", "altitudes", "check")
CLI_DOCS_PER_STRATUM = 6


def _csv(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def cli_setup(seed: int, workdir: str) -> dict:
    """Seeded simplex documents written to ``workdir``, six per stratum.

    The strata are (model, n, face size) for both models, n 2..4 and face
    size 1..n: 108 documents, so the seed changes the geometry but not the
    mix, and the faces that ``check`` draws at random average out.  Each
    document comes with a point whose projection onto its face is defined,
    and seeds for the oracle probes and the check sampling.
    ``hsproj.cli`` is imported here, so that its import is not timed.
    """
    importlib.import_module("hsproj.cli")
    rng = np.random.default_rng([seed, 4])
    strata = [(name, n, size) for name in MODELS for n in range(2, 5) for size in range(1, n + 1)
              for _ in range(CLI_DOCS_PER_STRATUM)]
    docs, excluded = [], 0
    for name, n, size in strata:
        while True:
            s = hp.random_simplex(model_of(name, n), n, seed_of(rng))
            face = random_face(rng, n + 1, size)
            p = hp.random_point(s.model, rng)
            try:
                expected = hp.project_to_face(s, face, p).distance
            except hp.ProjectionUndefined:
                excluded += 1
                continue
            break
        path = os.path.join(workdir, f"doc{len(docs)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": name, "vertices": s.vertices.tolist()}, fh)
        face_arg = ",".join(str(i) for i in face)
        docs.append({
            "path": path,
            "expected_distance": expected,
            "argv": {
                "validate": ["validate", path, "--json"],
                "project": ["project", path, "--face", face_arg, f"--point={_csv(p)}", "--json"],
                "project_check": ["project", path, "--face", face_arg, f"--point={_csv(p)}",
                                  "--check", "--seed", str(seed_of(rng)), "--json"],
                "altitudes": ["altitudes", path, "--json"],
                "check": ["check", path, "--seed", str(seed_of(rng)), "--json"],
            },
        })
    return {"docs": docs, "excluded": excluded}


def _cli_round(docs):
    return [(doc, cmd) for doc in docs for cmd in CLI_COMMANDS]


def cli_one(item):
    """One command through ``hsproj.cli.main``, standard output captured."""
    doc, cmd = item
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = importlib.import_module("hsproj.cli").main(doc["argv"][cmd])
    return code, buf.getvalue()


def cli_run(inputs: dict, seconds: float) -> Run:
    run = _timed_rounds(cycle([_cli_round(inputs["docs"])]), seconds, cli_one)
    run.kinds = list(CLI_COMMANDS) * (len(run.latencies) // len(CLI_COMMANDS))
    return run


def cli_trace(inputs: dict) -> Run:
    return _timed_rounds([_cli_round(inputs["docs"])], math.inf, cli_one)


def cli_check(inputs: dict, run: Run) -> list[bool]:
    """Exit code 0 and ``"status": "ok"``; project reports the library's distance."""
    bad = []
    items = _cli_round(inputs["docs"])
    for i, (code, stdout) in enumerate(run.outputs):
        doc, cmd = items[i % len(items)]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            bad.append(True)
            continue
        ok = code == 0 and report.get("status") == "ok"
        if ok and cmd.startswith("project"):
            ok = abs(report["results"]["distance"] - doc["expected_distance"]) <= ROUTE_TOL
        bad.append(not ok)
    return bad
