"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Populations are seeded and shared between criteria via module fixtures.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from hsproj import (
    Model,
    OracleOptions,
    ProjectionUndefined,
    altitude,
    distance,
    distance_to_face,
    oracle_project,
    project_to_face,
    project_to_hyperplane,
    verify_inverse_identity,
    vertex_foot,
)
from hsproj.crosscheck import facet_altitude_by_determinants, identity_residuals
from hsproj.documents import dumps
from hsproj.generators import random_point, random_simplex

from conftest import model_named

MODELS = ("hyperbolic", "spherical")


def _report(num, label, passed, detail):
    line = f"[criterion {num}] {label}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


# ------------------------------------------------------------- populations

@pytest.fixture(scope="module")
def identity_population():
    """200 simplices per model, n cycling over 2..8; build time recorded."""
    t0 = time.perf_counter()
    pop = []
    for name in MODELS:
        for i in range(200):
            n = 2 + i % 7
            pop.append(random_simplex(model_named(name, n + 1), n, seed=i))
    return pop, time.perf_counter() - t0


@pytest.fixture(scope="module")
def projection_records():
    """100 (simplex, face, point) triples per model, n cycling over 2..6.

    Each record carries the closed-form and oracle results; spherical
    ProjectionUndefined cases are excluded and counted.
    """
    t0 = time.perf_counter()
    records = []
    skipped = 0
    for name in MODELS:
        for i in range(100):
            n = 2 + i % 5
            model = model_named(name, n + 1)
            s = random_simplex(model, n, seed=9000 + i)
            rng = np.random.default_rng([abs(model.curvature + 2), i])
            size = int(rng.integers(1, n + 1))
            face = tuple(sorted(int(x) + 1 for x in rng.choice(n + 1, size=size, replace=False)))
            p = random_point(model, rng)
            try:
                closed = project_to_face(s, face, p)
            except ProjectionUndefined:
                skipped += 1
                continue
            oracle = oracle_project(s, face, p, OracleOptions(seed=i))
            records.append((model, s, face, p, closed, oracle))
    return records, skipped, time.perf_counter() - t0


# --------------------------------------------------------------- criteria

def test_criterion_1_inverse_identity_suite(identity_population):
    pop, build_time = identity_population
    t0 = time.perf_counter()
    worst = max(verify_inverse_identity(s).max_residual for s in pop)
    elapsed = build_time + time.perf_counter() - t0
    _report(
        1, "edge/Gram scaled-inverse identities on 200 simplices/model, n in 2..8",
        worst <= 1e-8 and elapsed <= 10.0,
        f"max residual {worst:.3e} <= 1e-8, {len(pop)} simplices, {elapsed:.1f}s <= 10s",
    )


def test_criterion_2_block_inverse_suite(identity_population):
    pop, _ = identity_population
    t0 = time.perf_counter()
    # identity_residuals runs both rows at every split of each simplex
    rows = [identity_residuals(s) for s in pop]
    worst_blocks = max(r["block_inverse"] for r in rows)
    worst_paths = max(r["schur_paths"] for r in rows)
    elapsed = time.perf_counter() - t0
    _report(
        2, "block-inverse identities and schur paths, all splits",
        worst_blocks <= 1e-8 and worst_paths <= 1e-8 and elapsed <= 30.0,
        f"blocks {worst_blocks:.3e}, paths {worst_paths:.3e} <= 1e-8, {elapsed:.1f}s <= 30s",
    )


def test_criterion_3_projection_vs_oracle(projection_records):
    records, skipped, elapsed = projection_records
    worst_d = max(abs(c.distance - o.distance) for _, _, _, _, c, o in records)
    worst_f = max(distance(m, c.foot, o.foot) for m, _, _, _, c, o in records)
    _report(
        3, "closed form vs oracle on 100 triples/model, n in 2..6",
        worst_d <= 1e-6 and worst_f <= 1e-5 and elapsed <= 300.0,
        f"distance dev {worst_d:.3e} <= 1e-6, foot dev {worst_f:.3e} <= 1e-5, "
        f"{len(records)} compared, {skipped} undefined skipped, {elapsed:.1f}s <= 300s",
    )


def test_criterion_4_orthogonality_and_membership(projection_records):
    records, _, _ = projection_records
    worst_manifold = 0.0
    worst_ortho = 0.0
    for model, s, face, p, closed, _ in records:
        sig = model.signature
        worst_manifold = max(
            worst_manifold,
            abs(float((closed.foot * sig) @ closed.foot) - model.curvature),
        )
        scale = math.cosh(closed.distance) if model.curvature == -1 else math.cos(closed.distance)
        r = p - scale * closed.foot
        for i in face:
            worst_ortho = max(worst_ortho, abs(float((r * sig) @ s.vertices[i - 1])))
    _report(
        4, "foot membership and residual orthogonality",
        worst_manifold <= 1e-9 and worst_ortho <= 1e-8,
        f"manifold {worst_manifold:.3e} <= 1e-9, orthogonality {worst_ortho:.3e} <= 1e-8",
    )


def test_criterion_5_specialization_coherence():
    worst = {"hyperplane": 0.0, "vertex": 0.0, "altitude": 0.0, "facet": 0.0}
    skipped = 0
    for name in MODELS:
        for i in range(30):
            n = 2 + i % 5
            model = model_named(name, n + 1)
            s = random_simplex(model, n, seed=20000 + i)
            rng = np.random.default_rng([31, i, abs(model.curvature + 2)])
            m = n + 1

            # general path vs hyperplane fast path at k = n-1
            j = int(rng.integers(1, m + 1))
            face_nj = tuple(v for v in range(1, m + 1) if v != j)
            p = random_point(model, rng)
            try:
                a = project_to_hyperplane(s, j, p)
                b = project_to_face(s, face_nj, p)
                worst["hyperplane"] = max(
                    worst["hyperplane"],
                    float(np.abs(a.foot - b.foot).max()),
                    abs(a.distance - b.distance),
                )
            except ProjectionUndefined:
                skipped += 1

            # vertex closed form vs general path at p = p_j
            size = int(rng.integers(1, n + 1))
            face = tuple(sorted(int(x) + 1 for x in rng.choice(m, size=size, replace=False)))
            comp = [v for v in range(1, m + 1) if v not in face]
            jv = comp[int(rng.integers(0, len(comp)))]
            alt = altitude(s, face, jv)
            worst["altitude"] = max(
                worst["altitude"], abs(alt - distance_to_face(s, face, s.vertices[jv - 1]))
            )
            try:
                vf = vertex_foot(s, face, jv)
                gen = project_to_face(s, face, s.vertices[jv - 1])
                worst["vertex"] = max(
                    worst["vertex"],
                    float(np.abs(vf.foot - gen.foot).max()),
                    abs(vf.distance - gen.distance),
                )
                worst["altitude"] = max(worst["altitude"], abs(alt - vf.distance))
            except ProjectionUndefined:
                skipped += 1

            # facet altitude: schur-diagonal path vs the determinant-ratio form
            jf = int(rng.integers(1, m + 1))
            facet = tuple(v for v in range(1, m + 1) if v != jf)
            direct = facet_altitude_by_determinants(s, jf)
            worst["facet"] = max(worst["facet"], abs(altitude(s, facet, jf) - direct))

    passed = all(v <= 1e-9 for v in worst.values())
    _report(
        5, "specialization coherence (hyperplane/vertex/altitude/facet)",
        passed,
        ", ".join(f"{k} {v:.3e}" for k, v in worst.items()) + f" <= 1e-9; {skipped} undefined skipped",
    )


def test_criterion_6_known_values(octant, hyp_triangle):
    diag = np.ones(3) / np.sqrt(3.0)
    expected = math.acos(math.sqrt(2.0 / 3.0))
    facet_alts = [
        altitude(octant, tuple(v for v in (1, 2, 3) if v != j), j) for j in (1, 2, 3)
    ]
    proj = project_to_face(octant, (1, 2), diag)
    oracle_diag = oracle_project(octant, (1, 2), diag)
    alt_h = altitude(hyp_triangle, (1, 2), 3)
    oracle_h = oracle_project(hyp_triangle, (1, 2), hyp_triangle.vertices[2])
    ok = (
        all(abs(a - math.pi / 2) <= 1e-12 for a in facet_alts)
        and abs(proj.distance - expected) <= 1e-12
        and abs(oracle_diag.distance - expected) <= 1e-6
        and abs(alt_h - 1.0) <= 1e-12
        and abs(oracle_h.distance - 1.0) <= 1e-6
    )
    _report(
        6, "known values (octant altitudes, octant diagonal, hyperbolic altitude)",
        ok,
        f"octant altitudes pi/2, diagonal {proj.distance:.12f} vs {expected:.12f}, "
        f"hyperbolic altitude {alt_h:.12f} vs 1",
    )


def test_criterion_7_minimality(projection_records):
    records, _, _ = projection_records
    rng = np.random.default_rng(777)
    worst = -math.inf
    for model, s, face, p, closed, _ in records:
        pts = s.vertices[[i - 1 for i in face]]
        sig = model.signature
        samples = []
        while len(samples) < 100:
            mu = rng.normal(size=(200, len(face)))
            v = mu @ pts
            q = model.curvature * np.einsum("nd,d,nd->n", v, sig, v)
            good = v[q > 1e-9]
            samples.extend(good[: 100 - len(samples)])
        x = np.array(samples)
        x /= np.sqrt(model.curvature * np.einsum("nd,d,nd->n", x, sig, x))[:, None]
        if model.curvature == -1:
            x[x[:, 0] < 0] *= -1.0
            plane_d = np.arccosh(np.maximum(-(x * sig) @ p, 1.0))
        else:
            plane_d = np.arccos(np.clip((x * sig) @ p, -1.0, 1.0))
        worst = max(worst, float((closed.distance - plane_d).max()))
    _report(
        7, "foot minimality against 100 same-plane samples each",
        worst <= 1e-9,
        f"max(distance(foot) - distance(sample)) = {worst:.3e} <= 1e-9",
    )


def test_criterion_8_cli_contract(tmp_path):
    run = subprocess.run(
        [sys.executable, "-m", "hsproj.cli", "check", "--random", "hyperbolic", "4", "42", "20"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    check_ok = run.returncode == 0

    simplex = random_simplex(Model.hyperbolic(5), 4, seed=42)
    doc = {"model": "hyperbolic", "vertices": [list(v) for v in simplex.vertices]}
    good = tmp_path / "good.json"
    good.write_text(dumps(doc))
    ok_run = subprocess.run(
        [sys.executable, "-m", "hsproj.cli", "validate", str(good)],
        capture_output=True, text=True, timeout=120,
    )
    doc["vertices"][0][1] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc))
    bad_run = subprocess.run(
        [sys.executable, "-m", "hsproj.cli", "validate", str(bad), "--json"],
        capture_output=True, text=True, timeout=120,
    )
    flipped = bad_run.returncode == 1 and json.loads(bad_run.stdout)["status"] == "OffManifold"
    _report(
        8, "CLI contract (check --random exits 0; corrupted vertex -> OffManifold)",
        check_ok and ok_run.returncode == 0 and flipped,
        f"check rc={run.returncode}, validate rc={ok_run.returncode}, "
        f"corrupted rc={bad_run.returncode}",
    )
