import argparse
import io
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsproj import Model, ProjectionUndefined, build_simplex, cli, project_to_face
from hsproj import crosscheck, projection
from hsproj.cli import main
from hsproj.generators import random_point, random_simplex

from conftest import COSH1, SINH1, far_field_triangle, regular_simplex

OCTANT = {"model": "spherical", "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
TRIANGLE = {
    "model": "hyperbolic",
    "vertices": [[1, 0, 0], [COSH1, SINH1, 0], [COSH1, 0, SINH1]],
}


def write_doc(tmp_path, doc, name="simplex.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, (json.loads(out) if out.strip() else {}), err


# ------------------------------------------------------------------ validate

def test_validate_octant(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    code, report, _ = run_json(capsys, "validate", path)
    assert code == 0
    assert report["status"] == "ok"
    assert report["results"]["det_edge_matrix"] == pytest.approx(1.0)
    assert max(report["residuals"]["vertex_membership"]) <= 1e-12
    assert report["inputs_digest"].startswith("sha256:")


def test_validate_human_output(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert "det M" in out and "status:  ok" in out


def test_validate_duplicate_vertex_fails(tmp_path, capsys):
    doc = {"model": "spherical", "vertices": [[1, 0, 0], [1, 0, 0], [0, 0, 1]]}
    code, report, _ = run_json(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert report["status"] == "DegenerateSimplex"


@pytest.mark.parametrize("tol", ["1e-320", "1e-290", "1e-7"])
def test_validate_duplicate_vertex_fails_under_a_lowered_floor(tmp_path, capsys, tol):
    # degenerate floors 0.0 (1e-10 * 1e-320 underflows), 1e-300 and 1e-17:
    # the repeated vertex passes the gate, and the failed solve is still typed
    doc = {"model": "spherical", "vertices": [[1, 0, 0], [1, 0, 0], [0, 0, 1]]}
    code, report, _ = run_json(capsys, "validate", write_doc(tmp_path, doc), "--tol", tol)
    assert code == 1
    assert report["status"] == "DegenerateSimplex"


def test_validate_off_manifold_by_1e3(tmp_path, capsys):
    doc = {"model": "spherical", "vertices": [[1, 0, 0.001], [0, 1, 0], [0, 0, 1]]}
    code, report, _ = run_json(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert report["status"] == "OffManifold"


def test_validate_parse_error_names_row(tmp_path, capsys):
    doc = {"model": "spherical", "vertices": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]}
    code, out, err = run(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 2
    assert "row 1" in err


def test_undecodable_document_is_exit_2(tmp_path, capsys, monkeypatch):
    # not UTF-8: a document error like any other, from a file or from stdin
    raw = b"\xff\xfe\x00bad"
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read ") and "Traceback" not in err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="strict"))
    code, out, err = run(capsys, "validate", "-")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read -") and "Traceback" not in err


def test_usage_error_is_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["project"]) == 2  # missing required flags
    capsys.readouterr()
    path = write_doc(tmp_path, OCTANT)
    for argv in (
        ["project", path, "--face", "1,2", "--point", "1,0,0", "--check", "--seed", "-1"],
        ["check", path, "--seed", "-1"],
        ["check", "--random", "spherical", "3", "1", "2", "--seed", "-3"],
        ["check", path, "--seed", "x"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "argument --seed" in err
    for argv, message in (
        (["project", path, "--face", "1,x", "--point", "1,0,0"], "argument --face: expected comma-separated integers"),
        (["project", path, "--face", "1,2", "--point", "1,a,0"], "argument --point: expected comma-separated numbers"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and message in err


# ------------------------------------------------------------------- project

def test_project_octant(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    x = 0.57735026918962576
    code, report, _ = run_json(
        capsys, "project", path, "--face", "1,2", "--point", f"{x},{x},{x}"
    )
    assert code == 0
    res = report["results"]
    assert_allclose(res["foot"], [0.7071067811865476, 0.7071067811865476, 0.0], atol=1e-12)
    assert res["distance"] == pytest.approx(0.61547970867038737, abs=1e-11)
    assert res["lambda"]["3"] == pytest.approx(1 / math.sqrt(3))
    assert res["minors"]["det_edge_matrix"] == pytest.approx(1.0)
    assert report["residuals"]["foot_manifold"] <= 1e-12
    assert report["residuals"]["orthogonality"] <= 1e-12
    assert report["residuals"]["distance_paths"] <= 1e-12


@pytest.mark.parametrize("doc, point", [
    (OCTANT, "0.57735026918962576,0.57735026918962576,0.57735026918962576"),
    (TRIANGLE, f"{COSH1},0,{SINH1}"),
], ids=["octant", "hyperbolic_triangle"])
def test_project_residuals_read_the_reported_foot(tmp_path, capsys, monkeypatch, doc, point):
    # the foot negated after normalization: the antipode in S^n, the lower sheet in H^n
    normalize = projection.normalize_to_manifold
    monkeypatch.setattr(projection, "normalize_to_manifold", lambda *args: -normalize(*args))
    code, report, _ = run_json(capsys, "project", write_doc(tmp_path, doc), "--face", "1,2", "--point", point)
    assert code == 0
    assert report["residuals"]["orthogonality"] >= 1


def test_project_minors_match_one_det_per_minor(tmp_path, capsys):
    s = random_simplex(Model.hyperbolic(5), 4, seed=8)
    path = write_doc(tmp_path, {"model": "hyperbolic", "vertices": s.vertices.tolist()})
    point = ",".join(repr(float(x)) for x in random_point(s.model, 9))
    code, report, _ = run_json(capsys, "project", path, "--face", "1,3", f"--point={point}")
    assert code == 0
    M, face = s.edge_matrix, [0, 2]
    minors = report["results"]["minors"]
    assert minors["face_minor"] == float(np.linalg.det(M[np.ix_(face, face)]))
    assert minors["bordered_diagonal"] == {
        str(t + 1): float(np.linalg.det(M[np.ix_(face + [t], face + [t])])) for t in (1, 3, 4)
    }


def test_project_takes_each_determinant_once(tmp_path, capsys, monkeypatch):
    s = random_simplex(Model.hyperbolic(5), 4, seed=8)
    path = write_doc(tmp_path, {"model": "hyperbolic", "vertices": s.vertices.tolist()})
    point = ",".join(repr(float(x)) for x in random_point(s.model, 9))
    det = np.linalg.det
    calls = []

    def counted(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    code, report, _ = run_json(capsys, "project", path, "--face", "1,3", f"--point={point}")
    assert code == 0 and report["status"] == "ok"
    # det M[face,face], then the table of bordered minors, whose diagonal is
    # the report's and whose ratios give distance_paths, then det M on its
    # first read, for the minors' sign
    assert calls == [(2, 2), (3, 3, 3, 3), (5, 5)]


def test_project_with_oracle_check(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    x = 0.57735026918962576
    code, report, _ = run_json(
        capsys, "project", path, "--face", "1,2", "--point", f"{x},{x},{x}", "--check"
    )
    assert code == 0
    assert report["residuals"]["oracle_distance_deviation"] <= 1e-6
    assert report["residuals"]["oracle_foot_deviation"] <= 1e-5


def test_project_bad_face_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    code, report, _ = run_json(capsys, "project", path, "--face", "1,4", "--point", "1,0,0")
    assert code == 1
    assert report["status"] == "BadFace"
    code, report, _ = run_json(capsys, "project", path, "--face", "1,2", "--point", "1,0")
    assert code == 1
    assert report["status"] == "DimensionMismatch"


def test_project_point_at_face_vertex(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    code, report, _ = run_json(capsys, "project", path, "--face", "1,2", "--point", "1,0,0")
    assert code == 0
    assert report["results"]["distance"] == pytest.approx(0.0, abs=1e-12)


def test_project_undefined_maps_to_exit_1(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    code, report, _ = run_json(capsys, "project", path, "--face", "1,2", "--point", "0,0,1")
    assert code == 1
    assert report["status"] == "ProjectionUndefined"


def test_report_roundtrip_is_bit_identical(tmp_path, capsys):
    path = write_doc(tmp_path, TRIANGLE)
    code, report, _ = run_json(
        capsys, "project", path, "--face", "1,2",
        "--point", f"{COSH1},0,{SINH1}",
    )
    assert code == 0
    # rebuild everything from the echoed inputs alone
    inputs = report["inputs"]
    model = Model.hyperbolic(3) if inputs["model"] == "hyperbolic" else Model.spherical(3)
    simplex = build_simplex(model, np.array(inputs["vertices"], dtype=float))
    again = project_to_face(simplex, inputs["face"], np.array(inputs["point"], dtype=float))
    assert [float(v) for v in again.foot] == report["results"]["foot"]
    assert float(again.distance) == report["results"]["distance"]
    # floats echo back as floats, integral ones (1.0, 0.0) included
    echoed = [x for row in inputs["vertices"] for x in row] + inputs["point"]
    results = report["results"]
    produced = results["foot"] + list(results["lambda"].values())
    produced += [results["distance"], results["minors"]["det_edge_matrix"]]
    assert all(type(x) is float for x in echoed + produced)


def _printed(out, prefix):
    """The text after ``prefix`` on the one human-output line that starts with it."""
    (line,) = [line for line in out.splitlines() if line.startswith(prefix)]
    return line[len(prefix):]


def test_project_human_output_matches_json(tmp_path, capsys):
    s = random_simplex(Model.hyperbolic(5), 4, seed=8)
    path = write_doc(tmp_path, {"model": "hyperbolic", "vertices": s.vertices.tolist()})
    point = ",".join(repr(float(x)) for x in random_point(s.model, 9))
    argv = ("project", path, "--face", "1,3", f"--point={point}", "--check")
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv)
    assert code == 0
    # .17g spells every float so that it parses back to the same bits
    res = report["results"]
    assert float(_printed(out, "distance = ")) == res["distance"]
    assert [float(x) for x in _printed(out, "foot = ").split(", ")] == res["foot"]
    assert set(res["lambda"]) == {"2", "4", "5"}
    for k, v in res["lambda"].items():
        assert float(_printed(out, f"lambda[{k}] = ")) == v
    for name in report["residuals"]:
        assert _printed(out, f"residual {name} = ")
    assert float(_printed(out, "oracle distance = ")) == res["oracle"]["distance"]


def test_geometry_error_human_output_has_error_line(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    argv = ("project", path, "--face", "1,2", "--point", "0,0,1")
    code, report, _ = run_json(capsys, *argv)
    assert code == 1
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.splitlines() == [
        "command: project",
        "status:  ProjectionUndefined",
        f"error: {report['error']}",
    ]


def test_project_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(OCTANT)))
    code, report, _ = run_json(capsys, "project", "-", "--face", "2,3", "--point", "0,1,0")
    assert code == 0
    assert report["results"]["distance"] == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------- altitudes

def test_altitudes_octant_all_facets(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    code, report, _ = run_json(capsys, "altitudes", path)
    assert code == 0
    rows = report["results"]["altitudes"]
    assert len(rows) == 3
    for row in rows:
        assert row["distance"] == pytest.approx(math.pi / 2, abs=1e-12)
        assert row["foot_undefined"] is True


def test_altitudes_triangle_face(tmp_path, capsys):
    path = write_doc(tmp_path, TRIANGLE)
    code, report, _ = run_json(capsys, "altitudes", path, "--face", "1,2")
    assert code == 0
    rows = report["results"]["altitudes"]
    assert len(rows) == 1
    assert rows[0]["vertex"] == 3
    assert rows[0]["distance"] == pytest.approx(1.0, abs=1e-12)
    assert rows[0]["foot_undefined"] is False
    assert_allclose(rows[0]["foot"], [1.0, 0.0, 0.0], atol=1e-12)


def test_altitudes_human_output_matches_json(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    code, report, _ = run_json(capsys, "altitudes", path, "--face", "1,2")
    assert code == 0
    code, out, _ = run(capsys, "altitudes", path, "--face", "1,2")
    assert code == 0
    (row,) = report["results"]["altitudes"]
    assert row["foot_undefined"] is True
    head, tail = _printed(out, "vertex 3 -> face [1, 2]: ").split(" ", 1)
    assert float(head) == row["distance"] == math.pi / 2
    assert tail == "(foot undefined)"


def test_altitudes_solve_one_face_block_per_target(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("altitudes computed a minor or a Schur block")

    for name in ("bordered_minor", "deleted_minor", "schur_complement"):
        monkeypatch.setattr(crosscheck, name, forbidden)
    solve = np.linalg.solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    build = cli._build

    def build_then_spy(doc, tols):
        # building takes det M and solves for the normals; the spies start after it
        simplex = build(doc, tols)
        monkeypatch.setattr(np.linalg, "det", forbidden)
        monkeypatch.setattr(np.linalg, "solve", counted)
        return simplex

    monkeypatch.setattr(cli, "_build", build_then_spy)
    code, report, _ = run_json(capsys, "altitudes", write_doc(tmp_path, TRIANGLE))
    assert code == 0
    rows = report["results"]["altitudes"]
    assert len(rows) == 3 and not any(row["foot_undefined"] for row in rows)
    assert len(calls) == 3


def test_altitudes_degenerate_input(tmp_path, capsys):
    doc = {"model": "spherical", "vertices": [[1, 0, 0], [1, 0, 0], [0, 0, 1]]}
    code, report, _ = run_json(capsys, "altitudes", write_doc(tmp_path, doc))
    assert code == 1
    assert report["status"] == "DegenerateSimplex"


# --------------------------------------------------------------------- check

def test_check_octant_document(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    code, report, _ = run_json(capsys, "check", path)
    assert code == 0
    assert report["status"] == "ok"
    checks = {row["check"]: row for row in report["results"]["checks"]}
    assert checks["inverse_identity"]["max_residual"] <= 1e-12
    assert checks["block_inverse"]["passed"] and checks["schur_paths"]["passed"]


def test_check_random_small(capsys):
    code, report, _ = run_json(capsys, "check", "--random", "spherical", "3", "11", "3")
    assert code == 0
    assert report["results"]["simplex_count"] == 3
    assert report["inputs"]["random"] == {"model": "spherical", "n": 3, "seed": 11, "count": 3}
    assert all(row["passed"] for row in report["results"]["checks"])


@pytest.mark.parametrize("seed", range(6))
def test_check_regular_8_simplex(tmp_path, capsys, seed):
    # cond(M) 1.8e3, though a det floor would refuse it; on its large
    # sampled faces the oracle's restarts need scipy's cap of 200
    # iterations per coordinate
    doc = {"model": "spherical", "vertices": regular_simplex("spherical", 8, 0.1).tolist()}
    code, report, _ = run_json(capsys, "check", write_doc(tmp_path, doc), "--seed", str(seed))
    assert code == 0 and report["status"] == "ok", report.get("failed_checks")


def test_check_reports_scaling_disagreement(tmp_path, capsys):
    # cond(M) ~ 1.6e9: the M and G sides of T disagree by 2.3e-8 relative,
    # which the suite must report as failed rows, not as a DegenerateSimplex
    v = np.array([0.6, 0.8, 5e-5])
    doc = {"model": "spherical", "vertices": [[1, 0, 0], [0, 1, 0], list(v / np.linalg.norm(v))]}
    code, report, _ = run_json(capsys, "check", write_doc(tmp_path, doc))
    assert code == 1
    assert report["status"] == "CheckFailed"
    assert {"scaling_agreement", "gram_minor_identity"} <= set(report["failed_checks"])
    assert len(report["results"]["checks"]) == 8


def test_check_rejects_bad_random_args(capsys):
    code, out, err = run(capsys, "check", "--random", "euclidean", "3", "1", "2")
    assert code == 2
    code, out, err = run(capsys, "check", "--random", "spherical", "x", "1", "2")
    assert code == 2
    code, out, err = run(capsys, "check", "--random", "spherical", "3", "-5", "2")
    assert code == 2 and "SEED >= 0" in err
    code, out, err = run(capsys, "check", "--random", "hyperbolic", "0", "0", "2")
    assert code == 2 and "n >= 1" in err


@pytest.mark.parametrize("model", ["hyperbolic", "spherical"])
def test_check_random_takes_a_segment(capsys, model):
    # a 1-simplex builds and checks from a FILE and from random_simplex alike
    code, report, _ = run_json(capsys, "check", "--random", model, "1", "0", "2")
    assert code == 0 and report["status"] == "ok"
    assert report["results"]["simplex_count"] == 2


def test_check_rejects_a_document_with_random(tmp_path, capsys):
    # --random replaces the document, so naming both is a usage error, even
    # for a file that does not exist
    path = write_doc(tmp_path, OCTANT)
    for file in (path, "-", str(tmp_path / "missing.json")):
        code, out, err = run(capsys, "check", file, "--random", "spherical", "3", "0", "1")
        assert code == 2 and out == "" and "FILE or --random" in err


def test_check_human_table(capsys):
    code, out, _ = run(capsys, "check", "--random", "hyperbolic", "2", "5", "2")
    assert code == 0
    assert "inverse_identity" in out and "pass" in out


def test_check_counts_and_prints_undefined_samples(capsys, monkeypatch):
    def undefined(*args, **kwargs):
        raise ProjectionUndefined("sampled point at distance pi/2")

    monkeypatch.setattr(cli, "project_to_face", undefined)
    argv = ("check", "--random", "spherical", "2", "3", "2")
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    # two samples per simplex, every one skipped before the oracle runs
    assert report["results"]["projection_undefined_skipped"] == 4
    checks = {row["check"]: row["max_residual"] for row in report["results"]["checks"]}
    assert checks["oracle_distance"] == checks["oracle_foot"] == 0.0
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert _printed(out, "projection-undefined samples skipped: ") == "4"


def test_tol_scaling_flag(tmp_path, capsys):
    # a vertex off the sphere by 1e-8 in <x,x> passes once tolerances scale up
    doc = {"model": "spherical", "vertices": [[1, 0, 1e-4], [0, 1, 0], [0, 0, 1]]}
    path = write_doc(tmp_path, doc)
    code, _, _ = run_json(capsys, "validate", path)
    assert code == 1
    code, _, _ = run_json(capsys, "validate", path, "--tol", "1e6")
    assert code == 0
    for factor in ("nan", "inf"):
        code, _, err = run_json(capsys, "validate", path, "--tol", factor)
        assert code == 2 and "finite and positive" in err
    # a thin triangle, valid only below the default degenerate floor: --tol
    # reaches every Schur-block gate, so check reports residuals instead of
    # stopping at block (1, 2), whose singular values are 2 and ~1.8e-11
    eps = 6e-6
    thin = {"model": "spherical", "vertices": [[1, 0, 0], [math.cos(eps), math.sin(eps), 0], [0, 0, 1]]}
    path = write_doc(tmp_path, thin, "thin.json")
    code, _, _ = run_json(capsys, "validate", path, "--tol", "0.01")
    assert code == 0
    code, report, _ = run_json(capsys, "check", path, "--tol", "0.01")
    assert code == 1 and report["status"] == "CheckFailed"
    assert [row["check"] for row in report["results"]["checks"]] == [
        "inverse_identity", "block_inverse", "schur_paths", "vertex_normal_duality",
        "gram_minor_identity", "scaling_agreement", "oracle_distance", "oracle_foot",
    ]


@pytest.mark.parametrize("factor", ["1", "10", "0.01"])
def test_tol_scales_every_check_bound(tmp_path, capsys, factor):
    # --tol F bounds the identity rows at 1e-8 F and the oracle rows at
    # 1e-6 F and 1e-5 F, the same float products as the defaults scaled
    f = float(factor)
    code, report, _ = run_json(capsys, "check", write_doc(tmp_path, OCTANT), "--tol", factor)
    assert code in (0, 1)
    bounds = {row["check"]: row["tol"] for row in report["results"]["checks"]}
    assert bounds.pop("oracle_distance") == 1e-6 * f
    assert bounds.pop("oracle_foot") == 1e-5 * f
    assert len(bounds) == 6
    assert all(tol == 1e-8 * f for tol in bounds.values()), bounds


def test_tol_scaling_never_refuses_a_far_field_normal(tmp_path, capsys):
    # r = 5, d = 0.1: T_1^2 = 1/sinh^2 7.99 ~ 4.6e-7 decides nothing, so
    # loosening the tolerances keeps what the defaults build
    path = write_doc(tmp_path, {"model": "hyperbolic", "vertices": far_field_triangle(5.0, 0.1)})
    for factor in ("1", "1e3"):
        code, report, _ = run_json(capsys, "validate", path, "--tol", factor)
        assert code == 0 and report["status"] == "ok", factor


def test_non_finite_input_is_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, OCTANT)
    for point in ("nan,0,0", "1,inf,0"):
        code, _, err = run(capsys, "project", path, "--face", "1,2", "--point", point, "--json")
        assert code == 2 and "finite" in err
    doc = {"model": "spherical", "vertices": [[1, 0, 0], [0, math.nan, 0], [0, 0, 1]]}
    code, _, err = run(capsys, "validate", write_doc(tmp_path, doc, "nan.json"), "--json")
    assert code == 2 and "row 2 has a non-finite entry" in err
    huge = {"model": "spherical", "vertices": [[1, 0, 0], [0, 10**400, 0], [0, 0, 1]]}
    code, _, err = run(capsys, "validate", write_doc(tmp_path, huge, "huge.json"), "--json")
    assert code == 2 and "row 2 has a non-finite entry" in err


# ------------------------------------------------------- one parser per process

def _cli_argvs(tmp_path):
    """Every subcommand in both output forms, and each failure path of ``main``."""
    octant = write_doc(tmp_path, OCTANT)
    duplicate = {"model": "spherical", "vertices": [[1, 0, 0], [1, 0, 0], [0, 0, 1]]}
    duplicate = write_doc(tmp_path, duplicate, "dup.json")
    commands = [
        ["validate", octant],
        ["project", octant, "--face", "1,2", "--point", "0.6,0,0.8"],
        ["project", octant, "--face", "1,2", "--point", "0.6,0,0.8", "--check", "--seed", "3"],
        ["altitudes", octant],
        ["altitudes", octant, "--face", "1"],
        ["check", octant, "--seed", "1"],
        ["check", "--random", "spherical", "2", "0", "1"],
        ["validate", duplicate],  # GeometryError: exit 1
    ]
    return [argv + form for argv in commands for form in ([], ["--json"])] + [
        [],  # usage error: exit 2
        ["project", octant, "--face", "1,2"],  # usage error: exit 2
        ["validate", str(tmp_path / "missing.json")],  # DocumentError: exit 2
        ["validate", octant, "--tol", "0"],  # refused factor: exit 2
        ["--version"],
    ]


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser()
    tree, built[:] = len(built), []
    argvs = _cli_argvs(tmp_path)
    passes = [[run(capsys, *argv) for argv in argvs] for _ in range(2)]
    assert passes[0] == passes[1]
    assert {code for code, _, _ in passes[0]} == {0, 1, 2}
    # one parser tree for both passes, or none if an earlier main call built it
    assert len(built) <= tree
