"""Command-line front end.

Subcommands: validate, project, altitudes, check.  Input simplex
documents are JSON (see documents.py); reports go to stdout, human
readable by default or as a full-precision JSON report with --json.

Exit codes: 0 success, 1 domain error (off-manifold point, degenerate
simplex, undefined projection, failed invariant check, ...), 2 usage or
parse error.  All vertex and face indices are 1-based.

The cross-checks a report sets beside the production results come whole
from ``crosscheck``: the ``check`` rows, and the minors of ``project``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .documents import _MODEL_NAMES, SimplexDocument, digest, dumps, parse_simplex_document
from .errors import DocumentError, GeometryError, ProjectionUndefined
from .forms import DEFAULT_TOLS, Model, Tolerances, _membership_residual
from .forms import distance as geodesic
from .generators import random_point, random_simplex
from .oracle import OracleOptions, oracle_project
from .projection import altitude, project_to_face, vertex_foot
from .simplex import Simplex, build_simplex, face_complement
from .crosscheck import _projection_minors, identity_residuals

# check-suite bounds on the closed form vs oracle comparison
ORACLE_DISTANCE_TOL = 1e-6
ORACLE_FOOT_TOL = 1e-5
_CHECK_SAMPLES_PER_SIMPLEX = 2


def _int_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _float_csv(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def _read_document(path: str | None) -> SimplexDocument:
    if path is None or path == "-":
        return parse_simplex_document(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_simplex_document(fh.read())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def _build(doc: SimplexDocument, tols: Tolerances) -> Simplex:
    return build_simplex(doc.to_model(), doc.vertex_array(), tols)


def _echo_inputs(doc: SimplexDocument, **extra) -> dict:
    inputs = doc.as_dict()
    inputs.update({k: v for k, v in extra.items() if v is not None})
    return inputs


def _report(command: str, inputs: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "inputs_digest": digest(inputs),
        "results": {},
        "residuals": {},
        "status": "ok",
    }


def cmd_validate(args, tols: Tolerances) -> dict:
    doc = _read_document(args.file)
    report = _report("validate", _echo_inputs(doc))
    simplex = _build(doc, tols)
    report["results"] = {
        "model": simplex.model.name,
        "dimension": simplex.n,
        "det_edge_matrix": simplex.edge_det,
        "det_gram_matrix": simplex.gram_det,
    }
    report["residuals"] = {
        "vertex_membership": [_membership_residual(simplex.model, v) for v in simplex.vertices]
    }
    return report


def _projection_block(simplex: Simplex, face, p, result, tols: Tolerances) -> tuple[dict, dict]:
    face0, comp0 = face_complement(simplex, face)
    face_minor, bordered, minors_distance = _projection_minors(simplex, face0, comp0, p, tols)
    results = {
        "foot": result.foot,
        "distance": result.distance,
        "lambda": result.lambdas,
        "minors": {
            "det_edge_matrix": simplex.edge_det,
            "face_minor": face_minor,
            "bordered_diagonal": dict(zip(map(str, (comp0 + 1).tolist()), bordered.tolist())),
        },
    }
    model = simplex.model
    s = math.cosh if model.curvature == -1 else math.cos  # the reported p. = s(d) foot
    r = (p - s(result.distance) * result.foot) * model.signature
    ortho = max(abs(float(r @ simplex.vertices[i])) for i in face0)
    residuals = {
        "foot_manifold": _membership_residual(model, result.foot),
        "orthogonality": ortho,
        "distance_paths": abs(result.distance - minors_distance),
    }
    return results, residuals


def _oracle_deviation(simplex: Simplex, closed, oracle, tols: Tolerances) -> tuple[float, float]:
    """The closed form's distance and foot against the oracle's: |difference| and geodesic gap."""
    return abs(closed.distance - oracle.distance), geodesic(simplex.model, closed.foot, oracle.foot, tols)


def cmd_project(args, tols: Tolerances) -> dict:
    doc = _read_document(args.file)
    report = _report(
        "project",
        _echo_inputs(doc, face=list(args.face), point=list(args.point), seed=args.seed),
    )
    simplex = _build(doc, tols)
    p = np.asarray(args.point, dtype=float)
    result = project_to_face(simplex, args.face, p, tols)
    report["results"], report["residuals"] = _projection_block(simplex, args.face, p, result, tols)
    if args.check:
        oracle = oracle_project(simplex, args.face, p, OracleOptions(seed=args.seed), tols)
        report["results"]["oracle"] = {"foot": oracle.foot, "distance": oracle.distance}
        dist_dev, foot_dev = _oracle_deviation(simplex, result, oracle, tols)
        report["residuals"].update(oracle_distance_deviation=dist_dev, oracle_foot_deviation=foot_dev)
    return report


def cmd_altitudes(args, tols: Tolerances) -> dict:
    doc = _read_document(args.file)
    report = _report("altitudes", _echo_inputs(doc, face=list(args.face) if args.face else None))
    simplex = _build(doc, tols)
    m = simplex.vertex_count
    if args.face:
        targets = [(tuple(args.face), j) for j in (face_complement(simplex, args.face)[1] + 1).tolist()]
    else:
        targets = [
            (tuple(i for i in range(1, m + 1) if i != j), j) for j in range(1, m + 1)
        ]
    rows = []
    for face, j in targets:
        # one face-block product per target: altitude is needed only where the foot is not
        entry: dict = {"vertex": j, "face": list(face)}
        try:
            foot = vertex_foot(simplex, face, j, tols)
        except ProjectionUndefined:
            entry.update(distance=altitude(simplex, face, j, tols), foot_undefined=True)
        else:
            entry.update(distance=foot.distance, foot=foot.foot, foot_undefined=False)
        rows.append(entry)
    report["results"]["altitudes"] = rows
    return report


def _check_one(simplex: Simplex, rng, opts: OracleOptions, tols: Tolerances) -> tuple[dict, int]:
    """Closed form against the oracle on sampled faces and points; returns (residuals, skipped)."""
    m = simplex.vertex_count
    dist_dev = foot_dev = 0.0
    skipped = 0
    for _ in range(_CHECK_SAMPLES_PER_SIMPLEX):
        size = int(rng.integers(1, simplex.n + 1))
        face = tuple(sorted(int(i) + 1 for i in rng.choice(m, size=size, replace=False)))
        p = random_point(simplex.model, rng)
        try:
            closed = project_to_face(simplex, face, p, tols)
        except ProjectionUndefined:
            skipped += 1
            continue
        d, f = _oracle_deviation(simplex, closed, oracle_project(simplex, face, p, opts, tols), tols)
        dist_dev, foot_dev = max(dist_dev, d), max(foot_dev, f)
    return {"oracle_distance": dist_dev, "oracle_foot": foot_dev}, skipped


def cmd_check(args, tols: Tolerances) -> dict:
    if args.random:
        if args.file is not None:
            raise DocumentError("check takes a FILE or --random, not both")
        model_name, n_str, seed_str, count_str = args.random
        if model_name not in _MODEL_NAMES:
            raise DocumentError(f"--random model must be one of {_MODEL_NAMES}, got {model_name!r}")
        try:
            n, gen_seed, count = int(n_str), int(seed_str), int(count_str)
        except ValueError:
            raise DocumentError("--random N SEED COUNT must be integers")
        if n < 1 or gen_seed < 0 or count < 1:
            raise DocumentError("--random needs n >= 1, SEED >= 0 and count >= 1")
        inputs = {
            "random": {"model": model_name, "n": n, "seed": gen_seed, "count": count},
            "check_seed": args.seed,
        }
        model = Model.hyperbolic(n + 1) if model_name == "hyperbolic" else Model.spherical(n + 1)
        simplices = [random_simplex(model, n, gen_seed + i, tols=tols) for i in range(count)]
    else:
        doc = _read_document(args.file)
        inputs = _echo_inputs(doc, check_seed=args.seed)
        simplices = [_build(doc, tols)]

    report = _report("check", inputs)
    opts = OracleOptions(seed=args.seed)
    worst: dict[str, float] = {}
    skipped = 0
    for i, simplex in enumerate(simplices):
        res = identity_residuals(simplex, tols)
        rng = np.random.default_rng([args.seed, i])
        sampled, skip = _check_one(simplex, rng, opts, tols)
        res.update(sampled)
        skipped += skip
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)

    # every row but the oracle's is an identity_residuals row
    bounds = dict.fromkeys(worst, tols.identity)
    bounds.update(
        oracle_distance=ORACLE_DISTANCE_TOL * args.tol,
        oracle_foot=ORACLE_FOOT_TOL * args.tol,
    )
    rows = [
        {"check": key, "max_residual": worst[key], "tol": bounds[key], "passed": worst[key] <= bounds[key]}
        for key in bounds
    ]
    report["results"] = {
        "simplex_count": len(simplices),
        "checks": rows,
        "projection_undefined_skipped": skipped,
    }
    report["residuals"] = {row["check"]: row["max_residual"] for row in rows}
    if not all(row["passed"] for row in rows):
        failed = [row["check"] for row in rows if not row["passed"]]
        report["status"] = "CheckFailed"
        report["failed_checks"] = failed
    return report


def _print_human(report: dict) -> None:
    print(f"command: {report['command']}")
    print(f"status:  {report['status']}")
    results = report.get("results", {})
    if report["command"] == "validate" and results:
        print(f"model: {results['model']}  (n = {results['dimension']})")
        print(f"det M = {results['det_edge_matrix']:.17g}")
        print(f"det G = {results['det_gram_matrix']:.17g}")
        worst = max(report["residuals"]["vertex_membership"])
        print(f"max vertex membership residual = {worst:.3e}")
    elif report["command"] == "project" and results:
        print(f"distance = {results['distance']:.17g}")
        print("foot = " + ", ".join(format(x, ".17g") for x in results["foot"]))
        for k, v in results["lambda"].items():
            print(f"lambda[{k}] = {v:.17g}")
        for name, val in report["residuals"].items():
            print(f"residual {name} = {val:.3e}")
        if "oracle" in results:
            print(f"oracle distance = {results['oracle']['distance']:.17g}")
    elif report["command"] == "altitudes" and results:
        for row in results["altitudes"]:
            tail = " (foot undefined)" if row.get("foot_undefined") else ""
            print(f"vertex {row['vertex']} -> face {row['face']}: {row['distance']:.17g}{tail}")
    elif report["command"] == "check" and results:
        print(f"simplices checked: {results['simplex_count']}")
        if results["projection_undefined_skipped"]:
            print(f"projection-undefined samples skipped: {results['projection_undefined_skipped']}")
        width = max(len(r["check"]) for r in results["checks"])
        for row in results["checks"]:
            mark = "pass" if row["passed"] else "FAIL"
            print(f"  {row['check']:<{width}}  {row['max_residual']:.3e}  <= {row['tol']:.1e}  {mark}")
    if report["status"] != "ok" and "error" in report:
        print(f"error: {report['error']}")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(dumps(report, indent=2))
    else:
        _print_human(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsproj",
        description="Orthogonal projection onto simplex-face k-planes in H^n and S^n.",
    )
    parser.add_argument("--version", action="version", version=f"hsproj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, file_optional=False):
        p.set_defaults(handler=handler)
        if file_optional:
            p.add_argument("file", nargs="?", help="simplex document (JSON); '-' or omit for stdin")
        else:
            p.add_argument("file", help="simplex document (JSON); '-' for stdin")
        p.add_argument("--json", action="store_true", help="emit the machine-readable JSON report")
        p.add_argument("--tol", type=float, default=1.0, metavar="FACTOR",
                       help="scale all default tolerances by FACTOR")

    p_val = sub.add_parser("validate", help="validate a simplex document")
    common(p_val, cmd_validate)

    p_proj = sub.add_parser("project", help="project a point onto a face's k-plane")
    common(p_proj, cmd_project)
    p_proj.add_argument("--face", type=_int_csv, required=True, metavar="I,J,...",
                        help="1-based face vertex indices, strictly increasing")
    p_proj.add_argument("--point", type=_float_csv, required=True, metavar="X1,X2,...",
                        help="ambient coordinates of the point (use --point=... if negative)")
    p_proj.add_argument("--check", action="store_true",
                        help="also run the brute-force oracle and report the deviation")
    p_proj.add_argument("--seed", type=_seed, default=0, help="oracle probe seed")

    p_alt = sub.add_parser("altitudes", help="altitudes (and feet) from vertices to opposite faces")
    common(p_alt, cmd_altitudes)
    p_alt.add_argument("--face", type=_int_csv, default=None, metavar="I,J,...",
                       help="target face; default: every facet opposite each vertex")

    p_chk = sub.add_parser("check", help="run the full invariant suite")
    common(p_chk, cmd_check, file_optional=True)
    p_chk.add_argument("--random", nargs=4, metavar=("MODEL", "N", "SEED", "COUNT"),
                       help="check COUNT random n-simplices instead of a document")
    p_chk.add_argument("--seed", type=_seed, default=0, help="sampling seed for faces/points/oracle")
    return parser


# the parser of every main call in this process: argparse keeps no state
# between parse_args calls
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        tols = DEFAULT_TOLS.scaled(args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = args.handler(args, tols)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        report = {
            "command": args.command,
            "status": type(exc).__name__,
            "error": str(exc),
        }
        _emit(report, args.json)
        return 1

    _emit(report, args.json)
    return 0 if report["status"] == "ok" else 1


if __name__ == "__main__":
    raise SystemExit(main())
