"""Command-line front end.

Subcommands: validate, project, altitudes, check.  Input simplex
documents are JSON (see documents.py); reports go to stdout, human
readable by default or as a full-precision JSON report with --json.

Exit codes: 0 success, 1 domain error (off-manifold point, degenerate
simplex, undefined projection, failed invariant check, ...), 2 usage or
parse error.  All vertex and face indices are 1-based.

Handlers compute and ``main`` assembles.  Each ``cmd_*`` reads its
document through ``_load`` and returns ``(inputs, results, residuals)``;
``main`` alone writes the report envelope, ``command``, ``inputs``,
``inputs_digest``, ``results``, ``residuals`` and ``status`` (with
``failed_checks`` last when a ``results["checks"]`` row did not pass),
and the error report ``command``, ``status``, ``error`` of a
GeometryError.

The cross-checks a report sets beside the production results come whole
from ``crosscheck``: the ``check`` rows, the minors of ``project``, the
``foot_manifold`` and ``orthogonality`` rows of ``project`` (``certify``)
and the oracle rows of ``project --check`` and ``check``
(``oracle_deviation``).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .documents import _MODEL_NAMES, _model, digest, dumps, parse_simplex_document
from .errors import DocumentError, GeometryError, ProjectionUndefined
from .forms import DEFAULT_TOLS, Tolerances, _membership_residual
from .generators import random_point, random_simplex
from .oracle import OracleOptions, oracle_project
from .projection import altitude, project_to_face, vertex_foot
from .simplex import Simplex, build_simplex, face_complement
from .crosscheck import IDENTITY_TOL, _projection_minors, certify, identity_residuals, oracle_deviation

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


def _load(args, tols: Tolerances, **echo) -> tuple[dict, Simplex]:
    """The echoed inputs and the built simplex of the document ``args.file``.

    The document is read from the file, or from stdin for None or '-'; the
    inputs are the document plus the ``echo`` extras that are not None.
    Input that cannot be read, decoded as UTF-8 or parsed raises
    DocumentError, which ``main`` turns into exit 2.
    """
    path = args.file
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # stdin is '-', as on the command line
        raise DocumentError(f"cannot read {path or '-'}: {exc}") from exc
    doc = parse_simplex_document(text)
    simplex = build_simplex(_model(doc["model"], len(doc["vertices"])), doc["vertices"], tols)
    return {**doc, **{k: v for k, v in echo.items() if v is not None}}, simplex


def cmd_validate(args, tols: Tolerances) -> tuple[dict, dict, dict]:
    inputs, simplex = _load(args, tols)
    results = {
        "model": simplex.model.name,
        "dimension": simplex.n,
        "det_edge_matrix": simplex.edge_det,
        "det_gram_matrix": simplex.gram_det,
    }
    residuals = {"vertex_membership": [_membership_residual(simplex.model, v) for v in simplex.vertices]}
    return inputs, results, residuals


def cmd_project(args, tols: Tolerances) -> tuple[dict, dict, dict]:
    inputs, simplex = _load(args, tols, face=list(args.face), point=list(args.point), seed=args.seed)
    result = project_to_face(simplex, args.face, args.point, tols)
    face0, comp0 = face_complement(simplex, args.face)
    face_minor, bordered, minors_distance = _projection_minors(simplex, face0, comp0, args.point, tols)
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
    residuals = {
        **certify(simplex, args.face, args.point, result, tols),
        "distance_paths": abs(result.distance - minors_distance),
    }
    if args.check:
        oracle = oracle_project(simplex, args.face, args.point, OracleOptions(seed=args.seed), tols)
        results["oracle"] = {"foot": oracle.foot, "distance": oracle.distance}
        dist_dev, foot_dev = oracle_deviation(simplex, result, oracle, tols)
        residuals.update(oracle_distance_deviation=dist_dev, oracle_foot_deviation=foot_dev)
    return inputs, results, residuals


def cmd_altitudes(args, tols: Tolerances) -> tuple[dict, dict, dict]:
    inputs, simplex = _load(args, tols, face=list(args.face) if args.face else None)
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
    return inputs, {"altitudes": rows}, {}


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
        d, f = oracle_deviation(simplex, closed, oracle_project(simplex, face, p, opts, tols), tols)
        dist_dev, foot_dev = max(dist_dev, d), max(foot_dev, f)
    return {"oracle_distance": dist_dev, "oracle_foot": foot_dev}, skipped


def cmd_check(args, tols: Tolerances) -> tuple[dict, dict, dict]:
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
        model = _model(model_name, n + 1)
        simplices = [random_simplex(model, n, gen_seed + i, tols=tols) for i in range(count)]
    else:
        inputs, simplex = _load(args, tols, check_seed=args.seed)
        simplices = [simplex]

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
    bounds = dict.fromkeys(worst, IDENTITY_TOL * args.tol)
    bounds.update(
        oracle_distance=ORACLE_DISTANCE_TOL * args.tol,
        oracle_foot=ORACLE_FOOT_TOL * args.tol,
    )
    rows = [
        {"check": key, "max_residual": worst[key], "tol": bounds[key], "passed": worst[key] <= bounds[key]}
        for key in bounds
    ]
    results = {"simplex_count": len(simplices), "checks": rows, "projection_undefined_skipped": skipped}
    return inputs, results, {row["check"]: row["max_residual"] for row in rows}


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
        inputs, results, residuals = args.handler(args, tols)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        _emit({"command": args.command, "status": type(exc).__name__, "error": str(exc)}, args.json)
        return 1

    failed = [row["check"] for row in results.get("checks", ()) if not row["passed"]]
    report = {
        "command": args.command,
        "inputs": inputs,
        "inputs_digest": digest(inputs),
        "results": results,
        "residuals": residuals,
        "status": "CheckFailed" if failed else "ok",
    }
    if failed:
        report["failed_checks"] = failed
    _emit(report, args.json)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
