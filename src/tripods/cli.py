"""Command-line frontend for the tripod census toolkit.

Exit codes: 0 success, 2 usage error, 3 overflow guard, 4 invalid tripod.
JSON goes to stdout (or --out); diagnostics to stderr.  The TRIPOD_THREADS
environment variable supplies the default for --threads, which is validated
and echoed in reports; the census itself runs on one thread.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analytics, reporting, topology
from .census import (
    APPENDIX,
    LEMMA,
    CensusConfig,
    OverflowLimitError,
    census as run_census,
    convergence_scan,
    nonreduced_census,
    random_lattice_experiment,
)
from .geometry import InvalidTripodError, Tripod, classify, tripod_volume_and_index
from .lattice import LatticeVector, parse_lattice
from .quadratic import QuadraticNumber

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_INVALID_TRIPOD = 4


def _resolve_threads(args) -> None:
    """Fill --threads from TRIPOD_THREADS (or 1) and reject a count below 1."""
    if getattr(args, "threads", 1) is None:
        env = os.environ.get("TRIPOD_THREADS") or "1"
        try:
            args.threads = int(env)
        except ValueError:
            args.threads = 0
        if args.threads < 1:
            raise ValueError(f"TRIPOD_THREADS must be a positive integer, got {env!r}")
    if getattr(args, "threads", 1) < 1:
        raise ValueError("thread count must be positive")


def _emit(args, envelope_obj: dict, csv_text: str | None = None) -> None:
    fmt = getattr(args, "format", "json")
    text = csv_text if fmt == "csv" else reporting.dumps_json(envelope_obj) + "\n"
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _qn_json(x: QuadraticNumber) -> dict:
    return {
        "rational": str(x.rational),
        "root3": str(x.root3),
        "float": float(x),
    }


def _parse_coords(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("expected --coords a,b,c,d")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


def _census_row(radius, rep, reference, covol) -> dict:
    normalized = rep.primitive * covol ** 2 / radius ** 4
    return {
        "R": radius,
        "total": rep.all_tripods,
        "primitive": rep.primitive,
        "reduced": rep.reduced,
        "nonreduced": rep.nonreduced_primitive,
        "primitive_over_R4": rep.primitive / radius ** 4,
        "error": abs(normalized - reference),
    }


def cmd_census(args) -> int:
    lattice = parse_lattice(args.lattice)
    config = CensusConfig(
        lattice=lattice,
        radius=args.radius,
        mode=APPENDIX if args.mode == "appendix" else LEMMA,
        classify_reduced=args.reduced,
        threads=args.threads,
        emit_samples=args.samples,
    )
    rep = run_census(config)
    env = reporting.envelope("census", lattice.describe(), rep.payload())
    csv_text = None
    if args.format == "csv":
        ref = rep.reference_constant
        csv_text = reporting.census_csv([_census_row(args.radius, rep, ref, lattice.covolume)])
    _emit(args, env, csv_text)
    return EXIT_OK


def cmd_inspect(args) -> int:
    lattice = parse_lattice(args.lattice)
    if not lattice.is_exact:
        raise ValueError("inspect requires a preset lattice (gaussian or eisenstein)")
    a, b, c, d = _parse_coords(args.coords)
    tripod = Tripod.from_coords(lattice, a, b, c, d)
    flags = classify(tripod)
    volume, index = tripod_volume_and_index(tripod)
    report = topology.self_intersections(tripod)
    ell1, ell2, ell3 = tripod.leg_lengths()
    payload = {
        "coords": [a, b, c, d],
        "index": index,
        "length_sq": _qn_json(tripod.length_sq),
        "length": tripod.length(),
        "leg_lengths": [ell1, ell2, ell3],
        "toricelli_point": {"x": _qn_json(tripod.u.x), "y": _qn_json(tripod.u.y)},
        "fermat_point": {"x": _qn_json(tripod.p.x), "y": _qn_json(tripod.p.y)},
        "volume": volume,
        "flags": {
            "primitive": flags.primitive,
            "reduced": flags.reduced,
            "degenerate_intersections": report.degenerate,
        },
        "immersion": {
            "intersections": report.intersections,
            "degenerate": report.degenerate,
            "degenerate_reason": report.degenerate_reason,
            "cell_counts": list(report.cell_counts),
            "regions": None if report.degenerate else topology.region_count(report),
        },
    }
    _emit(args, reporting.envelope("inspect", lattice.describe(), payload))
    return EXIT_OK


def cmd_convergence(args) -> int:
    lattice = parse_lattice(args.lattice)
    radii = [float(r) if not r.is_integer() else int(r)
             for r in (float(x) for x in args.radii.split(","))]
    mode = APPENDIX if args.mode == "appendix" else LEMMA
    rows = convergence_scan(lattice, radii, mode=mode)
    reference = analytics.reference_constants()["main_constant"]
    payload = {
        "mode": mode,
        "reference_constant": reference,
        "rows": rows,
    }
    if args.plot:
        svg = reporting.convergence_svg(rows, reference)
        with open(args.plot, "w") as fh:
            fh.write(svg)
        payload["plot"] = args.plot
    csv_text = None
    if args.format == "csv":
        csv_rows = [{
            "R": row["R"], "total": row["total"], "primitive": row["primitive"],
            "reduced": None, "nonreduced": None,
            "primitive_over_R4": row["primitive_over_R4"], "error": row["error"],
        } for row in rows]
        csv_text = reporting.census_csv(csv_rows)
    _emit(args, reporting.envelope("convergence", lattice.describe(), payload), csv_text)
    return EXIT_OK


def cmd_volume(args) -> int:
    est = analytics.mc_omega_volume(args.samples, args.seed)
    env = reporting.envelope("volume", "-", est.payload(), seed=args.seed)
    _emit(args, env)
    return EXIT_OK


def cmd_nonreduced(args) -> int:
    lattice = parse_lattice(args.lattice)
    payload = nonreduced_census(lattice, args.radius, threads=args.threads)
    csv_text = None
    if args.format == "csv":
        counts = payload["counts"]
        csv_text = reporting.census_csv([{
            "R": args.radius, "total": counts["all_tripods"],
            "primitive": counts["primitive"], "reduced": counts["reduced"],
            "nonreduced": counts["nonreduced_primitive"],
            "primitive_over_R4": counts["primitive"] / args.radius ** 4,
            "error": None,
        }])
    _emit(args, reporting.envelope("nonreduced", lattice.describe(), payload), csv_text)
    return EXIT_OK


def cmd_fiber(args) -> int:
    lattice = parse_lattice(args.lattice)
    parts = args.basis.split(",")
    if len(parts) != 4:
        raise ValueError("expected --basis a1,b1,a2,b2")
    a1, b1, a2, b2 = (int(p) for p in parts)
    members = topology.fiber_tripods(
        (LatticeVector(a1, b1), LatticeVector(a2, b2)), lattice, mode=args.mode)
    payload = {
        "basis": [a1, b1, a2, b2],
        "mode": args.mode,
        "count": len(members),
        "members": [
            {"coords": list(t.coords), "index": t.index_n,
             "length_sq": _qn_json(t.length_sq)}
            for t in members
        ],
    }
    _emit(args, reporting.envelope("fiber", lattice.describe(), payload))
    return EXIT_OK


def cmd_random_lattice(args) -> int:
    payload = random_lattice_experiment(args.samples, args.radius, args.seed)
    env = reporting.envelope("random-lattice", "random-tau", payload, seed=args.seed)
    _emit(args, env)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripods",
        description="Exact census of immersed tripods on flat tori")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True):
        p.add_argument("--threads", type=int, default=None,
                       help="validated and echoed in census reports; every command "
                            "runs on one thread (default: TRIPOD_THREADS or 1)")
        p.add_argument("--out", help="write the report to a file instead of stdout")
        if fmt:
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("census", help="enumerate all tripods with length <= R")
    p.add_argument("--lattice", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--mode", choices=["lemma", "appendix"], default="lemma")
    p.add_argument("--reduced", action="store_true", help="classify reducedness")
    p.add_argument("--samples", type=int, default=None,
                   help="retain up to N per-tripod records")
    add_common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("inspect", help="full geometry of one tripod")
    p.add_argument("--lattice", required=True)
    p.add_argument("--coords", required=True, help="a,b,c,d")
    add_common(p, fmt=False)
    p.set_defaults(func=cmd_inspect, format="json")

    p = sub.add_parser("convergence", help="census at several radii with errors")
    p.add_argument("--lattice", default="gaussian")
    p.add_argument("--radii", required=True, help="comma-separated increasing radii")
    p.add_argument("--mode", choices=["lemma", "appendix"], default="lemma")
    p.add_argument("--plot", help="write an SVG convergence plot")
    add_common(p)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("volume", help="Monte Carlo volume of the admissible region")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_volume, format="json")

    p = sub.add_parser("nonreduced", help="census with reducedness classification")
    p.add_argument("--lattice", required=True)
    p.add_argument("--radius", type=float, required=True)
    add_common(p)
    p.set_defaults(func=cmd_nonreduced)

    p = sub.add_parser("fiber", help="tripods spanning a fixed sublattice")
    p.add_argument("--lattice", default="gaussian")
    p.add_argument("--basis", required=True, help="a1,b1,a2,b2")
    p.add_argument("--mode", choices=["lemma", "appendix"], default="lemma")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fiber, format="json")

    p = sub.add_parser("random-lattice", help="heuristic nonreduced survey over random tau")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--radius", type=float, default=10.0)
    p.add_argument("--seed", type=int, required=True)
    add_common(p, fmt=False)
    p.set_defaults(func=cmd_random_lattice, format="json")

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite `--coords -1,2,3,4` as `--coords=-1,2,3,4`.

    argparse reads a separate value that starts with '-' as an option.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--coords", "--basis") and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        _resolve_threads(args)
        return args.func(args)
    except OverflowLimitError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except InvalidTripodError as exc:
        print(f"invalid tripod ({exc.predicate}): {exc}", file=sys.stderr)
        return EXIT_INVALID_TRIPOD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
