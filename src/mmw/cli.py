"""Command-line surface: mmw <command> [flags].

Exit codes: 0 success, 1 domain error (syntax, caps, bad coordinates,
formulas nested too deeply), 2 internal consistency failure.  The
environment variable MMW_UNIVERSE_CAP overrides the default context cap.

The mmw modules past ``context`` and ``formula`` (which ``import mmw``
runs anyway) are the package's lazy submodules, imported here once and
called as ``lattice.cmm_of(...)``: a module's code runs on the first
call into it, so a fresh interpreter compiles only the mmw modules (and
``json``) that the command uses.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import axiom, kripke, lattice, minmatrix, orbit, substitution
from .context import CapExceededError, context, universe_cap
from .formula import parse, render

__all__ = ["main"]


def _coord_value(text: str) -> int | str:
    if text == lattice.STAR:
        return lattice.STAR
    return int(text)


def _print_minmatrix(m, fmt: str) -> None:
    if fmt == "json":
        import json
        print(json.dumps(m.to_json(include_hex=True)))
    else:
        print(m.render_matrix())


def _orbit_names(labels, v: int) -> str:
    """Orbit labels as the context names them, joined by '+', or '(empty)'."""
    return "+".join(orbit.display_label(l, v) for l in labels) or "(empty)"


def cmd_normalize(args) -> int:
    ctx = context(args.v, args.d)
    m = minmatrix.normalize(parse(args.formula), ctx)
    _print_minmatrix(m, args.format)
    return 0


def cmd_collapse(args) -> int:
    ctx = context(args.v, 1)
    m = minmatrix.normalize(parse(args.formula), ctx)
    subs = substitution.all_substitutions(args.v) if args.exhaustive else None
    cmm = lattice.cmm_of(m, subs)
    result = cmm.matrix
    labels = orbit.labels_of(cmm.orbits, ctx.n)
    if args.format == "json":
        import json
        doc = result.to_json()
        doc["orbits"] = labels
        doc["coord"] = str(cmm.coord)
        print(json.dumps(doc))
    else:
        print(result.render_matrix())
        print(f"orbits: [{_orbit_names(labels, args.v)}]")
        print(f"coordinate: {cmm.coord}")
    return 0


def cmd_orbits(args) -> int:
    ctx = context(args.v, 1)
    orbits = orbit.orbit_map(ctx)
    if args.format == "json":
        import json
        print(json.dumps({lbl: list(orb.members()) for lbl, orb in orbits.items()}))
    else:
        for lbl, orb in orbits.items():
            print(f"{orbit.display_label(lbl, args.v)} ({orb.count} minterms): "
                  f"{list(orb.members())}")
            if args.matrices:
                print(orb.render_matrix())
                print()
    return 0


def _registry_name(coord) -> str | None:
    entry = axiom.registry_lookup(coord)
    return entry.name if entry else None


def cmd_lattice(args) -> int:
    if args.format == "dot":
        print(_lattice_dot(args.v))
        return 0
    cmms = lattice.enumerate_cmms(args.v)
    if args.format == "json":
        # the JSON lists every CMM's minterms: refuse before building them
        size, cap = cmms[0].ctx.universe_size, universe_cap()
        if len(cmms) * size > cap:
            raise CapExceededError(
                f"lattice --format json lists the minterms of {len(cmms)} CMMs "
                f"of {size} minterms each, over the cap {cap}")
    out = []
    for c in cmms:
        star = lattice.map_to_star(c.coord, args.v)
        name = _registry_name(star)
        labels = orbit.labels_of(c.orbits, c.ctx.n)
        if args.format == "json":
            out.append({"coord": str(c.coord), "star": str(star),
                        "plane": c.coord.plane, "x": c.coord.x, "y": c.coord.y,
                        "orbits": labels, "name": name,
                        "minterms": list(c.matrix.members())})
        else:
            tag = f"  ({name})" if name else ""
            print(f"{c.coord}  ->  {star}  [{_orbit_names(labels, args.v)}]{tag}")
    if args.format == "json":
        import json
        print(json.dumps(out))
    return 0


def _lattice_dot(v: int) -> str:
    hasse = lattice.build_hasse(v)
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for plane in ("K", "D"):
        lines.append(f"  subgraph cluster_{plane} {{")
        lines.append(f'    label="{plane}-plane";')
        for c in hasse.nodes:
            if c.coord.plane != plane:
                continue
            star = lattice.map_to_star(c.coord, v)
            name = _registry_name(star)
            label = str(c.coord) + (f"\\n{name}" if name else "")
            lines.append(f'    "{c.coord}" [label="{label}"];')
        lines.append("  }")
    for a, b, orb in hasse.edges:
        lines.append(f'  "{a}" -> "{b}" [label="{orbit.display_label(orb, v)}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_axiom(args) -> int:
    coord = lattice.SystemCoord(args.plane, _coord_value(args.x), _coord_value(args.y))
    f = axiom.alpha_for(coord, args.v, args.variant)
    ctx = context(args.v, 1)
    cmm = lattice.cmm_of(minmatrix.normalize(f, ctx))
    labels = orbit.labels_of(cmm.orbits, ctx.n)
    if args.format == "json":
        import json
        doc = {"coord": str(coord), "axiom": render(f),
               "cmm": cmm.matrix.to_json(), "orbits": labels}
        print(json.dumps(doc))
    else:
        print(render(f))
        print(f"CMM orbits: [{_orbit_names(labels, args.v)}]")
    return 0


def cmd_system_of(args) -> int:
    coord, origin = axiom.system_of(parse(args.formula))
    labels = orbit.labels_of(lattice.cmm_from_coords(coord, origin).orbits, 1 << origin)
    name = _registry_name(coord)
    if args.format == "json":
        import json
        print(json.dumps({"coord": str(coord), "origin_v": origin,
                          "orbits": labels, "name": name}))
    else:
        print(f"coordinate: {coord}")
        print(f"origin context: K[{origin},1]")
        print(f"orbits: [{_orbit_names(labels, origin)}]")
        if name:
            print(f"named system: {name}")
    return 0


def cmd_classify(args) -> int:
    import json
    classes = substitution.classify(args.v)
    out = [{"size": c.size,
            "representative": {"v": c.representative.v,
                               "tables": list(c.representative.tables)},
            "key_digest": c.key_digest}
           for c in classes]
    print(json.dumps(out))
    return 0


def cmd_frames(args) -> int:
    if not args.correspondence:
        print("nothing to do: pass --correspondence", file=sys.stderr)
        return 1
    if args.all_coords:
        coords = [c.coord for c in lattice.enumerate_cmms(args.v)]
    else:
        if args.plane is None or args.x is None or args.y is None:
            print("need --plane/--x/--y or --all-coords", file=sys.stderr)
            return 1
        coords = [lattice.SystemCoord(args.plane, _coord_value(args.x),
                                      _coord_value(args.y))]
    reports = [kripke.correspondence_check(args.v, c, args.max_worlds,
                                           sample=args.sample, seed=args.seed)
               for c in coords]
    report = [{"coord": str(r.coord), "frames_checked": r.frames_checked,
               "violations": list(r.violations)}
              for r in reports]
    bad = sum(len(r["violations"]) for r in report)
    if args.format == "json":
        import json
        print(json.dumps(report))
    else:
        for r in report:
            status = "ok" if not r["violations"] else f"{len(r['violations'])} VIOLATIONS"
            print(f"{r['coord']}: {r['frames_checked']} frames, {status}")
    if bad:
        print(f"{bad} correspondence violations", file=sys.stderr)
        return 2
    return 0


def cmd_countermodel(args) -> int:
    f = parse(args.formula)
    hit = kripke.find_countermodel(f, args.max_worlds)
    if hit is None:
        print(f"no countermodel with up to {args.max_worlds} worlds")
        return 0
    frame, model, w = hit
    doc = {"worlds": frame.size, "relation_rows": list(frame.rows),
           "valuation_minterms": list(model.assignment), "world": w}
    if args.format == "json":
        import json
        print(json.dumps(doc))
    else:
        print(f"falsified at world {w} of {frame.size}")
        for u in range(frame.size):
            seen = [t for t in range(frame.size) if frame.sees(u, t)]
            val = context(model.v, 0).minterm_formula(model.assignment[u])
            print(f"  w{u}: sees {seen}, valuation {render(val)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mmw",
                                 description="minmatrix workbench for "
                                             "non-iterative normal modal logics")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, formats=("text", "json"), **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=formats, default=formats[0])
        return p

    p = add("normalize", cmd_normalize, help="formula to minmatrix")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("formula")

    p = add("collapse", cmd_collapse, help="CMM of a formula")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="close under every level-0 substitution (v <= 2)")
    p.add_argument("formula")

    p = add("orbits", cmd_orbits, help="prime orbits of K[v,1]")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--matrices", action="store_true")

    p = add("lattice", cmd_lattice, formats=("text", "json", "dot"),
            help="the CMM lattice of K[v,1]")
    p.add_argument("--v", type=int, required=True)

    p = add("axiom", cmd_axiom, help="defining axiom of a coordinate")
    p.add_argument("--plane", choices=("K", "D"), required=True)
    p.add_argument("--x", required=True, help="0..n-1 or *")
    p.add_argument("--y", required=True, help="-1..n-1 or *")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--variant", choices=("alpha", "alpha-prime"),
                   default="alpha")

    p = add("system-of", cmd_system_of, help="lattice position of a formula")
    p.add_argument("formula")

    p = add("classify", cmd_classify, formats=("json",),
            help="substitution classes of S(v,0)")
    p.add_argument("--v", type=int, required=True)

    p = add("frames", cmd_frames,
            help="Kripke frame correspondence checks (at most 6 worlds and "
                 "131072 frames per coordinate, a sampled size counting --sample)")
    p.add_argument("--correspondence", action="store_true")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--plane", choices=("K", "D"))
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--all-coords", action="store_true")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--sample", type=int, default=None,
                   help="random frames per size beyond exhaustive range")
    p.add_argument("--seed", type=int, default=0)

    p = add("countermodel", cmd_countermodel, help="search small falsifying model")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, default=3)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``mmw ... | head``).  Point stdout at
        # devnull so the interpreter's final flush does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ValueError as exc:
        # FormulaSyntaxError, CapExceededError, DegreeError and
        # ContextMismatchError are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # parse, render, modal_degree and variables recurse on the formula
        print("error: formula nested too deeply", file=sys.stderr)
        return 1
    except lattice.InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
