"""The stonework command line tool.

Batch analysis only; JSON on stdout by default, DOT behind --dot.  Exit
codes: 0 success (also when the reader of stdout stops early), 1 domain
or output error with a structured message, 2 usage.
Guards in effect are reported in every output header.
"""

import argparse
import functools
import json
import os
import random
import sys

from . import config
from .bits import bits
from .corpus import (
    all_grothendieck_topologies,
    distributive_lattices_upto,
    meet_semilattices_upto,
    posets_upto,
    random_site,
)
from .coverage import (
    GrothendieckTopology,
    ideal_frame,
    named_coverage,
    topologies_equal_by_ideals,
    trivial_coverage,
)
from .duality import check_duality
from .errors import FileError, ParseError, StoneworkError
from .formats import (
    coverage_from_json,
    dump,
    frame_to_json,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    ring_from_json,
    space_to_dot,
    space_to_json,
)
from .invariants import (
    alexandrov_demorgan,
    almost_discrete_conditions,
    extremally_disconnected_conditions,
    godel_dummett_frame,
    godel_dummett_site,
    mslat_ideal_frame_demorgan,
    two_valued_conditions,
)
from .order import FiniteFrame, as_poset, lower_sets
from .presentations import (
    free_frame_on_cjsl,
    free_frame_on_jsl,
    free_frame_on_set,
    free_meet_semilattice,
    parse_presentation,
    parse_query,
    present_coherent,
    present_horn,
    present_semantic,
)
from .spectra import (
    enough_points,
    filter_bijection,
    gamma_subterminal_space,
    j_prime_filters,
    subterminal_space,
)
from .zariski import (
    op_ideal_lattice,
    ring_zmod,
    spectra_homeomorphism,
    zariski_lattice,
)


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise FileError(str(exc)) from None


def _read_json(path):
    return json.loads(_read_text(path))


def _load_site(args):
    """A site from --site FILE (coverage JSON, or poset JSON plus --coverage)."""
    obj = _read_json(args.site)
    if isinstance(obj, dict) and "covers" in obj:
        return coverage_from_json(obj)
    p = poset_from_json(obj)
    return _named(p, args.coverage)


def _int(value, what):
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{what} must be an integer, not {value!r}") from None


def _named(p, spec):
    if spec.startswith("k:"):
        return named_coverage(p, "k", _int(spec[2:], "the k of --coverage k:K"))
    return named_coverage(p, spec)


def _envelope(result, fmt="json"):
    return {"guards": config.guards_in_effect(), "result": result}


def _emit(obj):
    dump(obj, sys.stdout.write)


def cmd_ideal_frame(args):
    p = poset_from_json(_read_json(args.poset))
    cov = _named(as_poset(p) if args.coverage != "trivial" else p, args.coverage)
    fr = ideal_frame(cov)
    _emit(_envelope({"frame": frame_to_json(fr)}))
    return 0


def cmd_space(args):
    cov = _load_site(args)
    if args.gamma is not None:
        import os

        cov.ideals()  # the frame guard refuses before --gamma is read
        if os.path.exists(args.gamma):
            raw = _read_json(args.gamma)
            if not isinstance(raw, list):
                raise ParseError("a --gamma file must hold a list of element indices")
        else:
            raw = args.gamma.split(",")
        sp = gamma_subterminal_space(cov, [_int(x, "a --gamma index") for x in raw])
    else:
        sp = subterminal_space(cov)
    if args.dot:
        sys.stdout.write(space_to_dot(sp))
        return 0
    flag, n_ideals, extents = enough_points(cov)
    _emit(_envelope({"space": space_to_json(sp),
                     "enough_points": flag,
                     "ideals": n_ideals,
                     "separated_extents": extents}))
    return 0


def cmd_filters(args):
    cov = _load_site(args)
    p = cov.base
    filters = [[p.label(c) for c in bits(F)] for F in j_prime_filters(cov)]
    _emit(_envelope({"filters": filters}))
    return 0


def cmd_dual(args):
    p = poset_from_json(_read_json(args.input))
    if args.kind in ("stone", "birkhoff", "lindenbaum", "atomdlat", "disjunctive"):
        x = FiniteFrame(as_poset(p))
    else:
        x = as_poset(p)
    rep = check_duality(args.kind, x)
    if args.dot:
        sys.stdout.write(poset_to_dot(as_poset(p), name="input"))
        recovered = rep.get("recovered_poset")
        if recovered is not None:
            sys.stdout.write(poset_to_dot(recovered, name="recovered"))
        return 0
    rep.pop("recovered_poset", None)
    _emit(_envelope(rep))
    return 0


def cmd_free(args):
    if args.what == "mslat":
        m = free_meet_semilattice(args.gens)
        _emit(_envelope({"poset": poset_to_json(m)}))
        return 0
    if args.what == "frame-set":
        fr, gens = free_frame_on_set(args.gens)
        _emit(_envelope({"frame": frame_to_json(fr), "generators": gens}))
        return 0
    p = as_poset(poset_from_json(_read_json(args.jsl)))
    fr, eta = (free_frame_on_cjsl if args.what == "frame-cjsl" else free_frame_on_jsl)(p)
    _emit(_envelope({"frame": frame_to_json(fr), "unit": list(eta)}))
    return 0


def cmd_present(args):
    pres = parse_presentation(_read_text(args.file), args.logic)
    if args.semantic:
        lat = present_semantic(pres)
    elif pres.logic == "horn":
        lat = present_horn(pres)
    else:
        lat = present_coherent(pres)
    result = {
        "logic": pres.logic,
        "size": lat.poset.n,
        "poset": poset_to_json(lat.poset),
        "generators": list(lat.gen_elements),
    }
    if args.query:
        rel = parse_query(args.query, pres)
        result["query"] = args.query
        result["holds"] = lat.entails(rel)
    _emit(_envelope(result))
    return 0


def cmd_zariski(args):
    if args.ring.startswith("zmod:"):
        ring = ring_zmod(_int(args.ring.split(":", 1)[1], "the N of --ring zmod:N"))
    else:
        ring = ring_from_json(_read_json(args.ring))
    if args.op_ideals:
        lat, space = op_ideal_lattice(ring)
        if args.dot:
            sys.stdout.write(space_to_dot(space))
            return 0
        _emit(_envelope({"space": space_to_json(space), "lattice_size": lat.poset.n}))
        return 0
    point_map, sp1, sp2 = spectra_homeomorphism(ring)
    fr, D = zariski_lattice(ring)
    if args.dot:
        sys.stdout.write(space_to_dot(sp2))
        return 0
    _emit(
        _envelope(
            {
                "spectrum": space_to_json(sp2),
                "lattice": frame_to_json(fr),
                "d_map": list(D),
                "homeomorphism": list(point_map),
            }
        )
    )
    return 0


def cmd_check(args):
    obj = _read_json(args.input)
    p = poset_from_json(obj)
    inv = args.invariant
    if inv == "boolean":
        conds = almost_discrete_conditions(FiniteFrame(as_poset(p)))
        _emit(_envelope({"invariant": inv, "conditions": conds}))
        return 0
    if inv == "demorgan":
        if args.kind == "dlat":
            conds = extremally_disconnected_conditions(FiniteFrame(as_poset(p)))
            _emit(_envelope({"invariant": inv, "conditions": conds}))
        elif args.kind == "mslat":
            _emit(_envelope({"invariant": inv, "holds": mslat_ideal_frame_demorgan(p)}))
        else:
            frame_side, amal = alexandrov_demorgan(as_poset(p))
            _emit(_envelope({"invariant": inv, "frame": frame_side, "amalgamation": amal}))
        return 0
    if inv == "twovalued":
        kind = args.kind or "preorder"
        x = FiniteFrame(as_poset(p)) if kind in ("dlat", "frame") else p
        structure, frame_side = two_valued_conditions(x, kind)
        _emit(_envelope({"invariant": inv, "structure": structure, "frame": frame_side}))
        return 0
    if inv == "gd":
        # the site law's saturation guard refuses before any frame is made
        site = godel_dummett_site(trivial_coverage(p))
        external = godel_dummett_frame(lower_sets(p))
        _emit(
            _envelope(
                {
                    "invariant": inv,
                    "site_presheaf": site,
                    "frame_external": external,
                    "agree": site == external,
                }
            )
        )
        return 0
    raise StoneworkError(f"unknown invariant {args.invariant!r}")


def _sweep_checks(max_poset, max_dlat, random_sites, seed):
    """Registered theorem checks over the small corpora."""
    results = []

    def record(name, passed, detail):
        results.append({"check": name, "passed": passed, "detail": detail})

    # distinct topologies have distinct ideal sets
    count, ok = 0, True
    for p in posets_upto(max_poset):
        topologies = [GrothendieckTopology(p, s, _checked=True) for s in all_grothendieck_topologies(p)]
        for i, a in enumerate(topologies):
            for b in topologies[i + 1:]:
                count += 1
                if topologies_equal_by_ideals(a, b):
                    ok = False
    record("unique-topology-by-ideals", ok, f"{count} pairs")

    # the filter bijection
    count, ok = 0, True
    for p in posets_upto(max_poset):
        for s in all_grothendieck_topologies(p):
            J = GrothendieckTopology(p, s, _checked=True)
            try:
                filter_bijection(J)
            except StoneworkError:
                ok = False
            count += 1
    rng = random.Random(seed)
    for _ in range(random_sites):
        p, J = random_site(5, rng)
        try:
            filter_bijection(J)
        except StoneworkError:
            ok = False
        count += 1
    record("filter-bijection", ok, f"{count} sites")

    # five-way and four-way invariant agreement
    count, ok = 0, True
    for d in distributive_lattices_upto(max_dlat):
        try:
            almost_discrete_conditions(d)
            extremally_disconnected_conditions(d)
        except StoneworkError:
            ok = False
        count += 1
    record("boolean-demorgan-agreement", ok, f"{count} lattices")

    # duality round trips
    count, ok = 0, True
    for p in posets_upto(max_poset):
        try:
            check_duality("alexandrov", p)
            count += 1
        except StoneworkError:
            ok = False
    for m in meet_semilattices_upto(max_poset):
        try:
            check_duality("mslat", m)
            check_duality("mslatstar", m)
            count += 2
        except StoneworkError:
            ok = False
    for d in distributive_lattices_upto(max_dlat):
        try:
            check_duality("stone", d)
            check_duality("birkhoff", d)
            count += 2
        except StoneworkError:
            ok = False
    record("duality-round-trips", ok, f"{count} round trips")
    return results


def cmd_sweep(args):
    results = _sweep_checks(args.max_poset, args.max_dlat, args.random_sites, args.seed)
    table = {"checks": results, "all_passed": all(r["passed"] for r in results)}
    _emit(_envelope(table))
    return 0 if table["all_passed"] else 1


def cmd_dot(args):
    p = poset_from_json(_read_json(args.poset))
    sys.stdout.write(poset_to_dot(p))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it.

    It names each command only by its `dest="command"` string: main()
    finds cmd_<command> at call time, so that a replaced cmd_* function
    is the one that runs.
    """
    ap = argparse.ArgumentParser(prog="stonework", description=__doc__)
    ap.add_argument("--guard", type=int, help="override the frame-size guard")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("ideal-frame", help="frame of J-ideals of a poset with a named coverage")
    s.add_argument("poset")
    s.add_argument("--coverage", default="trivial")

    s = sub.add_parser("space", help="subterminal space of a site")
    s.add_argument("--site", required=True)
    s.add_argument("--coverage", default="trivial")
    s.add_argument("--gamma", help="subframe: JSON file with a list of ideal-frame element indices, or a comma-separated list")
    s.add_argument("--dot", action="store_true")

    s = sub.add_parser("filters", help="J-prime filters of a site")
    s.add_argument("--site", required=True)
    s.add_argument("--coverage", default="trivial")

    s = sub.add_parser("dual", help="duality round-trip report")
    s.add_argument("--kind", required=True,
                   choices=["stone", "birkhoff", "alexandrov", "lindenbaum", "mslat",
                            "mslatstar", "atomdlat", "disjunctive"])
    s.add_argument("input")
    s.add_argument("--dot", action="store_true")

    s = sub.add_parser("free", help="free structures")
    s.add_argument("--what", required=True, choices=["mslat", "frame-set", "frame-jsl", "frame-cjsl"])
    s.add_argument("--gens", type=int, default=0)
    s.add_argument("--jsl", help="poset JSON of a join-semilattice")

    s = sub.add_parser("present", help="lattice presented by generators and relations")
    s.add_argument("--logic", required=True, choices=["horn", "coherent", "geometric"])
    s.add_argument("file")
    s.add_argument("--query", help='entailment query, e.g. "a & b <= c"')
    s.add_argument("--semantic", action="store_true", help="use the model-based engine")

    s = sub.add_parser("zariski", help="Zariski spectrum of a finite ring")
    s.add_argument("--ring", required=True, help="zmod:N or a ring table JSON file")
    s.add_argument("--op-ideals", action="store_true")
    s.add_argument("--dot", action="store_true")

    s = sub.add_parser("check", help="logical invariants of a structure")
    s.add_argument("--invariant", required=True, choices=["boolean", "demorgan", "twovalued", "gd"])
    s.add_argument("--input", required=True)
    s.add_argument("--kind", choices=["dlat", "mslat", "preorder", "frame"])

    s = sub.add_parser("sweep", help="run the registered theorem checks over small corpora")
    s.add_argument("--max-poset", type=int, default=3)
    s.add_argument("--max-dlat", type=int, default=5)
    s.add_argument("--random-sites", type=int, default=25)
    s.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("dot", help="Hasse diagram of a poset as DOT")
    s.add_argument("poset")

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    config.set_frame_guard_override(args.guard)
    try:
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        if sys.stdout is sys.__stdout__:
            sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except StoneworkError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1
    except FileNotFoundError as exc:
        _emit({"error": "FileNotFound", "message": str(exc)})
        return 1
    except json.JSONDecodeError as exc:
        _emit({"error": "ParseError", "message": f"{exc.msg} (line {exc.lineno}, col {exc.colno})"})
        return 1
    except OSError as exc:
        # stdout failed; the flush at exit then writes to the null device.
        # A reader that stopped reading (a broken pipe) is no error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 0
        dump({"error": "OutputError", "message": str(exc)}, sys.stderr.write)
        return 1


if __name__ == "__main__":
    sys.exit(main())
