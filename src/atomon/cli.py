"""Command-line front end. JSON files in, human-readable or JSON out."""

from __future__ import annotations

import argparse
import json
import sys

from . import verify as verify_mod
from .coproduct import (
    fp_brute_force_lengths,
    fp_is_atom,
    fp_is_unit,
    fp_length_set,
    fp_length_system_bounded,
    fp_mul,
    fp_union_k,
    reduce as reduce_word,
)
from .core import PROPERTIES, atoms, check_property, classify, units
from .errors import AtomonError
from .lengths import length_set, length_system, union_k, brute_force_lengths
from .limits import (
    coequalizer,
    equalizer,
    initial,
    pullback,
    pushout_eq_bounded,
    pushout_presentation,
    terminal,
)
from .product import (
    ap_contains,
    ap_length_set,
    ap_length_system,
    ap_materialize,
    ap_union_k,
)
from .serialize import (
    eps_to_json,
    eps_to_text,
    load_family,
    load_hom,
    load_monoid,
    monoid_to_json,
    parse_tuple,
    parse_word,
    word_to_text,
)


def _emit(data: dict, text_lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _system_payload(system) -> list[dict]:
    return [eps_to_json(entry) for entry in system]


def _system_text(system) -> str:
    entries = "; ".join(eps_to_text(entry) for entry in system) or "(empty)"
    if system.truncated_at is not None:
        entries += f"  [truncated at {system.truncated_at} blocks]"
    return entries


def cmd_validate(args) -> int:
    m = load_monoid(args.monoid)
    _emit(
        {"valid": True, "size": m.size, "identity": m.identity},
        [f"valid monoid with {m.size} elements, identity {m.names[m.identity]!r}"],
        args.json,
    )
    return 0


def cmd_analyze(args) -> int:
    m = load_monoid(args.monoid)
    props = {p: check_property(m, p) for p in PROPERTIES}
    system = length_system(m)
    data = {
        "size": m.size,
        "identity": m.identity,
        "elements": [
            {"index": x, "name": m.names[x], "class": classify(m, x).value}
            for x in range(m.size)
        ],
        "units": sorted(m.names[u] for u in units(m)),
        "atoms": sorted(m.names[a] for a in atoms(m)),
        "properties": props,
        "length_system": _system_payload(system),
    }
    lines = [f"monoid: {m.size} elements, identity {m.names[m.identity]!r}"]
    for x in range(m.size):
        lines.append(f"  {x}: {m.names[x]} [{classify(m, x).value}]")
    lines.append("units: " + (", ".join(sorted(m.names[u] for u in units(m))) or "(none)"))
    lines.append("atoms: " + (", ".join(sorted(m.names[a] for a in atoms(m))) or "(none)"))
    lines.append("properties: " + " ".join(f"{p}={'yes' if v else 'no'}" for p, v in props.items()))
    lines.append("length system: " + _system_text(system))
    _emit(data, lines, args.json)
    return 0


def cmd_lengthset(args) -> int:
    m = load_monoid(args.monoid)
    x = m.elem(args.element)
    ls = length_set(m, x)
    data = {"element": args.element, "length_set": eps_to_json(ls)}
    lines = [eps_to_text(ls)]
    status = 0
    if args.bound is not None:
        closed = set(ls.members_upto(args.bound))
        oracle = brute_force_lengths(m, x, args.bound)
        agrees = closed == oracle
        data["oracle_bound"] = args.bound
        data["oracle_agrees"] = agrees
        lines.append(f"oracle on [0,{args.bound}]: {'agrees' if agrees else 'MISMATCH'}")
        if not agrees:
            status = 1
    _emit(data, lines, args.json)
    return status


def cmd_unions(args) -> int:
    m = load_monoid(args.monoid)
    u = union_k(m, args.k)
    _emit({"k": args.k, "union": eps_to_json(u)}, [eps_to_text(u)], args.json)
    return 0


def cmd_coproduct(args) -> int:
    fam = load_family(args.family)
    if args.operation == "reduce":
        w = parse_word(fam, args.word)
        _emit({"reduced": word_to_text(fam, w)}, [word_to_text(fam, w)], args.json)
        return 0
    if args.operation == "mul":
        w = fp_mul(fam, parse_word(fam, args.word), parse_word(fam, args.word2))
        _emit({"product": word_to_text(fam, w)}, [word_to_text(fam, w)], args.json)
        return 0
    if args.operation == "atom":
        w = parse_word(fam, args.word)
        is_atom, is_unit = fp_is_atom(fam, w), fp_is_unit(fam, w)
        data = {"word": word_to_text(fam, w), "atom": is_atom, "unit": is_unit}
        _emit(data, [f"atom: {'yes' if is_atom else 'no'}; unit: {'yes' if is_unit else 'no'}"], args.json)
        return 0
    if args.operation == "lengthset":
        w = parse_word(fam, args.word)
        ls = fp_length_set(fam, w)
        data = {"word": word_to_text(fam, w), "length_set": eps_to_json(ls)}
        lines = [eps_to_text(ls)]
        status = 0
        if args.bound is not None:
            closed = set(ls.members_upto(args.bound))
            oracle = fp_brute_force_lengths(fam, w, args.bound)
            agrees = closed == oracle
            data["oracle_agrees"] = agrees
            lines.append(f"oracle on [0,{args.bound}]: {'agrees' if agrees else 'MISMATCH'}")
            if not agrees:
                status = 1
        _emit(data, lines, args.json)
        return status
    if args.operation == "unionk":
        u = fp_union_k(fam, args.k)
        _emit({"k": args.k, "union": eps_to_json(u)}, [eps_to_text(u)], args.json)
        return 0
    system = fp_length_system_bounded(fam, args.max_blocks)
    data = {"truncated_at": system.truncated_at, "entries": _system_payload(system)}
    _emit(data, [_system_text(system)], args.json)
    return 0


def cmd_product(args) -> int:
    fam = load_family(args.family)
    if args.operation == "contains":
        t = parse_tuple(fam, args.tuple)
        inside = ap_contains(fam, t)
        _emit({"contains": inside}, ["yes" if inside else "no"], args.json)
        return 0
    if args.operation == "lengthset":
        t = parse_tuple(fam, args.tuple)
        ls = ap_length_set(fam, t)
        _emit({"length_set": eps_to_json(ls)}, [eps_to_text(ls)], args.json)
        return 0
    if args.operation == "system":
        system = ap_length_system(fam, args.nonzero)
        _emit({"entries": _system_payload(system)}, [_system_text(system)], args.json)
        return 0
    if args.operation == "unionk":
        u = ap_union_k(fam, args.k)
        _emit({"k": args.k, "union": eps_to_json(u)}, [eps_to_text(u)], args.json)
        return 0
    mat, _ = ap_materialize(fam, args.cap)
    _emit(
        monoid_to_json(mat),
        [f"materialized product with {mat.size} elements"]
        + [f"  {i}: {name}" for i, name in enumerate(mat.names)],
        args.json,
    )
    return 0


def _emit_construction(args, label: str, monoid, homs: dict[str, list[int]]) -> int:
    data = {"monoid": monoid_to_json(monoid)}
    data.update({name: list(mp) for name, mp in homs.items()})
    lines = [f"{label}: {monoid.size} elements"]
    lines.append("monoid: " + json.dumps(monoid_to_json(monoid), sort_keys=True))
    for name, mp in homs.items():
        lines.append(f"{name}: {list(mp)}")
    _emit(data, lines, args.json)
    return 0


def cmd_limits(args) -> int:
    op = args.operation
    if op == "terminal":
        return _emit_construction(args, "terminal", terminal(), {})
    if op == "initial":
        return _emit_construction(args, "initial", initial(), {})
    if op == "equalizer":
        e_monoid, e = equalizer(load_hom(args.f), load_hom(args.g))
        return _emit_construction(args, "equalizer", e_monoid, {"inclusion": e.map})
    if op == "pullback":
        p, p1, p2 = pullback(load_hom(args.f), load_hom(args.g))
        return _emit_construction(args, "pullback", p, {"p1": p1.map, "p2": p2.map})
    if op == "coequalizer":
        q_monoid, q = coequalizer(load_hom(args.f), load_hom(args.g))
        return _emit_construction(args, "coequalizer", q_monoid, {"projection": q.map})
    if op == "pushout-present":
        pres = pushout_presentation(load_hom(args.f), load_hom(args.g))
        pairs = [
            [word_to_text(pres.family, reduce_word(pres.family, lhs)),
             word_to_text(pres.family, reduce_word(pres.family, rhs))]
            for lhs, rhs in pres.relation_pairs
        ]
        data = {
            "members": [monoid_to_json(m) for m in pres.family.members],
            "relations": pairs,
        }
        lines = [f"pushout presentation over {len(pres.family.members)} members"]
        lines += [f"  {lhs} = {rhs}" for lhs, rhs in pairs]
        _emit(data, lines, args.json)
        return 0
    pres = pushout_presentation(load_hom(args.f), load_hom(args.g))
    w1 = parse_word(pres.family, args.word1)
    w2 = parse_word(pres.family, args.word2)
    outcome = pushout_eq_bounded(pres, w1, w2, args.depth)
    _emit({"result": outcome.value}, [outcome.value], args.json)
    return 0


def cmd_verify(args) -> int:
    if args.all or args.suite is None:
        reports = verify_mod.run_all(args.seed, args.budget)
    else:
        reports = [verify_mod.cmd_verify(args.suite, args.seed, args.budget)]
    if args.json:
        payload = [
            {"suite": r.suite, "cases": r.cases, "mismatches": r.mismatches}
            for r in reports
        ]
        if args.timings:
            for entry, r in zip(payload, reports):
                entry["wall_time"] = round(r.wall_time, 3)
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in reports:
            for line in r.lines(timings=args.timings):
                print(line)
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomon",
        description="Exact computations with finite atomic monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    p = with_json(sub.add_parser("validate", help="validate a monoid file"))
    p.add_argument("monoid")
    p.set_defaults(func=cmd_validate)

    p = with_json(sub.add_parser("analyze", help="units, atoms, predicates, length system"))
    p.add_argument("monoid")
    p.set_defaults(func=cmd_analyze)

    p = with_json(sub.add_parser("lengthset", help="length set of one element"))
    p.add_argument("monoid")
    p.add_argument("element")
    p.add_argument("--bound", type=int, default=None, help="cross-check against the oracle up to this length")
    p.set_defaults(func=cmd_lengthset)

    p = with_json(sub.add_parser("unions", help="union of length sets containing k"))
    p.add_argument("monoid")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_unions)

    p = sub.add_parser("coproduct", help="free product operations")
    ops = p.add_subparsers(dest="operation", required=True)
    q = with_json(ops.add_parser("reduce"))
    q.add_argument("family")
    q.add_argument("word")
    q.set_defaults(func=cmd_coproduct)
    q = with_json(ops.add_parser("mul"))
    q.add_argument("family")
    q.add_argument("word")
    q.add_argument("word2")
    q.set_defaults(func=cmd_coproduct)
    q = with_json(ops.add_parser("atom"))
    q.add_argument("family")
    q.add_argument("word")
    q.set_defaults(func=cmd_coproduct)
    q = with_json(ops.add_parser("lengthset"))
    q.add_argument("family")
    q.add_argument("word")
    q.add_argument("--bound", type=int, default=None)
    q.set_defaults(func=cmd_coproduct)
    q = with_json(ops.add_parser("unionk"))
    q.add_argument("family")
    q.add_argument("k", type=int)
    q.set_defaults(func=cmd_coproduct)
    q = with_json(ops.add_parser("system"))
    q.add_argument("family")
    q.add_argument("max_blocks", type=int)
    q.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("product", help="categorical product operations")
    ops = p.add_subparsers(dest="operation", required=True)
    q = with_json(ops.add_parser("contains"))
    q.add_argument("family")
    q.add_argument("tuple")
    q.set_defaults(func=cmd_product)
    q = with_json(ops.add_parser("lengthset"))
    q.add_argument("family")
    q.add_argument("tuple")
    q.set_defaults(func=cmd_product)
    q = with_json(ops.add_parser("system"))
    q.add_argument("family")
    q.add_argument("--nonzero", action="store_true")
    q.set_defaults(func=cmd_product)
    q = with_json(ops.add_parser("unionk"))
    q.add_argument("family")
    q.add_argument("k", type=int)
    q.set_defaults(func=cmd_product)
    q = with_json(ops.add_parser("materialize"))
    q.add_argument("family")
    q.add_argument("--cap", type=int, default=60)
    q.set_defaults(func=cmd_product)

    p = sub.add_parser("limits", help="limit and colimit constructions")
    ops = p.add_subparsers(dest="operation", required=True)
    for name in ("terminal", "initial"):
        q = with_json(ops.add_parser(name))
        q.set_defaults(func=cmd_limits)
    for name in ("equalizer", "pullback", "coequalizer", "pushout-present"):
        q = with_json(ops.add_parser(name))
        q.add_argument("f")
        q.add_argument("g")
        q.set_defaults(func=cmd_limits)
    q = with_json(ops.add_parser("pushout-eq"))
    q.add_argument("f")
    q.add_argument("g")
    q.add_argument("word1")
    q.add_argument("word2")
    q.add_argument("--depth", type=int, default=4)
    q.set_defaults(func=cmd_limits)

    p = with_json(sub.add_parser("verify", help="run formula-versus-oracle suites"))
    p.add_argument("--suite", default=None, help="suite name; omit or use --all for every suite")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="search budget for bounded oracles")
    p.add_argument("--timings", action="store_true", help="include wall times (non-deterministic)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AtomonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
