"""Command-line front end. JSON files in, human-readable or JSON out.

Each leaf command is bound to one handler by ``set_defaults(func=...)``. A
handler takes the parsed arguments and returns ``(data, lines)`` or
``(data, lines, status)``; ``main`` alone prints, ``data`` as JSON under
``--json`` and the text ``lines`` otherwise, and returns the status (0 when
the handler gives none, 1 on an ``AtomonError`` or when stdout is a closed
pipe). The verification layers (``verify``, ``oracles`` and ``fixtures``) load
on demand, in the handlers that run them, so every other command starts
without compiling them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coproduct import (
    fp_is_atom,
    fp_is_unit,
    fp_length_set,
    fp_length_system_bounded,
    fp_mul,
    fp_union_k,
    reduce as reduce_word,
)
from .core import PROPERTIES, atoms, check_property, classify, initial, terminal, units
from .errors import AtomonError
from .lengths import length_set, length_system, union_k
from .limits import (
    coequalizer,
    equalizer,
    pullback,
    pushout_eq_bounded,
    pushout_presentation,
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
    parse_element,
    parse_tuple,
    parse_word,
    word_to_text,
)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _eps_result(key: str, eps, **data) -> tuple[dict, list[str]]:
    """One EPSet under ``key`` beside ``data``; its text form is the one line."""
    return {**data, key: eps_to_json(eps)}, [eps_to_text(eps)]


def _system(system) -> tuple[list[dict], str]:
    """A length system as a JSON list of entries and as one line of text."""
    text = "; ".join(eps_to_text(entry) for entry in system) or "(empty)"
    if system.truncated_at is not None:
        text += f"  [truncated at {system.truncated_at} blocks]"
    return [eps_to_json(entry) for entry in system], text


def _checked(data: dict, ls, bound: int | None, oracle: str, *args):
    """A length set, cross-checked on [0, bound] against the function named
    ``oracle`` of ``oracles``, called as ``oracle(*args, bound)``, when a bound
    is given; a mismatch gives exit status 1. Only then is ``oracles``
    imported. The oracle runs first: its search budget stops a bound too
    large to search before the length set is listed up to it."""
    data, lines = _eps_result("length_set", ls, **data)
    if bound is None:
        return data, lines
    from . import oracles

    expected = getattr(oracles, oracle)(*args, bound)
    agrees = set(ls.members_upto(bound)) == expected
    data.update(oracle_bound=bound, oracle_agrees=agrees)
    lines.append(f"oracle on [0,{bound}]: {'agrees' if agrees else 'MISMATCH'}")
    return data, lines, 0 if agrees else 1


def _construction(label: str, monoid, **homs) -> tuple[dict, list[str]]:
    data = {"monoid": monoid_to_json(monoid)}
    data.update({name: list(mp) for name, mp in homs.items()})
    lines = [f"{label}: {monoid.size} elements"]
    lines.append("monoid: " + json.dumps(data["monoid"], sort_keys=True))
    lines += [f"{name}: {list(mp)}" for name, mp in homs.items()]
    return data, lines


def cmd_validate(args):
    m = load_monoid(args.monoid)
    data = {"valid": True, "size": m.size, "identity": m.identity}
    return data, [f"valid monoid with {m.size} elements, identity {m.names[m.identity]!r}"]


def cmd_analyze(args):
    m = load_monoid(args.monoid)
    props = {p: check_property(m, p) for p in PROPERTIES}
    classes = [classify(m, x).value for x in range(m.size)]
    unit_names = sorted(m.names[u] for u in units(m))
    atom_names = sorted(m.names[a] for a in atoms(m))
    entries, system_text = _system(length_system(m))
    data = {
        "size": m.size,
        "identity": m.identity,
        "elements": [{"index": x, "name": m.names[x], "class": c} for x, c in enumerate(classes)],
        "units": unit_names,
        "atoms": atom_names,
        "properties": props,
        "length_system": entries,
    }
    lines = [f"monoid: {m.size} elements, identity {m.names[m.identity]!r}"]
    lines += [f"  {x}: {m.names[x]} [{c}]" for x, c in enumerate(classes)]
    lines.append("units: " + (", ".join(unit_names) or "(none)"))
    lines.append("atoms: " + (", ".join(atom_names) or "(none)"))
    lines.append("properties: " + " ".join(f"{p}={_yes(v)}" for p, v in props.items()))
    lines.append("length system: " + system_text)
    return data, lines


def cmd_lengthset(args):
    m = load_monoid(args.monoid)
    x = parse_element(m, args.element)
    return _checked({"element": args.element}, length_set(m, x), args.bound, "brute_force_lengths", m, x)


def cmd_unions(args):
    return _eps_result("union", union_k(load_monoid(args.monoid), args.k), k=args.k)


def cmd_fp_reduce(args):
    fam = load_family(args.family)
    text = word_to_text(fam, parse_word(fam, args.word))
    return {"reduced": text}, [text]


def cmd_fp_mul(args):
    fam = load_family(args.family)
    text = word_to_text(fam, fp_mul(fam, parse_word(fam, args.word), parse_word(fam, args.word2)))
    return {"product": text}, [text]


def cmd_fp_atom(args):
    fam = load_family(args.family)
    w = parse_word(fam, args.word)
    is_atom, is_unit = fp_is_atom(fam, w), fp_is_unit(fam, w)
    data = {"word": word_to_text(fam, w), "atom": is_atom, "unit": is_unit}
    return data, [f"atom: {_yes(is_atom)}; unit: {_yes(is_unit)}"]


def cmd_fp_lengthset(args):
    fam = load_family(args.family)
    w = parse_word(fam, args.word)
    data = {"word": word_to_text(fam, w)}
    return _checked(data, fp_length_set(fam, w), args.bound, "fp_brute_force_lengths", fam, w)


def cmd_fp_unionk(args):
    return _eps_result("union", fp_union_k(load_family(args.family), args.k), k=args.k)


def cmd_fp_system(args):
    system = fp_length_system_bounded(load_family(args.family), args.max_blocks)
    entries, text = _system(system)
    return {"truncated_at": system.truncated_at, "entries": entries}, [text]


def cmd_ap_contains(args):
    fam = load_family(args.family)
    inside = ap_contains(fam, parse_tuple(fam, args.tuple))
    return {"contains": inside}, [_yes(inside)]


def cmd_ap_lengthset(args):
    fam = load_family(args.family)
    return _eps_result("length_set", ap_length_set(fam, parse_tuple(fam, args.tuple)))


def cmd_ap_system(args):
    entries, text = _system(ap_length_system(load_family(args.family), args.nonzero))
    return {"entries": entries}, [text]


def cmd_ap_unionk(args):
    return _eps_result("union", ap_union_k(load_family(args.family), args.k), k=args.k)


def cmd_ap_materialize(args):
    mat, _ = ap_materialize(load_family(args.family), args.cap)
    lines = [f"materialized product with {mat.size} elements"]
    return monoid_to_json(mat), lines + [f"  {i}: {name}" for i, name in enumerate(mat.names)]


def cmd_terminal(args):
    return _construction("terminal", terminal())


def cmd_initial(args):
    return _construction("initial", initial())


def cmd_equalizer(args):
    e_monoid, e = equalizer(load_hom(args.f), load_hom(args.g))
    return _construction("equalizer", e_monoid, inclusion=e.map)


def cmd_pullback(args):
    p, p1, p2 = pullback(load_hom(args.f), load_hom(args.g))
    return _construction("pullback", p, p1=p1.map, p2=p2.map)


def cmd_coequalizer(args):
    q_monoid, q = coequalizer(load_hom(args.f), load_hom(args.g))
    return _construction("coequalizer", q_monoid, projection=q.map)


def cmd_pushout_present(args):
    pres = pushout_presentation(load_hom(args.f), load_hom(args.g))
    fam = pres.family
    pairs = [[word_to_text(fam, reduce_word(fam, w)) for w in pair] for pair in pres.relation_pairs]
    data = {"members": [monoid_to_json(m) for m in fam.members], "relations": pairs}
    lines = [f"pushout presentation over {len(fam.members)} members"]
    return data, lines + [f"  {lhs} = {rhs}" for lhs, rhs in pairs]


def cmd_pushout_eq(args):
    pres = pushout_presentation(load_hom(args.f), load_hom(args.g))
    w1 = parse_word(pres.family, args.word1)
    w2 = parse_word(pres.family, args.word2)
    outcome = pushout_eq_bounded(pres, w1, w2, args.depth).value
    return {"result": outcome}, [outcome]


def cmd_verify(args):
    from . import verify as verify_mod

    if args.all or args.suite is None:
        reports = verify_mod.run_all(args.seed, args.budget)
    else:
        reports = [verify_mod.cmd_verify(args.suite, args.seed, args.budget)]
    data = [{"suite": r.suite, "cases": r.cases, "mismatches": r.mismatches} for r in reports]
    if args.timings:
        for entry, r in zip(data, reports):
            entry["wall_time"] = round(r.wall_time, 3)
    lines = [line for r in reports for line in r.lines(timings=args.timings)]
    return data, lines, 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="atomon", description="Exact computations with finite atomic monoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler, *positionals, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        for arg in positionals:
            p.add_argument(arg, type=int if arg in ("k", "max_blocks") else None)
        p.set_defaults(func=handler)
        return p

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="operation", required=True)

    leaf(sub, "validate", cmd_validate, "monoid", help="validate a monoid file")
    leaf(sub, "analyze", cmd_analyze, "monoid", help="units, atoms, predicates, length system")
    p = leaf(sub, "lengthset", cmd_lengthset, "monoid", "element", help="length set of one element")
    p.add_argument("--bound", type=int, default=None, help="cross-check against the oracle up to this length")
    leaf(sub, "unions", cmd_unions, "monoid", "k", help="union of length sets containing k")

    ops = group("coproduct", "free product operations")
    leaf(ops, "reduce", cmd_fp_reduce, "family", "word")
    leaf(ops, "mul", cmd_fp_mul, "family", "word", "word2")
    leaf(ops, "atom", cmd_fp_atom, "family", "word")
    leaf(ops, "lengthset", cmd_fp_lengthset, "family", "word").add_argument("--bound", type=int, default=None)
    leaf(ops, "unionk", cmd_fp_unionk, "family", "k")
    leaf(ops, "system", cmd_fp_system, "family", "max_blocks")

    ops = group("product", "categorical product operations")
    leaf(ops, "contains", cmd_ap_contains, "family", "tuple")
    leaf(ops, "lengthset", cmd_ap_lengthset, "family", "tuple")
    leaf(ops, "system", cmd_ap_system, "family").add_argument("--nonzero", action="store_true")
    leaf(ops, "unionk", cmd_ap_unionk, "family", "k")
    leaf(ops, "materialize", cmd_ap_materialize, "family").add_argument("--cap", type=int, default=60)

    ops = group("limits", "limit and colimit constructions")
    leaf(ops, "terminal", cmd_terminal)
    leaf(ops, "initial", cmd_initial)
    leaf(ops, "equalizer", cmd_equalizer, "f", "g")
    leaf(ops, "pullback", cmd_pullback, "f", "g")
    leaf(ops, "coequalizer", cmd_coequalizer, "f", "g")
    leaf(ops, "pushout-present", cmd_pushout_present, "f", "g")
    p = leaf(ops, "pushout-eq", cmd_pushout_eq, "f", "g", "word1", "word2")
    p.add_argument("--depth", type=int, default=4)

    p = leaf(sub, "verify", cmd_verify, help="run formula-versus-oracle suites")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--suite", default=None, help="suite name; omit or use --all for every suite")
    which.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="search budget for bounded oracles")
    p.add_argument("--timings", action="store_true", help="include wall times (non-deterministic)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data, lines, *status = args.func(args)
    except AtomonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        for line in [json.dumps(data, sort_keys=True)] if args.json else lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`atomon ... | head -1`); stdout now writes to
        # devnull, so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status[0] if status else 0


if __name__ == "__main__":
    sys.exit(main())
