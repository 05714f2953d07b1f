"""Flat-file formats and CLI literals.

Monoid files:  {"names": [...], "identity": i, "table": [[...], ...]}
Hom files:     {"source": "<monoid file>", "target": "<monoid file>", "map": [...]}
Family files:  {"members": ["<monoid file>", ...]}
Word literals: "(name@i)*(name@j)*..." with "eps" for the empty word;
               member indices are 0-based positions in the family file.
Tuple literals: "(name1,name2,...)".
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .coproduct import Family, Letter, ReducedWord, reduce
from .core import FiniteMonoid, MonoidHom, new_hom, new_monoid
from .errors import ParseError, ValidationError
from .lengths import EPSet, _canonical


def monoid_to_json(m: FiniteMonoid) -> dict:
    return {
        "names": list(m.names),
        "identity": m.identity,
        "table": [list(row) for row in m.table],
    }


def monoid_from_json(data: dict) -> FiniteMonoid:
    try:
        return new_monoid(data["names"], data["table"], data["identity"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed monoid object: {exc}") from None


def load_monoid(path: str | Path) -> FiniteMonoid:
    return monoid_from_json(_load_json(path))


def _load_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None


def load_hom(path: str | Path) -> MonoidHom:
    data = _load_json(path)
    base = Path(path).parent
    try:
        source = load_monoid(base / data["source"])
        target = load_monoid(base / data["target"])
        mapping = data["map"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed hom file {path}: {exc}") from None
    return new_hom(source, target, mapping)


def load_family(path: str | Path) -> Family:
    data = _load_json(path)
    base = Path(path).parent
    try:
        members = [load_monoid(base / member) for member in data["members"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed family file {path}: {exc}") from None
    return Family(members)


def eps_to_json(s: EPSet) -> dict:
    return {
        "head": sorted(s.head),
        "threshold": s.threshold,
        "period": s.period,
        "tail": sorted(s.tail),
    }


def eps_from_json(data: dict) -> EPSet:
    try:
        return _canonical(data["threshold"], data["head"], data["period"], data["tail"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed EPSet object: {exc}") from None


def eps_to_text(s: EPSet) -> str:
    """Human-readable form: "{h1,...}" for the finite part and
    "(T + {r1,...} mod p)" for the periodic tail."""
    head_part = "{" + ",".join(str(n) for n in sorted(s.head)) + "}"
    if not s.tail:
        return head_part
    tail_part = f"({s.threshold} + {{{','.join(str(r) for r in sorted(s.tail))}}} mod {s.period})"
    if not s.head:
        return tail_part
    return f"{head_part} ∪ {tail_part}"


_LETTER_RE = re.compile(r"^\((?P<name>.+)@(?P<mon>\d+)\)$")


def word_to_text(family: Family, w: ReducedWord) -> str:
    if not w.letters:
        return "eps"
    return "*".join(f"({family.members[i].names[x]}@{i})" for i, x in w.letters)


def parse_word(family: Family, text: str) -> ReducedWord:
    """Parse a word literal and reduce it."""
    text = text.strip()
    if text == "eps":
        return reduce(family, ())
    letters = []
    for chunk in text.split("*"):
        match = _LETTER_RE.match(chunk.strip())
        if not match:
            raise ParseError(f"bad letter {chunk!r}; expected (name@index) or eps")
        mon = int(match.group("mon"))
        if not 0 <= mon < len(family.members):
            raise ParseError(f"member index {mon} out of range")
        try:
            elem = family.members[mon].elem(match.group("name"))
        except ValidationError as exc:
            raise ParseError(str(exc)) from None
        letters.append(Letter(mon, elem))
    return reduce(family, letters)


def parse_tuple(family: Family, text: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"bad tuple {text!r}; expected (name1,name2,...)")
    parts = text[1:-1].split(",")
    if len(parts) != len(family.members):
        raise ParseError(f"tuple must have {len(family.members)} components")
    out = []
    for member, part in zip(family.members, parts):
        try:
            out.append(member.elem(part.strip()))
        except ValidationError as exc:
            raise ParseError(str(exc)) from None
    return tuple(out)
