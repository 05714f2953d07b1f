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

from .coproduct import Family, Letter, ReducedWord, _check_family, _check_word, reduce
from .core import FiniteMonoid, MonoidHom, _check_monoid, new_hom, new_monoid
from .errors import ParseError, ValidationError
from .lengths import EPSet


def monoid_to_json(m: FiniteMonoid) -> dict:
    _check_monoid(m)
    return {
        "names": list(m.names),
        "identity": m.identity,
        "table": [list(row) for row in m.table],
    }


def _json_list(data: dict, key: str, what: str) -> list:
    """data[key], if it is a JSON list; else ParseError naming the field."""
    value = data[key]
    if type(value) is not list:
        raise ParseError(f"malformed {what}: {key!r} must be a list, not {type(value).__name__}")
    return value


def monoid_from_json(data: dict) -> FiniteMonoid:
    try:
        names, table = _json_list(data, "names", "monoid object"), _json_list(data, "table", "monoid object")
        return new_monoid(names, table, data["identity"])
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
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except ValueError as exc:  # a JSONDecodeError, or an int literal of more digits than int() reads
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise ParseError(f"invalid JSON in {path}: nested too deeply") from None


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
        members = [load_monoid(base / member) for member in _json_list(data, "members", f"family file {path}")]
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
        head, tail = _json_list(data, "head", "EPSet object"), _json_list(data, "tail", "EPSet object")
        return EPSet(data["threshold"], head, data["period"], tail)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed EPSet object: {exc}") from None
    except ValidationError as exc:
        raise ParseError(str(exc)) from None


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


def parse_element(m: FiniteMonoid, name: str) -> int:
    """The index of the element of m with the given name."""
    _check_monoid(m)
    try:
        return m.names.index(name)
    except ValueError:
        raise ParseError(f"no element named {name!r}") from None


# a member index has at most nine digits: int() refuses a string of over 4300
_LETTER_RE = re.compile(r"^\((?P<name>.+)@(?P<mon>[0-9]{1,9})\)$")


def word_to_text(family: Family, w: ReducedWord) -> str:
    letters = _check_word(family, w)
    if not letters:
        return "eps"
    return "*".join(f"({family.members[i].names[x]}@{i})" for i, x in letters)


def parse_word(family: Family, text: str) -> ReducedWord:
    """Parse a word literal and reduce it."""
    _check_family(family)
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
        letters.append(Letter(mon, parse_element(family.members[mon], match.group("name"))))
    return reduce(family, letters)


def parse_tuple(family: Family, text: str) -> tuple[int, ...]:
    _check_family(family)
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"bad tuple {text!r}; expected (name1,name2,...)")
    parts = text[1:-1].split(",")
    if len(parts) != len(family.members):
        raise ParseError(f"tuple must have {len(family.members)} components")
    return tuple(parse_element(member, part.strip()) for member, part in zip(family.members, parts))
