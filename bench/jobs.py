"""The benchmark's workloads: seeded set-up, the job list of one pass, and the
check of every answer.

A job's ``run`` calls into atomon through the module objects in
``sys.modules`` at call time, so the tracer's rebinding reaches it. Checks
convert raw results into canonical JSON after the timed pass and compare
them with ``reference.json`` (answers that the seed cannot change) or with an
oracle written here (answers the seed draws).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import builders

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Sizes of every scaled input. A later change to any of them is a change to
# the benchmark, not to the program.
SIZES = {
    "tables": {
        "T_n": 4,
        "numerical": {"k": 11, "cap": 400},
        "reject_late_base": 254,
        "reject_early_base": 254,
        "congruence_monogenic": 180,
        "congruence_pairs": {"many": [2, 4], "few": [90, 91]},
        "homs_monogenic": 7,
    },
    "free-products": {
        "family": ["one", "m31", "c2"],
        "union_k": 7,
        "system_blocks": 4,
        "product_family": ["one", "m31", "h2"],
        "product_union_k": 12,
        "sum_periods": [97, 89],
        "epset_pairs": 16,
        "epset_pair_max": {"threshold": 30, "period": 24},
        "word_letters": 400,
    },
    "desk-verify": {"suites": 15},
}

# Fixed EPSets with periods 97 and 89 for the large Minkowski sum.
BIG_A = {"threshold": 13, "head": [0, 4, 9], "period": 97, "tail": [0, 5, 33, 60]}
BIG_B = {"threshold": 7, "head": [2, 3], "period": 89, "tail": [1, 44, 70]}


def mod(name: str):
    return sys.modules[f"atomon.{name}"]


@dataclass
class Job:
    """One call sequence of a pass. Exactly one of the three ways to judge
    it is set: a canonical form whose digest must match the reference, an
    oracle check, or the name of the typed AtomonError it must raise."""

    name: str
    run: Callable[[dict], Any]
    canonical: Callable[[Any], Any] | None = None
    # raw result -> None when right, or a one-line description of the mismatch
    check: Callable[[Any], str | None] | None = None
    expect: str | None = None


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def mismatch(job: Job, raw, reference: dict) -> str | None:
    """Why a job's returned result is wrong, or None."""
    if job.expect is not None:
        return f"returned instead of raising {job.expect}"
    if job.canonical is not None:
        got, want = digest(job.canonical(raw)), reference.get(job.name)
        return None if got == want else f"digest {got} != reference {want}"
    return job.check(raw)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def eps_json(e) -> list:
    return [e.threshold, sorted(e.head), e.period, sorted(e.tail)]


def system_json(s) -> list:
    return sorted(eps_json(e) for e in s.entries)


def names_of(m, elements) -> list[str]:
    return sorted(m.names[x] for x in elements)


def write_monoid(path: Path, raw) -> None:
    names, table, identity = raw
    path.write_text(json.dumps({"names": names, "table": table, "identity": identity}))


# ---------------------------------------------------------------------------
# tables


def analyze(m) -> dict:
    core, lengths = mod("core"), mod("lengths")
    return {
        "monoid": m,
        "units": core.units(m),
        "atoms": core.atoms(m),
        "properties": {p: core.check_property(m, p) for p in core.PROPERTIES},
        "layers": lengths.power_layers(m),
        "system": lengths.length_system(m),
    }


def analysis_json(result) -> dict:
    m, layers = result["monoid"], result["layers"]
    return {
        "size": m.size,
        "units": names_of(m, result["units"]),
        "atoms": names_of(m, result["atoms"]),
        "properties": result["properties"],
        "layers": [layers.preperiod, layers.period, [names_of(m, s) for s in layers.layers]],
        "length_system": system_json(result["system"]),
    }


def congruence_json(result) -> dict:
    cong, (q, proj) = result
    return {
        "class_sizes": sorted(len(c) for c in cong.classes()),
        "quotient_size": q.size,
        "projection_classes": len(set(proj.map)),
    }


def homs_json(result) -> list:
    return sorted(
        sorted((h.source.names[x], h.target.names[h.map[x]]) for x in range(h.source.size))
        for h in result
    )


def tables_setup(seed: int, workdir: Path) -> list[Job]:
    size = SIZES["tables"]
    rng = random.Random(seed)
    t4, _ = builders.relabel(builders.full_transformation(size["T_n"]), rng)
    ns, _ = builders.relabel(builders.numerical_semigroup(**size["numerical"]), rng)
    write_monoid(workdir / "t4.json", t4)
    write_monoid(workdir / "numerical.json", ns)
    late = builders.nonassociative(size["reject_late_base"], True, rng)
    early = builders.nonassociative(size["reject_early_base"], False, rng)
    mono, sigma = builders.relabel(builders.monogenic(size["congruence_monogenic"]), rng)
    pairs = {label: (sigma[x], sigma[y]) for label, (x, y) in size["congruence_pairs"].items()}
    hom_source, _ = builders.relabel(builders.monogenic(size["homs_monogenic"]), rng)
    hom_target, _ = builders.relabel(builders.monogenic(size["homs_monogenic"]), rng)

    def load(key, path):
        def run(ctx):
            ctx[key] = mod("serialize").load_monoid(path)
            return ctx[key]

        return run

    def build(ctx):
        ctx["monogenic"] = mod("core").new_monoid(*mono)
        return ctx["monogenic"]

    def congruence(label):
        def run(ctx):
            m = ctx["monogenic"]
            cong = mod("limits").congruence_closure(m, [pairs[label]])
            return cong, mod("limits").quotient(m, cong)

        return run

    def homs(ctx):
        core = mod("core")
        return tuple(core.enumerate_homs(core.new_monoid(*hom_source), core.new_monoid(*hom_target)))

    size_of = lambda m: m.size
    return [
        Job("load:T4", load("T4", workdir / "t4.json"), size_of),
        Job("analyze:T4", lambda ctx: analyze(ctx["T4"]), analysis_json),
        Job("load:numerical", load("ns", workdir / "numerical.json"), size_of),
        Job("analyze:numerical", lambda ctx: analyze(ctx["ns"]), analysis_json),
        Job("reject:late", lambda ctx: mod("core").new_monoid(*late), expect="NonAssociativeError"),
        Job("reject:early", lambda ctx: mod("core").new_monoid(*early), expect="NonAssociativeError"),
        Job("build:monogenic", build, size_of),
        Job("congruence:many", congruence("many"), congruence_json),
        Job("congruence:few", congruence("few"), congruence_json),
        Job("homs:monogenic", homs, homs_json),
    ]


# ---------------------------------------------------------------------------
# free-products


def write_family(workdir: Path, label: str, members) -> Path:
    files = []
    for i, raw in enumerate(members):
        write_monoid(workdir / f"{label}{i}.json", raw)
        files.append(f"{label}{i}.json")
    path = workdir / f"{label}.json"
    path.write_text(json.dumps({"members": files}))
    return path


def eps_expected(order, members, word) -> list:
    """Length set of a reduced word over (one, m31, c2), in closed form: the
    least length is the sum of each non-unit letter's least length, and every
    longer length occurs too iff some letter has an unbounded length set."""
    least, unbounded = 0, False
    for i, x in word:
        key = (order[i], members[i][0][x])
        if key[0] == "c2":
            continue
        n, tail = builders.LETTER_LENGTHS[key]
        least += n
        unbounded = unbounded or tail
    if unbounded:
        return [least, [], 1, [0]]
    return [least + 1, [least], 1, []]


def joined(members, x, y) -> list:
    """The reduced product of two reduced words: merge across the junction."""
    x, y = list(x), list(y)
    while x and y and x[-1][0] == y[0][0]:
        i = x[-1][0]
        _, table, identity = members[i]
        merged = table[x.pop()[1]][y.pop(0)[1]]
        if merged != identity:
            x.append((i, merged))
            break
    return x + y


def window_members(e, bound: int) -> set[int]:
    return {n for n in range(bound) if n in e}


def pair_mismatch(pair, results) -> str | None:
    """Compare the sum, union and intersection of two EPSets with direct
    computation on a window past both thresholds and two common periods."""
    a, b = pair
    bound = 2 * (a.threshold + b.threshold + 2 * math.lcm(a.period, b.period)) + results[0].threshold + results[0].period
    ma, mb = window_members(a, bound), window_members(b, bound)
    mask_b = sum(1 << n for n in mb)
    sums = 0
    for x in ma:
        sums |= mask_b << x
    expected = ({n for n in range(bound) if sums >> n & 1}, ma | mb, ma & mb)
    for label, got, want in zip(("sum", "union", "intersect"), results, expected):
        if window_members(got, bound) != want:
            return f"{label} of {a!r} and {b!r} is wrong below {bound}"
    return None


def free_products_setup(seed: int, workdir: Path) -> list[Job]:
    size = SIZES["free-products"]
    rng = random.Random(seed)
    order, members = builders.family(size["family"], rng)
    family_path = write_family(workdir, "family", members)
    _, product_members = builders.family(size["product_family"], rng)
    product_path = write_family(workdir, "product", product_members)
    words = [builders.random_reduced_word(members, size["word_letters"], rng) for _ in range(2)]
    inflated = [builders.inflate(members, w, rng) for w in words]
    pair_data = [
        tuple(builders.random_epset(rng, **size["epset_pair_max"]) for _ in range(2))
        for _ in range(size["epset_pairs"])
    ]
    eps_from = lambda data: mod("serialize").eps_from_json(data)

    def load(key, path):
        def run(ctx):
            ctx[key] = mod("serialize").load_family(path)
            return ctx[key]

        return run

    def eps_pairs(ctx):
        lengths = mod("lengths")
        out = []
        for data_a, data_b in pair_data:
            a, b = eps_from(data_a), eps_from(data_b)
            out.append(((a, b), (lengths.eps_minkowski_sum(a, b), lengths.eps_union(a, b), lengths.eps_intersect(a, b))))
        return out

    def check_pairs(raw):
        for pair, results in raw:
            problem = pair_mismatch(pair, results)
            if problem:
                return problem
        return None

    def reduce_words(ctx):
        ctx["words"] = [mod("coproduct").reduce(ctx["family"], w) for w in inflated]
        return ctx["words"]

    def check_reduce(raw):
        got = [[tuple(lt) for lt in w.letters] for w in raw]
        return None if got == [[tuple(lt) for lt in w] for w in words] else "reduced form differs from the drawn word"

    def check_lengths(raw):
        want = [eps_expected(order, members, w) for w in words]
        return None if [eps_json(e) for e in raw] == want else "length set differs from the closed form"

    def check_mul(raw):
        want = joined(members, words[0], words[1])
        return None if [tuple(lt) for lt in raw.letters] == want else "product differs from the junction merge"

    union_k, blocks, product_k = size["union_k"], size["system_blocks"], size["product_union_k"]
    coproduct, product = (lambda: mod("coproduct")), (lambda: mod("product"))
    eps_list = lambda r: [eps_json(e) for e in r]
    return [
        Job("load:family", load("family", family_path), len),
        Job("fp_union_k", lambda ctx: [coproduct().fp_union_k(ctx["family"], k) for k in range(1, union_k + 1)], eps_list),
        Job("fp_system", lambda ctx: coproduct().fp_length_system_bounded(ctx["family"], blocks), system_json),
        Job("load:product", load("product", product_path), len),
        Job("ap_system", lambda ctx: product().ap_length_system(ctx["product"]), system_json),
        Job("ap_union_k", lambda ctx: [product().ap_union_k(ctx["product"], k) for k in range(product_k + 1)], eps_list),
        Job("eps_sum:97x89", lambda ctx: mod("lengths").eps_minkowski_sum(eps_from(BIG_A), eps_from(BIG_B)), eps_json),
        Job("eps_pairs", eps_pairs, check=check_pairs),
        Job("words:reduce", reduce_words, check=check_reduce),
        Job("words:length_set", lambda ctx: [coproduct().fp_length_set(ctx["family"], w) for w in ctx["words"]], check=check_lengths),
        Job("words:mul", lambda ctx: coproduct().fp_mul(ctx["family"], *ctx["words"]), check=check_mul),
    ]


# ---------------------------------------------------------------------------
# desk-verify


def verify_command(seed: int, summary: Path | None) -> list[str]:
    """``atomon verify --all --json --timings`` in a child interpreter; with a
    summary path, under the tracer, which writes its per-layer totals there."""
    head = [sys.executable, "-m", "atomon.cli"]
    if summary is not None:
        head = [sys.executable, str(HERE / "traced_cli.py"), str(summary)]
    return head + ["verify", "--all", "--json", "--timings", "--seed", str(seed)]


def run_verify(seed: int, root: Path, summary: Path | None = None) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        verify_command(seed, summary), capture_output=True, text=True, env=env, cwd=root, timeout=150
    )
    return proc.returncode, proc.stdout


def verify_failures(code: int, stdout: str) -> tuple[list[dict], list[str]]:
    """Suite reports and one failure line per suite that is missing, reports a
    mismatch, or could not be read."""
    suites = load_reference()["desk-verify"]["suites"]
    try:
        reports = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return [], [f"{s}: no readable report (exit {code})" for s in suites]
    by_name = {r.get("suite"): r for r in reports}
    failures = []
    for s in suites:
        r = by_name.get(s)
        if r is None:
            failures.append(f"{s}: missing from the report")
        elif r["mismatches"]:
            failures.append(f"{s}: {len(r['mismatches'])} mismatch(es), first: {r['mismatches'][0]}")
    if code != 0 and not failures:
        failures.append(f"exit code {code} with every suite clean")
    return reports, failures


SETUPS = {"tables": tables_setup, "free-products": free_products_setup}
