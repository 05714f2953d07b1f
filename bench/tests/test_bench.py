"""Tests of the benchmark itself: its input builders, its answer checks and
its span arithmetic. They use small inputs and no timing."""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest

import atomon.cli  # noqa: F401  (loads every module the tracer rebinds)
import atomon.serialize  # noqa: F401
import builders
import jobs
import run
import spans
from atomon.coproduct import Family, reduce
from atomon.core import atoms, new_monoid, units
from atomon.errors import NonAssociativeError
from atomon.lengths import LengthSystem, eps_finite, length_system


def test_stated_sizes():
    assert len(builders.full_transformation(4)[0]) == 256
    assert len(builders.numerical_semigroup(11, 400)[0]) == 346
    assert len(builders.monogenic(180)[0]) == 180
    assert len(builders.nonassociative(254, True, random.Random(0))[0]) == 256


@pytest.mark.parametrize(
    "raw",
    [builders.full_transformation(3), builders.numerical_semigroup(5, 40), builders.monogenic(12)],
    ids=["T_3", "<5,6>@40", "monogenic12"],
)
def test_builders_give_valid_monoids_invariant_under_relabelling(raw):
    m = new_monoid(*raw)
    copy, sigma = builders.relabel(raw, random.Random(7))
    c = new_monoid(*copy)
    assert sorted(sigma) == list(range(m.size))
    assert sorted(c.names[x] for x in atoms(c)) == sorted(m.names[x] for x in atoms(m))
    assert len(units(c)) == len(units(m))
    assert length_system(c).entries == length_system(m).entries


def test_transformation_monoid_units_are_the_permutations():
    assert len(units(new_monoid(*builders.full_transformation(3)))) == 6


@pytest.mark.parametrize("late, triple", [(True, (30, 30, 30)), (False, (1, 1, 1))])
def test_nonassociative_tables_fail_where_stated(late, triple):
    with pytest.raises(NonAssociativeError) as info:
        new_monoid(*builders.nonassociative(30, late, random.Random(3)))
    assert info.value.triple == triple


def test_inflated_words_reduce_to_the_drawn_word():
    rng = random.Random(5)
    _, members = builders.family(("one", "m31", "c2"), rng)
    fam = Family([new_monoid(*raw) for raw in members])
    for _ in range(20):
        word = builders.random_reduced_word(members, 30, rng)
        assert [tuple(lt) for lt in reduce(fam, builders.inflate(members, word, rng)).letters] == word


@pytest.fixture
def product_jobs(tmp_path):
    job_list = {job.name: job for job in jobs.free_products_setup(4, tmp_path)}
    ctx: dict = {}
    for name in ("load:family", "load:product", "words:reduce"):
        job_list[name].run(ctx)
    return job_list, ctx, jobs.load_reference()["free-products"]


def test_reference_accepts_the_right_answers(product_jobs):
    job_list, ctx, reference = product_jobs
    for name in ("ap_system", "ap_union_k", "words:length_set", "words:mul", "eps_pairs"):
        assert jobs.mismatch(job_list[name], job_list[name].run(ctx), reference) is None, name


def test_perturbed_answers_are_caught(product_jobs):
    job_list, ctx, reference = product_jobs
    system = job_list["ap_system"].run(ctx)
    fewer = LengthSystem(frozenset(sorted(system.entries, key=lambda e: e.sort_key())[1:]))
    assert jobs.mismatch(job_list["ap_system"], fewer, reference)

    unions = job_list["ap_union_k"].run(ctx)
    assert jobs.mismatch(job_list["ap_union_k"], unions[:-1] + [eps_finite({1})], reference)

    lengths = job_list["words:length_set"].run(ctx)
    assert jobs.mismatch(job_list["words:length_set"], [eps_finite({0})] + lengths[1:], reference)

    pairs = job_list["eps_pairs"].run(ctx)
    (a, b), (total, union, inter) = pairs[0]
    assert jobs.mismatch(job_list["eps_pairs"], [((a, b), (union, total, inter))] + pairs[1:], reference)


def test_a_rejection_that_returns_is_a_mismatch(tmp_path):
    late = next(job for job in jobs.tables_setup(0, tmp_path) if job.name == "reject:late")
    assert jobs.mismatch(late, object(), {}) == "returned instead of raising NonAssociativeError"


def test_verify_report_problems_are_failures():
    suites = jobs.load_reference()["desk-verify"]["suites"]
    clean = [{"suite": s, "cases": 1, "mismatches": []} for s in suites]
    assert jobs.verify_failures(0, json.dumps(clean)) == (clean, [])
    broken = [dict(r, mismatches=["x"]) if r["suite"] == suites[0] else r for r in clean[:-1]]
    _, failures = jobs.verify_failures(1, json.dumps(broken))
    assert [f.split(":")[0] for f in failures] == [suites[0], suites[-1]]
    assert len(jobs.verify_failures(1, "Traceback ...")[1]) == len(suites)


def test_scaling_divides_out_the_calibration_loop():
    # a job that took 1.5 s while the loop ran at twice its reference time
    # would have taken 0.75 s on the reference host
    slow = 2 * run.CAL_REF_S
    assert run.scaled(1.5, slow, slow) == pytest.approx(0.75)
    assert run.scaled(1.0, run.CAL_REF_S, run.CAL_REF_S) == pytest.approx(1.0)
    assert run.calibrate() > 0


def test_self_times_sum_to_root_span_time_on_a_nested_trace():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    root = tracer.open("a")  # t=0
    child = tracer.open("b")  # t=1
    grandchild = tracer.open("c")  # t=2
    tracer.close(grandchild)  # t=3
    tracer.close(child)  # t=4
    sibling = tracer.open("c")  # t=5
    tracer.close(sibling)  # t=6
    tracer.close(root)  # t=7
    recorded = tracer.reset()
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 1.0]
    assert sum(spans.self_times(recorded)) == recorded[root][2] - recorded[root][1]
    summary = spans.summarize(recorded)
    assert summary["c.self_s"] == 2.0 and summary["c.calls"] == 2
    assert summary["trace.root_s"] == 7.0


def test_installed_tracer_nests_layers_and_restores_the_program():
    import atomon.coproduct as coproduct
    import atomon.lengths as lengths

    original = coproduct.eps_sum_many
    fam = Family([new_monoid(*builders.ONE), new_monoid(*builders.C2)])
    tracer = spans.Tracer()
    with tracer.installed():
        assert coproduct.eps_sum_many is lengths.eps_sum_many is not original
        coproduct.fp_union_k(fam, 3)
    assert coproduct.eps_sum_many is original
    recorded = tracer.reset()
    names = {span[0] for span in recorded}
    assert {"coproduct.fp_union_k", "lengths.eps_sum_many", "lengths.eps_minkowski_sum"} <= names
    roots = [span for span in recorded if span[3] < 0]
    assert [span[0] for span in roots] == ["coproduct.fp_union_k"]
    assert sum(spans.self_times(recorded)) == pytest.approx(roots[0][2] - roots[0][1])
