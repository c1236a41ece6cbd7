"""Tests of the benchmark's own parts: the generator, the percentile rule,
the references and the metric list.  Run with

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from math import factorial, gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import refs  # noqa: E402
import stats  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def test_generator_is_byte_deterministic():
    for workload in gen.WORKLOADS:
        first = json.dumps(gen.generate(workload, 7), sort_keys=True)
        assert json.dumps(gen.generate(workload, 7), sort_keys=True) == first


def test_other_seed_gives_other_documents():
    for workload in gen.WORKLOADS:
        docs_7 = [job["docs"] for job in gen.generate(workload, 7)]
        docs_8 = [job["docs"] for job in gen.generate(workload, 8)]
        assert docs_7 != docs_8


def test_job_mix_does_not_depend_on_seed():
    for workload in gen.WORKLOADS:
        families = [sorted(job["family"] for job in gen.generate(workload, s)) for s in (1, 2)]
        assert families[0] == families[1]


def test_p90_needs_ten_samples_beyond_it():
    assert stats.tail(list(range(100))) == 89  # 90 .. 99 lie beyond
    assert stats.tail(list(range(99))) is None  # only 9 beyond
    assert stats.tail([5.0] * 200) is None  # ties: nothing lies beyond
    assert stats.tail([]) is None


def test_p50():
    assert stats.p50([3, 1, 2]) == 2
    assert stats.p50([1, 2, 3, 4]) == 2.5


def test_speed_factors_use_the_local_median():
    ref = stats.REFERENCE_S
    assert stats.speed_factors([ref] * 5) == [1.0] * 5
    slow = [ref] * 10 + [2 * ref] * 10
    factors = stats.speed_factors(slow)
    assert factors[0] == 1.0 and factors[-1] == 0.5
    # one outlying loop time does not move its neighbours' factor
    assert stats.speed_factors([ref] * 4 + [9 * ref] + [ref] * 4)[4] == 1.0


def test_euler_phi():
    assert [refs.euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_abelian_invariants_of_cyclic_products():
    assert refs.abelian_invariants_of_cyclic_product([2, 4]) == [2, 4]
    assert refs.abelian_invariants_of_cyclic_product([2, 3]) == [6]
    assert refs.abelian_invariants_of_cyclic_product([4, 6]) == [2, 12]
    assert refs.abelian_invariants_of_cyclic_product([2, 2, 2]) == [2, 2, 2]
    assert refs.abelian_invariants_of_cyclic_product([1]) == []


def test_normal_word_counts():
    assert refs.group_algebra_word_counts(4, 4) == [1, 3, 0, 0, 0]
    # dual numbers: the Manin end is free on one generator
    assert refs.truncated_poly_word_counts(2, 4) == [1, 1, 1, 1, 1]
    assert refs.truncated_poly_word_counts(3, 3) == [1, 2, 2, 2]


def test_generated_references_use_gcd_and_factorial():
    for job in gen.generate("sets", 3):
        if job["family"] == "homs_cyclic":
            a, b = (json.loads(d)["size"] for d in job["docs"])
            assert job["expect"]["count"] == gcd(a, b)
    orders = {job["family"]: job["expect"]["order"] for job in gen.generate("groups", 3)}
    assert orders["coxeter_S4"] == factorial(4) == 24
    assert orders["coxeter_S6"] == 720


def test_evaluate_in_a_group_algebra():
    z2 = [[0, 1], [1, 0]]
    mul = lambda a, b: z2[a][b]  # noqa: E731
    assert refs.evaluate([((1, 1), 1), ((), -1)], [0, 1], mul, 0) == {}
    assert refs.evaluate([((1,), 2)], [0, 1], mul, 0) == {1: 2}


def test_lio_of_category():
    cat = gen.chain_category(3)
    assert refs.lio_of_category(cat) == [0, 1, 2]
    cat["morphisms"].append({"dom": 0, "cod": 1})
    assert refs.lio_of_category(cat) == [1, 2]


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    emitted = list(layer_metrics(Tracer(), 1.0, set(), 1)) + ["trace_overhead"]
    assert [m["name"] for m in spec["per_layer"]] == emitted
