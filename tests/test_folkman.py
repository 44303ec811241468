import random

import pytest

from prlab.core import Coloring, FiniteSet, parse_matrix
from prlab.folkman import folkman_matrix, fs, weakly_monochromatic
from prlab.rado import columns_condition


# -- subset sums ------------------------------------------------------------

def test_fs_powers_of_two_fill_an_interval():
    assert fs(FiniteSet((1, 2, 4))) == FiniteSet(range(1, 8))


def test_fs_singleton():
    assert fs(FiniteSet((7,))) == FiniteSet((7,))


def test_fs_collapses_duplicate_sums():
    # 1+4 = 2+3, 1+2+3 = 2+4, ...
    assert fs(FiniteSet((1, 2, 3, 4))) == FiniteSet(range(1, 11))


def test_fs_range_and_size_bounds():
    rng = random.Random(4)
    for _ in range(50):
        S = FiniteSet(rng.sample(range(1, 200), rng.randint(1, 8)))
        F = fs(S)
        assert F.min() >= S.min()
        assert F.max() == S.total()
        assert len(F) <= 2 ** len(S) - 1


def test_fs_size_cap():
    with pytest.raises(ValueError):
        fs(FiniteSet(range(1, 26)))


# -- weak monochromaticity --------------------------------------------------

def test_constant_coloring_is_weakly_monochromatic():
    S = FiniteSet((1, 2, 4))
    assert weakly_monochromatic(Coloring(1, tuple([1] * 7)), S)


def test_sum_color_follows_largest_summand():
    S = FiniteSet((1, 2))
    assert weakly_monochromatic(Coloring(1, (1, 2, 2)), S)
    assert not weakly_monochromatic(Coloring(1, (1, 2, 1)), S)


def test_weak_mono_requires_covering_domain():
    with pytest.raises(ValueError):
        weakly_monochromatic(Coloring(1, (1, 1)), FiniteSet((1, 2)))
    with pytest.raises(ValueError):
        weakly_monochromatic(Coloring(1, (1, 1)), FiniteSet(()))


def test_monochromatic_sums_imply_weak_monochromaticity():
    rng = random.Random(11)
    for _ in range(60):
        S = FiniteSet(rng.sample(range(1, 40), rng.randint(1, 6)))
        F = fs(S)
        color = rng.randint(1, 3)
        values = [
            color if v in F else rng.randint(1, 3) for v in range(1, F.max() + 1)
        ]
        assert weakly_monochromatic(Coloring(1, tuple(values)), S)


# -- the block matrix -------------------------------------------------------

def test_matrix_for_one_generator():
    assert folkman_matrix(1) == parse_matrix("1 -1")


def test_matrix_for_two_generators():
    want = parse_matrix(
        "1 0 -1 0 0\n"
        "0 1 0 -1 0\n"
        "1 1 0 0 -1"
    )
    assert folkman_matrix(2) == want


def test_matrix_for_three_generators():
    want = parse_matrix(
        "1 0 0 -1 0 0 0 0 0 0\n"
        "0 1 0 0 -1 0 0 0 0 0\n"
        "0 0 1 0 0 -1 0 0 0 0\n"
        "1 1 0 0 0 0 -1 0 0 0\n"
        "1 0 1 0 0 0 0 -1 0 0\n"
        "0 1 1 0 0 0 0 0 -1 0\n"
        "1 1 1 0 0 0 0 0 0 -1"
    )
    assert folkman_matrix(3) == want


def test_matrix_shape():
    for n in range(1, 7):
        M = folkman_matrix(n)
        assert (M.rows, M.cols) == (2**n - 1, n + 2**n - 1)


def test_matrix_bounds():
    with pytest.raises(ValueError):
        folkman_matrix(0)
    with pytest.raises(ValueError):
        folkman_matrix(11)


def test_matrix_kernel_solutions_are_subset_sums():
    """x = (s_1..s_n, all subset sums in row order) lies in the kernel."""
    rng = random.Random(2)
    for n in range(1, 5):
        M = folkman_matrix(n)
        gens = [rng.randint(1, 50) for _ in range(n)]
        from itertools import combinations

        tail = [
            sum(gens[i - 1] for i in sub)
            for size in range(1, n + 1)
            for sub in combinations(range(1, n + 1), size)
        ]
        assert M.apply(gens + tail) == tuple([0] * M.rows)


def test_matrix_satisfies_columns_condition_up_to_four():
    for n in range(1, 5):
        verdict = columns_condition(folkman_matrix(n))
        assert verdict.satisfied, n
