"""Core types: blockiness, rectangles, signed sums, rounding."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from blockydecomp.core import (
    BlockyMatrix,
    IntMatrix,
    RealMatrix,
    SignedBlockySum,
    as_int_array,
    convolution_matrix,
    is_blocky,
    round_half_down,
)
from blockydecomp.partition import greedy_l1_decompose
from blockydecomp.pipeline import decompose, exact_block_complexity, term_count_floor


def blocky_by_scan(A) -> bool:
    """Independent oracle: no 2x2 submatrix may have exactly three ones."""
    A = np.asarray(A)
    m, n = A.shape
    for i, j in itertools.combinations(range(m), 2):
        for k, l in itertools.combinations(range(n), 2):
            if A[i, k] + A[i, l] + A[j, k] + A[j, l] == 3:
                return False
    return True


def all_boolean(m, n):
    for code in range(1 << (m * n)):
        yield np.array([(code >> k) & 1 for k in range(m * n)], dtype=np.int64).reshape(m, n)


def test_is_blocky_matches_scan_oracle_on_all_3x3():
    agree = 0
    for A in all_boolean(3, 3):
        expected = blocky_by_scan(A)
        got = is_blocky(A)
        assert bool(got) == expected, A
        agree += 1
    assert agree == 512


def test_is_blocky_counts_on_3x3():
    # 127 nonzero blocky 3x3 matrices (plus the zero matrix) — pinned from the scan oracle
    count = sum(1 for A in all_boolean(3, 3) if blocky_by_scan(A))
    assert count == 128
    assert sum(1 for A in all_boolean(3, 3) if is_blocky(A).blocky) == 128


def test_is_blocky_witness_is_a_three_ones_square():
    for A in all_boolean(3, 3):
        chk = is_blocky(A)
        if not chk.blocky:
            (x0, x1), (y0, y1) = chk.witness
            quad = int(A[x0, y0]) + int(A[x0, y1]) + int(A[x1, y0]) + int(A[x1, y1])
            assert quad == 3, (A, chk.witness)


def test_is_blocky_rectangles_reconstruct_support():
    rng = np.random.default_rng(11)
    seen = 0
    while seen < 40:
        A = (rng.random((4, 5)) < 0.4).astype(np.int64)
        chk = is_blocky(A)
        if not chk.blocky:
            continue
        seen += 1
        rebuilt = np.zeros_like(A)
        rows_used, cols_used = set(), set()
        for rows, cols in chk.rectangles:
            assert not (set(rows) & rows_used) and not (set(cols) & cols_used)
            rows_used |= set(rows)
            cols_used |= set(cols)
            rebuilt[np.ix_(rows, cols)] = 1
        assert np.array_equal(rebuilt, A)


def test_blocky_matrix_validation():
    b = BlockyMatrix(shape=(2, 3), rectangles=(((0,), (0, 2)), ((1,), (1,))))
    assert np.array_equal(b.to_dense(), [[1, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError, match="^rectangle row sets overlap$"):
        BlockyMatrix(shape=(2, 2), rectangles=(((0,), (0,)), ((0,), (1,))))
    with pytest.raises(ValueError, match="^rectangle column sets overlap$"):
        BlockyMatrix(shape=(2, 2), rectangles=(((0,), (1,)), ((1,), (1,))))
    with pytest.raises(ValueError, match="^rectangles must have nonempty row and column sets$"):
        BlockyMatrix(shape=(2, 2), rectangles=(((0,), ()),))
    with pytest.raises(ValueError, match="^rectangle index out of range$"):
        BlockyMatrix(shape=(2, 2), rectangles=(((0, 2), (0,)),))
    with pytest.raises(ValueError, match="^rectangle index out of range$"):
        BlockyMatrix(shape=(2, 2), rectangles=(((0,), (-1,)),))
    with pytest.raises(ValueError, match="^rectangle index repeated$"):
        BlockyMatrix(shape=(2, 2), rectangles=(((1, 1), (0,)),))
    with pytest.raises(ValueError, match="^shape must be at least 1x1$"):
        BlockyMatrix(shape=(0, 2), rectangles=())


@pytest.mark.parametrize(
    "row_block, col_block, match",
    [
        ([0, -1], [0, 0, -1], "lengths"),  # three column labels for two columns
        ([0, -1, -1], [0, -1], "lengths"),
        ([0, -2], [0, -1], "-1"),  # label below -1
        ([0, -1], [0, -3], "-1"),
        ([0, 1], [0, -1], "column"),  # id 1 has a row but no column
        ([0, -1], [0, 1], "names no rectangle"),  # id 1 has a column but no row
        ([1, 0], [0, 1], "order of first row"),  # ids not numbered by first row
        ([-1, 1], [1, -1], "order of first row"),  # id 0 missing
        ([0.0, -1.0], [0, -1], "signed integers"),
    ],
)
def test_from_labels_rejects(row_block, col_block, match):
    with pytest.raises(ValueError, match=match):
        BlockyMatrix.from_labels((2, 2), np.array(row_block), np.array(col_block))


def test_blocky_matrix_labels_are_canonical_read_only_arrays():
    b = BlockyMatrix(shape=(4, 5), rectangles=(((3,), (3, 2)), ((2, 0), (4, 1)), ((1,), (0,))))
    assert b.row_block.tolist() == [0, 1, 0, 2] and b.col_block.tolist() == [1, 0, 2, 2, 0]
    assert b.count == 3
    assert b.rectangles == (((0, 2), (1, 4)), ((1,), (0,)), ((3,), (2, 3)))
    with pytest.raises(ValueError):
        b.row_block[0] = 1
    empty = BlockyMatrix(shape=(2, 3), rectangles=())
    assert empty.count == 0 and empty.rectangles == () and not empty.to_dense().any()


def test_blocky_matrix_equality_and_hash_follow_canonical_labels():
    canonical = BlockyMatrix(shape=(4, 5), rectangles=(((0, 2), (1, 4)), ((1,), (0,)), ((3,), (2, 3))))
    shuffled = BlockyMatrix(shape=(4, 5), rectangles=(((3,), (3, 2)), ((2, 0), (4, 1)), ((1,), (0,))))
    assert shuffled == canonical and hash(shuffled) == hash(canonical)
    one_row_less = BlockyMatrix(shape=(4, 5), rectangles=(((0,), (1, 4)), ((1,), (0,)), ((3,), (2, 3))))
    assert one_row_less != canonical
    taller = BlockyMatrix(shape=(5, 5), rectangles=canonical.rectangles)
    assert taller != canonical
    assert len({canonical, shuffled, one_row_less, taller}) == 3
    assert canonical != canonical.to_dense().tolist()


def _scatter_dense(shape, rectangles) -> np.ndarray:
    """Reference: one np.ix_ scatter per rectangle of the raw list."""
    out = np.zeros(shape, dtype=np.int64)
    for rows, cols in rectangles:
        out[np.ix_(list(rows), list(cols))] = 1
    return out


def _random_rectangles(rng, m, n):
    """Disjoint rectangles in random order with unsorted indices; rows and
    columns that draw -1, or an id missing on the other side, stay zero."""
    k = int(rng.integers(0, min(m, n) + 1))
    row_ids, col_ids = rng.integers(-1, k, size=m), rng.integers(-1, k, size=n)
    rects = [
        (rng.permutation(np.flatnonzero(row_ids == j)).tolist(), rng.permutation(np.flatnonzero(col_ids == j)).tolist())
        for j in range(k)
    ]
    rects = [rc for rc in rects if rc[0] and rc[1]]
    return [rects[i] for i in rng.permutation(len(rects))]


def test_label_dense_and_evaluate_match_scatter_reference():
    rng = np.random.default_rng(72)
    for i in range(240):
        m, n = (int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        m, n = [(1, 1), (1, n), (m, 1), (m, n), (m, n)][i % 5]
        terms, expected = [], np.zeros((m, n), dtype=np.int64)
        for j in range(int(rng.integers(1, 5))):
            if i % 7 == 0 and j == 0:
                rects = [(rng.permutation(m).tolist(), rng.permutation(n).tolist())]  # one full rectangle
            else:
                rects = _random_rectangles(rng, m, n)
            b = BlockyMatrix(shape=(m, n), rectangles=rects)
            dense = _scatter_dense((m, n), rects)
            assert np.array_equal(b.to_dense(), dense)
            assert BlockyMatrix(shape=(m, n), rectangles=b.rectangles) == b
            assert BlockyMatrix.from_labels((m, n), b.row_block, b.col_block) == b
            sign = int(rng.choice([-1, 1]))
            terms.append((sign, b))
            expected += sign * dense
        assert np.array_equal(SignedBlockySum(shape=(m, n), terms=tuple(terms)).evaluate(), expected)


def test_blocky_matrix_round_trip_from_dense():
    rng = np.random.default_rng(3)
    found = 0
    while found < 25:
        A = (rng.random((3, 4)) < 0.5).astype(np.int64)
        if not is_blocky(A).blocky or not A.any():
            continue
        found += 1
        b = BlockyMatrix.from_dense(A)
        assert np.array_equal(b.to_dense(), A)


def test_signed_sum_evaluate_matches_membership_sum():
    # independent evaluator: per entry, add sign for each term whose support contains it
    rng = np.random.default_rng(5)
    for _ in range(20):
        terms = []
        for _ in range(rng.integers(1, 5)):
            A = (rng.random((3, 4)) < 0.4).astype(np.int64)
            chk = is_blocky(A)
            if not (chk.blocky and A.any()):
                continue
            terms.append((int(rng.choice([-1, 1])), BlockyMatrix.from_dense(A)))
        if not terms:
            continue
        s = SignedBlockySum(shape=(3, 4), terms=tuple(terms))
        manual = np.zeros((3, 4), dtype=np.int64)
        for sign, b in terms:
            for rows, cols in b.rectangles:
                for x in rows:
                    for y in cols:
                        manual[x, y] += sign
        assert np.array_equal(s.evaluate(), manual)
        assert len(s) == len(terms)


def test_signed_sum_shape_checks():
    b = BlockyMatrix(shape=(2, 2), rectangles=(((0,), (0,)),))
    with pytest.raises(ValueError):
        SignedBlockySum(shape=(2, 3), terms=((1, b),))
    with pytest.raises(ValueError):
        SignedBlockySum(shape=(2, 2), terms=((2, b),))


def test_round_half_down_against_fraction_oracle():
    """Half-integers round down; everything else rounds to nearest."""

    def oracle(q: Fraction) -> int:
        fl = q.numerator // q.denominator
        frac = q - fl
        if frac < Fraction(1, 2):
            return fl
        if frac == Fraction(1, 2):
            return fl
        return fl + 1

    qs = [Fraction(k, 8) for k in range(-40, 41)] + [Fraction(k, 2) for k in range(-9, 10)]
    vals = np.array([float(q) for q in qs])
    got = round_half_down(vals)
    want = np.array([oracle(q) for q in qs])
    assert np.array_equal(got, want)


def test_round_half_down_examples():
    assert round_half_down(np.array([0.5, -0.5, 1.5, 2.5, -1.5])).tolist() == [0, -1, 1, 2, -2]
    assert round_half_down(np.array([0.49999, 0.50001])).tolist() == [0, 1]


def test_int_matrix_freezing_and_validation():
    M = IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        M.values[0, 0] = 9
    with pytest.raises(ValueError):
        as_int_array([[1.5, 0.0], [0.0, 0.0]])
    assert as_int_array([[1.0, 2.0]]).dtype == np.int64


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cls, values", [(IntMatrix, [[1, 2]]), (RealMatrix, [[0.5, 2.0]])])
def test_array_protocol_takes_numpy2_copy_keyword(cls, values):
    M = cls(values)
    out = np.array(M, copy=True)
    out[0, 0] = 7
    assert M.values[0, 0] == values[0][0]
    assert np.asarray(M) is M.values


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e30, 2.0**53, -(2.0**53)])
def test_int_array_rejects_unrepresentable_floats(bad):
    with pytest.raises(ValueError):
        as_int_array([[bad, 1.0]])
    assert as_int_array([[2.0**53 - 1, 1.0]])[0, 0] == 2**53 - 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: decompose(np.array([[2**64 - 1, 1]], dtype=np.uint64)),
        lambda: exact_block_complexity(np.array([[-(2**63), 0], [0, 1]])),
        lambda: term_count_floor([[-(2**63)]], 0.5),
        lambda: greedy_l1_decompose([[-(2**63)]]),
        lambda: as_int_array(np.array([[2**63]], dtype=np.uint64)),
    ],
    ids=["decompose", "oracle", "floor", "peel", "as_int_array"],
)
def test_int_array_rejects_entries_whose_abs_wraps(call):
    # uint64 above 2**63 - 1 wraps on the int64 cast; abs(-2**63) wraps to a negative.
    with pytest.raises(ValueError, match="2\\*\\*63 - 1 in magnitude"):
        call()
    assert as_int_array(np.array([[2**63 - 1, -(2**63 - 1)]]))[0, 1] == -(2**63 - 1)


def test_convolution_matrix_structure():
    f = np.array([5, 0, -1, 0])
    M = convolution_matrix(4, f)
    for x in range(4):
        for y in range(4):
            assert M.values[x, y] == f[(x - y) % 4]


def test_convolution_indicator_is_blocky_for_even_support():
    f = np.zeros(4, dtype=np.int64)
    f[[0, 2]] = 1
    M = convolution_matrix(4, f)
    assert is_blocky(M.values).blocky
