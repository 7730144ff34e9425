"""Core types: blockiness, rectangles, signed sums, rounding."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from blockydecomp import core
from blockydecomp.core import (
    BlockyMatrix,
    SignedBlockySum,
    as_int_array,
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


def _groups_by_search(arr, drop_zero):
    # Reference grouping: list searches over the rows' bytes.
    keys = [row.tobytes() for row in np.ascontiguousarray(arr)]
    distinct = [k for i, k in enumerate(keys) if keys.index(k) == i and not (drop_zero and not any(k))]
    return [keys.index(k) for k in distinct], [distinct.index(k) if k in distinct else -1 for k in keys]


@pytest.mark.parametrize("drop_zero", [False, True])
@pytest.mark.parametrize("dtype", [np.int16, np.int64, np.float64, np.uint8])
def test_group_rows_matches_a_search_reference(dtype, drop_zero):
    # Rows drawn from a few distinct ones, zero rows among them, as given
    # and transposed (a strided view); -0.0 is a row of its own, as its
    # bytes differ from 0.0's.
    rng = np.random.default_rng(3)
    for m, n in [(1, 1), (5, 1), (1, 4), (7, 3), (12, 6), (40, 9)]:
        pool = rng.integers(-1, 2, size=(max(2, m // 3), n)).astype(dtype)
        A = pool[rng.integers(0, pool.shape[0], size=m)]
        A[rng.integers(0, m, size=m // 4)] = 0
        for arr in (A, A.T):
            first, group = core._group_rows(arr, drop_zero=drop_zero)
            assert (first.tolist(), group.tolist()) == _groups_by_search(arr, drop_zero)
            assert first.dtype == group.dtype == np.intp
    negative_zero = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
    assert core._group_rows(negative_zero)[1].tolist() == [0, 1, 0]


def test_is_blocky_matches_scan_oracle_on_all_3x3():
    agree = 0
    for A in all_boolean(3, 3):
        expected = blocky_by_scan(A)
        got = is_blocky(A)
        assert bool(got) == expected, A
        assert (got.term is not None) == expected
        if expected:
            assert np.array_equal(got.term.to_dense(), A), A
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
    with pytest.raises(ValueError, match=r"boolean matrix required; entry \(1,0\) is -1"):
        is_blocky([[1, 0], [-1, 1]])


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
        for rows, cols in chk.term.rectangles:
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
    "rows, cols",
    [
        (np.array([1.5]), [0]),  # was truncated to row 1
        ([0.9], [True]),  # was accepted as ({0}, {1})
        ([0], [1.0]),
        ([False], [0]),
        ([0], np.array([True])),
    ],
)
def test_blocky_matrix_rejects_non_integer_indices(rows, cols):
    with pytest.raises(ValueError, match="^rectangle indices must be integers"):
        BlockyMatrix(shape=(2, 2), rectangles=[(rows, cols)])


def test_blocky_matrix_accepts_python_and_numpy_integers():
    rects = [(np.array([1], dtype=np.uint8), [np.int64(0), 1]), ([np.int32(0)], np.array([2]))]
    b = BlockyMatrix(shape=(2, 3), rectangles=rects)
    assert b.rectangles == (((0,), (2,)), ((1,), (0, 1)))
    assert is_blocky(b.to_dense()).term == b


LABEL_DEFECTS = [
    ([0, -1], [0, 0, -1], "lengths"),  # three column labels for two columns
    ([0, -1, -1], [0, -1], "lengths"),
    ([0, -2], [0, -1], "-1"),  # label below -1
    ([0, -1], [0, -3], "-1"),
    ([0, 1], [0, -1], "column"),  # id 1 has a row but no column
    ([0, -1], [0, 1], "names no rectangle"),  # id 1 has a column but no row
    ([1, 0], [0, 1], "order of first row"),  # ids not numbered by first row
    ([-1, 1], [1, -1], "order of first row"),  # id 0 missing
    ([0.0, -1.0], [0, -1], "signed integers"),
]


@pytest.mark.parametrize("row_block, col_block, match", LABEL_DEFECTS)
def test_from_labels_rejects(row_block, col_block, match):
    with pytest.raises(ValueError, match=match):
        BlockyMatrix.from_labels((2, 2), np.array(row_block), np.array(col_block))


@pytest.mark.parametrize("row_block, col_block, match", LABEL_DEFECTS)
def test_from_label_tables_rejects_a_defect_in_the_second_term(row_block, col_block, match):
    # The first term is valid and has a rectangle, so the second term's keys
    # start past the first term's: each defect is caught where it sits.
    first_rows = [0] + [-1] * (len(row_block) - 1)
    first_cols = [0] + [-1] * (len(col_block) - 1)
    rows, cols = np.array([first_rows, row_block]), np.array([first_cols, col_block])
    with pytest.raises(ValueError, match=match) as sum_error:
        SignedBlockySum.from_label_tables((2, 2), [1, -1], rows, cols)
    with pytest.raises(ValueError) as term_error:
        BlockyMatrix.from_labels((2, 2), np.array(row_block), np.array(col_block))
    # The same message as for the term alone; a length message names the tables' shapes.
    assert str(sum_error.value) == str(term_error.value).replace("(1, ", "(2, ")


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
        b = is_blocky(A).term
        assert np.array_equal(b.to_dense(), A)
        assert BlockyMatrix(shape=A.shape, rectangles=b.rectangles) == b


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
            terms.append((int(rng.choice([-1, 1])), chk.term))
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


def _evaluate_by_rectangles(s: SignedBlockySum) -> np.ndarray:
    """Reference: every entry of every rectangle of every term gets the term's sign."""
    out = np.zeros(s.shape, dtype=np.int64)
    for sign, b in s.terms:
        for rows, cols in b.rectangles:
            out[np.ix_(rows, cols)] += sign
    return out


def _full(m, n, sign=1):
    return sign, BlockyMatrix(shape=(m, n), rectangles=[(range(m), range(n))])


def _random_sum(rng, m, n, count):
    return SignedBlockySum(
        shape=(m, n),
        terms=tuple(
            (int(rng.choice([-1, 1])), BlockyMatrix(shape=(m, n), rectangles=_random_rectangles(rng, m, n)))
            for _ in range(count)
        ),
    )


def _evaluate_cases():
    rng = np.random.default_rng(73)
    zero = BlockyMatrix(shape=(4, 5), rectangles=[])
    corner = BlockyMatrix(shape=(4, 5), rectangles=[((1, 3), (0, 4))])  # rows 0, 2 and columns 1-3 stay zero
    split = BlockyMatrix(shape=(6, 7), rectangles=[((0, 1, 2), range(4)), ((3, 4, 5), range(4, 7))])
    return {
        "empty": SignedBlockySum(shape=(3, 4), terms=()),
        "zero-terms": SignedBlockySum(shape=(4, 5), terms=((1, zero), (-1, zero))),
        "zero-rows-and-columns": SignedBlockySum(shape=(4, 5), terms=((1, zero), (-1, corner), (-1, corner))),
        "overlapping-full": SignedBlockySum(
            shape=(6, 7), terms=tuple(_full(6, 7, sign) for sign in (1, 1, -1, 1, 1, -1, 1)) + ((-1, split),)
        ),
        "row-vector": _random_sum(rng, 1, 9, 6),
        "column-vector": _random_sum(rng, 9, 1, 6),
        "1x1": SignedBlockySum(shape=(1, 1), terms=(_full(1, 1), _full(1, 1), _full(1, 1, -1))),
        "random": _random_sum(rng, 13, 11, 30),
        # 1.6M cells, more than one chunk of _EVAL_CHUNK_CELLS
        "dense-chunks": SignedBlockySum(
            shape=(200, 200), terms=tuple(_full(200, 200, -1 if k % 3 == 0 else 1) for k in range(40))
        ),
    }


@pytest.mark.parametrize("name", list(_evaluate_cases()))
def test_evaluate_matches_rectangle_reference(name):
    s = _evaluate_cases()[name]
    expected = _evaluate_by_rectangles(s)
    assert np.array_equal(s.evaluate(), expected)
    signs, rows, cols = s.label_tables
    assert np.array_equal(SignedBlockySum.from_label_tables(s.shape, signs, rows, cols).evaluate(), expected)


@pytest.mark.parametrize("chunk", [1, 2, 5, 17])
def test_evaluate_chunk_boundaries(monkeypatch, chunk):
    # Chunks smaller than one rectangle row, and cuts falling inside rows, give the same sum.
    monkeypatch.setattr(core, "_EVAL_CHUNK_CELLS", chunk)
    rng = np.random.default_rng(74 + chunk)
    for _ in range(20):
        s = _random_sum(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(0, 6)))
        assert np.array_equal(s.evaluate(), _evaluate_by_rectangles(s))


def _keyed_cases():
    rng = np.random.default_rng(76)
    none = BlockyMatrix(shape=(4, 5), rectangles=[])  # a term whose labels are all -1
    corner = BlockyMatrix(shape=(4, 5), rectangles=[((1, 3), (0, 4)), ((2,), (2,))])
    return {
        "zero-terms": SignedBlockySum(shape=(4, 5), terms=()),
        "all-minus-one-term": SignedBlockySum(shape=(4, 5), terms=((1, none),)),
        "all-minus-one-between": SignedBlockySum(shape=(4, 5), terms=((-1, corner), (1, none), (1, corner))),
        "random": _random_sum(rng, 7, 9, 12),
        "peel": greedy_l1_decompose(rng.integers(-3, 4, size=(6, 8))),
    }


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("name", list(_keyed_cases()))
def test_stored_and_lazily_computed_keys_evaluate_alike(monkeypatch, name, chunk):
    # Both constructors validate once and store the same things: the tables,
    # each term's rectangle count and the rectangle keys.  Nothing is left
    # to compute on first use, and both evaluate alike.
    if chunk is not None:
        monkeypatch.setattr(core, "_EVAL_CHUNK_CELLS", chunk)  # many chunks
    s = _keyed_cases()[name]
    validated = SignedBlockySum.from_label_tables(s.shape, *s.label_tables)
    rebuilt = SignedBlockySum(shape=s.shape, terms=validated.terms)
    assert vars(validated).keys() - {"terms"} == vars(rebuilt).keys() - {"terms"}
    stored = (*validated.label_tables, validated._rect_counts, *validated._rect_keys)
    computed = (*rebuilt.label_tables, rebuilt._rect_counts, *rebuilt._rect_keys)
    for a, b in zip(stored, computed, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    expected = _evaluate_by_rectangles(s)
    assert np.array_equal(validated.evaluate(), expected)
    assert np.array_equal(rebuilt.evaluate(), expected)


def test_sum_from_label_tables_keeps_tables_and_terms():
    s = greedy_l1_decompose([[2, -1, 0], [0, 1, -3]])
    signs, rows, cols = s.label_tables
    assert signs.tolist() == [sign for sign, _ in s.terms]
    for table in (signs, rows, cols):
        assert not table.flags.writeable
    rebuilt = SignedBlockySum(shape=s.shape, terms=s.terms)
    assert rebuilt == s
    for got, want in zip(rebuilt.label_tables, s.label_tables):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("signs", [[1], [1, 0, -1], [1.0, -1.0, 1.0], [1, 2, -1], [True, True, False]])
def test_sum_from_label_tables_rejects_bad_signs(signs):
    s = greedy_l1_decompose([[2, -1]])  # three terms
    _, rows, cols = s.label_tables
    with pytest.raises(ValueError, match="one sign"):
        SignedBlockySum.from_label_tables(s.shape, signs, rows, cols)


def test_sum_from_label_tables_rejects_bad_labels():
    with pytest.raises(ValueError, match="in order of first row"):
        SignedBlockySum.from_label_tables((2, 2), [1], np.array([[1, 0]]), np.array([[0, 1]]))


def test_signed_sum_shape_checks():
    b = BlockyMatrix(shape=(2, 2), rectangles=(((0,), (0,)),))
    with pytest.raises(ValueError):
        SignedBlockySum(shape=(2, 3), terms=((1, b),))
    with pytest.raises(ValueError):
        SignedBlockySum(shape=(2, 2), terms=((2, b),))


@pytest.mark.parametrize("sign", [True, False, 1.0, np.float64(-1.0), np.True_, "1", 0, 2])
def test_signed_sum_constructor_rejects_non_integer_signs(sign):
    b = BlockyMatrix(shape=(2, 2), rectangles=(((0,), (0,)),))
    with pytest.raises(ValueError, match="integer -1 or \\+1"):
        SignedBlockySum(shape=(2, 2), terms=((1, b), (sign, b)))


def test_signed_sum_constructor_takes_numpy_integer_signs():
    b = BlockyMatrix(shape=(2, 2), rectangles=(((0,), (0,)),))
    s = SignedBlockySum(shape=(2, 2), terms=[(np.int32(-1), b), (np.int64(1), b)])
    assert [type(sign) for sign, _ in s.terms] == [int, int]
    assert s.label_tables[0].tolist() == [-1, 1]


def test_both_constructors_agree_on_len_eq_hash_and_terms():
    rng = np.random.default_rng(75)
    cases = [greedy_l1_decompose(rng.integers(-4, 5, size=(rng.integers(1, 7), rng.integers(1, 7)))) for _ in range(30)]
    cases += [greedy_l1_decompose(np.zeros((2, 3), dtype=int)), _random_sum(rng, 5, 4, 6)]
    for s in cases:
        from_tables = SignedBlockySum.from_label_tables(s.shape, *s.label_tables)
        from_terms = SignedBlockySum(shape=s.shape, terms=from_tables.terms)
        assert len(from_tables) == len(from_terms) == len(s.label_tables[0])
        assert from_tables == from_terms and hash(from_tables) == hash(from_terms)
        assert from_tables.terms == from_terms.terms
        assert all(type(sign) is int for sign, _ in from_tables.terms)
        for got, want in zip(from_terms.label_tables, from_tables.label_tables):
            assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
    a = cases[0]
    flipped = SignedBlockySum.from_label_tables(a.shape, -a.label_tables[0], *a.label_tables[1:])
    assert flipped != a and len({a, flipped, SignedBlockySum(shape=a.shape, terms=a.terms)}) == 2
    assert SignedBlockySum(shape=(2, 3), terms=()) != SignedBlockySum(shape=(3, 2), terms=())


def test_sum_terms_is_a_cached_view_built_on_first_use(monkeypatch):
    built = []
    real = BlockyMatrix._of_tables.__func__

    def counting(cls, *args):
        built.append(1)
        return real(cls, *args)

    monkeypatch.setattr(BlockyMatrix, "_of_tables", classmethod(counting))
    s = greedy_l1_decompose([[2, -1, 0], [0, 1, -3]])
    assert len(s) == 5 and s == SignedBlockySum.from_label_tables(s.shape, *s.label_tables)
    s.evaluate()
    assert built == []
    first = s.terms
    assert built == [1] and s.terms is first
    assert [b.row_block.tolist() for _, b in first] == s.label_tables[1].tolist()
    assert [b.count for _, b in first] == [2, 1, 2, 1, 1]


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
    # A read-only int64 matrix passes validation as itself: no copy, still read-only.
    M = np.array([[1, 2], [3, 4]], dtype=np.int64)
    M.setflags(write=False)
    got = as_int_array(M)
    assert got is M
    with pytest.raises(ValueError):
        got[0, 0] = 9
    with pytest.raises(ValueError):
        as_int_array([[1.5, 0.0], [0.0, 0.0]])
    assert as_int_array([[1.0, 2.0]]).dtype == np.int64


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



@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.array([[0.5, 2.0]]), "integer matrix required, got non-integral entries"),
        (np.array([1, 2, 3]), "matrix must be 2-dimensional, got ndim=1"),
        (np.ones((2, 2, 2), dtype=np.int64), "matrix must be 2-dimensional, got ndim=3"),
        (np.array([[1 + 0j, 2]]), "integer matrix required, got dtype complex128"),
        (np.array([["1", "2"]]), "integer matrix required, got dtype <U1"),
        (np.zeros((0, 3), dtype=np.int64), "matrix must have at least one row and one column"),
        (np.zeros((2, 0), dtype=np.int64), "matrix must have at least one row and one column"),
    ],
    ids=["non-integral-float", "1-d", "3-d", "complex", "str", "no-rows", "no-columns"],
)
def test_integer_boundary_refusals(matrix, message):
    # as_int_array and decompose refuse the same inputs with the same message.
    for call in (as_int_array, decompose):
        with pytest.raises(ValueError) as exc:
            call(matrix)
        assert str(exc.value) == message


def test_integer_boundary_accepts_int_matrix_and_bool():
    A = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    want_sum, want_report = decompose(A)
    frozen = A.copy()
    frozen.setflags(write=False)
    # A read-only int64 array, as the loaders and generators return; an integral float array.
    for given in (frozen, A.astype(bool), A.astype(np.float64)):
        got = as_int_array(given)
        assert got.dtype == np.int64 and np.array_equal(got, A)
        s, report = decompose(given)
        assert s == want_sum  # the same label tables
        assert report.to_json_dict() == want_report.to_json_dict()
