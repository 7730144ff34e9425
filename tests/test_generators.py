"""Instance generators: determinism, kinds, certificates, validation."""

import hashlib

import numpy as np
import pytest

from blockydecomp.core import is_blocky
from blockydecomp.factorize import verify_factorization
from blockydecomp.generators import (
    KINDS,
    GeneratorSpec,
    generate,
    random_blocky_matrix,
)


def test_identity_and_all_ones():
    inst = generate(GeneratorSpec(kind="identity", n=3))
    assert np.array_equal(inst.matrix, np.eye(3, dtype=int))
    inst = generate(GeneratorSpec(kind="all-ones", n=3, m=2))
    assert np.array_equal(inst.matrix, np.ones((2, 3), dtype=int))


@pytest.mark.parametrize("kind", KINDS)
def test_generated_matrix_is_a_read_only_int64_array(kind):
    inst = generate(GeneratorSpec(kind=kind, n=4, support=(1,)), seed=2)
    assert type(inst.matrix) is np.ndarray and inst.matrix.dtype == np.int64
    assert inst.matrix.shape == (4, 4) and inst.matrix.flags.c_contiguous
    with pytest.raises(ValueError):
        inst.matrix[0, 0] = 5


def test_convolution_kind_blocky_support():
    # Indicator of {0, 2} in Z_4 yields the parity-class circulant: its
    # support is the union of two disjoint rectangles, hence blocky.
    inst = generate(GeneratorSpec(kind="convolution-cyclic", n=4, support=(0, 2)))
    arr = inst.matrix
    assert arr.shape == (4, 4)
    expected = np.array([[((x - y) % 4) in (0, 2) for y in range(4)] for x in range(4)])
    assert np.array_equal(arr, expected.astype(int))
    assert is_blocky(arr)


@pytest.mark.parametrize("m", [3, 7])
def test_identity_and_convolution_honour_the_row_count(m):
    # m is the row count for every kind: entry (x, y) is [x == y] for the
    # identity and f((x - y) mod n) for the circulant, for x < m.
    inst = generate(GeneratorSpec(kind="identity", n=5, m=m))
    assert np.array_equal(inst.matrix, np.eye(m, 5, dtype=int))
    inst = generate(GeneratorSpec(kind="convolution-cyclic", n=5, m=m, support=(0, 1)))
    expected = np.array([[((x - y) % 5) in (0, 1) for y in range(5)] for x in range(m)])
    assert inst.matrix.shape == (m, 5)
    assert np.array_equal(inst.matrix, expected.astype(int))


def test_random_boolean_density_and_determinism():
    spec = GeneratorSpec(kind="random-boolean", n=40, m=30, density=0.3)
    a = generate(spec, seed=5).matrix
    b = generate(spec, seed=5).matrix
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {0, 1}
    assert 0.15 < a.mean() < 0.45
    c = generate(spec, seed=6).matrix
    assert not np.array_equal(a, c)
    assert generate(GeneratorSpec(kind="random-boolean", n=5, density=0.0), seed=1).matrix.sum() == 0
    assert generate(GeneratorSpec(kind="random-boolean", n=5, density=1.0), seed=1).matrix.min() == 1


def test_random_blocky_matrix_is_blocky():
    rng = np.random.default_rng(60)
    for _ in range(30):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        b = random_blocky_matrix(m, n, rng)
        dense = b.to_dense()
        assert dense.any()
        assert is_blocky(dense)


# (n, m, term_count, seed) -> sha256 of the matrix, the certificate's U and its V,
# recorded while terms were still stored as rectangle tuples.
PINNED_BLOCKY_SUMS = {
    (40, 37, 5, 7): (
        "b0cbfba2cc55197e9851dec1e5731deb54d80e27a3e404d13be2ee29d881f768",
        "457eae9e045431a08d558dfd06ebd782b0a09a9e2121aa38bfa0815f868d32b4",
        "5cd39bfdc68b04b4af6c50e540fd1d0be7de0fd17b86f5f4a2bf9e2799750511",
    ),
    (33, 30, 6, 123): (
        "b5fe0c77cc59f6f453b70ff9c88c398daa5d6be69914c4d203069bba358f4d37",
        "5ade86970d9069f41739c56676cfbaf9c8eab45f4929d8c19e695d0e49c63886",
        "02824d12d0d2fadc71f3eb8fc91fd13c1eede8e951f8fcbd095e2422bed4c32d",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_BLOCKY_SUMS))
def test_random_blocky_sum_bytes_are_pinned(key):
    n, m, L, seed = key
    inst = generate(GeneratorSpec(kind="random-blocky-sum", n=n, m=m, term_count=L), seed=seed)
    digests = tuple(
        hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for a in (inst.matrix, inst.certificate.U, inst.certificate.V)
    )
    assert digests == PINNED_BLOCKY_SUMS[key]


def test_random_blocky_sum_carries_exact_certificate():
    spec = GeneratorSpec(kind="random-blocky-sum", n=12, m=9, term_count=4)
    inst = generate(spec, seed=11)
    assert inst.blocky_sum is not None and inst.certificate is not None
    assert len(inst.blocky_sum.terms) == 4
    assert np.array_equal(inst.blocky_sum.evaluate(), inst.matrix)
    rep = verify_factorization(inst.matrix.astype(float), inst.certificate, tol=1e-9)
    assert rep.ok
    again = generate(spec, seed=11)
    assert np.array_equal(again.matrix, inst.matrix)


def test_zero_term_sum():
    inst = generate(GeneratorSpec(kind="random-blocky-sum", n=3, term_count=0), seed=1)
    assert not inst.matrix.any()
    assert inst.certificate.gamma == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(kind="nope", n=3)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="identity", n=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="random-boolean", n=3, density=1.5)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="random-blocky-sum", n=3, term_count=-1)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="convolution-cyclic", n=4, support=(0, 4))
    assert "identity" in KINDS and len(KINDS) == 5
