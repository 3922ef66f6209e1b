import itertools

import pytest

from trefoil import (
    FiniteGroup,
    FiniteQuandle,
    LaurentQuotientRing,
    alexander_quandle,
    automorphism_quandle,
    check_quandle,
    check_rack,
    conj_quandle,
    core_quandle,
    cyclic_group,
    dihedral_quandle,
    direct_product,
    klein_four_group,
    symmetric_group,
    transvection_quandle,
)
from trefoil.quandle import form_is_alternating, form_is_antisymmetric, module_vectors


def test_dihedral_values():
    r3 = dihedral_quandle(3)
    assert r3.op(0, 1) == 2
    r4 = dihedral_quandle(4)
    assert r4.op(1, 3) == 1
    for n in (1, 2, 5, 9):
        q = dihedral_quandle(n)
        assert all(q.op(i, i) == i for i in range(n))


def test_dihedral_rejects_zero():
    for n in (0, True, 3.0):
        with pytest.raises(ValueError):
            dihedral_quandle(n)


def test_dihedral_axioms():
    assert check_quandle(dihedral_quandle(5)).is_quandle
    report = check_rack(dihedral_quandle(3))
    assert report.idempotent and report.is_rack and report.counterexample is None


def test_singleton_magma_is_quandle():
    report = check_rack(FiniteQuandle(1, [[0]]))
    assert report.idempotent and report.right_translations_bijective and report.right_distributive


def test_constant_magma_fails_bijectivity():
    q = FiniteQuandle(2, [[0, 0], [0, 0]])
    report = check_rack(q)
    assert not report.right_translations_bijective
    i, j, k = report.counterexample
    # the witness reproduces the failure
    assert i != j and q.op(i, k) == q.op(j, k)
    assert report.reproduces(q)


def test_malformed_table_rejected():
    with pytest.raises(ValueError):
        FiniteQuandle(2, [[0, 2], [0, 1]])
    with pytest.raises(ValueError):
        FiniteQuandle(2, [[0, 1]])
    for size, table in ((2, [[0, 1.9], [True, "1"]]), (2, [[0, 1.0], [1, 1]]),
                        (2, [[0, 1], [True, 1]]), (2, [[0, "1"], [1, 1]]),
                        (True, [[0]]), (1.0, [[0]]), ("1", [[0]])):
        with pytest.raises(ValueError):
            FiniteQuandle(size, table)
    with pytest.raises(ValueError):
        FiniteQuandle.from_json({"size": 2, "table": [[0, 1.0], [1, 1]]})


def test_counterexample_reproduces_each_axiom():
    # fails idempotence only: the swap table on two elements
    q = FiniteQuandle(2, [[1, 1], [0, 0]])
    report = check_quandle(q)
    assert not report.idempotent
    i, j, k = report.counterexample
    assert i == j == k and q.op(i, i) != i
    assert report.reproduces(q)
    # a distributivity witness: i * j = i + j on Z/3
    q3 = FiniteQuandle(3, [[(i + j) % 3 for j in range(3)] for i in range(3)])
    report3 = check_rack(q3)
    assert not report3.right_distributive and report3.right_translations_bijective
    a, b, c = report3.counterexample
    assert q3.op(q3.op(a, b), c) != q3.op(q3.op(a, c), q3.op(b, c))
    assert report3.reproduces(q3)
    # no counterexample on a clean quandle
    good = check_quandle(dihedral_quandle(5))
    assert good.counterexample is None and good.reproduces(dihedral_quandle(5))


def test_conj_quandle_examples():
    c4 = cyclic_group(4)
    q = conj_quandle(c4)
    assert all(q.op(a, b) == a for a in range(4) for b in range(4))

    s3 = symmetric_group(3)
    q3 = conj_quandle(s3)
    assert check_quandle(q3).is_quandle
    # transpositions as mapping tuples: (12) = (1,0,2), (13) = (2,1,0), (23) = (0,2,1)
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    t12, t13, t23 = idx[(1, 0, 2)], idx[(2, 1, 0)], idx[(0, 2, 1)]
    assert q3.op(t12, t13) == t23
    e = s3.identity
    assert all(q3.op(e, b) == e for b in range(6))


def test_conj_trivial_group():
    assert check_quandle(conj_quandle(cyclic_group(1))).is_quandle


def test_conj_relabelling_by_conjugation_is_isomorphism():
    g = symmetric_group(3)
    q = conj_quandle(g)
    for u in g.elements():
        sigma = [g.mul(g.mul(g.inv(u), x), u) for x in g.elements()]
        for x in g.elements():
            for y in g.elements():
                assert sigma[q.op(x, y)] == q.op(sigma[x], sigma[y])


def test_core_quandle_examples():
    c5 = cyclic_group(5)
    assert core_quandle(c5).table == dihedral_quandle(5).table
    c2 = cyclic_group(2)
    assert core_quandle(c2).op(0, 1) == 0
    s3 = symmetric_group(3)
    q = core_quandle(s3)
    assert all(q.op(a, a) == a for a in range(6))


def test_automorphism_quandle_identity_tau_is_trivial():
    g = cyclic_group(5)
    q = automorphism_quandle(g, list(range(5)))
    assert all(q.op(a, b) == a for a in range(5) for b in range(5))


def test_automorphism_quandle_doubling_matches_alexander():
    g = cyclic_group(3)
    q = automorphism_quandle(g, [(2 * x) % 3 for x in range(3)])
    ring = LaurentQuotientRing(3, (-2, 1))  # t - 2, so t acts as doubling
    assert q.table == alexander_quandle(ring).table
    assert all(q.op(a, a) == a for a in range(3))


def test_automorphism_quandle_rejects_non_automorphism():
    with pytest.raises(ValueError):
        automorphism_quandle(cyclic_group(4), [1, 0, 2, 3])
    with pytest.raises(ValueError):
        automorphism_quandle(cyclic_group(3), [0, 0, 1])
    for tau in ([0, 1.2, 2.0], [0, 1.0, 2], [0, True, 2], [0, "1", 2]):
        with pytest.raises(ValueError):
            automorphism_quandle(cyclic_group(3), tau)


def test_inversion_tau_gives_core_on_abelian_groups():
    for g in (cyclic_group(5), cyclic_group(8), klein_four_group(),
              direct_product(cyclic_group(2), cyclic_group(4))):
        q = automorphism_quandle(g, [g.inv(x) for x in g.elements()])
        assert q.table == core_quandle(g).table


def test_alexander_dihedral_coincidence():
    ring = LaurentQuotientRing(3, (1, 1))  # t = -1
    assert alexander_quandle(ring).table == dihedral_quandle(3).table


def test_alexander_four_element_quandle():
    ring = LaurentQuotientRing(2, (1, 1, 1))
    q = alexander_quandle(ring)
    assert q.size == 4
    assert check_quandle(q).is_quandle


def test_alexander_idempotent():
    ring = LaurentQuotientRing(5, (2, 0, 1))
    q = alexander_quandle(ring)
    assert all(q.op(a, a) == a for a in range(q.size))


def test_ring_rejects_non_unit_t():
    # constant term 0 shares a factor with every modulus
    with pytest.raises(ValueError):
        LaurentQuotientRing(2, (0, 1, 1))
    # constant term 2 is a zero divisor mod 4
    with pytest.raises(ValueError):
        LaurentQuotientRing(4, (2, 1))


def test_ring_rejects_bad_leading_or_degree():
    with pytest.raises(ValueError):
        LaurentQuotientRing(4, (1, 2))  # leading coefficient not a unit
    with pytest.raises(ValueError):
        LaurentQuotientRing(3, (1,))  # degree zero
    for modulus, h in ((3, (1.0, 1)), (3, (True, 1)), (3, (1, "1")), (3.0, (1, 1)),
                       (True, (1, 1)), (0, (1, 1)), (-3, (1, 1))):
        with pytest.raises(ValueError):
            LaurentQuotientRing(modulus, h)


def test_ring_t_inverse():
    ring = LaurentQuotientRing(5, (3, 2, 1))
    assert ring.mul(ring.t(), ring.t_inverse()) == (1, 0)


def test_constructors_pass_check_quandle():
    assert check_quandle(dihedral_quandle(64)).is_quandle
    assert check_quandle(conj_quandle(symmetric_group(4))).is_quandle
    assert check_quandle(core_quandle(symmetric_group(3))).is_quandle
    ring = LaurentQuotientRing(2, (1, 1, 0, 1))
    assert check_quandle(alexander_quandle(ring)).is_quandle


def test_group_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteGroup.from_table([[0, 1], [1, 1]])  # not a latin square / no inverse
    with pytest.raises(ValueError):
        FiniteGroup(2, [[0, 1], [1, 0]], [0, 0], 0)  # wrong inverse table
    for table in ([[0, 1.0], [1, 0]], [[0, 1], [1]], [[0, 1], [1, 0], [0, 1]]):
        with pytest.raises(ValueError):
            FiniteGroup.from_table(table)
    # an inverse of -1 would index the last element
    for size, inverse, identity in ((2, [0, -1], 0), (2, [0, 1.0], 0), (2, [0, True], 0),
                                    (2, [0, 1], False), (2, [0, 1], 0.0), (2.0, [0, 1], 0),
                                    (3, [0, 1], 0), (2, [0, 1], -2)):
        with pytest.raises(ValueError):
            FiniteGroup(size, [[0, 1], [1, 0]], inverse, identity)
    assert FiniteGroup(2, [[0, 1], [1, 0]], [0, 1], 0) == cyclic_group(2)


def test_group_json_round_trip():
    g = symmetric_group(3)
    assert FiniteGroup.from_json(g.to_json()).table == g.table


def test_quandle_json_round_trip():
    q = dihedral_quandle(6)
    assert FiniteQuandle.from_json(q.to_json()).table == q.table


# --- the bilinear-form footnote ---------------------------------------------

def test_alternating_implies_antisymmetric_exhaustively():
    for n in (2, 3, 4, 5):
        vectors = module_vectors(n, 2)
        for entries in itertools.product(range(min(n, 3)), repeat=4):
            gram = [list(entries[:2]), list(entries[2:])]
            if form_is_alternating(gram, vectors, n):
                assert form_is_antisymmetric(gram, vectors, n)


def test_antisymmetric_implies_alternating_when_two_invertible():
    for n in (3, 5):
        vectors = module_vectors(n, 2)
        for entries in itertools.product(range(n), repeat=4):
            gram = [list(entries[:2]), list(entries[2:])]
            if form_is_antisymmetric(gram, vectors, n):
                assert form_is_alternating(gram, vectors, n)


def test_z2_product_form_regression():
    """The fixed regression: xy on (Z/2)^1 is antisymmetric but not
    alternating, and the transvection operation fails idempotence (1*1 = 0).
    It also fails bijectivity (*1 is constant), so antisymmetry alone does
    not yield a rack when 2 is a zero divisor."""
    gram = [[1]]
    vectors = module_vectors(2, 1)
    assert form_is_antisymmetric(gram, vectors, 2)
    assert not form_is_alternating(gram, vectors, 2)
    q = transvection_quandle(2, gram)
    report = check_quandle(q)
    assert q.op(1, 1) == 0
    assert not report.idempotent
    assert report.right_distributive
    assert not report.right_translations_bijective
    assert q.op(0, 1) == q.op(1, 1) == 0


def test_alternating_gram_gives_quandle():
    q = transvection_quandle(3, [[0, 1], [-1, 0]])
    assert check_quandle(q).is_quandle


def test_symplectic_table_over_z2_counterexample_witness():
    report = check_quandle(transvection_quandle(2, [[1]]))
    assert not report.idempotent
    i, j, k = report.counterexample
    assert (i, j, k) == (1, 1, 1)
