import ast
import inspect
import io
import random
import textwrap
from collections import deque
from dataclasses import dataclass
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trefoil import (
    PF_INFINITY,
    PF_ZERO,
    PFrac,
    TransvectionMatrix,
    apply_matrix,
    orbit_bfs,
    pf_new,
    pf_op,
    pf_op_inv,
    pf_op_pow,
    projectivize,
    sympl_op,
    sympl_op_inv,
    transvection_matrix,
)
from trefoil import cli

pairs = st.tuples(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
).filter(lambda t: t != (0, 0))

fractions = pairs.map(lambda t: pf_new(*t))


def test_pf_new_examples():
    assert pf_new(0, 5) == PFrac(0, 1)
    assert pf_new(-2, -6) == PFrac(1, 3)
    assert pf_new(3, 0) == PFrac(1, 0)
    assert pf_new(4, -6) == PFrac(-2, 3)


def test_pf_new_rejects_zero_pair():
    with pytest.raises(ValueError):
        pf_new(0, 0)


def test_canonical_constructor_rejects_raw_pairs():
    for p, q in ((2, 4), (1, -2), (-1, 0), (0, 0), (0, 2), (0, -1), (3, 0),
                 (True, 1), (1, True), (1.0, 1), (0, 1.0), ("1", 1)):
        with pytest.raises(ValueError):
            PFrac(p, q)
    # bools, floats and strs are not coerced to ints on any public path
    for p, q in ((True, 1), (0, True), (1.0, 2), (1, "2")):
        with pytest.raises(ValueError):
            pf_new(p, q)
        with pytest.raises(ValueError):
            projectivize((p, q))
    for k in (1.5, 2.0, True, "2"):
        with pytest.raises(ValueError):
            pf_op_pow(PF_ZERO, PF_INFINITY, k)
    for r in (0.5, True, "1"):
        with pytest.raises(TypeError):
            PFrac.from_fraction(r)


def test_pf_new_reduces_scaled_pairs():
    rng = random.Random(16)
    canonical = [(0, 1), (1, 0), (1, 1), (-1, 1)]
    for bits in (8, 64, 2048):
        for _ in range(40):
            p, q = rng.getrandbits(bits) * rng.choice((1, -1)), rng.getrandbits(bits) + 1
            g = gcd(p, q)
            canonical.append((p // g, q // g))
    for p, q in canonical:
        x = PFrac(p, q)
        for g in (1, 2, rng.getrandbits(16) + 1, rng.getrandbits(300) + 1):
            for s in (1, -1):
                y = pf_new(s * g * p, s * g * q)
                assert y == x and hash(y) == hash(x)


def random_primitive_pairs(rng, bit_sizes):
    yield PF_ZERO
    yield PF_INFINITY
    for bits in bit_sizes:
        for sign in (1, -1):
            q = rng.getrandbits(bits) + 1
            p = sign * (rng.getrandbits(bits) + 1)
            g = gcd(p, q)
            yield PFrac(p // g, q // g)


def test_det_one_maps_sign_only():
    # pf_op, pf_op_inv, pf_op_pow and the matrix action skip pf_new's gcd:
    # each result must still pass every PFrac check and equal the reduced
    # raw pair
    rng = random.Random(17)
    small = list(random_primitive_pairs(rng, (1, 8, 64, 1024)))
    big = list(random_primitive_pairs(rng, (2**12, 2**15)))[2:]
    pairs = [(x, y) for x in small for y in small]
    pairs += [(x, y) for b in big for s in small[:2] + small[-2:] for x, y in ((b, s), (s, b))]
    pairs += [(big[1], big[3]), (big[3], big[2])]
    for x, y in pairs:
        d = x.p * y.q - x.q * y.p
        m = transvection_matrix(y)
        results = [
            (pf_op(x, y), (x.p - d * y.p, x.q - d * y.q)),
            (pf_op_inv(x, y), (x.p + d * y.p, x.q + d * y.q)),
            (apply_matrix(m, x), (m.a * x.p + m.b * x.q, m.c * x.p + m.d * x.q)),
        ]
        for k in (-3, 0, 3):
            results.append((pf_op_pow(x, y, k), (x.p - k * d * y.p, x.q - k * d * y.q)))
        for r, raw in results:
            assert PFrac(r.p, r.q) == r == pf_new(*raw)


def test_worked_identity_chains():
    assert pf_op(PF_ZERO, PF_INFINITY) == pf_new(1, 1)
    assert pf_op(pf_new(1, 1), PF_ZERO) == PF_INFINITY
    assert pf_op(PF_INFINITY, PF_ZERO) == pf_new(-1, 1)
    assert pf_op(pf_new(-1, 1), PF_INFINITY) == PF_ZERO


@settings(max_examples=300, derandomize=True)
@given(fractions)
def test_idempotence(x):
    assert pf_op(x, x) == x
    assert pf_op_inv(x, x) == x


@settings(max_examples=300, derandomize=True)
@given(fractions, fractions)
def test_inverse_operation(x, y):
    assert pf_op_inv(pf_op(x, y), y) == x
    assert pf_op(pf_op_inv(x, y), y) == x


@settings(max_examples=300, derandomize=True)
@given(fractions, fractions, fractions)
def test_right_distributivity(x, y, z):
    assert pf_op(pf_op(x, y), z) == pf_op(pf_op(x, z), pf_op(y, z))


@settings(max_examples=200, derandomize=True)
@given(fractions, fractions)
def test_projective_well_definedness(x, y):
    reference = pf_op(x, y)
    for sx in (1, -1):
        for sy in (1, -1):
            u, v = sympl_op((sx * x.p, sx * x.q), (sy * y.p, sy * y.q))
            assert pf_new(u, v) == reference


@settings(max_examples=200, derandomize=True)
@given(fractions, fractions)
def test_unreduced_result_is_primitive(x, y):
    d = x.p * y.q - x.q * y.p
    raw = (x.p - d * y.p, x.q - d * y.q)
    assert gcd(abs(raw[0]), abs(raw[1])) == 1


def test_pow_examples():
    assert pf_op_pow(pf_new(1, 3), PF_ZERO, 2) == pf_new(1, 1)
    assert pf_op_pow(pf_new(1, 3), PF_INFINITY, 2) == pf_new(7, 3)
    x = pf_new(5, 7)
    assert pf_op_pow(x, pf_new(2, 3), 0) == x


def test_pow_matches_iteration():
    rng = random.Random(11)
    for _ in range(50):
        x = pf_new(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        y = pf_new(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        forward = backward = x
        for k in range(1, 21):
            forward = pf_op(forward, y)
            backward = pf_op_inv(backward, y)
            assert pf_op_pow(x, y, k) == forward
            assert pf_op_pow(x, y, -k) == backward


def test_pow_special_cases_closed_forms():
    rng = random.Random(12)
    for _ in range(200):
        x = pf_new(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        k = rng.randint(1, 15)
        assert pf_op_pow(x, PF_ZERO, k) == pf_new(x.p, x.q - k * x.p)
        assert pf_op_pow(x, PF_ZERO, -k) == pf_new(x.p, x.q + k * x.p)
        assert pf_op_pow(x, PF_INFINITY, k) == pf_new(x.p + k * x.q, x.q)
        assert pf_op_pow(x, PF_INFINITY, -k) == pf_new(x.p - k * x.q, x.q)


def test_transvection_matrix_generators():
    assert transvection_matrix(PF_INFINITY).rows() == [[1, 1], [0, 1]]
    assert transvection_matrix(PF_ZERO).rows() == [[1, 0], [-1, 1]]


@settings(max_examples=300, derandomize=True)
@given(fractions)
def test_transvection_matrix_determinant(y):
    assert transvection_matrix(y).det() == 1


def test_transvection_matrix_determinant_large():
    # transvection_matrix skips the determinant check of a direct
    # TransvectionMatrix(...), since the determinant is 1 identically
    rng = random.Random(18)
    for y in random_primitive_pairs(rng, (2**10, 2**12, 2**14, 2**15)):
        m = transvection_matrix(y)
        assert m.det() == 1
        assert m == TransvectionMatrix(m.a, m.b, m.c, m.d)


def test_matrix_action_examples():
    x, y = pf_new(2, 5), pf_new(1, 3)
    assert apply_matrix(transvection_matrix(y), x) == pf_op(x, y)
    identity = TransvectionMatrix(1, 0, 0, 1)
    assert apply_matrix(identity, x) == x
    shear = TransvectionMatrix(1, 1, 0, 1)
    assert apply_matrix(shear, PF_ZERO) == pf_new(1, 1)


@settings(max_examples=300, derandomize=True)
@given(fractions, fractions)
def test_matrix_action_agrees_with_operation(x, y):
    assert apply_matrix(transvection_matrix(y), x) == pf_op(x, y)


def test_matrix_equality_is_projective():
    m = TransvectionMatrix(1, 1, 0, 1)
    assert m == TransvectionMatrix(-1, -1, 0, -1)
    assert hash(m) == hash(TransvectionMatrix(-1, -1, 0, -1))
    assert m != TransvectionMatrix(1, 0, 0, 1)


def test_matrix_rejects_bad_determinant():
    with pytest.raises(ValueError):
        TransvectionMatrix(1, 0, 0, 0)
    with pytest.raises(ValueError):
        TransvectionMatrix(0, 1, 1, 0)  # determinant -1
    for entries in ((1.0, 0, 0, 1.0), (True, 0, 0, True), (1, 0, 0.0, 1), (1, "0", 0, 1)):
        with pytest.raises(ValueError):
            TransvectionMatrix(*entries)


def test_sympl_examples():
    assert sympl_op((0, 0), (3, 7)) == (0, 0)
    assert sympl_op((2, 4), (1, 1)) == (4, 6)
    assert sympl_op((5, 3), (5, 3)) == (5, 3)


@pytest.mark.parametrize("op", [sympl_op, sympl_op_inv])
@pytest.mark.parametrize("x, y", [
    ((0.5, 0), (1, 1)),
    ((1, 0), (1, 1.0)),
    ((True, 0), (1, 1)),
    ((1, 0), (1, False)),
    (("1", 0), (1, 1)),
    ((1, 0), (1, "1")),
])
def test_sympl_rejects_non_int_entries(op, x, y):
    with pytest.raises(ValueError, match="expected ints"):
        op(x, y)


def test_sympl_rack_axioms_sampled():
    rng = random.Random(13)
    for _ in range(300):
        x = (rng.randint(-99, 99), rng.randint(-99, 99))
        y = (rng.randint(-99, 99), rng.randint(-99, 99))
        z = (rng.randint(-99, 99), rng.randint(-99, 99))
        assert sympl_op(x, x) == x
        assert sympl_op_inv(sympl_op(x, y), y) == x
        assert sympl_op(sympl_op(x, y), z) == sympl_op(sympl_op(x, z), sympl_op(y, z))


def test_primitivity():
    assert projectivize((1, 0)) == PF_INFINITY
    assert projectivize((-3, 5)) == PFrac(-3, 5)
    with pytest.raises(ValueError):
        projectivize((2, 4))
    with pytest.raises(ValueError):
        projectivize((0, 0))


def test_braid_relation_on_fractions():
    rng = random.Random(14)
    a, b = PF_ZERO, PF_INFINITY
    for _ in range(500):
        x = pf_new(rng.randint(-999, 999) or 1, rng.randint(1, 999))
        assert pf_op(pf_op(pf_op(x, a), b), a) == pf_op(pf_op(pf_op(x, b), a), b)


def test_orbit_bfs_examples():
    report = orbit_bfs([pf_new(1, 1), PF_ZERO, pf_new(7, 3)], bound=10)
    assert report.reached[pf_new(1, 1)] == "ab"
    assert report.reached[PF_ZERO] == "a"
    assert pf_new(7, 3) in report.reached
    assert not report.unreached


def test_orbit_bfs_respects_bound():
    report = orbit_bfs([pf_new(7, 3)], bound=2)
    assert pf_new(7, 3) in report.unreached
    assert all(abs(f.p) <= 2 and abs(f.q) <= 2 for f in report.witnesses)


def test_orbit_bfs_rejects_bad_bound():
    for bound in (0, -3, 2.5, 30.0, True, "30"):
        with pytest.raises(ValueError):
            orbit_bfs([PF_ZERO], bound=bound)


def _orbit_by_operations(targets, bound):
    """orbit_bfs as a search over PFrac with pf_op and pf_op_inv: the oracle."""
    steps = (("a", PF_ZERO, pf_op), ("A", PF_ZERO, pf_op_inv),
             ("b", PF_INFINITY, pf_op), ("B", PF_INFINITY, pf_op_inv))
    witnesses = {PF_ZERO: "a", PF_INFINITY: "b"}
    edges = []
    queue = deque([PF_ZERO, PF_INFINITY])
    while queue:
        x = queue.popleft()
        for letter, gen, step in steps:
            y = step(x, gen)
            if abs(y.p) <= bound and abs(y.q) <= bound and y not in witnesses:
                witnesses[y] = witnesses[x] + letter
                edges.append((x, letter, y))
                queue.append(y)
    return witnesses, tuple(edges)


@dataclass(frozen=True)
class _SearchReport:
    """What the search on PFracs found, with the tree edges it took as it
    took them, and the DOT text of the orbit command rendered from those
    edges."""

    bound: int
    explored: int
    witnesses: dict
    reached: dict
    unreached: tuple
    edges: tuple

    def to_dot(self):
        points = sorted(self.witnesses, key=lambda x: (x.q, x.p))
        return "\n".join(["digraph orbit {", *(f'  "{x}";' for x in points),
                          *(f'  "{x}" -> "{y}" [label="{letter}"];' for x, letter, y in self.edges),
                          "}"])


def _orbit_bfs_on_pfracs(targets, bound):
    """orbit_bfs as it was before its search ran on plain int pairs, with
    each reached point built as a PFrac when first reached (here through
    the public constructor), in the loop, and each tree edge recorded when
    it is taken: the oracle for the order of witnesses, reached, unreached
    and edges, and for the orbit command's output."""
    targets = tuple(targets)
    side = 4 * bound + 1
    last = side * side - 1
    origin = last // 2
    wall = b"\x01" * side
    row = b"\x01" * bound + bytes(2 * bound + 1) + b"\x01" * bound
    seen = bytearray(wall * bound + row * (2 * bound + 1) + wall * bound)
    nodes = [(PFrac(0, 1), "a", origin + 1), (PFrac(1, 0), "b", origin + side)]
    edges = []
    for _, _, c in nodes:
        seen[c] = seen[last - c] = 1

    def take(x, letter, y, word, cell):
        nodes.append((y, word + letter, cell))
        edges.append((x, letter, y))

    for x, word, cell in nodes:
        p, q = x.p, x.q
        c = cell - p
        if not seen[c]:
            seen[c] = seen[last - c] = 1
            if q >= p:
                take(x, "a", PFrac(p, q - p), word, c)
            else:
                take(x, "a", PFrac(-p, p - q), word, last - c)
        c = cell + p
        if not seen[c]:
            seen[c] = seen[last - c] = 1
            if q + p > 0:
                take(x, "A", PFrac(p, q + p), word, c)
            else:
                take(x, "A", PFrac(-p, -q - p), word, last - c)
        c = cell + q * side
        if not seen[c]:
            seen[c] = seen[last - c] = 1
            take(x, "b", PFrac(p + q, q), word, c)
        c = cell - q * side
        if not seen[c]:
            seen[c] = seen[last - c] = 1
            take(x, "B", PFrac(p - q, q), word, c)
    witnesses = {x: word for x, word, _ in nodes}
    reached = {t: witnesses[t] for t in targets if t in witnesses}
    return _SearchReport(
        bound=bound,
        explored=len(nodes),
        witnesses=witnesses,
        reached=reached,
        unreached=tuple(t for t in targets if t not in reached),
        edges=tuple(edges),
    )


def _box_size(bound):
    """Canonical primitive pairs with |p|, |q| <= bound, counted by gcd."""
    return 1 + sum(1 for q in range(1, bound + 1) for p in range(-bound, bound + 1)
                   if gcd(abs(p), q) == 1)


def test_orbit_bfs_matches_the_operation_search():
    rng = random.Random(17)
    for bound in range(1, 61):
        box = bound + 2
        targets = [PF_INFINITY, pf_new(bound + 1, 1)] + [
            pf_new(rng.randint(-box, box), rng.randint(1, box)) for _ in range(20)]
        report = orbit_bfs(targets, bound)
        witnesses, edges = _orbit_by_operations(targets, bound)
        assert list(report.witnesses.items()) == list(witnesses.items())
        assert all(type(x) is PFrac and type(y) is PFrac for x, _, y in report.edges)
        assert report.edges == edges
        assert report.explored == len(witnesses) == _box_size(bound)
        reached = {t: witnesses[t] for t in targets if t in witnesses}
        assert list(report.reached.items()) == list(reached.items())
        assert report.unreached == tuple(t for t in targets if t not in witnesses)
        assert pf_new(bound + 1, 1) in report.unreached


def _parent(x):
    """The neighbour one level nearer the roots that orbit_bfs's tree walk
    relies on: x - 1 above 1, x + 1 below -1, x/(1 - x) on (0, 1) and
    x/(1 + x) on (-1, 0)."""
    p, q = x
    if p > q:
        return pf_new(p - q, q)
    if p < -q:
        return pf_new(p + q, q)
    return pf_new(p, q - p) if p > 0 else pf_new(p, q + p)


def test_every_point_but_the_roots_and_plus_minus_one_has_one_parent():
    # the lemma orbit_bfs walks by, read off the operation search: apart
    # from 0/1, 1/0 and ±1/1, each point has exactly one in-box step
    # neighbour one level nearer the roots, and it is _parent's
    steps = ((PF_ZERO, pf_op), (PF_ZERO, pf_op_inv),
             (PF_INFINITY, pf_op), (PF_INFINITY, pf_op_inv))
    exempt = {PF_ZERO, PF_INFINITY, pf_new(1, 1), pf_new(-1, 1)}
    for bound in range(1, 61):
        witnesses, _ = _orbit_by_operations([], bound)
        depth = {x: len(word) - 1 for x, word in witnesses.items()}
        for x in depth.keys() - exempt:
            nearer = [y for gen, step in steps
                      if depth.get(y := step(x, gen)) == depth[x] - 1]
            assert nearer == [_parent(x)], (bound, x)


def test_orbit_bfs_and_the_orbit_command_match_the_search_on_pfracs(monkeypatch):
    rng = random.Random(18)
    for bound in range(1, 61):
        box = bound + 2
        targets = [pf_new(bound + 1, 1), PF_ZERO] + [
            pf_new(rng.randint(-box, box), rng.randint(1, box)) for _ in range(10)]
        report, oracle = orbit_bfs(targets, bound), _orbit_bfs_on_pfracs(targets, bound)
        assert list(report.witnesses.items()) == list(oracle.witnesses.items())
        assert list(report.reached.items()) == list(oracle.reached.items())
        assert report.unreached == oracle.unreached
        assert report.edges == oracle.edges
        assert report.explored == oracle.explored
        assert all(type(x) is PFrac for x in report.witnesses)
        # the CLI prints the same bytes from either search
        for argv in (["orbit", str(targets[0])], ["orbit", str(targets[2])],
                     ["--json", "orbit", str(targets[2])], ["orbit", "1/1", "--dot"]):
            argv = argv + ["--bound", str(bound)]
            outputs = []
            for search in (orbit_bfs, _orbit_bfs_on_pfracs):
                monkeypatch.setattr(cli, "orbit_bfs", search)
                out, err = io.StringIO(), io.StringIO()
                outputs.append((cli.run(argv, stdout=out, stderr=err), out.getvalue(),
                                err.getvalue()))
            assert outputs[0] == outputs[1] and outputs[0][0] == 0, argv


def test_orbit_bfs_search_loop_calls_only_the_queue_append():
    # the search runs on plain ints and allocates no per-node container:
    # one loop zips the three queue lists, and its body calls no function
    # but their appends, bound once, builds no PFrac and has no tuple display
    tree = ast.parse(textwrap.dedent(inspect.getsource(orbit_bfs)))
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.For)
             and isinstance(n.iter, ast.Call) and n.iter.func.id == "zip"]
    assert len(loops) == 1
    queue = [arg.id for arg in loops[0].iter.args]
    assert len(queue) == 3
    bound_names = {target.id: value for n in ast.walk(tree) if isinstance(n, ast.Assign)
                   and isinstance(n.targets[0], ast.Tuple) and isinstance(n.value, ast.Tuple)
                   for target, value in zip(n.targets[0].elts, n.value.elts)}
    appends = {name for name, value in bound_names.items() if isinstance(value, ast.Attribute)
               and value.attr == "append" and value.value.id in queue}
    assert sorted(bound_names[name].value.id for name in appends) == sorted(queue)
    body = [n for stmt in loops[0].body for n in ast.walk(stmt)]
    calls = [n.func for n in body if isinstance(n, ast.Call)]
    assert all(isinstance(f, ast.Name) for f in calls) and {f.id for f in calls} == appends
    assert not any(isinstance(n, ast.Tuple) for n in body)
    assert not {"PFrac", "_pfrac", "_pf_signed"} & {n.id for n in body if isinstance(n, ast.Name)}


def test_orbit_witnesses_are_prefix_closed():
    # the report's edges are read back from the witnesses: each non-root
    # witness without its last letter is the witness of a point reached
    # before it
    for bound in range(1, 61):
        words = list(orbit_bfs([], bound).witnesses.values())
        assert words[:2] == ["a", "b"]
        position = {word: i for i, word in enumerate(words)}
        assert len(position) == len(words)
        for i, word in enumerate(words[2:], 2):
            assert position[word[:-1]] < i, (bound, word)


def test_generator_steps_are_the_operations():
    # every edge orbit_bfs reports is one operation step by the generator
    # its letter names, and each reached point but the two roots is the
    # target of exactly one edge
    steps = {"a": (PF_ZERO, pf_op), "A": (PF_ZERO, pf_op_inv),
             "b": (PF_INFINITY, pf_op), "B": (PF_INFINITY, pf_op_inv)}
    for bound in range(1, 61):
        report = orbit_bfs([], bound)
        for x, letter, y in report.edges:
            gen, step = steps[letter]
            assert step(x, gen) == y
            assert report.witnesses[y] == report.witnesses[x] + letter
        assert [y for _, _, y in report.edges] == list(report.witnesses)[2:]


def test_orbit_dot_output():
    dot = orbit_bfs([pf_new(1, 1)], bound=1).to_dot()
    assert dot.startswith("digraph orbit {")
    assert '"0/1" -> "1/1" [label="b"];' in dot


def test_text_and_json_round_trips():
    for text in ("7/3", "-1/2", "1/0", "0/1", "5"):
        x = PFrac.parse(text)
        assert PFrac.parse(str(x)) == x
    assert str(PFrac.parse("5")) == "5/1"
    assert PFrac.parse("-2/6") == PFrac(-1, 3)
    with pytest.raises(ValueError):
        PFrac.parse("x/y")
    with pytest.raises(ValueError):
        PFrac.parse("1/-2")
