"""Recoordinatization maps: phi, tau, twist families, matrices, verifiers."""
from __future__ import annotations

import json
import math
import random
import re
from itertools import islice, product

import numpy as np
import pytest

from sierham import graphs, maps
from sierham.graphs import (
    MAX_VERTICES,
    Graph,
    build_hamming,
    build_sierpinski,
    build_single_twist,
    code_to_vertex,
    corners,
    digit_rows,
    from_edge_list,
    is_sierpinski_edge,
    sierpinski_edge_count,
)
from sierham.maps import (
    LinearMap,
    TwistFamily,
    compose_linear_maps,
    embedding_matrix,
    epsilon_forward,
    invert_linear_map,
    layout_metrics,
    phi_forward,
    phi_inverse,
    phi_recursive,
    sierpinski_isomorphism,
    tau_forward,
    tau_inverse,
    verify_coordinatization,
    verify_embedding,
)

import oracles

SMALL = [(n, m) for n in range(1, 5) for m in range(2, 6)]


def units(m):
    """The units mod m in increasing order, lazily: a caller takes what it needs."""
    return (c for c in range(1, m) if math.gcd(c, m) == 1)


# ---------------------------------------------------------------- phi


def test_phi_examples():
    assert phi_forward((1, 1, 1), 2) == (1, 0, 0)
    assert phi_forward((0, 1, 2), 3) == (0, 1, 0)
    assert phi_forward((0, 0, 0, 0), 5) == (0, 0, 0, 0)
    assert phi_inverse((0, 1, 0), 3) == (0, 1, 2)


@pytest.mark.parametrize("n,m", SMALL)
def test_phi_matches_recursion(n, m):
    table = phi_recursive(n, m)
    assert len(table) == m**n
    for v, w in table.items():
        assert phi_forward(v, m) == w


@pytest.mark.parametrize("n,m", SMALL)
def test_phi_roundtrip(n, m):
    for v in oracles.all_vertices(n, m):
        w = phi_forward(v, m)
        assert phi_inverse(w, m) == v
        assert phi_forward(phi_inverse(v, m), m) == v


def test_phi_inverse_without_reduction():
    # the subtraction formula tolerates unreduced prefix sums; a variant
    # that reduces every step must agree everywhere
    def reduced_inverse(w, m):
        out = []
        s = 0
        for d in w:
            out.append((d - s) % m)
            s = (s + d) % m
        return tuple(out)

    for w in oracles.all_vertices(4, 5):
        assert phi_inverse(w, 5) == reduced_inverse(w, 5)


def test_phi_prefix_stability():
    # coordinate i of the image depends only on the first i input digits
    for v in oracles.all_vertices(4, 3):
        w = phi_forward(v, 3)
        for k in range(1, 4):
            assert phi_forward(v[:k], 3) == w[:k]


def test_phi_is_bijection_on_big_words():
    # plain-integer arithmetic: no overflow worry at n = 64
    v = tuple((3 * i + 1) % 5 for i in range(64))
    assert phi_inverse(phi_forward(v, 5), 5) == v


# ---------------------------------------------------------------- tau


def test_tau_examples():
    assert tau_forward((0, 1, 0, 1), 5) == (0, 3, 4, 1)
    assert tau_inverse((0, 3, 4, 1), 5) == (0, 1, 0, 1)
    assert tau_forward((0, 0, 1, 1), 3) == (0, 0, 1, 1)
    assert tau_forward((0, 0, 1, 0), 3) == (0, 0, 1, 2)


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_tau_roundtrip(m):
    for v in oracles.all_vertices(3, m):
        assert tau_inverse(tau_forward(v, m), m) == v


@pytest.mark.parametrize("m", [3, 5, 7])
@pytest.mark.parametrize("n", range(1, 6))
def test_tau_fixes_corners(n, m):
    for c in corners(n, m):
        assert tau_forward(c, m) == c
        assert tau_inverse(c, m) == c


def test_tau_rejects_even_m():
    with pytest.raises(ValueError):
        tau_forward((0, 1), 4)
    with pytest.raises(ValueError):
        tau_inverse((0, 1), 2)
    with pytest.raises(ValueError):
        embedding_matrix("tau", 3, 6)


def test_tau_is_phi_rescaled():
    m = 7
    inv2 = (m + 1) // 2
    for v in oracles.all_vertices(3, m):
        w = phi_forward(v, m)
        t = tau_forward(v, m)
        assert t == tuple(pow(inv2, i, m) * w[i] % m for i in range(3))


# ---------------------------------------------------------------- matrices


TAU_4_3 = ((1, 0, 0, 0), (2, 2, 0, 0), (2, 1, 1, 0), (2, 1, 2, 2))
TAU_4_5 = ((1, 0, 0, 0), (3, 3, 0, 0), (3, 4, 4, 0), (3, 4, 2, 2))
TAU_INV_4_5 = ((1, 0, 0, 0), (4, 2, 0, 0), (4, 3, 4, 0), (4, 3, 1, 3))


def identity_map(n, m):
    return LinearMap(m, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def test_tau_matrix_4_3_frozen():
    lm = embedding_matrix("tau", 4, 3)
    assert lm.rows == TAU_4_3


def test_tau_matrix_4_3_self_inverse():
    lm = embedding_matrix("tau", 4, 3)
    assert compose_linear_maps(lm, lm).rows == identity_map(4, 3).rows
    assert invert_linear_map(lm).rows == lm.rows


def test_tau_matrix_4_5_frozen():
    lm = embedding_matrix("tau", 4, 5)
    assert lm.rows == TAU_4_5
    assert invert_linear_map(lm).rows == TAU_INV_4_5


def test_tau_matrix_4_5_not_self_inverse():
    lm = embedding_matrix("tau", 4, 5)
    assert compose_linear_maps(lm, lm).rows != identity_map(4, 5).rows


@pytest.mark.parametrize("n", range(1, 9))
def test_tau_mod_3_self_inverse_all_sizes(n):
    lm = embedding_matrix("tau", n, 3)
    assert compose_linear_maps(lm, lm).rows == identity_map(n, 3).rows


def test_phi_matrix_rows():
    lm = embedding_matrix("phi", 4, 3)
    assert lm.rows == ((1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0), (1, 2, 1, 1))


@pytest.mark.parametrize("n,m", SMALL)
def test_matrices_agree_with_functions(n, m):
    phi_m = embedding_matrix("phi", n, m)
    tau_m = embedding_matrix("tau", n, m) if m % 2 else None
    for v in oracles.all_vertices(n, m):
        assert phi_m.apply(v) == phi_forward(v, m)
        if tau_m is not None:
            assert tau_m.apply(v) == tau_forward(v, m)


@pytest.mark.parametrize(
    "lm",
    [
        embedding_matrix("tau", 4, 3),
        embedding_matrix("tau", 4, 5),
        embedding_matrix("phi", 5, 4),
        embedding_matrix(TwistFamily(5, (2, 3, 4))),
        embedding_matrix("tau", 3, 2**61 - 1),  # products beyond int64
    ],
)
def test_inverse_composes_to_identity(lm):
    inv = invert_linear_map(lm)
    ident = identity_map(lm.n, lm.m).rows
    assert compose_linear_maps(lm, inv).rows == ident
    assert compose_linear_maps(inv, lm).rows == ident


def test_linear_map_validation():
    with pytest.raises(ValueError):
        LinearMap(3, ((1, 0), (1, 1, 0)))  # not square
    with pytest.raises(ValueError):
        LinearMap(3, ((1, 1), (0, 1)))  # above-diagonal entry
    with pytest.raises(ValueError):
        LinearMap(4, ((2, 0), (1, 1)))  # diagonal not a unit mod 4
    with pytest.raises(ValueError):
        compose_linear_maps(identity_map(2, 3), identity_map(3, 3))


def test_linear_map_rejects_small_parameters():
    with pytest.raises(ValueError, match=r"^m must be >= 2, got 1$"):
        LinearMap(1, ((0,),))
    with pytest.raises(ValueError, match=r"^m must be >= 2, got -5$"):
        LinearMap(-5, ((1,),))
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        LinearMap(3, ())
    # embedding_matrix reduces its rows mod m before LinearMap sees them
    with pytest.raises(ValueError, match=r"^m must be >= 2, got 0$"):
        embedding_matrix("phi", 3, 0)
    with pytest.raises(ValueError, match=r"^m must be >= 2, got 1$"):
        embedding_matrix("tau", 3, 1)
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        embedding_matrix("phi", 0, 3)


@pytest.mark.parametrize("kind", ["phi", "tau", TwistFamily(3, (2,) * 3163)])
def test_matrix_refuses_more_than_max_vertices_entries_before_building_a_row(
    kind, monkeypatch
):
    def refuse(*args):
        raise AssertionError("the matrix was built past the size guard")

    monkeypatch.setattr(maps, "LinearMap", refuse)
    # 3163^2 = 10,004,569 entries is the first square above MAX_VERTICES
    assert 3162**2 <= MAX_VERTICES < 3163**2
    message = f"3163x3163 matrix (limit {MAX_VERTICES} entries)"
    with pytest.raises(ValueError, match=re.escape(message)):
        embedding_matrix(kind, 3163, 3)


def test_inverse_refuses_more_than_max_vertices_multiply_adds():
    # forward substitution makes n(n^2-1)/6 multiply-adds; n = 392 is the first above the limit
    assert 391 * (391**2 - 1) // 6 <= MAX_VERTICES < 392 * (392**2 - 1) // 6
    message = f"392x392 matrix, n(n^2-1)/6 = 10039316 multiply-adds (limit {MAX_VERTICES})"
    with pytest.raises(ValueError, match=re.escape(message)):
        invert_linear_map(embedding_matrix("phi", 392, 3))


def test_embedding_matrix_argument_checks():
    with pytest.raises(ValueError):
        embedding_matrix("phi")  # n, m required for named kinds
    with pytest.raises(ValueError):
        embedding_matrix("rho", 2, 3)
    with pytest.raises(ValueError):
        embedding_matrix(TwistFamily(5, (1, 2)), n=3)  # level mismatch


@pytest.mark.parametrize("sizes", [(2, 7), (2, None), (None, 5), (None, 7)])
def test_embedding_matrix_takes_a_family_alone(sizes):
    # a family carries its own n and m, so any size passed beside it is refused
    n, m = sizes
    with pytest.raises(ValueError, match="pass it alone"):
        embedding_matrix(TwistFamily(5, (1, 1)), n, m)


CLOSED_FORM_MODULI = [2, 3, 4, 5, 7, 9, 11, 2**61 - 1, 10**29 + 1]


@pytest.mark.parametrize("m", CLOSED_FORM_MODULI)
def test_phi_and_tau_matrices_equal_the_closed_form(m):
    for n in range(1, 13):
        assert embedding_matrix("phi", n, m).rows == oracles.twist_matrix_closed_form(
            TwistFamily(m, (1,) * n)
        )
        if m % 2:
            assert embedding_matrix("tau", n, m).rows == oracles.twist_matrix_closed_form(
                TwistFamily(m, ((m + 1) // 2,) * n)
            )


@pytest.mark.parametrize("m", CLOSED_FORM_MODULI)
def test_seeded_family_matrices_equal_the_closed_form(m):
    rng = random.Random(m)
    for n in range(1, 13):
        for _ in range(3):
            cs = []
            while len(cs) < n:  # seeded units mod m, exact at any size
                c = rng.randrange(1, m)
                if math.gcd(c, m) == 1:
                    cs.append(c)
            tw = TwistFamily(m, tuple(cs))
            assert embedding_matrix(tw).rows == oracles.twist_matrix_closed_form(tw)


# ---------------------------------------------------------------- LinearMap.image

ENGINE_SIZES = [(1, 3), (3, 3), (4, 5), (3, 7), (2, 12), (2, 257)]


def some_twist(n, m):
    """Multipliers: the units numbered 3i + 1 (i < n), counted cyclically.

    Only the first 3n - 1 units are listed. When m has fewer, that is all of
    them; when it has more, every index 3i + 1 < 3n - 1 is already in range.
    """
    us = list(islice(units(m), 3 * n - 1))
    return TwistFamily(m, tuple(us[(3 * i + 1) % len(us)] for i in range(n)))


def image_tuples(lm, vs):
    return [tuple(r) for r in lm.image(vs).tolist()]


@pytest.mark.parametrize("n,m", ENGINE_SIZES)
def test_image_matches_the_scalar_formulas(n, m):
    vs = oracles.all_vertices(n, m)
    phi_m = embedding_matrix("phi", n, m)
    assert image_tuples(phi_m, vs) == [phi_forward(v, m) for v in vs]
    assert image_tuples(invert_linear_map(phi_m), vs) == [phi_inverse(v, m) for v in vs]
    tw = some_twist(n, m)
    eps_m = embedding_matrix(tw)
    assert image_tuples(eps_m, vs) == [epsilon_forward(v, tw) for v in vs]
    inv = invert_linear_map(eps_m)
    assert image_tuples(inv, vs) == [inv.apply(v) for v in vs]
    if m % 2:
        tau_m = embedding_matrix("tau", n, m)
        assert image_tuples(tau_m, vs) == [tau_forward(v, m) for v in vs]
        assert image_tuples(invert_linear_map(tau_m), vs) == [tau_inverse(v, m) for v in vs]


def test_image_is_exact_beyond_int64():
    n, m = 5, 2**61 - 1
    assert n * (m - 1) ** 2 >= 2**63  # the object path
    rng = np.random.default_rng(3)
    vs = [tuple(int(x) * 4 + 3 for x in row) for row in rng.integers(0, m // 4, (50, n))]
    lm = embedding_matrix("tau", n, m)
    out = lm.image(vs)
    assert out.dtype == object
    assert [tuple(r) for r in out.tolist()] == [tau_forward(v, m) for v in vs]
    assert image_tuples(invert_linear_map(lm), out) == vs


def all_ones_below(n, m):
    """w_i = v_1 + ... + v_i: unit lower-triangular, not an embedding."""
    return LinearMap(m, tuple(tuple(1 if j <= i else 0 for j in range(n)) for i in range(n)))


def cube_maps(n, m):
    """phi, tau (odd m), a seeded family, the all-ones matrix, and the inverse of each."""
    lms = [embedding_matrix("phi", n, m), embedding_matrix(some_twist(n, m)), all_ones_below(n, m)]
    if m % 2:
        lms.append(embedding_matrix("tau", n, m))
    return lms + [invert_linear_map(lm) for lm in lms]


CUBE_SIZES = [(1, 2), (1, 3), (5, 2), (3, 3), (4, 3), (6, 3), (3, 4), (2, 5), (3, 7), (2, 12), (2, 257)]


@pytest.mark.parametrize("n,m", CUBE_SIZES)
def test_cube_image_equals_the_image_of_every_digit_row(n, m):
    for lm in cube_maps(n, m):
        for base in sorted({2, m}):
            cube = lm.cube_image(base)
            assert cube.dtype == np.int64 and cube.flags.c_contiguous
            assert np.array_equal(cube, lm.image(digit_rows(np.arange(base**n), n, base)))


# int64 holds the cube while 2m < 2^63; 2^62 - 1 is the largest odd such m
@pytest.mark.parametrize("n,m", [(4, 10**10 + 19), (3, 2**62 - 1), (4, 2**62 + 1), (3, 10**29 + 1)])
def test_cube_image_is_exact_past_int64(n, m):
    for lm in cube_maps(n, m):
        for base in (2, 3):
            cube = lm.cube_image(base)
            assert cube.dtype == (np.int64 if 2 * m < 2**63 else object)
            assert cube.tolist() == lm.image(digit_rows(np.arange(base**n), n, base)).tolist()


def test_cube_image_checks_its_base_and_size():
    lm = embedding_matrix("tau", 3, 5)
    for base in (1, 6):
        with pytest.raises(ValueError, match=f"base {base} is outside 2..5"):
            lm.cube_image(base)
    message = f"3^15 = {3**15} rows of the digit cube {{0..2}}^15 (limit {MAX_VERTICES})"
    with pytest.raises(ValueError, match=re.escape(message)):
        embedding_matrix("phi", 15, 3).cube_image(3)
    table = np.zeros((8, 2, 3), np.int64)
    assert lm.cube_image(2, out=table[:, 1]).base is table
    assert np.array_equal(table[:, 1], lm.cube_image(2)) and not table[:, 0].any()


VERIFY_SIZES = [(3, 3), (4, 5), (3, 7), (3, 12)]


@pytest.mark.parametrize("n,m", VERIFY_SIZES)
def test_verifiers_take_a_linear_map(n, m):
    maps = [embedding_matrix("phi", n, m), embedding_matrix(some_twist(n, m)), all_ones_below(n, m)]
    if m % 2:
        maps.append(embedding_matrix("tau", n, m))
    for lm in maps:
        report = verify_embedding(lm, n, m)
        assert report == verify_embedding(lm.apply, n, m)  # violation order too
        assert layout_metrics(lm, n, m) == layout_metrics(lm.apply, n, m)
    assert not verify_embedding(all_ones_below(n, m), n, m)["verdict"]


def vertex_maps(n, m):
    """Every form the verifiers take (callable, mapping, LinearMap), embeddings or not."""
    forms = {
        "identity": lambda v: v,
        "constant": lambda v: (0,) * n,
        "fold": lambda v: (0,) + v[1:],  # m^(n-1) collisions, past the cap of 10
        "blockwise-phi": lambda v: (v[0],) + phi_forward(v[1:], m),
        "phi": lambda v: phi_forward(v, m),
        "phi-recursive": phi_recursive(n, m),
        "phi-matrix": embedding_matrix("phi", n, m),
        "twist-matrix": embedding_matrix(some_twist(n, m)),
        "all-ones-matrix": all_ones_below(n, m),
    }
    if m % 2:
        forms["tau"] = lambda v: tau_forward(v, m)
        forms["tau-matrix"] = embedding_matrix("tau", n, m)
    return forms


def typed(x):
    """x with each dict's items in order and each value next to its exact type."""
    if isinstance(x, dict):
        return dict, [(k, typed(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return type(x), [typed(v) for v in x]
    return type(x), x


ORACLE_SIZES = [(3, 3), (4, 3), (3, 4), (3, 5), (2, 7), (3, 12), (5, 3), (4, 5)]


@pytest.mark.parametrize(
    "n,m,form", [(n, m, form) for n, m in ORACLE_SIZES for form in vertex_maps(n, m)]
)
def test_verifiers_equal_the_per_vertex_reference(n, m, form):
    vmap = vertex_maps(n, m)[form]
    report = verify_embedding(vmap, n, m)
    assert typed(report) == typed(oracles.reference_verify_embedding(vmap, n, m))
    json.dumps(report)
    layout = layout_metrics(vmap, n, m)
    assert typed(layout) == typed(oracles.reference_layout_metrics(vmap, n, m))


@pytest.mark.parametrize("build", [build_sierpinski, build_single_twist])
@pytest.mark.parametrize("n,m", ORACLE_SIZES)
def test_coordinatization_gates_equal_the_per_vertex_reference(n, m, build):
    report = verify_coordinatization(build(n, m))
    json.dumps(report)
    ref = oracles.reference_coordinatization_gates(build(n, m))
    certificate = [item for item in report["violations"] if item["kind"] == "isomorphism"]
    for key in ("all_edges_distance_one", "edge_count_matches", "degree_sequence_matches"):
        assert typed(report[key]) == typed(ref[key])
    assert typed(report["violations"]) == typed(ref["violations"] + certificate)
    assert typed(report["violations_total"]) == typed(ref["violations_total"] + len(certificate))


@pytest.mark.parametrize(
    "w,message",
    [
        ((2, 2), "expected 3 digits, got 2"),
        ((2, 2, 3), "digit 3 out of range"),
        ((-1, 2, 2), "digit -1 out of range"),
        ((2, 2, 2**70), f"digit {2**70} out of range"),
        ((2, 2, 2**64 - 1), f"digit {2**64 - 1} out of range"),
        ((2, -0.5, 2), "digit -0.5 out of range"),
        ((2, 2, 3.5), "digit 3.5 out of range"),
        ((2, 2, float("nan")), "digit nan out of range"),
        ((2, 2, 2, 2), "expected 3 digits, got 4"),
    ],
)
def test_verifiers_reject_malformed_callable_outputs(w, message):
    # the identity, except that the last vertex goes to w
    f = lambda v: w if v == (2, 2, 2) else v  # noqa: E731
    for verifier in (verify_embedding, layout_metrics):
        with pytest.raises(ValueError, match=message):
            verifier(f, 3, 3)
        with pytest.raises(ValueError, match=message):
            verifier({v: f(v) for v in oracles.all_vertices(3, 3)}, 3, 3)


def test_a_bad_output_is_named_before_a_later_call_fails(monkeypatch, block_passes):
    def f(v):
        if v == (0, 1, 1):
            raise RuntimeError("no image for 011")
        return {(0, 0, 1): (0, 0, 5), (0, 0, 2): (0, 0, 4)}.get(v, v)

    def g(v):  # f without the bad outputs
        return f(v) if v[2] == 0 or v[1] else v

    def blocks_to(code):  # the one pass over the cube, up to the block holding code
        return [[min(block, 27)] * (code // block + 1)]

    for block in (65536, 3, 1):  # the bad outputs in the failing block, or in earlier ones
        monkeypatch.setattr(graphs, "ROW_BLOCK", block)
        for verifier in (verify_embedding, layout_metrics):
            block_passes.clear()
            with pytest.raises(ValueError, match="digit 5 out of range"):  # the first bad one
                verifier(f, 3, 3)
            assert block_passes == blocks_to(1)
            block_passes.clear()
            with pytest.raises(RuntimeError, match="no image for 011"):
                verifier(g, 3, 3)
            assert block_passes == blocks_to(4)
            assert len(block_passes[0]) > 1 or block == 65536  # the split runs took several blocks


def test_a_mapping_missing_a_vertex_raises_key_error():
    table = {v: v for v in oracles.all_vertices(3, 3)}
    del table[(1, 2, 0)]
    with pytest.raises(KeyError):
        verify_embedding(table, 3, 3)
    table[(0, 2, 2)] = (3, 0, 0)  # before the missing key, so named first
    with pytest.raises(ValueError, match="digit 3 out of range"):
        verify_embedding(table, 3, 3)


def test_float_and_numpy_outputs_read_as_their_int64_values():
    ints = verify_embedding(lambda v: phi_forward(v, 3), 3, 3)
    layout = layout_metrics(lambda v: phi_forward(v, 3), 3, 3)
    outputs = {
        "float": lambda v: tuple(float(d) for d in phi_forward(v, 3)),
        "array": lambda v: np.array(phi_forward(v, 3)),
        "uint8": lambda v: tuple(np.uint8(d) for d in phi_forward(v, 3)),
        "list": lambda v: list(phi_forward(v, 3)),
        "-0.0": lambda v: tuple(-0.0 if d == 0 else d for d in phi_forward(v, 3)),
        "2.9": lambda v: tuple(d + 0.9 for d in phi_forward(v, 3)),  # truncated, as np.asarray does
    }
    for name, f in outputs.items():
        assert typed(verify_embedding(f, 3, 3)) == typed(ints), name
        assert typed(layout_metrics(f, 3, 3)) == typed(layout), name
    with pytest.raises(TypeError):  # a digit string is compared with 0, as check_vertex does
        verify_embedding(lambda v: tuple(map(str, v)), 3, 3)


def test_callables_see_python_int_tuples_in_code_order(monkeypatch, block_passes):
    for block in (65536, 5):
        monkeypatch.setattr(graphs, "ROW_BLOCK", block)
        seen = []
        block_passes.clear()
        verify_embedding(lambda v: seen.append(v) or v, 3, 3)
        assert block_passes[0] == ([27] if block > 27 else [5] * 5 + [2])  # the pass over the cube
        assert seen == [code_to_vertex(c, 3, 3) for c in range(27)]
        assert {type(v) for v in seen} == {tuple}
        assert {type(d) for v in seen for d in v} == {int}


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (2, 7)])
def test_blocked_callables_equal_the_per_vertex_reference(n, m, monkeypatch, block_passes):
    monkeypatch.setattr(graphs, "ROW_BLOCK", 7)  # blocks that split the cube unevenly
    for form, vmap in vertex_maps(n, m).items():
        block_passes.clear()
        report = verify_embedding(vmap, n, m)
        assert block_passes[0] == [min(7, m**n - s) for s in range(0, m**n, 7)], form  # the cube
        assert typed(report) == typed(oracles.reference_verify_embedding(vmap, n, m)), form
        assert typed(layout_metrics(vmap, n, m)) == typed(oracles.reference_layout_metrics(vmap, n, m))


def test_verifiers_reject_a_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError):
        verify_embedding(embedding_matrix("phi", 3, 3), 4, 3)
    with pytest.raises(ValueError):
        layout_metrics(embedding_matrix("phi", 3, 3), 3, 5)


# ---------------------------------------------------------------- epsilon


def test_twist_family_validation():
    with pytest.raises(ValueError):
        TwistFamily(4, (2, 1))  # 2 shares a factor with 4
    with pytest.raises(ValueError):
        TwistFamily(6, (3,))
    with pytest.raises(ValueError):
        TwistFamily(1, (1,))
    with pytest.raises(ValueError):
        TwistFamily(5, ())
    assert TwistFamily(5, (7, 1)).multipliers == (2, 1)  # reduced mod m


def test_twist_scales():
    assert TwistFamily(5, (1, 1)).scales() == (1, 1)
    assert TwistFamily(5, (3, 3)).scales() == (1, 3)
    assert TwistFamily(5, (2,)).scales() == (1,)
    # tau's multiplier tuple: every level uses the inverse of 2
    inv2 = 3
    assert TwistFamily(5, (inv2,) * 4).scales() == (1, 3, 3 * 3 % 5, 3**3 % 5)
    # computed once; the stored tuple takes no part in equality, hash or repr
    tw = TwistFamily(7, (3, 5, 2))
    assert tw.scales() is tw.scales()
    assert tw == TwistFamily(7, (10, 5, 2)) and hash(tw) == hash(TwistFamily(7, (10, 5, 2)))
    assert repr(tw) == "TwistFamily(m=7, multipliers=(3, 5, 2))"


def test_epsilon_all_ones_is_phi():
    for m in (2, 3, 4, 5):
        tw = TwistFamily(m, (1, 1, 1))
        for v in oracles.all_vertices(3, m):
            assert epsilon_forward(v, tw) == phi_forward(v, m)


def test_epsilon_all_halves_is_tau():
    for m in (3, 5, 7):
        tw = TwistFamily(m, ((m + 1) // 2,) * 3)
        for v in oracles.all_vertices(3, m):
            assert epsilon_forward(v, tw) == tau_forward(v, m)


def test_epsilon_single_level_is_identity():
    # one level leaves no room to twist: every family collapses to phi
    for c in units(5):
        tw = TwistFamily(5, (c,))
        for d in range(5):
            assert epsilon_forward((d,), tw) == (d,)


@pytest.mark.parametrize("n,m", SMALL)
def test_epsilon_equals_phi_then_a_second_scaling_pass(n, m):
    for cs in product(units(m), repeat=n):
        tw = TwistFamily(m, cs)
        for v in oracles.all_vertices(n, m):
            assert epsilon_forward(v, tw) == oracles.epsilon_two_pass(v, tw)


def test_epsilon_length_mismatch():
    with pytest.raises(ValueError):
        epsilon_forward((0, 1, 2), TwistFamily(5, (1, 1)))


def test_epsilon_matrix_matches_function():
    tw = TwistFamily(5, (2, 4, 3))
    lm = embedding_matrix(tw)
    for v in oracles.all_vertices(3, 5):
        assert lm.apply(v) == epsilon_forward(v, tw)


def test_sixteen_distinct_families_m5_n2():
    tables = set()
    for cs in product(units(5), repeat=2):
        tw = TwistFamily(5, cs)
        table = tuple(epsilon_forward(v, tw) for v in oracles.all_vertices(2, 5))
        tables.add(table)
        assert verify_embedding(lambda v: epsilon_forward(v, tw), 2, 5)["verdict"]
    assert len(tables) == 16


def test_eight_distinct_families_m3_n3():
    tables = set()
    for cs in product(units(3), repeat=3):
        table = tuple(
            epsilon_forward(v, TwistFamily(3, cs)) for v in oracles.all_vertices(3, 3)
        )
        tables.add(table)
    assert len(tables) == 8


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_family_is_an_embedding(n, m):
    for cs in product(units(m), repeat=n):
        tw = TwistFamily(m, cs)
        report = verify_embedding(lambda v: epsilon_forward(v, tw), n, m)
        assert report["verdict"], (m, cs, report)


# ---------------------------------------------------------------- verifiers


@pytest.mark.parametrize("n,m", SMALL)
def test_phi_verifies_as_embedding(n, m):
    report = verify_embedding(lambda v: phi_forward(v, m), n, m)
    assert report == {
        "is_bijection": True,
        "all_edges_distance_one": True,
        "edge_count_preserved": True,
        "verdict": True,
        "violations": [],
    }


def test_verify_accepts_a_mapping():
    report = verify_embedding(phi_recursive(3, 3), 3, 3)
    assert report["verdict"]


def test_identity_map_is_not_an_embedding():
    report = verify_embedding(lambda v: v, 3, 3)
    assert report["is_bijection"]
    assert not report["all_edges_distance_one"]
    assert not report["verdict"]
    kinds = {item["kind"] for item in report["violations"]}
    assert kinds == {"distance"}
    # the corner connector (0,1,1) -- (1,0,0) sits at Hamming distance 3
    bad_edges = {frozenset(item["edge"]) for item in report["violations"]}
    assert frozenset({(0, 1, 1), (1, 0, 0)}) in bad_edges


def test_blockwise_phi_is_not_an_embedding():
    # recoordinatizing each depth-1 block alone breaks the connectors
    def f(v):
        return (v[0],) + phi_forward(v[1:], 3)

    report = verify_embedding(f, 3, 3)
    assert report["is_bijection"]
    assert not report["verdict"]


def test_constant_map_collides():
    report = verify_embedding(lambda v: (0, 0), 2, 3)
    assert not report["is_bijection"]
    assert any(item["kind"] == "collision" for item in report["violations"])


def phi_image(n, m):
    """S(n,m) with every edge pushed through phi."""
    pairs = [
        (phi_forward(code_to_vertex(a, n, m), m), phi_forward(code_to_vertex(b, n, m), m))
        for a, b in oracles.edge_set(build_sierpinski(n, m))
    ]
    return from_edge_list(n, m, "phi-image", pairs)


def test_coordinatization_accepts_the_phi_image():
    # raw S(3,3) is no coordinatization (connectors sit at distance 3);
    # pushing every edge through phi produces one
    report = verify_coordinatization(phi_image(3, 3))
    assert report["verdict"]
    assert report["violations"] == []


def test_coordinatization_rejects_raw_sierpinski():
    report = verify_coordinatization(build_sierpinski(3, 3))
    assert not report["all_edges_distance_one"]
    assert report["edge_count_matches"]
    assert report["degree_sequence_matches"]
    assert not report["verdict"]


def test_coordinatization_rejects_single_twist_3_3():
    report = verify_coordinatization(build_single_twist(3, 3))
    assert not report["verdict"]
    assert report["all_edges_distance_one"]
    assert report["edge_count_matches"]
    assert not report["degree_sequence_matches"]
    offenders = {
        item["vertex"]: item["degree"]
        for item in report["violations"]
        if item["kind"] == "degree"
    }
    assert offenders[(0, 1, 1)] == 4


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_coordinatization_accepts_single_twist_depth_two(m):
    # at depth two the twisted graph is a relabeled S(2,m)
    report = verify_coordinatization(build_single_twist(2, m))
    assert report["verdict"], report


def test_coordinatization_rejects_hamming():
    report = verify_coordinatization(build_hamming(2, 3))
    assert not report["edge_count_matches"]
    assert not report["verdict"]


def test_coordinatization_distance_gate():
    from sierham.graphs import Graph
    import numpy as np

    candidate = Graph(2, 3, "made-up", np.array([[0, 4]]))  # (0,0) -- (1,1)
    report = verify_coordinatization(candidate)
    assert not report["all_edges_distance_one"]
    assert any(item["kind"] == "distance" for item in report["violations"])


def test_coordinatization_rejects_disconnected_candidate():
    # a triangle plus K_{3,3}: 12 edges, three vertices of degree 2 and six
    # of degree 3, like S(2,3), but the corners reach only the triangle
    triangle = [(0, 1), (1, 2), (0, 2)]
    k33 = [(a, b) for a in (3, 4, 5) for b in (6, 7, 8)]
    candidate = Graph(2, 3, "made-up", np.array(triangle + k33))
    report = verify_coordinatization(candidate)
    assert report["edge_count_matches"] and report["degree_sequence_matches"]
    assert not report["isomorphic_to_sierpinski"]
    assert not report["verdict"]
    assert [v["kind"] for v in report["violations"]].count("isomorphism") == 1
    assert sierpinski_isomorphism(candidate) is None


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 5), (4, 3)])
def test_coordinatization_separates_isomorphism_from_embedding(n, m):
    # raw S(n,m) is S(n,m) up to relabeling, but its connectors leave K_m^n
    report = verify_coordinatization(build_sierpinski(n, m))
    assert report["isomorphic_to_sierpinski"]
    assert not report["all_edges_distance_one"]
    assert not report["verdict"]
    assert {v["kind"] for v in report["violations"]} == {"distance"}


def test_coordinatization_totals_next_to_capped_sample():
    g = build_sierpinski(3, 3)
    far = [
        (u, v)
        for u, v in oracles.edge_set(g)
        if sum(a != b for a, b in zip(code_to_vertex(u, 3, 3), code_to_vertex(v, 3, 3))) != 1
    ]
    report = verify_coordinatization(g)
    assert len(report["violations"]) == 10
    assert report["violations_total"] == len(far) == 12

    t = build_single_twist(5, 3)
    off = int(np.isin(t.degrees(), [2, 3], invert=True).sum())
    report = verify_coordinatization(t)
    assert [v["kind"] for v in report["violations"]] == ["degree"] * 10
    assert report["violations_total"] == off > 10


# ---------------------------------------------------------------- certificate

CROSS = [(2, 3), (3, 3), (2, 4), (2, 5), (3, 2), (4, 2), (2, 6)]


def relabeled(g, rng):
    """g under a seeded random vertex permutation."""
    perm = rng.permutation(g.num_vertices)
    return Graph(g.n, g.m, "relabeled", perm[g.edges])


def swapped(g, rng, swaps):
    """g after `swaps` degree-preserving double-edge swaps, then relabeled."""
    edges = g.edges
    for _ in range(swaps):
        nxt = None
        while nxt is None:
            nxt = oracles.double_edge_swap(edges, rng)
        edges = nxt
    return relabeled(Graph(g.n, g.m, "swapped", edges), rng)


def assert_witness(candidate, labels):
    n, m = candidate.n, candidate.m
    assert sorted(labels.tolist()) == list(range(m**n))
    for u, v in candidate.edges:
        a = code_to_vertex(int(labels[u]), n, m)
        b = code_to_vertex(int(labels[v]), n, m)
        assert is_sierpinski_edge(a, b, m), (a, b)


# S(5,3): a degree-pruned backtracking search needs 84 s for one relabeling
@pytest.mark.parametrize("n,m", CROSS + [(5, 3), (6, 3)])
def test_certificate_accepts_permuted_sierpinski(n, m):
    rng = np.random.default_rng(1000 * n + m)
    g = build_sierpinski(n, m)
    for _ in range(4):
        h = relabeled(g, rng)
        labels = sierpinski_isomorphism(h)
        assert labels is not None
        assert_witness(h, labels)
        assert oracles.backtracking_isomorphism(oracles.adjacency(h), oracles.adjacency(g)) is not None
        assert verify_coordinatization(h)["isomorphic_to_sierpinski"]


@pytest.mark.parametrize("n,m", CROSS)
def test_certificate_agrees_with_backtracking_on_swaps(n, m):
    rng = np.random.default_rng(2000 * n + m)
    g = build_sierpinski(n, m)
    for trial in range(8):
        h = swapped(g, rng, 1 + trial % 3)
        labels = sierpinski_isomorphism(h)
        found = oracles.backtracking_isomorphism(oracles.adjacency(h), oracles.adjacency(g))
        assert (labels is None) == (found is None)
        if labels is not None:
            assert_witness(h, labels)
        if found is not None:
            assert_witness(h, np.array(found))


@pytest.mark.parametrize("n,m", CROSS)
def test_certificate_agrees_with_vf2(n, m):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(3000 * n + m)
    g = build_sierpinski(n, m)
    reference = nx.Graph(g.edges.tolist())
    reference.add_nodes_from(range(m**n))
    cases = [relabeled(g, rng) for _ in range(2)]
    if m**n <= 27:  # VF2 needs seconds on some swapped S(2,6)
        cases += [swapped(g, rng, 1 + t % 3) for t in range(6)]
    for h in cases:
        other = nx.Graph(h.edges.tolist())
        other.add_nodes_from(range(m**n))
        expected = nx.is_isomorphic(other, reference)
        assert (sierpinski_isomorphism(h) is not None) == expected


@pytest.mark.parametrize(
    "n,m", [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 5)] + [(3, 4), (3, 5)]
)
def test_corner_distance_formula(n, m):
    # d(v, i^n) = sum of 2^(n-j) over the digits v_j != i
    g = build_sierpinski(n, m)
    adj = oracles.adjacency(g)
    vertices = oracles.all_vertices(n, m)
    for i in range(m):
        dist = oracles.bfs_distances(adj, (m**n - 1) // (m - 1) * i)
        for code, v in enumerate(vertices):
            assert dist[code] == sum(2 ** (n - j) for j in range(1, n + 1) if v[j - 1] != i)


@pytest.mark.parametrize("n,m", [(5, 3), (4, 5)])
def test_coordinatization_accepts_phi_relabeled(n, m):
    report = verify_coordinatization(phi_image(n, m))
    assert report["verdict"]
    assert report["violations"] == [] and report["violations_total"] == 0


# ---------------------------------------------------------------- layout


@pytest.mark.parametrize("n,m", SMALL)
def test_phi_layout_is_tight(n, m):
    metrics = layout_metrics(lambda v: phi_forward(v, m), n, m)
    assert metrics == {
        "wirelength": sierpinski_edge_count(n, m),
        "bandwidth": 1,
    }


def test_identity_layout_pays_for_connectors():
    metrics = layout_metrics(lambda v: v, 2, 2)
    # edges (00,01), (01,10), (10,11): distances 1, 2, 1
    assert metrics == {"wirelength": 4, "bandwidth": 2}


def test_tau_layout_matches_phi():
    for m in (3, 5):
        assert layout_metrics(lambda v: tau_forward(v, m), 3, m) == {
            "wirelength": sierpinski_edge_count(3, m),
            "bandwidth": 1,
        }
