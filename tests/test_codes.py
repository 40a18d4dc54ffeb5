"""Binary codings: eta, gamma, and the Gray sequence."""
from __future__ import annotations

import re

import pytest

from sierham import codes, exact
from sierham.codes import eta, eta_inverse, gamma, gray_sequence
from sierham.graphs import MAX_VERTICES, build_sierpinski, code_to_vertex
from sierham.maps import phi_forward, phi_inverse

import oracles


def test_eta_examples():
    assert eta((1, 0, 1)) == 5
    assert eta((0, 0, 0, 1)) == 1
    assert eta((1, 1, 1, 1)) == 15
    assert eta_inverse(5, 3) == (1, 0, 1)
    assert eta_inverse(0, 4) == (0, 0, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_eta_roundtrip(n):
    for ell in range(2**n):
        assert eta(eta_inverse(ell, n)) == ell


def test_eta_validation():
    with pytest.raises(ValueError):
        eta((0, 2, 1))
    with pytest.raises(ValueError):
        eta_inverse(8, 3)
    with pytest.raises(ValueError):
        eta_inverse(-1, 3)
    with pytest.raises(ValueError):
        eta_inverse(0, 0)


def test_gamma_example():
    assert gamma((1, 1, 0)) == 4
    assert gamma((0, 0, 0)) == 0
    assert gamma((1, 0, 0)) == 7  # prefix parities 1,1,1


@pytest.mark.parametrize("n", range(1, 13))
def test_gamma_is_eta_after_unmapping(n):
    # gamma is computed by prefix parity; eta(phi_inverse(w)) must agree
    for code in range(2**n):
        w = code_to_vertex(code, n, 2)
        assert gamma(w) == eta(phi_inverse(w, 2))


def test_gamma_inverts_the_gray_sequence():
    seq = oracles.as_tuples(gray_sequence(8))
    for ell, w in enumerate(seq):
        assert gamma(w) == ell


@pytest.mark.parametrize("n", range(1, 17))
def test_gray_sequence_matches_reflected_construction(n):
    assert oracles.as_tuples(gray_sequence(n)) == oracles.reflected_gray(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_gray_sequence_matches_the_scalar_loop(n):
    assert oracles.as_tuples(gray_sequence(n)) == oracles.gray_sequence_loop(n)


def test_gray_sequence_refuses_more_than_max_vertices_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Gray sequence was built past the row guard")

    monkeypatch.setattr(exact, "twist_family", refuse)
    monkeypatch.setattr(codes, "table_array", refuse)
    message = f"2^24 = {2**24} rows of the Gray sequence for n=24 (limit {MAX_VERTICES})"
    with pytest.raises(ValueError, match=re.escape(message)):
        gray_sequence(24)


def test_gray_sequence_small_values():
    assert oracles.as_tuples(gray_sequence(1)) == [(0,), (1,)]
    assert [eta(w) for w in oracles.as_tuples(gray_sequence(2))] == [0, 1, 3, 2]
    assert [eta(w) for w in oracles.as_tuples(gray_sequence(3))] == [0, 1, 3, 2, 6, 7, 5, 4]


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_gray_sequence_is_a_hamiltonian_bit_walk(n):
    seq = oracles.as_tuples(gray_sequence(n))
    assert len(set(seq)) == 2**n
    for a, b in zip(seq, seq[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_gray_sequence_walks_the_binary_sierpinski_path():
    # S(n,2) is a path; walking it from the zero corner and applying the
    # additive map yields exactly the Gray order
    n = 6
    g = build_sierpinski(n, 2)
    adj = oracles.adjacency(g)
    walk = [0]
    seen = {0}
    while len(walk) < 2**n:
        nxt = [w for w in adj[walk[-1]] if w not in seen]
        assert len(nxt) == 1  # a path graph leaves exactly one way forward
        walk.append(nxt[0])
        seen.add(nxt[0])
    images = [phi_forward(code_to_vertex(code, n, 2), 2) for code in walk]
    assert images == oracles.as_tuples(gray_sequence(n))


def test_gray_bigint_digits():
    # plain-integer arithmetic: entry checks at n = 70 without building 2^70 rows
    n = 70
    v = eta_inverse(1, n)  # 0...01
    w = phi_forward(v, 2)
    assert gamma(w) == 1
    assert eta(phi_inverse(w, 2)) == 1


def test_gray_rejects_bad_n():
    with pytest.raises(ValueError):
        gray_sequence(0)
