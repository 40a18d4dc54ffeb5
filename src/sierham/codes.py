"""Binary codings: natural value, Gray index, and the Gray sequence.

S(n,2) is a path, and the additive recoordinatization carries it onto the
reflected binary Gray code; eta is the natural base-2 value of a bit tuple
and gamma the position of a codeword in the Gray order. eta and eta_inverse
are the graphs codec at m = 2, gamma is eta of the prefix parities: exact
integers, so n can exceed the machine word size. gray_sequence is phi of
all 2^n binary rows, as one (2^n, n) array from LinearMap.cube_image.
"""
from __future__ import annotations

from itertools import accumulate
from operator import xor
from typing import Sequence

import numpy as np

from .graphs import Vertex, _check_params, _check_rows, code_to_vertex, vertex_to_code
from .maps import embedding_matrix


def _check_bits(v: Sequence[int]) -> None:
    for d in v:
        if d not in (0, 1):
            raise ValueError(f"digit {d} is not a bit")


def eta(v: Sequence[int]) -> int:
    """Base-2 value of a bit tuple, most significant bit first."""
    _check_bits(v)
    return vertex_to_code(v, 2)


def eta_inverse(ell: int, n: int) -> Vertex:
    """The n-bit binary expansion of ell, most significant bit first."""
    _check_params(n, 2)
    if not 0 <= ell < 2**n:
        raise ValueError(f"{ell} is out of range for {n} bits")
    return code_to_vertex(ell, n, 2)


def gamma(w: Sequence[int]) -> int:
    """Position of a codeword in the Gray order: bit i is the prefix parity.

    gamma(w) = sum over i of (w_1 xor ... xor w_i) * 2^(n-i); equal to
    eta(phi_inverse(w)) with m = 2, which the tests check rather than assume.
    """
    _check_bits(w)
    return vertex_to_code(accumulate(w, xor), 2)


def gray_sequence(n: int) -> np.ndarray:
    """All 2^n codewords in Gray order: row ell is phi applied to binary ell.

    Consecutive entries differ in exactly one bit, and the sequence equals
    the classic reflect-and-prefix construction. Refuses more than
    MAX_VERTICES rows before building any of them.
    """
    _check_rows(n, f"the Gray sequence for n={n}")
    return embedding_matrix("phi", n, 2).cube_image(2)
