"""The exact Markov parameters that ``impulse_match`` reads from the taps.

``sls._markov_parameters`` computes S_0 .. S_H of the closed-form stability
matrix by short recursions on the FIR taps, with no rational function built.
Its oracle is ``closed_form_stability`` itself: every entry's series, as
``Fraction``s, for every variant, at horizons below and above the FIR
length T (where S[x, delta], S[u, delta] and S[delta, delta] reach past the
taps).
"""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import det_cofactor
from rstab import FIRPhi, PlantSS, RatFun, RealizationVariant, closed_form_stability
from rstab.sls import DESIGN_SEPARATION, VARIANT_KINDS, VARIANT_PARTS, _markov_parameters, part_shape

#: small rationals, zero among them
entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def payloads(draw) -> tuple[RealizationVariant, PlantSS, int]:
    """A random plant, a variant of random FIR parts on it, and a horizon
    from 0 to T + 3; P_c[1] is invertible."""
    n, m, taps = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(VARIANT_KINDS))

    def matrix(rows: int, cols: int) -> list[list[F]]:
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]

    plant = PlantSS.state_feedback(matrix(n, n), matrix(n, m))
    parts = {name: FIRPhi(tuple(matrix(*part_shape(name, n, m)) for _ in range(taps)))
             for name in VARIANT_PARTS[kind]}
    if kind == DESIGN_SEPARATION:
        lead = parts["p_c"].taps[0]
        assume(not det_cofactor([[RatFun(c) for c in row] for row in lead]).is_zero)
    return RealizationVariant(kind, **parts), plant, draw(st.integers(0, taps + 3))


class TestMarkovParameters:
    @given(payloads())
    def test_they_are_the_series_of_the_closed_form(self, payload):
        v, plant, horizon = payload
        rows, den = _markov_parameters(v, plant, horizon)
        s = closed_form_stability(v, plant)
        size = s.rows.total
        assert den > 0 and len(rows) == size * (horizon + 1)
        assert all(len(row) == size and all(type(c) is int for c in row) for row in rows)
        for i in range(size):
            for j in range(size):
                assert ([F(rows[k * size + i][j], den) for k in range(horizon + 1)]
                        == s.entries[i][j].series(horizon)), (v.kind, i, j)
