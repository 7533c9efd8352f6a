"""Cross-process aggregation: gated recurrence, attention, skip, inject.

The gated update and the attention weights are checked against scalar
references computed with plain Python floats (no numpy broadcasting in
the reference path), and against the structural identities that make
the mechanisms verifiable: zero weights freeze the recurrence halfway,
identical tokens attract uniform attention, and a constant key offset
cannot change anything.  Latents are channels-last, [batch, *grid, width];
fields are drawn as [batch, width, *grid] and moved with :func:`cl`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compol import aggregation as agg
from compol import layers as L
from compol import tensor as T


def cl(a):
    """[batch, channels, *grid] as channels-last [batch, *grid, channels]."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def wrap(*arrays):
    return [T.Tensor(np.asarray(a, dtype=np.float64)) for a in arrays]


def zeros_gru(width):
    z = lambda *s: np.zeros(s)
    return agg.GruParams(z(width, width), z(width, width), z(width),
                         z(width, width), z(width, width), z(width),
                         z(width, width), z(width, width), z(width))


# ---------------------------------------------------------------------------
# gated recurrent update


def test_gru_zero_weights_halves_previous_state():
    """All-zero weights: gate = sigmoid(0) = 1/2, candidate = tanh(0) = 0,
    so the update collapses to z = z_prev / 2 exactly."""
    rng = np.random.default_rng(0)
    width = 4
    z_prev = cl(rng.normal(size=(2, width, 8)))
    mixed = cl(rng.normal(size=(2, width, 8)))
    p = zeros_gru(width)
    out = agg.gru_step(*wrap(mixed, z_prev), p).data
    assert np.array_equal(out, 0.5 * z_prev)


def scalar_gru_reference(x, z, p):
    """Width-1 gated update with Python floats only."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    q = sig(p.wq[0, 0] * x + p.uq[0, 0] * z + p.bq[0])
    r = sig(p.wr[0, 0] * x + p.ur[0, 0] * z + p.br[0])
    cand = math.tanh(p.wz[0, 0] * x + p.uz[0, 0] * (r * z) + p.bz[0])
    return q * z + (1.0 - q) * cand


def test_gru_matches_scalar_reference():
    rng = np.random.default_rng(1)
    p = L.draw(agg.GruParams, rng, agg.gru_shapes(1), np.float64)
    for x, z in [(0.3, -0.7), (-1.2, 0.4), (2.0, 2.0), (0.0, 0.0)]:
        got = agg.gru_step(*wrap([[[x]]], [[[z]]]), p).data[0, 0, 0]
        want = scalar_gru_reference(x, z, p)
        assert abs(got - want) < 1e-12, (x, z)


def test_gru_gate_interpolates_between_states():
    """Extreme gate bias pins the output to one side of the blend."""
    width = 1
    p = zeros_gru(width)
    z_prev = np.full((1, 4, 1), 3.0)
    mixed = np.ones((1, 4, 1))
    p.bq[:] = 40.0        # gate ~= 1: keep previous state
    keep = agg.gru_step(*wrap(mixed, z_prev), p).data
    assert np.allclose(keep, 3.0, atol=1e-12)
    p.bq[:] = -40.0       # gateapprox 0: take the candidate (tanh(0) = 0 here)
    take = agg.gru_step(*wrap(mixed, z_prev), p).data
    assert np.allclose(take, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# attention


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(2)
    fields = [cl(rng.normal(size=(2, 4, 8))) for _ in range(3)]
    p = L.draw(agg.AttentionParams, rng, agg.attention_shapes(4), np.float64)
    # directly: attention over constant-one values returns exactly 1
    ones = agg.AttentionParams(wq=p.wq, bq=p.bq, wk=p.wk,
                               wa=np.zeros((4, 4)), ba=np.ones(4))
    out = agg.attention_aggregate(wrap(*fields), ones).data
    assert np.max(np.abs(out - 1.0)) < 1e-6


def test_attention_identical_tokens_uniform_weights():
    rng = np.random.default_rng(3)
    f = cl(rng.normal(size=(2, 4, 8)))
    m = 3
    p = L.draw(agg.AttentionParams, rng, agg.attention_shapes(4), np.float64)
    out = agg.attention_aggregate(wrap(f, f, f), p).data
    # uniform alpha = 1/m over identical values collapses to one value map
    want = agg.attention_aggregate(wrap(f), p).data
    assert np.max(np.abs(out - want)) < 1e-12


def test_attention_scalar_reference():
    """Width-1, two tokens: alpha and output with Python floats."""
    rng = np.random.default_rng(4)
    p = L.draw(agg.AttentionParams, rng, agg.attention_shapes(1), np.float64)
    a, b = 0.8, -0.45
    out = agg.attention_aggregate(wrap([[[a]]], [[[b]]]), p).data[0, 0, 0]

    wq, bq, wk = p.wq[0, 0], p.bq[0], p.wk[0, 0]
    wa, ba = p.wa[0, 0], p.ba[0]
    q = wq * (a + b) / 2.0 + bq
    s1, s2 = q * wk * a, q * wk * b            # width 1 so inv scale = 1
    e1, e2 = math.exp(s1), math.exp(s2)
    alpha1, alpha2 = e1 / (e1 + e2), e2 / (e1 + e2)
    want = alpha1 * (wa * a + ba) + alpha2 * (wa * b + ba)
    assert abs(out - want) < 1e-12


def test_attention_key_bias_would_be_dead():
    """A bias on the key map shifts every token's score by the same
    amount (score_j = q . (k_j + c) = q.k_j + q.c), and softmax is
    invariant to a common shift — so a key bias could never receive
    gradient.  That is why AttentionParams has no key bias; here we pin
    the invariance it relies on.
    """
    rng = np.random.default_rng(5)
    s = rng.normal(size=(1, 3, 8))
    sm = T.softmax(T.Tensor(s), 1).data
    sm_shift = T.softmax(T.Tensor(s + 3.3), 1).data
    assert np.max(np.abs(sm - sm_shift)) < 1e-12
    assert not hasattr(L.draw(agg.AttentionParams, rng, agg.attention_shapes(4), np.float64), "bk")


def numpy_attention(fields, p):
    """Attention over one token at a time, all numpy."""
    m = len(fields)
    q = sum(fields) / m @ p.wq + p.bq
    s = np.stack([(q * (f @ p.wk)).sum(-1) / math.sqrt(q.shape[-1]) for f in fields])
    a = np.exp(s - s.max(0))
    a /= a.sum(0)
    return sum(a[j][..., None] * (fields[j] @ p.wa + p.ba) for j in range(m))


def test_attention_in_one_pass_matches_per_token_reference():
    """The tokens come from one stacked axis: no take on the tape, and one
    affine each for the query, the keys and the values."""
    rng = np.random.default_rng(12)
    fields = [cl(rng.normal(size=(2, 4, 8))) for _ in range(3)]
    p = L.draw(agg.AttentionParams, rng, agg.attention_shapes(4), np.float64)
    out = agg.attention_aggregate(wrap(*fields), p).data
    assert np.max(np.abs(out - numpy_attention(fields, p))) < 1e-12
    tape = T.Tape()
    agg.attention_aggregate([tape.leaf(f) for f in fields], p)
    names = [node.name for node in tape._nodes]
    assert "take" not in names and names.count("affine") == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=5))
def test_attention_output_in_value_convex_hull_scalarwise(seed, m):
    """With identity value map, each output entry lies inside the range
    of the token entries — softmax weights are a convex combination."""
    rng = np.random.default_rng(seed)
    fields = [cl(rng.normal(size=(1, 2, 4))) for _ in range(m)]
    p = L.draw(agg.AttentionParams, rng, agg.attention_shapes(2), np.float64)
    p_id = agg.AttentionParams(wq=p.wq, bq=p.bq, wk=p.wk,
                               wa=np.eye(2), ba=np.zeros(2))
    out = agg.attention_aggregate(wrap(*fields), p_id).data
    stack = np.stack(fields)
    lo, hi = stack.min(axis=0), stack.max(axis=0)
    assert (out >= lo - 1e-9).all() and (out <= hi + 1e-9).all()


# ---------------------------------------------------------------------------
# mixing, skip, inject


def test_mix_linear_is_concat_then_map():
    rng = np.random.default_rng(8)
    fields = [cl(rng.normal(size=(2, 3, 4))) for _ in range(2)]
    p = L.draw(agg.MixParams, rng, agg.mix_shapes(2, 3), np.float64)
    out = agg.mix_processes(wrap(*fields), p).data
    stacked = np.concatenate(fields, axis=-1)
    want = np.einsum("bnc,cd->bnd", stacked, p.w) + p.b
    assert np.max(np.abs(out - want)) < 1e-12
    assert out.shape == (2, 4, 3)


def test_skip_is_running_sum():
    rng = np.random.default_rng(9)
    p = L.draw(agg.SkipParams, rng, agg.skip_shapes(3), np.float64)
    mixed = cl(rng.normal(size=(1, 3, 4)))
    z0 = np.zeros((1, 4, 3))
    z1 = agg.skip_aggregate(*wrap(mixed, z0), p).data
    z2 = agg.skip_aggregate(*wrap(mixed, z1), p).data
    assert np.max(np.abs(z2 - 2 * z1)) < 1e-12


def test_inject_adds_the_shared_state():
    rng = np.random.default_rng(10)
    v = cl(rng.normal(size=(1, 3, 4)))
    z = cl(rng.normal(size=(1, 3, 4)))
    assert np.allclose(agg.inject(*wrap(v, z)).data, v + z)


def test_aggregations_commute_with_translation():
    """Everything here acts pointwise, so rolling the grid rolls the output."""
    rng = np.random.default_rng(11)
    fields = [cl(rng.normal(size=(1, 4, 8))) for _ in range(2)]
    p = L.draw(agg.AttentionParams, rng, agg.attention_shapes(4), np.float64)
    base = agg.attention_aggregate(wrap(*fields), p).data
    rolled = agg.attention_aggregate(
        wrap(*[np.roll(f, 3, 1) for f in fields]), p).data
    assert np.max(np.abs(rolled - np.roll(base, 3, 1))) < 1e-12
