import itertools

import numpy as np
import pytest

from cobra import nn
from cobra.errors import NumericError, ParameterError, ShapeError
from cobra.nn import Param


def stepped(name, value, grad):
    """A Param whose gradient buffer holds `grad`, as a backward pass leaves it."""
    p = Param(name, value)
    p.grad[...] = grad
    return p


def test_affine_forward_identity():
    y = nn.affine_forward(np.array([[1.0, 0.0]]), np.eye(2), np.zeros((1, 2)))
    assert np.array_equal(y, [[1.0, 0.0]])


def test_affine_forward_hand_value():
    y = nn.affine_forward(
        np.array([[1.0, 1.0]]), np.array([[1.0], [1.0]]), np.array([[1.0]])
    )
    assert np.allclose(y, [[3.0]])


def test_affine_forward_batch_shape():
    y = nn.affine_forward(np.zeros((2, 3)), np.zeros((3, 4)), np.zeros((1, 4)))
    assert y.shape == (2, 4)


def _affine_grads(x, w, upstream):
    """affine_backward into buffers pre-filled with 7.0, so every test also
    pins that the gradients are written, not accumulated."""
    gw = np.full(w.shape, 7.0)
    gb = np.full((1, w.shape[1]), 7.0)
    gx = nn.affine_backward(x, w, upstream, gw, gb)
    return gx, gw, gb


def test_affine_backward_zero_upstream():
    gx, gw, gb = _affine_grads(np.ones((2, 3)), np.ones((3, 2)), np.zeros((2, 2)))
    assert not gx.any() and not gw.any() and not gb.any()


def test_affine_backward_scalar_chain_rule():
    gx, gw, gb = _affine_grads(np.array([[2.0]]), np.array([[3.0]]), np.array([[1.0]]))
    assert np.allclose(gx, [[3.0]]) and np.allclose(gw, [[2.0]]) and np.allclose(gb, [[1.0]])


def test_affine_backward_matches_finite_diff():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4))
    w = Param("w", rng.normal(size=(4, 2)))
    b = Param("b", rng.normal(size=(1, 2)))
    upstream = rng.normal(size=(3, 2))
    _, gw, gb = _affine_grads(x, w.value, upstream)
    numeric = nn.finite_diff_grad(
        lambda: float(np.sum(nn.affine_forward(x, w.value, b.value) * upstream)),
        [w, b],
    )
    assert nn.max_rel_err(gw, numeric["w"]) < 1e-6
    assert nn.max_rel_err(gb, numeric["b"]) < 1e-6


def test_relu_definition():
    assert np.array_equal(nn.relu(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])


def test_relu_positive_identity():
    x = np.array([[0.5, 3.0]])
    assert np.array_equal(nn.relu(x), x)


def test_relu_backward_zero_at_kink():
    # a dead unit (x <= 0 or NaN) passes upstream * 0, which is -0.0 for a
    # negative upstream; array_equal counts -0.0 equal to 0.0
    x = np.array([[0.0, 1.0, -1.0, np.nan, -3.0]])
    for upstream in (1.0, -2.5):
        g = nn.relu_backward(x, np.full(x.shape, upstream))
        assert np.array_equal(g, [[0.0, upstream, 0.0, 0.0, 0.0]]), upstream


def test_relu_backward_nonfinite_upstream_stays_nonfinite():
    with np.errstate(invalid="ignore"):  # inf * 0
        g = nn.relu_backward(
            np.array([[-1.0, 0.0, 2.0]]), np.array([[np.inf, np.nan, np.inf]])
        )
    assert np.isnan(g[0, 0]) and np.isnan(g[0, 1]) and g[0, 2] == np.inf


def test_dropout_p_zero_identity():
    x = np.ones((3, 3))
    y, _ = nn.dropout(x, 0.0, np.random.default_rng(1))
    assert np.array_equal(y, x)


def test_dropout_survivor_fraction():
    x = np.ones((100, 1000))
    _, mask = nn.dropout(x, 0.5, np.random.default_rng(2))
    assert abs(np.mean(mask > 0) - 0.5) < 0.01


def test_dropout_invalid_p():
    with pytest.raises(ParameterError):
        nn.dropout(np.ones((1, 1)), 1.0, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        nn.dropout(np.ones((1, 1)), -0.1, np.random.default_rng(0))


def test_dropout_backward_linear_in_upstream():
    x = np.random.default_rng(3).normal(size=(5, 5))
    _, mask = nn.dropout(x, 0.4, np.random.default_rng(3))
    u1 = np.random.default_rng(4).normal(size=(5, 5))
    u2 = np.random.default_rng(5).normal(size=(5, 5))
    assert np.allclose((u1 + 2 * u2) * mask, u1 * mask + 2 * (u2 * mask))


def test_sgd_step_direct_rule():
    p = stepped("p", np.array([[1.0]]), np.array([[0.5]]))
    nn.sgd_step([p], 0.1)
    assert np.allclose(p.value, [[0.95]])


def test_sgd_step_zero_grad_fixed_point():
    p = Param("p", np.array([[2.0, -1.0]]))
    nn.sgd_step([p], 0.5)
    assert np.array_equal(p.value, [[2.0, -1.0]])


def test_sgd_two_half_steps_equal_one_double_step():
    grad = np.array([[0.25, -0.5]])
    p1 = stepped("a", np.ones((1, 2)), grad)
    p2 = stepped("b", np.ones((1, 2)), grad)
    nn.sgd_step([p1], 0.1)
    nn.sgd_step([p1], 0.1)
    nn.sgd_step([p2], 0.2)
    assert np.allclose(p1.value, p2.value)


def test_sgd_nonfinite_grad_names_param():
    # in the larger param the bad entry sits in the last, ragged update chunk
    cases = itertools.product(
        [(1, 1), (1, 2 * nn._CHUNK + 7)], [np.nan, np.inf, -np.inf], [np.float32, np.float64]
    )
    for shape, bad, dtype in cases:
        grad = np.full(shape, 0.5, dtype=dtype)
        grad.reshape(-1)[-1 if grad.size == 1 else -3] = bad
        p = stepped("enc.w", np.ones(shape, dtype=dtype), grad)
        with pytest.raises(NumericError, match="enc.w"):
            nn.sgd_step([p], 0.1)
        assert np.array_equal(p.value, np.ones(shape, dtype=dtype)), (shape, bad, dtype)


def test_sgd_nonfinite_grad_leaves_every_value_unchanged():
    rng = np.random.default_rng(11)
    a = stepped("a", rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
    b = stepped("b", rng.normal(size=(2, 5)), rng.normal(size=(2, 5)))
    b.grad[1, 2] = np.nan
    before = [a.value.tobytes(), b.value.tobytes()]
    with pytest.raises(NumericError, match="'b'"):
        nn.sgd_step([a, b], 0.1)
    assert [a.value.tobytes(), b.value.tobytes()] == before


def test_sgd_finite_grad_with_overflowing_square_updates():
    grad = np.array([[1e20, -3.0]], dtype=np.float32)
    flat = grad.reshape(-1)
    with np.errstate(over="ignore"):
        assert np.isinf(np.dot(flat, flat))  # the sum of squares overflows float32
    p = stepped("w", np.ones((1, 2), dtype=np.float32), grad)
    expected = p.value - 0.1 * grad
    nn.sgd_step([p], 0.1)
    assert p.value.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("eta", [0.01, np.float64(0.01)], ids=["float", "np.float64"])
def test_sgd_chunked_update_equals_whole_array_rule(dtype, eta):
    rng = np.random.default_rng(5)
    shape = (1, 2 * nn._CHUNK + 7)
    value = rng.normal(size=shape).astype(dtype)
    grad = rng.normal(size=shape).astype(dtype)
    expected = value.copy()
    expected -= eta * grad
    p = stepped("w", value, grad)
    nn.sgd_step([p], eta)
    assert p.value is value and p.value.tobytes() == expected.tobytes()


def test_sgd_rejects_noncontiguous_value_before_any_update():
    a = stepped("a", np.zeros((2, 2)), np.ones((2, 2)))
    t = stepped("t", np.zeros((3, 2)).T, np.ones((2, 3)))
    with pytest.raises(ShapeError, match="'t'"):
        nn.sgd_step([a, t], 0.1)
    assert not a.value.any()


def test_finite_diff_quadratic():
    p = Param("theta", np.array([[3.0]]))
    g = nn.finite_diff_grad(lambda: float(p.value[0, 0] ** 2), [p])
    assert g["theta"][0, 0] == pytest.approx(6.0, abs=1e-4)


def test_finite_diff_constant():
    p = Param("theta", np.arange(4.0).reshape(2, 2))
    g = nn.finite_diff_grad(lambda: 1.5, [p])
    assert not g["theta"].any()


def test_finite_diff_linear_sum():
    p = Param("theta", np.arange(6.0).reshape(2, 3))
    g = nn.finite_diff_grad(lambda: float(p.value.sum()), [p])
    assert np.allclose(g["theta"], 1.0, atol=1e-6)


def test_rng_streams_deterministic_and_independent():
    a = nn.RngStreams(42)
    b = nn.RngStreams(42)
    assert a.get("init").random(5).tolist() == b.get("init").random(5).tolist()
    # consuming one stream leaves the others untouched
    c = nn.RngStreams(42)
    c.get("negatives").random(100)
    assert np.array_equal(c.get("init").random(5), nn.RngStreams(42).get("init").random(5))
