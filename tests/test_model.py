import numpy as np
import pytest

from cobra import model as model_mod, nn
from cobra.errors import ParameterError, ShapeError

from conftest import tiny_model


def test_init_shapes_match_architecture():
    m = model_mod.init_model(64, 32, 10, seed=0)
    enc_w = [w.value.shape for w, _ in m.image.encoder]
    assert enc_w == [(64, 1024), (1024, 1024), (1024, 512)]
    dec_w = [w.value.shape for w, _ in m.image.decoder]
    assert dec_w == [(512, 1024), (1024, 1024), (1024, 64)]
    assert m.image.projection[0][0].value.shape == (512, 10)
    assert m.text.encoder[0][0].value.shape == (32, 1024)
    assert m.joint_dim == 10


def test_init_deterministic_per_seed():
    a = model_mod.init_model(8, 6, 3, seed=7, hidden_dim=5, latent_dim=4)
    b = model_mod.init_model(8, 6, 3, seed=7, hidden_dim=5, latent_dim=4)
    for pa, pb in zip(a.params(), b.params()):
        assert pa.name == pb.name
        assert np.array_equal(pa.value, pb.value)


def test_init_seed_changes_weights():
    a = model_mod.init_model(8, 6, 3, seed=0, hidden_dim=5, latent_dim=4)
    b = model_mod.init_model(8, 6, 3, seed=1, hidden_dim=5, latent_dim=4)
    assert not np.array_equal(a.image.encoder[0][0].value, b.image.encoder[0][0].value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_draws_glorot_weights_in_params_order(dtype):
    """Each weight, in params() order, is byte for byte the next Glorot draw
    from the seed's init stream, and each bias is zero."""
    for built in (
        model_mod.init_model(8, 6, 3, seed=7, dtype=dtype, hidden_dim=5, latent_dim=4),
        model_mod.init_head(3, 4, seed=7, dtype=dtype, hidden=(5, 4, 3)),
    ):
        rng = nn.RngStreams(7).get("init")
        for p in built.params():
            if p.name.endswith(".w"):
                want = nn.glorot_uniform(rng, *p.value.shape, dtype)
            else:
                want = np.zeros(p.value.shape, dtype)
            assert p.value.dtype == dtype and p.value.tobytes() == want.tobytes(), p.name


def test_init_biases_zero():
    m = model_mod.init_model(8, 6, 3, seed=0, hidden_dim=5, latent_dim=4)
    for p in m.params():
        if p.name.endswith(".b"):
            assert not p.value.any()


def test_init_rejects_bad_dims():
    with pytest.raises(ParameterError):
        model_mod.init_model(0, 4, 3, seed=0)
    with pytest.raises(ParameterError):
        model_mod.init_model(4, 4, 0, seed=0)


def test_encode_project_shapes():
    m = tiny_model()
    x = np.zeros((3, 5))
    z = model_mod.encode(m.image, x)
    assert z.shape == (3, 7)
    o = model_mod.project(m.image, z)
    assert o.shape == (3, 3)
    x_hat = model_mod._mlp_forward(z, m.image.decoder).output
    assert x_hat.shape == (3, 5)


def test_encode_rejects_wrong_width():
    m = tiny_model()
    with pytest.raises(ShapeError):
        model_mod.encode(m.image, np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        model_mod._mlp_forward(np.zeros((2, 6)), m.image.decoder)
    with pytest.raises(ShapeError):
        model_mod.project(m.image, np.zeros((2, 6)))


def test_zero_input_maps_through_biases_only():
    # with zero biases (fresh init) a zero input gives zero latent
    m = model_mod.init_model(5, 4, 3, seed=0, hidden_dim=6, latent_dim=7)
    z = model_mod.encode(m.image, np.zeros((2, 5)))
    assert not z.any()


def test_forward_full_deterministic_in_eval():
    m = tiny_model()
    rng = np.random.default_rng(0)
    x_i, x_t = rng.normal(size=(3, 5)), rng.normal(size=(3, 4))
    c1 = model_mod.forward_full(m, x_i, x_t)
    c2 = model_mod.forward_full(m, x_i, x_t)
    assert np.array_equal(c1.image.o, c2.image.o)
    assert np.array_equal(c1.text.x_hat, c2.text.x_hat)


def test_forward_matches_composed_primitives():
    m = tiny_model()
    rng = np.random.default_rng(1)
    x_i, x_t = rng.normal(size=(3, 5)), rng.normal(size=(3, 4))
    cache = model_mod.forward_full(m, x_i, x_t)
    z = model_mod.encode(m.image, x_i)
    assert np.allclose(cache.image.z, z)
    assert np.allclose(cache.image.o, model_mod.project(m.image, z))
    assert np.allclose(cache.image.x_hat, model_mod._mlp_forward(z, m.image.decoder).output)


def _fc(h, layer):
    w, b = layer
    return nn.affine_forward(h, w.value, b.value)


def _relu_fc(h, layer):
    return nn.relu(_fc(h, layer))


def test_relu_follows_every_layer_but_the_last():
    """forward_full and the eval-mode head equal the architecture written out
    layer by layer: a ReLU after every affine layer but the last."""
    m = tiny_model()
    rng = np.random.default_rng(7)
    x_i, x_t = rng.normal(size=(4, 5)), rng.normal(size=(4, 4))
    cache = model_mod.forward_full(m, x_i, x_t)
    for pipeline, x, pc in ((m.image, x_i, cache.image), (m.text, x_t, cache.text)):
        e0, e1, e2 = pipeline.encoder
        d0, d1, d2 = pipeline.decoder
        (p0,) = pipeline.projection
        z = _fc(_relu_fc(_relu_fc(x, e0), e1), e2)
        assert np.array_equal(pc.z, z)
        assert np.array_equal(pc.o, _fc(z, p0))
        assert np.array_equal(pc.x_hat, _fc(_relu_fc(_relu_fc(z, d0), d1), d2))

    head = model_mod.init_head(3, 4, seed=0, dtype=np.float64, hidden=(5, 4, 3))
    for p in head.params():
        p.value += rng.normal(scale=0.1, size=p.value.shape)
    o_t, o_i = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    h0, h1, h2, h3 = head.layers
    x = np.concatenate([o_t, o_i], axis=1)
    logits = _fc(_relu_fc(_relu_fc(_relu_fc(x, h0), h1), h2), h3)
    assert np.array_equal(model_mod.classify_cached(head, o_t, o_i).output, logits)


def test_backward_rejects_shape_mismatch():
    m = tiny_model()
    rng = np.random.default_rng(2)
    cache = model_mod.forward_full(m, rng.normal(size=(2, 5)), rng.normal(size=(2, 4)))
    with pytest.raises(ShapeError):
        model_mod.backward_full(
            m,
            cache,
            np.zeros((3, 3)),
            np.zeros((2, 3)),
            np.zeros((2, 5)),
            np.zeros((2, 4)),
        )


def test_backward_branch_gradients_sum_linearly():
    """d_z = decoder branch + projection branch: running backward with each
    upstream gradient alone must sum to running it with both at once."""
    m = tiny_model()
    rng = np.random.default_rng(3)
    x_i, x_t = rng.normal(size=(3, 5)), rng.normal(size=(3, 4))
    cache = model_mod.forward_full(m, x_i, x_t)
    d_o_i, d_o_t = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    d_x_i, d_x_t = rng.normal(size=(3, 5)), rng.normal(size=(3, 4))
    zeros = lambda a: np.zeros_like(a)

    model_mod.backward_full(m, cache, d_o_i, d_o_t, zeros(d_x_i), zeros(d_x_t))
    proj_only = {p.name: p.grad.copy() for p in m.params()}
    model_mod.backward_full(m, cache, zeros(d_o_i), zeros(d_o_t), d_x_i, d_x_t)
    dec_only = {p.name: p.grad.copy() for p in m.params()}
    model_mod.backward_full(m, cache, d_o_i, d_o_t, d_x_i, d_x_t)
    for p in m.params():
        assert np.allclose(p.grad, proj_only[p.name] + dec_only[p.name], atol=1e-10)


def test_backward_zeroes_stale_grads():
    m = tiny_model()
    for p in m.params():
        p.grad[...] = 123.0
    rng = np.random.default_rng(4)
    cache = model_mod.forward_full(m, rng.normal(size=(2, 5)), rng.normal(size=(2, 4)))
    model_mod.backward_full(
        m,
        cache,
        np.zeros((2, 3)),
        np.zeros((2, 3)),
        np.zeros((2, 5)),
        np.zeros((2, 4)),
    )
    for p in m.params():
        assert not p.grad.any()


def test_head_shapes():
    head = model_mod.init_head(10, 7, seed=0)
    shapes = [w.value.shape for w, _ in head.layers]
    assert shapes == [(20, 512), (512, 128), (128, 64), (64, 7)]
    assert model_mod.HEAD_DROPOUT == (0.5, 0.5, 0.2)
    assert head.num_classes == 7


def test_classify_eval_deterministic_train_stochastic():
    head = model_mod.init_head(3, 4, seed=0, dtype=np.float64, hidden=(5, 4, 3))
    rng = np.random.default_rng(5)
    for p in head.params():
        p.value += rng.normal(scale=0.1, size=p.value.shape)
    o_t, o_i = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    a = model_mod.classify_cached(head, o_t, o_i).output
    b = model_mod.classify_cached(head, o_t, o_i).output
    assert np.array_equal(a, b)
    t1 = model_mod.classify_cached(head, o_t, o_i, rng=np.random.default_rng(1)).output
    t2 = model_mod.classify_cached(head, o_t, o_i, rng=np.random.default_rng(2)).output
    assert not np.array_equal(t1, t2)


def test_classify_rejects_row_mismatch():
    head = model_mod.init_head(3, 4, seed=0, hidden=(5, 4, 3))
    with pytest.raises(ShapeError):
        model_mod.classify_cached(head, np.zeros((2, 3)), np.zeros((3, 3))).output


def test_classify_backward_overwrites_stale_grads():
    head = model_mod.init_head(3, 2, seed=0, dtype=np.float64, hidden=(5, 4, 3))
    for p in head.params():
        p.grad[...] = 123.0
    rng = np.random.default_rng(6)
    o_t, o_i = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    hc = model_mod.classify_cached(head, o_t, o_i)
    model_mod.classify_backward(head, hc, np.zeros((4, 2)))
    for p in head.params():
        assert not p.grad.any()