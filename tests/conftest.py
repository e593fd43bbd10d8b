import numpy as np
import pytest

from cobra import data, model as model_mod, nn


def tiny_model(seed=0, d_image=5, d_text=4, num_classes=3, dtype=np.float64):
    """A finite-difference-sized model with params nudged off the ReLU kink."""
    m = model_mod.init_model(
        d_image, d_text, num_classes, seed=seed, dtype=dtype, hidden_dim=6, latent_dim=7
    )
    rng = np.random.default_rng(seed + 1000)
    for p in m.params():
        p.value += rng.normal(scale=0.05, size=p.value.shape).astype(dtype)
    return m


def tiny_paired(seed=0, classes=3, per_class=6, d_image=5, d_text=4):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), per_class)
    f_i = rng.normal(size=(labels.size, d_image)).astype(np.float32)
    f_t = rng.normal(size=(labels.size, d_text)).astype(np.float32)
    return data.PairedDataset(
        image=data.FeatureDataset("image", f_i, labels, classes),
        text=data.FeatureDataset("text", f_t, labels.copy(), classes),
    )


def scale_relu_backward(monkeypatch, factor=1.001):
    """Breaks the ReLU backward of every MLP by a relative `factor`: a fault
    in the real code for the gradient checks to catch."""
    relu_backward = nn.relu_backward
    monkeypatch.setattr(nn, "relu_backward", lambda x, up: factor * relu_backward(x, up))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
