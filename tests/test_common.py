import numpy as np

from noseda.nets.common import Adam, adam_corrections, adam_update


def textbook_adam(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as usually written, returning new arrays."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdamUpdate:
    def test_scalar_t_matches_textbook(self, rng):
        p, m, v = rng.normal(size=(3, 7, 5))
        v = np.abs(v)
        ref = (p.copy(), m.copy(), v.copy())
        scratch = (np.empty_like(p), np.empty_like(p))
        for t in range(1, 6):
            g = rng.normal(size=p.shape)
            adam_update(p, g, m, v, 1 - 0.9**t, 1 - 0.999**t, 1e-3, scratch)
            ref = textbook_adam(*ref[:1], g, *ref[1:], t, 1e-3)
            assert np.array_equal(p, ref[0]) and np.array_equal(m, ref[1]) and np.array_equal(v, ref[2])

    def test_late_steps_match_textbook(self, rng):
        # from t = 356 on, 1 - 0.9**t is 1.0 and the update skips m / c1
        assert 1 - 0.9**355 < 1.0 == 1 - 0.9**356
        for t in (355, 356, 357, 5000):
            p, m, v, g = rng.normal(size=(4, 6, 3))
            v = np.abs(v)
            expected = textbook_adam(p, g, m, v, t, 1e-3)
            adam_update(p, g, m, v, 1 - 0.9**t, 1 - 0.999**t, 1e-3, (np.empty_like(p), np.empty_like(p)))
            assert np.array_equal(p, expected[0]) and np.array_equal(m, expected[1]) and np.array_equal(v, expected[2])

    def test_per_row_t_matches_textbook_row_by_row(self, rng):
        # a stack of three models at different step counts
        p, m, v = rng.normal(size=(3, 3, 4, 2))
        v = np.abs(v)
        t = [1, 7, 30]
        g = rng.normal(size=p.shape)
        expected = [textbook_adam(p[r], g[r], m[r], v[r], t[r], 0.01) for r in range(3)]
        c = adam_corrections(30)[t].reshape(3, 1, 1, 2)  # one (c1, c2) per model, broadcast over its rows
        adam_update(p, g, m, v, c[..., 0], c[..., 1], 0.01, (np.empty_like(p), np.empty_like(p)))
        for r in range(3):
            assert np.array_equal(p[r], expected[r][0])
            assert np.array_equal(m[r], expected[r][1])
            assert np.array_equal(v[r], expected[r][2])

    def test_adam_class_steps_every_array(self, rng):
        arrays = [rng.normal(size=(4, 3)), rng.normal(size=3)]
        ref = [(a.copy(), np.zeros_like(a), np.zeros_like(a)) for a in arrays]
        opt = Adam(arrays, lr=0.1)
        for t in range(1, 4):
            grads = [rng.normal(size=a.shape) for a in arrays]
            opt.step(arrays, grads)
            ref = [textbook_adam(p, g, m, v, t, 0.1) for (p, m, v), g in zip(ref, grads)]
            for a, (p, _, _) in zip(arrays, ref):
                assert np.array_equal(a, p)
