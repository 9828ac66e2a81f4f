import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import SCORE_TOL
from dynrank import valuenet
from dynrank.valuenet import (
    CheckpointError,
    NetConfig,
    ValueNetParams,
    apply_update,
    backward,
    forward,
    forward_candidates,
    init_glorot,
    load,
    param_count,
    project_docs,
    save,
)

TINY = NetConfig(
    layers=2, input_dim=2, hidden_dims=(3, 3), dense_dims=(3, 2),
    window=5, dropout=0.0, learning_rate=0.01, output="linear",
)


def tiny_params(seed=42) -> ValueNetParams:
    return init_glorot(TINY, seed)


def projected(params, docs):
    """The float32 document projections of ``docs`` (one document per row),
    one row each: :func:`project_docs` of their columns times
    ``input_scale``, scaled in float64 and cast, as the workspace does."""
    scaled = np.array(docs, dtype=np.float64, ndmin=2).T * params.config.input_scale
    out = np.empty((4 * params.lstm[0].H, scaled.shape[1]), np.float32)
    return project_docs(params, np.ascontiguousarray(scaled, np.float32), out).T


def closed_form_count(cfg: NetConfig) -> int:
    hidden = cfg.resolved_hidden()
    total, in_dim = 0, cfg.input_dim
    for h in hidden:
        total += 4 * h * (in_dim + h + 1) + 2 * h
        in_dim = h
    d_in = hidden[-1]
    for w in cfg.resolved_dense():
        total += w * (d_in + 1)
        d_in = w
    return total + d_in + 1


class TestInit:
    def test_entries_within_glorot_bound(self):
        params = tiny_params()
        for ly in params.lstm:
            bound_w = math.sqrt(6.0 / (ly.in_dim + ly.H))
            bound_u = math.sqrt(6.0 / (2 * ly.H))
            assert np.abs(ly.W).max() <= bound_w
            assert np.abs(ly.U).max() <= bound_u
            bound_v = math.sqrt(6.0 / (ly.H + 1))
            for vec in (ly.b, ly.h0, ly.c0):
                assert np.abs(vec).max() <= bound_v
        for dl in params.dense:
            fan_out, fan_in = dl.W.shape
            assert np.abs(dl.W).max() <= math.sqrt(6.0 / (fan_in + fan_out))

    def test_same_seed_is_bitwise_identical(self):
        a = init_glorot(TINY, 1234)
        b = init_glorot(TINY, 1234)
        assert a.theta.tobytes() == b.theta.tobytes()

    def test_sample_mean_statistics(self):
        # a wide matrix gives >= 1000 entries: mean within 3 sigma of 0
        cfg = NetConfig(layers=1, input_dim=40, hidden_dims=(30,), dense_dims=(4,),
                        dropout=0.0)
        params = init_glorot(cfg, 0)
        w = params.lstm[0].W[:30, :]  # forget-gate block, 1200 entries
        bound = math.sqrt(6.0 / (40 + 30))
        tol = 3 * bound / math.sqrt(3 * w.size)
        assert abs(w.mean()) <= tol

    def test_param_count_closed_form(self):
        for layers in (1, 2, 3):
            cfg = NetConfig(layers=layers, input_dim=6, hidden_dims=(4,) * layers,
                            dense_dims=(4, 2), dropout=0.0)
            assert param_count(cfg) == closed_form_count(cfg)
        one = param_count(NetConfig(layers=1, input_dim=6, hidden_dims=(4,), dense_dims=(4, 2), dropout=0.0))
        three = param_count(NetConfig(layers=3, input_dim=6, hidden_dims=(4, 4, 4), dense_dims=(4, 2), dropout=0.0))
        # each extra layer adds 4H(H + H + 1) + 2H parameters
        assert three - one == 2 * (4 * 4 * (4 + 4 + 1) + 2 * 4)

    def test_default_dense_widths_scale_from_top_hidden(self):
        cfg = NetConfig(layers=3, input_dim=1024)
        assert cfg.resolved_dense() == (1024, 512, 256, 16, 8)


def reference_forward(params: ValueNetParams, xs):
    """Independent scalar reimplementation of the recurrences."""
    cfg = params.config

    def sigmoid(z):
        return 1.0 / (1.0 + math.exp(-z))

    xs = [np.asarray(x, float) * cfg.input_scale for x in xs][-cfg.window:]
    h = [np.array(ly.h0, float) for ly in params.lstm]
    c = [np.array(ly.c0, float) for ly in params.lstm]
    for x in xs:
        below = x
        for j, ly in enumerate(params.lstm):
            H = ly.H
            newh = np.zeros(H)
            newc = np.zeros(H)
            for r in range(H):
                pre = {}
                for gi, gate in enumerate(("f", "i", "o", "g")):
                    row = gi * H + r
                    s = ly.b[row]
                    for col in range(ly.in_dim):
                        s += ly.W[row, col] * below[col]
                    for col in range(H):
                        s += ly.U[row, col] * h[j][col]
                    pre[gate] = s
                f = sigmoid(pre["f"])
                i = sigmoid(pre["i"])
                o = sigmoid(pre["o"])
                g = math.tanh(pre["g"])
                newc[r] = f * c[j][r] + i * g
                newh[r] = o * math.tanh(newc[r])
            h[j], c[j] = newh, newc
            below = newh
    z = h[-1]
    for dl in params.dense[:-1]:
        nxt = np.zeros(dl.W.shape[0])
        for r in range(dl.W.shape[0]):
            s = dl.b[r]
            for col in range(dl.W.shape[1]):
                s += dl.W[r, col] * z[col]
            nxt[r] = max(s, 0.0)
        z = nxt
    out = params.dense[-1]
    v = out.b[0]
    for col in range(out.W.shape[1]):
        v += out.W[0, col] * z[col]
    if cfg.output == "sigmoid":
        return sigmoid(v)
    return v


class TestForward:
    def test_zero_params_give_zero_value(self):
        params = ValueNetParams(TINY, np.zeros(param_count(TINY)))
        value, cache = forward(params, [np.ones(2), np.ones(2)])
        assert value == 0.0
        for run in cache.layers:
            assert not run.c[1:].any()

    def test_deterministic_without_dropout(self):
        params = tiny_params()
        xs = [np.array([0.3, -0.7]), np.array([1.1, 0.2])]
        a, _ = forward(params, xs)
        b, _ = forward(params, xs)
        assert a == b

    def test_matches_independent_reference(self):
        cfg = NetConfig(layers=3, input_dim=2, hidden_dims=(3, 4, 2), dense_dims=(3, 2),
                        window=5, dropout=0.0, output="linear")
        params = init_glorot(cfg, 42)
        rng = np.random.default_rng(7)
        xs = [rng.standard_normal(2), rng.standard_normal(2)]
        value, _ = forward(params, xs)
        assert value == pytest.approx(reference_forward(params, xs), abs=1e-10)

    def test_sigmoid_reference(self):
        cfg = NetConfig(layers=2, input_dim=3, hidden_dims=(3, 3), dense_dims=(2,),
                        dropout=0.0, output="sigmoid")
        params = init_glorot(cfg, 9)
        xs = [np.linspace(-1, 1, 3)]
        value, _ = forward(params, xs)
        assert value == pytest.approx(reference_forward(params, xs), abs=1e-10)

    def test_gates_bounded(self):
        params = tiny_params(5)
        rng = np.random.default_rng(1)
        xs = [rng.standard_normal(2) * 3 for _ in range(4)]
        _, cache = forward(params, xs)
        for run in cache.layers:
            H = run.h.shape[1]
            f, i, o = run.gates[:, :H], run.gates[:, H : 2 * H], run.gates[:, 2 * H : 3 * H]
            for gate in (f, i, o):
                assert ((gate > 0) & (gate < 1)).all()
            h = o * run.tc
            assert ((h > -1) & (h < 1)).all()

    def test_window_truncation_exact(self):
        params = tiny_params()
        rng = np.random.default_rng(3)
        xs = [rng.standard_normal(2) for _ in range(9)]
        full, _ = forward(params, xs)
        tail, _ = forward(params, xs[-TINY.window:])
        assert full == tail

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            forward(tiny_params(), [])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward(tiny_params(), [np.zeros(3)])

    def test_train_mode_dropout_uses_rng(self):
        cfg = NetConfig(layers=1, input_dim=2, hidden_dims=(4,), dense_dims=(8, 8),
                        dropout=0.5, output="linear")
        params = init_glorot(cfg, 0)
        xs = [np.array([0.5, -0.5])]
        v1, _ = forward(params, xs, rng=1)
        v2, _ = forward(params, xs, rng=1)
        v3, _ = forward(params, xs, rng=2)
        assert v1 == v2
        assert v1 != v3

    def test_dropout_without_rng_rejected(self):
        cfg = NetConfig(layers=1, input_dim=2, hidden_dims=(4,), dense_dims=(8, 8),
                        dropout=0.5, output="linear")
        with pytest.raises(ValueError, match="needs an rng"):
            forward(init_glorot(cfg, 0), [np.array([0.5, -0.5])])


class TestBackward:
    def test_target_equal_value_gives_zero_gradient(self):
        params = tiny_params()
        value, cache = forward(params, [np.array([0.2, 0.4])])
        grad = backward(params, cache, value)
        assert not grad.any()

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(2):
            params = init_glorot(TINY, seed)
            xs = [rng.standard_normal(2) for _ in range(3)]
            target = float(rng.standard_normal())
            _, cache = forward(params, xs)
            grad = backward(params, cache, target)
            h = 1e-5
            fd = np.zeros_like(grad)
            for i in range(params.theta.size):
                tp = params.theta.copy()
                tp[i] += h
                tm = params.theta.copy()
                tm[i] -= h
                vp, _ = forward(ValueNetParams(TINY, tp), xs)
                vm, _ = forward(ValueNetParams(TINY, tm), xs)
                fd[i] = ((vp - target) ** 2 - (vm - target) ** 2) / (2 * h)
            rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-3)
            assert rel.max() <= 1e-4

    def test_chain_factor_linearity(self):
        params = tiny_params()
        value, cache = forward(params, [np.array([0.2, 0.4]), np.array([-0.1, 0.9])])
        g1 = backward(params, cache, value - 0.5)
        g2 = backward(params, cache, value - 1.0)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)

    def test_stale_cache_rejected(self):
        params = tiny_params()
        _, cache = forward(params, [np.zeros(2)])
        other = tiny_params(7)
        with pytest.raises(ValueError):
            backward(other, cache, 0.0)


class TestApplyUpdate:
    # apply_update works in place, so each test compares against a snapshot
    def test_zero_learning_rate_keeps_params(self):
        params = tiny_params()
        before = params.copy()
        grad = np.ones_like(params.theta)
        updated = apply_update(params, grad, 0.0)
        np.testing.assert_array_equal(updated.theta, before.theta)

    def test_zero_gradient_keeps_params(self):
        params = tiny_params()
        before = params.copy()
        updated = apply_update(params, np.zeros_like(params.theta), 0.1)
        np.testing.assert_array_equal(updated.theta, before.theta)

    def test_one_step_decreases_loss(self):
        params = tiny_params()
        xs = [np.array([0.4, -0.2]), np.array([0.1, 0.8])]
        target = 2.0
        value, cache = forward(params, xs)
        grad = backward(params, cache, target)
        updated = apply_update(params, grad, 1e-3)
        new_value, _ = forward(updated, xs)
        assert (new_value - target) ** 2 < (value - target) ** 2

    def test_initial_states_frozen(self):
        params = tiny_params()
        before = params.copy()
        grad = np.ones_like(params.theta)
        updated = apply_update(params, grad, 0.5)
        for old, new in zip(before.lstm, updated.lstm):
            np.testing.assert_array_equal(old.h0, new.h0)
            np.testing.assert_array_equal(old.c0, new.c0)
            assert (new.W != old.W).all()

    def test_shape_mismatch_rejected(self):
        params = tiny_params()
        with pytest.raises(ValueError):
            apply_update(params, np.zeros(3), 0.1)


class TestBatchedScoring:
    def test_matches_single_forwards(self):
        params = tiny_params()
        rng = np.random.default_rng(2)
        prefix = [rng.standard_normal(2) for _ in range(3)]
        rows = rng.standard_normal((6, 2))
        batch = forward_candidates(params, prefix, projected(params, rows), np.zeros(0),
                                   workspace=valuenet.ScoringWorkspace())
        singles = np.array([forward(params, prefix + [r])[0] for r in rows])
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_empty_prefix(self):
        params = tiny_params()
        rows = np.array([[0.1, 0.2], [0.5, -0.5]])
        batch = forward_candidates(params, [], projected(params, rows), np.zeros(0),
                                   workspace=valuenet.ScoringWorkspace())
        singles = np.array([forward(params, [r])[0] for r in rows])
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_long_prefix_respects_window(self):
        cfg = NetConfig(layers=1, input_dim=2, hidden_dims=(3,), dense_dims=(2,),
                        window=2, dropout=0.0)
        params = init_glorot(cfg, 3)
        rng = np.random.default_rng(4)
        prefix = [rng.standard_normal(2) for _ in range(5)]
        rows = rng.standard_normal((2, 2))
        batch = forward_candidates(params, prefix, projected(params, rows), np.zeros(0),
                                   workspace=valuenet.ScoringWorkspace())
        singles = np.array([forward(params, prefix + [r])[0] for r in rows])
        np.testing.assert_allclose(batch, singles, rtol=SCORE_TOL, atol=SCORE_TOL)


def save_bytes(params: ValueNetParams, tmp_path) -> bytes:
    save(params, tmp_path / "p.ckpt")
    return (tmp_path / "p.ckpt").read_bytes()


def load_bytes(blob: bytes, tmp_path) -> ValueNetParams:
    (tmp_path / "blob.ckpt").write_bytes(blob)
    return load(tmp_path / "blob.ckpt")


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        params = tiny_params(7)
        save(params, tmp_path / "p.ckpt")
        clone = load(tmp_path / "p.ckpt")
        assert clone.config == params.config
        assert clone.theta.tobytes() == params.theta.tobytes()

    def test_round_trip_preserves_forward_values(self, tmp_path):
        params = init_glorot(TINY, 7)
        xs = [np.array([0.3, 0.1]), np.array([-0.4, 0.9])]
        before, _ = forward(params, xs)
        save(params, tmp_path / "p.ckpt")
        after, _ = forward(load(tmp_path / "p.ckpt"), xs)
        assert before == after

    def test_corrupt_magic_rejected(self, tmp_path):
        blob = bytearray(save_bytes(tiny_params(), tmp_path))
        blob[0] ^= 0xFF
        with pytest.raises(CheckpointError):
            load_bytes(bytes(blob), tmp_path)

    def test_corrupt_header_rejected(self, tmp_path):
        blob = bytearray(save_bytes(tiny_params(), tmp_path))
        blob[10] = 0x00
        with pytest.raises(CheckpointError):
            load_bytes(bytes(blob), tmp_path)

    def test_truncation_rejected(self, tmp_path):
        blob = save_bytes(tiny_params(), tmp_path)
        with pytest.raises(CheckpointError):
            load_bytes(blob[:-8], tmp_path)

    def test_version_mismatch_rejected(self, tmp_path, rewrite_header):
        save(tiny_params(), tmp_path / "p.ckpt")
        rewrite_header(tmp_path / "p.ckpt", "version", 99)
        with pytest.raises(CheckpointError, match="unsupported version 99"):
            load(tmp_path / "p.ckpt")


# written by the checkpoint code before save/load streamed: init_glorot(FIXTURE_NET, 2021)
FIXTURE = Path(__file__).parent / "data" / "valuenet_v1.ckpt"
FIXTURE_NET = NetConfig(layers=2, input_dim=3, hidden_dims=(2, 3), dense_dims=(2,), window=4,
                        dropout=0.0, learning_rate=0.05, output="sigmoid", input_scale=1.5)


class TestCheckpointFile:
    def test_reads_and_rewrites_committed_checkpoint(self, tmp_path):
        blob = FIXTURE.read_bytes()
        params = load(FIXTURE)
        assert params.config == FIXTURE_NET
        assert params.theta.tobytes() == init_glorot(FIXTURE_NET, 2021).theta.tobytes()
        save(params, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == blob
        assert load(tmp_path / "again.ckpt") == params

    def test_short_payload_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(FIXTURE.read_bytes()[:-1])
        with pytest.raises(CheckpointError, match="payload"):
            load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.ckpt"
        path.write_bytes(FIXTURE.read_bytes() + b"\0")
        with pytest.raises(CheckpointError, match="trailing"):
            load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, tmp_path, value):
        params = load(FIXTURE)
        n = params.theta.size
        theta = params.theta.copy()
        theta[[0, n - 1]] = value
        save(ValueNetParams(FIXTURE_NET, theta), tmp_path / "bad.ckpt")
        with pytest.raises(CheckpointError, match=f"^2 of {n} parameters are not finite$"):
            load(tmp_path / "bad.ckpt")

    def test_count_mismatch_rejected_before_allocating(self, tmp_path, monkeypatch, rewrite_header):
        path = tmp_path / "forged.ckpt"
        path.write_bytes(FIXTURE.read_bytes())
        n = 10**9  # the payload a forged header asks for
        rewrite_header(path, "n_params", n)
        sizes = []
        real_empty = np.empty
        monkeypatch.setattr(np, "empty", lambda shape, *a, **k: sizes.append(shape) or real_empty(shape, *a, **k))
        with pytest.raises(CheckpointError, match="parameters"):
            load(path)
        assert n not in sizes

    @pytest.mark.parametrize("field, value, message", [
        ("config.window", 4.0, "config.window: expected an integer, got float"),
        ("config.hidden_dims", [2.9, 3.2], "config.hidden_dims[0]: expected an integer, got float"),
        ("config.dense_dims", "2", "config.dense_dims: expected a list, got str"),
        ("config.layers", True, "config.layers: expected an integer, got bool"),
        ("config.heads", 2, "unknown config key config.heads"),
        ("n_params", "141", "n_params: expected an integer, got str"),
        ("n_params", 141.9, "n_params: expected an integer, got float"),
        ("n_params", True, "n_params: expected an integer, got bool"),
        ("config.learning_rate", math.nan, "config.learning_rate must be finite, got nan"),
        ("config.input_scale", math.inf, "config.input_scale must be finite, got inf"),
        ("config.dropout", -math.inf, "config.dropout must be finite, got -inf"),
    ], ids=["window", "hidden_dims", "dense_dims", "layers", "unknown_key", "n_params_str",
            "n_params_fraction", "n_params_bool", "nan_learning_rate", "inf_input_scale",
            "minus_inf_dropout"])
    def test_header_field_of_wrong_json_type_rejected(self, tmp_path, rewrite_header, field, value, message):
        """The header is read like a config file: no field is coerced, a
        float must be finite (JSON's NaN and Infinity parse), and the error
        names the field."""
        path = tmp_path / "bad.ckpt"
        path.write_bytes(FIXTURE.read_bytes())
        rewrite_header(path, field, value)
        with pytest.raises(CheckpointError) as info:
            load(path)
        assert str(info.value) == f"invalid header: {message}"


class TestNetConfig:
    @pytest.mark.parametrize("field, dims", [
        ("hidden_dims", (2.9,)), ("hidden_dims", (np.float64(3.0),)), ("hidden_dims", (True,)),
        ("dense_dims", (4, 2.5)), ("dense_dims", ("4",)),
    ])
    def test_non_integer_width_rejected(self, field, dims):
        """A width is never truncated: ``(2.9,)`` used to become ``(2,)``."""
        with pytest.raises(ValueError, match=f"{field} must hold integers"):
            NetConfig(layers=1, input_dim=3, **{field: dims})

    def test_numpy_integer_widths_become_ints(self):
        cfg = NetConfig(layers=2, input_dim=3, hidden_dims=np.array([4, 5]), dense_dims=[np.int32(3)])
        assert cfg.hidden_dims == (4, 5) and cfg.dense_dims == (3,)
        assert all(type(w) is int for w in cfg.hidden_dims + cfg.dense_dims)


@st.composite
def net_cases(draw):
    """A random net (1-3 layers, window 1-5, either head, input scale 1 or
    not, initial states included) and 1..window inputs."""
    layers = draw(st.integers(1, 3))
    net = NetConfig(
        layers=layers,
        input_dim=draw(st.integers(1, 4)),
        hidden_dims=tuple(draw(st.lists(st.integers(1, 4), min_size=layers, max_size=layers))),
        dense_dims=(3,),
        window=draw(st.integers(1, 5)),
        dropout=0.0,
        output=draw(st.sampled_from(["linear", "sigmoid"])),
        input_scale=draw(st.sampled_from([1.0, 0.7, 3.1])),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(net.input_dim) for _ in range(draw(st.integers(1, net.window)))]
    return init_glorot(net, seed), xs


def hand_off_case(window, n_inputs):
    """A fixed two-layer net with ``window`` and ``n_inputs`` inputs, as a
    (params, inputs) pair like those :func:`net_cases` draws."""
    net = NetConfig(layers=2, input_dim=3, hidden_dims=(2, 4), dense_dims=(3,), window=window,
                    dropout=0.0, input_scale=3.1)
    rng = np.random.default_rng(window * 10 + n_inputs)
    return init_glorot(net, window), [rng.standard_normal(3) for _ in range(n_inputs)]


def loss_at(params, theta, xs, target):
    value, _ = forward(ValueNetParams(params.config, theta), xs)
    return (value - target) ** 2


class TestUnrollProperties:
    @given(net_cases())
    @settings(max_examples=60, deadline=None)
    def test_forward_matches_scalar_reference(self, case):
        params, xs = case
        value, _ = forward(params, xs)
        assert value == pytest.approx(reference_forward(params, xs), abs=1e-10)

    @given(net_cases(), st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_backward_matches_finite_differences(self, case, target):
        params, xs = case
        _, cache = forward(params, xs)
        for (z_in, _, _), dl in zip(cache.dense, params.dense):
            assume(np.abs(dl.W @ z_in + dl.b).min() > 1e-3)  # no ReLU kink within reach
        grad = backward(params, cache, target)
        h = 1e-6
        fd = np.empty_like(grad)
        for i in range(params.n_params):
            tp, tm = params.theta.copy(), params.theta.copy()
            tp[i] += h
            tm[i] -= h
            fd[i] = (loss_at(params, tp, xs, target) - loss_at(params, tm, xs, target)) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-3)
        assert rel.max() <= 1e-4

    @given(net_cases(), st.booleans())
    @example(hand_off_case(window=1, n_inputs=1), True)  # no prefix at all
    @example(hand_off_case(window=1, n_inputs=3), False)  # the window drops the prefix
    @example(hand_off_case(window=4, n_inputs=2), True)  # a prefix shorter than the window
    @example(hand_off_case(window=2, n_inputs=4), False)  # a prefix longer than the window
    @settings(max_examples=60, deadline=None)
    def test_workspace_prefix_gives_identical_bits(self, case, no_query):
        params, xs = case
        cfg = params.config
        rng = np.random.default_rng(len(xs))
        q_dim = 0 if no_query else rng.integers(0, cfg.input_dim + 1)
        query = xs[-1][cfg.input_dim - q_dim :]
        units = [np.concatenate([x[: cfg.input_dim - q_dim], query]) for x in xs]
        prefix, last = units[:-1], units[-1]
        docs = np.stack([last[: cfg.input_dim - q_dim], rng.standard_normal(cfg.input_dim - q_dim)])
        ws = valuenet.ScoringWorkspace()
        forward_candidates(params, prefix, projected(params, docs), query, workspace=ws)

        def run(**workspace):
            value, cache = forward(params, prefix + [last], **workspace)
            return value, cache, backward(params, cache, 0.5)

        handed, own = run(workspace=ws), run()
        assert handed[0] == own[0]
        assert handed[2].tobytes() == own[2].tobytes()
        for a, b in zip(handed[1].layers, own[1].layers):
            for name in valuenet._Run.__slots__:
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for a, b in zip(handed[1].dense, own[1].dense):
            assert [x.tobytes() for x in a[:2]] == [x.tobytes() for x in b[:2]]
            assert a[2] is None and b[2] is None
        assert handed[1].head_in.tobytes() == own[1].head_in.tobytes()


@st.composite
def net_configs(draw):
    layers = draw(st.integers(1, 3))
    return NetConfig(
        layers=layers,
        input_dim=draw(st.integers(1, 9)),
        hidden_dims=tuple(draw(st.lists(st.integers(1, 9), min_size=layers, max_size=layers))),
        dense_dims=tuple(draw(st.lists(st.integers(1, 9), min_size=0, max_size=3))),
        dropout=0.0,
    )


class TestLayout:
    @given(net_configs())
    @settings(max_examples=100, deadline=None)
    def test_blocks_tile_theta_once(self, cfg):
        layout = valuenet._layout(cfg)
        blocks = [blk for layer in layout.lstm for blk in layer]
        blocks += [blk for layer in layout.dense for blk in layer]
        pos = 0
        for blk in blocks:  # theta order, no gap and no overlap
            assert blk.start == pos and blk.stop - blk.start == math.prod(blk.shape)
            pos = blk.stop
        assert pos == layout.size == param_count(cfg) == closed_form_count(cfg)
        assert layout.dense[-1][0].shape[0] == 1
        assert layout.frozen == tuple((h0.start, c0.stop) for _, _, _, h0, c0 in layout.lstm)
        assert all(h0.stop == c0.start for _, _, _, h0, c0 in layout.lstm)

    @given(net_configs())
    @settings(max_examples=30, deadline=None)
    def test_views_and_frozen_spans_follow_layout(self, cfg):
        params = init_glorot(cfg, 0)
        before = params.copy()  # apply_update works in place
        updated = apply_update(params, np.ones(params.n_params), 0.5)
        frozen = np.zeros(params.n_params, bool)
        for start, stop in valuenet._layout(cfg).frozen:
            frozen[start:stop] = True
        assert (updated.theta[frozen] == before.theta[frozen]).all()
        assert (updated.theta[~frozen] == before.theta[~frozen] - 0.5).all()
        for ly in updated.lstm:  # the initial states are exactly the frozen span
            for vec in (ly.h0, ly.c0):
                offset = (vec.__array_interface__["data"][0]
                          - updated.theta.__array_interface__["data"][0]) // 8
                assert frozen[offset : offset + vec.size].all()


class TestGateMajorCell:
    @given(st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batched_cell_equals_one_row_calls(self, H, N, seed):
        rng = np.random.default_rng(seed)
        pre = 3.0 * rng.standard_normal((4 * H, N))
        c_prev = rng.standard_normal(H)
        gates, c, h = pre.copy(), np.empty((H, N)), np.empty((H, N))
        valuenet._cell(gates, c_prev[:, None], c, c, h)
        for n in range(N):
            g1, c1, tc1, h1 = pre[:, n].copy(), np.empty(H), np.empty(H), np.empty(H)
            valuenet._cell(g1, c_prev, c1, tc1, h1)
            assert g1.tobytes() == gates[:, n].copy().tobytes()
            assert tc1.tobytes() == c[:, n].copy().tobytes()  # batched c holds tanh c
            assert h1.tobytes() == h[:, n].copy().tobytes()


@st.composite
def scoring_sequences(draw):
    """A random net (1-3 layers of unequal widths, either head), two sets of
    its weights, a query of 0-3 entries, a pool of documents
    and a sequence of scoring calls: (weights index, prefix, candidate rows),
    whose candidate count shrinks and grows past every earlier count, then
    covers the whole pool, whose projection a workspace keeps, and one row."""
    layers = draw(st.integers(1, 3))
    no_query = draw(st.booleans())
    doc_dim = draw(st.integers(1, 4))
    q_dim = 0 if no_query else draw(st.integers(1, 3))
    net = NetConfig(
        layers=layers,
        input_dim=doc_dim + q_dim,
        hidden_dims=tuple(draw(st.lists(st.integers(1, 7), min_size=layers, max_size=layers))),
        dense_dims=tuple(draw(st.lists(st.integers(1, 5), min_size=0, max_size=2))),
        window=draw(st.integers(1, 4)),
        dropout=0.0,
        output=draw(st.sampled_from(["linear", "sigmoid"])),
        input_scale=draw(st.sampled_from([1.0, 2.5])),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    params = [init_glorot(net, [seed, i]) for i in range(2)]
    query = rng.standard_normal(q_dim)
    pool = rng.standard_normal((14, doc_dim))
    counts = draw(st.lists(st.integers(1, 12), min_size=2, max_size=5))
    calls = []
    for n in counts + [max(counts) + 1, len(pool), 1]:
        rows = np.sort(rng.choice(len(pool), n, replace=False))
        prefix = [np.concatenate([rng.standard_normal(doc_dim), query])
                  for _ in range(draw(st.integers(0, net.window + 1)))]
        calls.append((draw(st.integers(0, 1)), prefix, rows))
    return params, query, pool, calls


def _score_in_workspace(params, prefix, ids, vectors, rows, query, ws):
    """Score the pool rows ``rows`` with the workspace's document
    projections, so the first layer runs in place in its gate block
    whenever it hands them out there. Returns the values and a copy of the
    projections they were scored from."""
    doc_proj = ws.doc_proj(params, ids, vectors, rows)
    rows_proj = doc_proj.copy()
    return forward_candidates(params, prefix, doc_proj, query, workspace=ws), rows_proj


def _pool_ids(pool):
    ids = tuple(f"d{i:02d}" for i in range(len(pool)))
    return ids, dict(zip(ids, pool))


class TestScoringWorkspace:
    @given(scoring_sequences())
    @settings(max_examples=60, deadline=None)
    def test_shared_workspace_matches_fresh_buffers(self, case):
        params, query, pool, calls = case
        ws = valuenet.ScoringWorkspace()
        ids, vectors = _pool_ids(pool)
        for which, prefix, rows in calls:
            p = params[which]
            shared, rows_proj = _score_in_workspace(p, prefix, ids, vectors, rows, query, ws)
            fresh = forward_candidates(p, prefix, rows_proj, query,
                                       workspace=valuenet.ScoringWorkspace())
            assert shared.tobytes() == fresh.tobytes()
            assert not any(np.shares_memory(shared, buf) for buf in ws._flat)
            units = [np.concatenate([pool[r], query]) for r in rows]
            singles = [forward(p, prefix + [u])[0] for u in units]
            np.testing.assert_allclose(shared, singles, rtol=SCORE_TOL, atol=SCORE_TOL)

    @given(scoring_sequences())
    @settings(max_examples=30, deadline=None)
    def test_nothing_leaks_between_calls(self, case):
        params, query, pool, calls = case
        ws = valuenet.ScoringWorkspace()
        ids, vectors = _pool_ids(pool)
        for which, prefix, rows in calls:
            p = params[which]
            for buf in ws._flat:
                buf.fill(np.nan)
            values, rows_proj = _score_in_workspace(p, prefix, ids, vectors, rows, query, ws)
            assert np.isfinite(values).all()
            fresh = forward_candidates(p, prefix, rows_proj, query,
                                       workspace=valuenet.ScoringWorkspace())
            assert values.tobytes() == fresh.tobytes()
            # a direct projection of the rows or a gather from the whole pool's
            np.testing.assert_allclose(rows_proj, projected(p, pool)[rows],
                                       rtol=SCORE_TOL, atol=SCORE_TOL)


class TestFloat32Scoring:
    @given(net_cases(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @example(hand_off_case(window=3, n_inputs=3), 5, 0)  # input scale 3.1, linear head
    @settings(max_examples=100, deadline=None)
    def test_scores_within_bound_of_float64_forward(self, case, n, seed):
        """Float32 batched scores of a workspace's pool stay within
        SCORE_TOL of float64 ``forward``, for either head, input scales
        above and below 1, and a query of any width, none included."""
        params, xs = case
        cfg = params.config
        rng = np.random.default_rng(seed)
        query = rng.standard_normal(rng.integers(0, cfg.input_dim))  # may be empty
        d = cfg.input_dim - query.size
        prefix = [np.concatenate([x[:d], query]) for x in xs[:-1]]
        ids, vectors = _pool_ids(rng.standard_normal((n, d)))
        ws = valuenet.ScoringWorkspace()
        scores = forward_candidates(params, prefix, ws.doc_proj(params, ids, vectors, np.arange(n)),
                                    query, workspace=ws)
        want = [forward(params, prefix + [np.concatenate([vectors[i], query])])[0] for i in ids]
        np.testing.assert_allclose(scores, want, rtol=SCORE_TOL, atol=SCORE_TOL)

    def test_candidate_side_is_float32_and_scores_a_new_float64_array(self):
        params = init_glorot(dataclasses.replace(TINY, input_scale=2.0), 5)
        ids, vectors = _pool_ids(np.random.default_rng(5).standard_normal((6, 2)))
        ws = valuenet.ScoringWorkspace()
        for live in (np.arange(6), np.array([1, 4])):  # kept projection, then a gather from it
            forward_candidates(params, [vectors["d00"]], ws.doc_proj(params, ids, vectors, live),
                               np.zeros(0), workspace=ws)
        apply_update(params, np.ones(params.n_params), 0.1)
        scores = forward_candidates(params, [vectors["d00"]], ws.doc_proj(params, ids, vectors, live),
                                    np.zeros(0), workspace=ws)  # a direct projection of two
        assert all(a.dtype == np.float32 for a in [ws.pool, ws.proj, *ws._flat])
        assert all(a.size for a in ws._flat)  # every flat block was used
        assert all(run.h.dtype == np.float64 for run in ws.prefix)  # the unroll forward is handed
        assert scores.dtype == np.float64 and scores.shape == (2,) and scores.base is None
        assert not any(np.shares_memory(scores, a) for a in [ws.pool, ws.proj, *ws._flat])


class TestInPlaceStep:
    @given(net_cases(), st.sampled_from([0.0, 1e-3, 0.3, 7.0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_update_bits_match_out_of_place_formula(self, case, lr, seed):
        params, _ = case
        rng = np.random.default_rng(seed)
        n = params.n_params
        theta = params.theta
        theta[rng.random(n) < 0.2] = -0.0  # negative zeros in frozen and trainable spans
        grad = rng.standard_normal(n)
        grad[rng.random(n) < 0.2] = 0.0
        frozen = np.zeros(n, bool)
        for start, stop in valuenet._layout(params.config).frozen:
            frozen[start:stop] = True
        expected = -lr * grad + theta
        before = theta.copy()
        version = params.version
        assert apply_update(params, grad, lr) is params
        assert params.theta is theta and params.version != version
        assert theta[~frozen].tobytes() == expected[~frozen].tobytes()
        assert theta[frozen].tobytes() == before[frozen].tobytes()

    @given(net_cases(), st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_backward_into_buffer_matches_fresh(self, case, target):
        params, xs = case
        _, cache = forward(params, xs)
        buf = np.full(params.n_params, np.nan)
        assert backward(params, cache, target, out=buf) is buf
        assert buf.tobytes() == backward(params, cache, target).tobytes()

    def test_backward_rejects_cache_from_older_version(self):
        params = tiny_params()
        _, cache = forward(params, [np.zeros(2)])
        apply_update(params, np.ones(params.n_params), 0.1)
        with pytest.raises(ValueError):
            backward(params, cache, 0.0)

    @staticmethod
    def scored(params, prefix):
        """A workspace that scored one candidate after ``prefix``."""
        ws = valuenet.ScoringWorkspace()
        forward_candidates(params, prefix, projected(params, np.zeros((1, 2))), np.zeros(0),
                           workspace=ws)
        return ws

    def test_prefix_from_before_an_update_is_refused(self):
        params = tiny_params()
        xs = [np.array([0.1 * k, -0.2]) for k in range(4)]
        ws = self.scored(params, xs[:-1])
        made = params.version
        apply_update(params, np.full(params.n_params, 0.25), 0.1)
        with pytest.raises(ValueError, match=f"weights version {made}, not {params.version}"):
            forward(params, xs, workspace=ws)
        with pytest.raises(ValueError, match=f"weights version None, not {params.version}"):
            forward(params, xs, workspace=valuenet.ScoringWorkspace())  # nothing scored yet

    def test_prefix_a_step_short_is_refused(self):
        params = tiny_params()
        xs = [np.array([0.1 * k, -0.2]) for k in range(4)]
        ws = self.scored(params, xs[:-2])
        with pytest.raises(ValueError, match="2 steps, not 3"):
            forward(params, xs, workspace=ws)
        assert forward(params, xs[:-1], workspace=ws)[0] == forward(params, xs[:-1])[0]
