"""Recurrent value network: stacked LSTM over (document, query) input units.

The network consumes an ordered list of input vectors (one per ranked
document, most recent last), runs them through J stacked LSTM layers,
and feeds the final hidden state of the top layer into a ReLU dense head
ending in a single scalar. Forward, exact reverse-mode gradients of the
squared regression loss, plain SGD updates and a versioned binary
checkpoint format are all implemented here on flat float64 parameter
vectors with structured views.

Precision: everything that trains or is saved is float64 (the train
forward, backward, SGD and checkpoints), and so is the prefix unroll of
batched scoring. Only the candidate side of scoring is float32: the
workspace's pool, its projection and scratch, and the final step that
:func:`forward_candidates` runs over every candidate, from float32 copies
of the weights. Its scores come back as float64 and agree with
:func:`forward` to float32 rounding, not bit for bit.

Conventions:
  - gate order inside stacked matrices is (forget, input, output, candidate)
  - the forward pass only sees the last ``window`` inputs
  - initial hidden/cell states are initialized like weights but frozen:
    ``apply_update`` never moves them
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import struct
import typing
from dataclasses import asdict, dataclass, is_dataclass
from typing import NamedTuple, Sequence

import numpy as np

from dynrank.fileio import atomic_open


class CheckpointError(ValueError):
    """Raised for malformed or incompatible serialized parameters."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture and training hyperparameters of the value network."""

    layers: int = 3
    input_dim: int = 1024
    hidden_dims: tuple[int, ...] | None = None
    dense_dims: tuple[int, ...] | None = None
    window: int = 5
    dropout: float = 0.5
    learning_rate: float = 0.01
    output: str = "linear"  # or "sigmoid" for normalized targets
    # input conditioning: unit-norm embeddings have O(1/sqrt(dim)) entries,
    # which attenuate through the stack; sqrt(dim) restores O(1) entries
    input_scale: float = 1.0

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.output not in ("linear", "sigmoid"):
            raise ValueError(f"output must be 'linear' or 'sigmoid', got {self.output!r}")
        if self.input_scale <= 0.0:
            raise ValueError(f"input_scale must be > 0, got {self.input_scale}")
        for name in ("hidden_dims", "dense_dims"):
            if getattr(self, name) is None:
                continue
            dims = tuple(getattr(self, name))
            if any(isinstance(w, bool) or not isinstance(w, numbers.Integral) for w in dims):
                raise ValueError(f"{name} must hold integers, got {dims}")
            dims = tuple(int(w) for w in dims)  # numpy integers become ints
            object.__setattr__(self, name, dims)
            if name == "hidden_dims" and len(dims) != self.layers:
                raise ValueError("hidden_dims length must equal layers")
            if any(w < 1 for w in dims):
                raise ValueError(f"{name} must be positive")

    def resolved_hidden(self) -> tuple[int, ...]:
        if self.hidden_dims is not None:
            return self.hidden_dims
        return (self.input_dim,) * self.layers

    def resolved_dense(self) -> tuple[int, ...]:
        """Dense-head hidden widths; by default scaled down from the top hidden width."""
        if self.dense_dims is not None:
            return self.dense_dims
        h = self.resolved_hidden()[-1]
        return (h, max(h // 2, 1), max(h // 4, 1), max(h // 64, 4), max(h // 128, 4))


def config_to_dict(config) -> dict:
    """A config dataclass, nested ones included, as JSON data: tuples become lists."""
    return asdict(config, dict_factory=lambda items: {
        k: list(v) if isinstance(v, tuple) else v for k, v in items})


_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def from_json(hint, value, name: str = ""):
    """``value``, the JSON value of the field ``name`` annotated ``hint``,
    checked against that annotation (the inverse of :func:`config_to_dict`):
    a config object is built from a JSON object, a list becomes a tuple, an
    integer passes for a float and null only where the field allows None.
    A wrong type, a NaN or infinite float, or a key that names no field, is
    a ValueError naming it."""
    if type(None) in typing.get_args(hint):
        if value is None:
            return None
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    got = "null" if value is None else type(value).__name__
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValueError(f"{name}: expected an object, got {got}")
        fields = typing.get_type_hints(hint)
        prefix = f"{name}." if name else ""
        for key in value:
            if key not in fields:
                raise ValueError(f"unknown config key {prefix}{key}")
        return hint(**{key: from_json(fields[key], v, prefix + key) for key, v in value.items()})
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name}: expected a list, got {got}")
        item = typing.get_args(hint)[0]
        return tuple(from_json(item, v, f"{name}[{i}]") for i, v in enumerate(value))
    # JSON true is no number, though Python's bool is an int
    if isinstance(value, bool) is not (hint is bool) or not isinstance(
            value, (int, float) if hint is float else hint):
        raise ValueError(f"{name}: expected {_KINDS[hint]}, got {got}")
    if hint is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


class _LstmLayer:
    __slots__ = ("W", "U", "b", "h0", "c0", "H", "in_dim")

    def __init__(self, W, U, b, h0, c0, H, in_dim):
        self.W, self.U, self.b, self.h0, self.c0 = W, U, b, h0, c0
        self.H, self.in_dim = H, in_dim


class _DenseLayer:
    __slots__ = ("W", "b")

    def __init__(self, W, b):
        self.W, self.b = W, b


class _Block(NamedTuple):
    """One parameter block of theta: ``theta[start:stop]`` reshaped to ``shape``."""

    start: int
    stop: int
    shape: tuple[int, ...]

    def view(self, theta: np.ndarray) -> np.ndarray:
        return theta[self.start : self.stop].reshape(self.shape)


class _Layout(NamedTuple):
    lstm: tuple  # per layer: (W, U, b, h0, c0) blocks
    dense: tuple  # per dense layer, output layer last: (W, b) blocks
    size: int
    frozen: tuple  # (start, stop) of each layer's h0 ‖ c0 span
    trainable: tuple  # (start, stop) of the spans between the frozen ones


@functools.lru_cache
def _layout(config: NetConfig) -> _Layout:
    """Offset and shape of every parameter block, in theta order."""
    pos = 0

    def block(*shape):
        nonlocal pos
        start, pos = pos, pos + math.prod(shape)
        return _Block(start, pos, shape)

    lstm, frozen = [], []
    in_dim = config.input_dim
    for H in config.resolved_hidden():
        lstm.append((block(4 * H, in_dim), block(4 * H, H), block(4 * H), block(H), block(H)))
        frozen.append((lstm[-1][3].start, pos))
        in_dim = H
    dense = []
    for width in config.resolved_dense() + (1,):
        dense.append((block(width, in_dim), block(width)))
        in_dim = width
    edges = [0, *(e for span in frozen for e in span), pos]
    trainable = tuple(zip(edges[::2], edges[1::2]))
    return _Layout(tuple(lstm), tuple(dense), pos, tuple(frozen), trainable)


def param_count(config: NetConfig) -> int:
    """Total number of parameters, initial states included."""
    return _layout(config).size


# one counter for all params objects: a version alone then names the weights,
# so a cache keyed on it needs no reference to the params object
_versions = itertools.count()


class ValueNetParams:
    """All parameters as one flat float64 vector plus structured views.

    ``apply_update`` changes ``theta`` in place and gives the object a new
    ``version``. Versions are unique in the process, so a version names one
    state of one set of weights: a :class:`ScoringWorkspace` tags the
    pool projection and the prefix unroll it keeps with it.
    """

    def __init__(self, config: NetConfig, theta: np.ndarray):
        theta = np.asarray(theta, dtype=np.float64)
        layout = _layout(config)
        if theta.shape != (layout.size,):
            raise ValueError(f"theta must have shape ({layout.size},), got {theta.shape}")
        self.config = config
        self.theta = theta
        self.lstm = []
        for blocks in layout.lstm:
            four_h, in_dim = blocks[0].shape  # W
            self.lstm.append(_LstmLayer(*(blk.view(theta) for blk in blocks), four_h // 4, in_dim))
        self.dense = [_DenseLayer(W.view(theta), b.view(theta)) for W, b in layout.dense]
        self.version = next(_versions)

    @property
    def n_params(self) -> int:
        return self.theta.size

    def copy(self) -> "ValueNetParams":
        return ValueNetParams(self.config, self.theta.copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ValueNetParams)
            and self.config == other.config
            and np.array_equal(self.theta, other.theta)
        )


def init_glorot(config: NetConfig, seed) -> ValueNetParams:
    """Uniform Glorot initialization of every weight, bias and initial state.

    Matrices of shape (fan_out, fan_in) use bound sqrt(6 / (fan_in + fan_out));
    gate matrices use the per-gate shape, not the stacked one. Vectors of
    length n use bound sqrt(6 / (n + 1)).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    params = ValueNetParams(config, np.empty(param_count(config)))

    def fill(block, fan_in, fan_out):
        bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
        block[:] = rng.uniform(-bound, bound, block.shape)

    for ly in params.lstm:
        fill(ly.W, ly.in_dim, ly.H)
        fill(ly.U, ly.H, ly.H)
        for vec in (ly.b, ly.h0, ly.c0):
            fill(vec, ly.H, 1)
    for dl in params.dense:
        fill(dl.W, dl.W.shape[1], dl.W.shape[0])
        fill(dl.b, len(dl.b), 1)
    return params


class _Run:
    """One LSTM layer unrolled over K steps: its inputs ``below`` (K, in),
    activated gates (K, 4H), hidden and cell states ``h`` and ``c`` with
    the initial state in row 0 (K+1, H), and ``tc = tanh(c[1:])`` (K, H)."""

    __slots__ = ("below", "gates", "h", "c", "tc")

    def __init__(self, below, gates, h, c, tc):
        self.below, self.gates, self.h, self.c, self.tc = below, gates, h, c, tc


@dataclass
class ForwardCache:
    """Intermediates of one forward pass, consumed by backward."""

    params: ValueNetParams
    version: int  # params.version the forward ran at
    layers: list  # one _Run per LSTM layer
    dense: list  # (layer input, relu mask, dropout mask or None) per hidden layer
    head_in: np.ndarray
    value: float


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid in place, as 0.5*tanh(0.5x)+0.5 (cannot overflow)."""
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


def _cell(pre: np.ndarray, c_prev, c, tc, h) -> None:
    """One LSTM cell step from its gate pre-activation ``pre``, whose gates
    are stacked along axis 0: (4H,) for one step, or (4H, N) for N
    candidates, where each gate is one contiguous (H, N) slab. ``pre`` is
    activated in place into the gates; the new cell state goes to ``c``
    (which may be ``pre``'s forget rows), its tanh to ``tc`` (which may
    alias ``c``) and the hidden state to ``h``. ``c_prev`` broadcasts
    against one gate (an (H, 1) column for a batch)."""
    H = len(pre) // 4
    sig = pre[: 3 * H]  # forget, input, output: sigmoid as 0.5*tanh(0.5x)+0.5
    sig *= 0.5
    np.tanh(pre, out=pre)
    sig *= 0.5
    sig += 0.5
    np.multiply(pre[:H], c_prev, out=c)
    np.multiply(pre[H : 2 * H], pre[3 * H :], out=h)  # h as scratch for i * g
    c += h
    np.tanh(c, out=tc)
    np.multiply(pre[2 * H : 3 * H], tc, out=h)


def _scaled_inputs(cfg: NetConfig, xs: Sequence) -> np.ndarray:
    """Input vectors as the rows of one (K, input_dim) array times ``input_scale``."""
    X = np.empty((len(xs), cfg.input_dim))
    for k, x in enumerate(xs):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (cfg.input_dim,):
            raise ValueError(f"input shape {x.shape} does not match input_dim {cfg.input_dim}")
        X[k] = x
    if cfg.input_scale != 1.0:
        X *= cfg.input_scale
    return X


def _unroll(params: ValueNetParams, X: np.ndarray, runs: list | None = None) -> list:
    """Run the LSTM stack over the scaled inputs ``X`` (one row per step),
    one layer at a time: a layer's input projection ``below @ W.T + b`` is
    one matmul over all steps, and only ``U @ h`` runs step by step.

    Given ``runs``, the unroll of earlier inputs, the stack continues from
    their final states and the result covers the earlier steps as well.
    Returns one :class:`_Run` per layer.
    """
    out = []
    below = X
    for j, ly in enumerate(params.lstm):
        gates = below @ ly.W.T
        gates += ly.b
        k0 = 0 if runs is None else len(runs[j].tc)
        K = k0 + len(below)
        h, c, tc = np.empty((K + 1, ly.H)), np.empty((K + 1, ly.H)), np.empty((K, ly.H))
        if runs is None:
            h[0], c[0] = ly.h0, ly.c0
        else:
            prev = runs[j]
            h[: k0 + 1], c[: k0 + 1], tc[:k0] = prev.h, prev.c, prev.tc
            gates = np.concatenate((prev.gates, gates))
            below = np.concatenate((prev.below, below))
        for k in range(k0, K):
            pre = gates[k]
            pre += ly.U @ h[k]
            _cell(pre, c[k], c[k + 1], tc[k], h[k + 1])
        out.append(_Run(below, gates, h, c, tc))
        below = h[k0 + 1 :]
    return out


def forward(params: ValueNetParams, inputs: Sequence, rng=None, *, workspace=None):
    """Run the network over an input sequence, as training does.

    Only the last ``window`` inputs are used. A net with dropout applies
    inverted dropout to the dense-head hidden activations, drawing the
    masks from ``rng`` (a Generator or a seed), which it then requires.

    The stack is unrolled over all inputs but the last, then stepped once.
    Given the :class:`ScoringWorkspace` that last scored those inputs, the
    unroll it keeps is stepped instead, with the same bits; one made at
    another weights version or over another step count is a ValueError.

    Returns (value, cache); the cache feeds :func:`backward`.
    """
    cfg = params.config
    xs = list(inputs)[-cfg.window :]
    if not xs:
        raise ValueError("empty input sequence")
    use_dropout = cfg.dropout > 0.0
    if use_dropout:
        if rng is None:
            raise ValueError(f"a net with dropout {cfg.dropout} needs an rng for its dropout masks")
        rng = np.random.default_rng(rng)

    if workspace is None:
        runs = _unroll(params, _scaled_inputs(cfg, xs[:-1]))
    else:
        runs, made = workspace.prefix, workspace.prefix_version
        if made != params.version:
            raise ValueError(f"prefix unroll of weights version {made}, not {params.version}")
        if len(runs[0].tc) != len(xs) - 1:
            raise ValueError(f"prefix unroll of {len(runs[0].tc)} steps, not {len(xs) - 1}")
    runs = _unroll(params, _scaled_inputs(cfg, xs[-1:]), runs)

    z = runs[-1].h[-1]
    dense_cache = []
    for dl in params.dense[:-1]:
        a = dl.W @ z + dl.b
        relu_mask = (a > 0.0).astype(np.float64)
        zr = a * relu_mask
        if use_dropout:
            drop = (rng.random(zr.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            zr = zr * drop
        else:
            drop = None
        dense_cache.append((z, relu_mask, drop))
        z = zr
    out = params.dense[-1]
    v = out.W @ z + out.b
    value = float(_sigmoid_(v)[0] if cfg.output == "sigmoid" else v[0])
    return value, ForwardCache(params, params.version, runs, dense_cache, z, value)


def backward(params: ValueNetParams, cache: ForwardCache, target: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of (value - target)**2 w.r.t. every parameter.

    Backpropagates through the dense head and through time across all
    unrolled steps and layers; returns a flat vector aligned with
    ``params.theta`` (initial-state coordinates included), written into
    ``out`` when given (every element is overwritten). Per layer only the
    (dh, dc) carry runs step by step: the gate factors are computed for all
    steps at once before the time loop and the weight gradients are one
    matmul each after it.
    """
    if cache.params is not params or cache.version != params.version:
        raise ValueError("cache does not belong to these parameters")
    cfg = params.config
    layout = _layout(cfg)
    grad = np.empty_like(params.theta) if out is None else out  # every block is written below
    if grad.shape != params.theta.shape or grad.dtype != np.float64 or not grad.flags.c_contiguous:
        raise ValueError(f"out must be a contiguous float64 array of shape {params.theta.shape}")

    dv = 2.0 * (cache.value - float(target))
    if cfg.output == "sigmoid":
        dv = dv * cache.value * (1.0 - cache.value)

    out_W, out_b = layout.dense[-1]
    np.multiply(cache.head_in, dv, out=out_W.view(grad)[0])
    grad[out_b.start] = dv
    dz = params.dense[-1].W[0] * dv
    for l in range(len(params.dense) - 2, -1, -1):
        z_in, relu_mask, drop = cache.dense[l]
        if drop is not None:
            dz = dz * drop
        da = dz * relu_mask
        W, b = layout.dense[l]
        np.outer(da, z_in, out=W.view(grad))
        b.view(grad)[:] = da
        dz = params.dense[l].W.T @ da

    K = len(cache.layers[0].tc)
    incoming = np.zeros((K, params.lstm[-1].H))
    incoming[-1] = dz
    for j in range(len(params.lstm) - 1, -1, -1):
        ly, run = params.lstm[j], cache.layers[j]
        H = ly.H
        f, i, o, g = (run.gates[:, m * H : (m + 1) * H] for m in range(4))
        tc = run.tc
        dc_dh = 1.0 - tc**2
        dc_dh *= o  # dc += dh * dc_dh
        sig = run.gates[:, : 3 * H]
        dsig = 1.0 - sig
        dsig *= sig  # sigmoid derivatives of f, i, o
        # d(pre)/dc for the f, i and g blocks; the o block holds d(pre)/dh
        fac = np.empty((K, 4, H))
        np.multiply(run.c[:-1], dsig[:, :H], out=fac[:, 0])
        np.multiply(g, dsig[:, H : 2 * H], out=fac[:, 1])
        np.multiply(tc, dsig[:, 2 * H :], out=fac[:, 2])
        dg = 1.0 - g**2
        np.multiply(i, dg, out=fac[:, 3])
        dpre = np.empty((K, 4 * H))
        dpre3 = dpre.reshape(K, 4, H)
        dh_carry = np.zeros(H)
        dc_carry = np.zeros(H)
        for k in range(K - 1, -1, -1):
            dh = dh_carry + incoming[k]
            dc = dh * dc_dh[k]
            dc += dc_carry
            np.multiply(fac[k], dc, out=dpre3[k])
            np.multiply(fac[k, 2], dh, out=dpre3[k, 2])
            dh_carry = dpre[k] @ ly.U
            dc_carry = dc * f[k]
        W, U, b, h0, c0 = layout.lstm[j]
        np.matmul(dpre.T, run.below, out=W.view(grad))
        np.matmul(dpre.T, run.h[:-1], out=U.view(grad))
        dpre.sum(axis=0, out=b.view(grad))
        h0.view(grad)[:] = dh_carry
        c0.view(grad)[:] = dc_carry
        if j:
            incoming = dpre @ ly.W
    return grad


def apply_update(params: ValueNetParams, grad: np.ndarray, learning_rate: float) -> ValueNetParams:
    """Plain SGD step over the trainable parameters, in place.

    Adds ``-learning_rate * grad`` into ``params.theta`` span by span; the
    frozen initial hidden/cell states are never written. ``grad`` is used
    as scratch: its trainable spans hold ``-learning_rate * grad``
    afterwards. Gives ``params`` a new version and returns it.
    """
    grad = np.asarray(grad, dtype=np.float64)
    theta = params.theta
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match {theta.shape}")
    for start, stop in _layout(params.config).trainable:
        step = grad[start:stop]
        step *= -learning_rate
        theta[start:stop] += step  # == theta - learning_rate * grad, bit for bit
    params.version = next(_versions)
    return params


def project_docs(params: ValueNetParams, docs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Document half of the first layer's gate pre-activation, gate-major,
    in float32: ``W_d @ docs`` into the float32 ``out`` (4H, N), where
    ``docs`` holds N documents' float32 columns (dim, N), already multiplied
    by ``input_scale``, and ``W_d`` is a float32 copy of the first ``dim``
    columns of the first layer's input matrix. Returns ``out``."""
    if len(docs) > params.config.input_dim:
        raise ValueError(f"document rows have dim {len(docs)}, input_dim is {params.config.input_dim}")
    return np.matmul(params.lstm[0].W[:, : len(docs)].astype(np.float32), docs, out=out)


class ScoringWorkspace:
    """The document side of batched scoring, for one session at a time,
    and the scratch :func:`forward_candidates` works in.

    It keeps the session's pool (``ids`` and their vectors) as the float32
    columns of one (dim, pool) matrix, multiplied by ``input_scale`` in
    float64 and cast once, and the first layer's float32 projection of the
    whole pool with the weights version it was made at, and likewise the
    last call's float64 prefix unroll. Its float32 scratch blocks (gates,
    hidden states and gathered documents) are C-contiguous (rows, N) views
    of flat arrays that only ever grow, so picks allocate nothing
    candidate-sized once the first pick of the largest pool has run. Not
    for concurrent use.
    """

    __slots__ = ("ids", "scale", "pool", "version", "proj", "prefix", "prefix_version", "_flat")

    def __init__(self):
        self.ids = self.scale = self.pool = self.version = self.proj = None
        self.prefix = self.prefix_version = None  # set by forward_candidates
        self._flat = [np.empty(0, np.float32) for _ in range(3)]  # gates, h, docs

    def _block(self, slot: int, rows: int, n: int) -> np.ndarray:
        size = rows * n
        if self._flat[slot].size < size:
            self._flat[slot] = np.empty(size, np.float32)
        return self._flat[slot][:size].reshape(rows, n)

    def doc_proj(self, params: ValueNetParams, ids: tuple, vectors, live: np.ndarray) -> np.ndarray:
        """The float32 document projections of ``ids[live]``, one row each,
        as the transpose of a C-contiguous (4H, len(live)) block.

        At the version of the kept projection, its live columns are gathered
        into the gate block, where :func:`forward_candidates` completes the
        first layer in place. Otherwise the whole pool is projected and
        kept, so every later state of the session at that version gathers
        from it, or any other pick's documents are gathered and projected
        straight into the gate block, as at every training step.
        """
        scale = params.config.input_scale
        if ids is not self.ids or scale != self.scale:  # a new pool: drop the last one first
            self.ids = self.pool = self.version = self.proj = None
            pool = np.stack([vectors[d] for d in ids], axis=1)
            pool *= scale
            self.ids, self.scale, self.pool = ids, scale, pool.astype(np.float32)
        gates = self._block(0, 4 * params.lstm[0].H, len(live))
        if self.version == params.version:
            return np.take(self.proj, live, axis=1, out=gates, mode="clip").T
        if len(live) == len(ids):
            self.proj = project_docs(params, self.pool, np.empty((len(gates), len(ids)), np.float32))
            self.version = params.version
            return self.proj.T
        docs = self._block(2, len(self.pool), len(live))
        np.take(self.pool, live, axis=1, out=docs, mode="clip")  # "raise" would buffer the output
        return project_docs(params, docs, gates).T


def forward_candidates(params: ValueNetParams, prefix_inputs: Sequence, doc_proj, query, *,
                       workspace: ScoringWorkspace) -> np.ndarray:
    """Dropout-free values for many candidates sharing one ranked prefix.

    Candidate ``n``'s input unit is ``doc_n ‖ query``; ``doc_proj[n]`` is
    its float32 document projection (column ``n`` of :func:`project_docs`)
    and ``query`` the shared query half. Equivalent, to within float32
    rounding, to calling :func:`forward` (without dropout) once per
    candidate with inputs ``prefix + [doc_n ‖ query]``: the prefix is
    unrolled once in float64, the query half of the first layer is computed
    once in float64 and the final step runs batched in float32, gate-major
    on (4H, N) blocks, all in ``workspace``, which keeps the prefix unroll
    for :func:`forward` of the chosen candidate.

    The first layer's pre-activation is ``doc_proj`` plus the shared
    vector, cast to float32 and written to the workspace's gate block; when
    ``doc_proj`` is the transpose of that block, as
    :meth:`ScoringWorkspace.doc_proj` may hand it out, the shared vector is
    added in place. Each layer reads float32 copies of its weights, made
    per call. A layer's cell state overwrites its spent forget rows, its
    hidden state the previous layer's. The returned values are a new
    float64 array: the output layer's float32 dot products, cast, plus its
    bias (and sigmoid) in float64.
    """
    f32 = np.float32
    cfg = params.config
    prefix = list(prefix_inputs)[-(cfg.window - 1) :] if cfg.window > 1 else []
    runs = workspace.prefix = _unroll(params, _scaled_inputs(cfg, prefix))
    workspace.prefix_version = params.version
    query = np.asarray(query, dtype=np.float64)
    first = params.lstm[0]
    rows = np.atleast_2d(np.asarray(doc_proj, dtype=f32))
    if rows.shape[1] != 4 * first.H:
        raise ValueError(f"document projections have width {rows.shape[1]}, expected {4 * first.H}")
    n = len(rows)
    d = cfg.input_dim - query.size
    shared = first.W[:, d:] @ (cfg.input_scale * query) + first.U @ runs[0].h[-1] + first.b
    for j, (ly, run) in enumerate(zip(params.lstm, runs)):
        pre = workspace._block(0, 4 * ly.H, n)
        if j:
            np.matmul(ly.W.astype(f32), below, out=pre)
            pre += (ly.U @ run.h[-1] + ly.b).astype(f32)[:, None]
        else:
            np.add(rows.T, shared.astype(f32)[:, None], out=pre)  # in place when rows.T is pre
        c = pre[: ly.H]  # f * c_prev is the first write: each element reads only its own f
        below = workspace._block(1, ly.H, n)
        _cell(pre, run.c[-1].astype(f32)[:, None], c, c, below)
    z = below
    for dl in params.dense[:-1]:
        z = dl.W.astype(f32) @ z
        z += dl.b.astype(f32)[:, None]
        np.maximum(z, 0.0, out=z)
    v = (params.dense[-1].W[0].astype(f32) @ z).astype(np.float64)
    v += params.dense[-1].b[0]
    if cfg.output == "sigmoid":
        _sigmoid_(v)
    return v


_MAGIC = b"DVNK"
_VERSION = 1


def save(params: ValueNetParams, path) -> None:
    """Write a versioned, self-describing checkpoint atomically (``path``
    holds the old or the new one): magic, header length, JSON header, then
    theta as little-endian float64, written from theta itself, so saving
    copies nothing parameter-sized."""
    header = {
        "format": "dynrank-valuenet",
        "version": _VERSION,
        "config": config_to_dict(params.config),
        "n_params": int(params.theta.size),
    }
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<I", len(hjson)) + hjson)
        # theta's own buffer: no copy on a little-endian host
        fh.write(memoryview(np.asarray(params.theta, dtype="<f8")).cast("B"))


def load(path) -> ValueNetParams:
    """Read a checkpoint into one float64 array. Raises CheckpointError for
    a bad header (naming a field of the wrong JSON type), a header whose
    parameter count disagrees with its config (before allocating), a short
    payload, trailing bytes or a parameter that is NaN or infinite."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8:
            raise CheckpointError("truncated checkpoint: missing header")
        if head[:4] != _MAGIC:
            raise CheckpointError(f"bad magic {head[:4]!r}, expected {_MAGIC!r}")
        (hlen,) = struct.unpack("<I", head[4:])
        hbytes = fh.read(hlen)
        if len(hbytes) < hlen:
            raise CheckpointError("truncated checkpoint: incomplete header")
        try:
            header = json.loads(hbytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt header: {exc}") from None
        if not isinstance(header, dict):
            raise CheckpointError("corrupt header: not a JSON object")
        if header.get("format") != "dynrank-valuenet":
            raise CheckpointError(f"unexpected format {header.get('format')!r}")
        if header.get("version") != _VERSION:
            raise CheckpointError(f"unsupported version {header.get('version')!r}")
        try:
            config = from_json(NetConfig, header["config"], "config")
            n = from_json(int, header["n_params"], "n_params")
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"invalid header: {exc}") from None
        if n != param_count(config):  # checked before anything parameter-sized exists
            raise CheckpointError(f"header declares {n} parameters, its config has {param_count(config)}")
        theta = np.empty(n, dtype="<f8")
        got = fh.readinto(memoryview(theta).cast("B"))
        if got != 8 * n:
            raise CheckpointError(f"parameter payload has {got} bytes, expected {8 * n}")
        if fh.read(1):
            raise CheckpointError(f"trailing bytes after the {8 * n}-byte parameter payload")
    finite = np.isfinite(theta)
    if not finite.all():
        raise CheckpointError(f"{n - np.count_nonzero(finite)} of {n} parameters are not finite")
    return ValueNetParams(config, theta)
