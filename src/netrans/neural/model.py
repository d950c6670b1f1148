"""Character-level attention encoder-decoder for entity transliteration.

The network reads a source string one character at a time with a
bidirectional gated recurrent encoder, then emits target characters from a
gated recurrent decoder that attends over all encoder states at every step
(additive scoring: v . tanh(W s + U h_j)).

All parameters live in one contiguous float64 vector, tensor after tensor in
`param_specs()` order, which is also the order and dtype of the model file.
`params[name]` is a named view into that vector (`params.vector`), and the
gradients from `zero_grads` and `loss_and_grads` share the layout, so an
optimizer step, a checkpoint or a save touches the whole model at once.

One GRU cell, `_Gru`, serves training, encoding and decoding. Its weights
are views of its GRU's block of the parameter vector (the encoder's two
directions are two lanes of one cell), and in training its gradients are
views of the same block of the gradient vector; nothing is copied in or
out. Update parameters in place, as the optimizer and the best-checkpoint
restore do, and every cell sees the change; rebinding a tensor or the
vector cuts it loose.

One teacher-forced forward, `_forward`, serves training (`loss_and_grads`,
batch size 1), the dev loss and the gradient check (`nll`) and scoring
(`sequence_logprob`). A decode step takes one state or the beam's live
states stacked as rows; the attention and the output layer are the same
code for both, with the rows as leading axes. The backward pass is written
out by hand; `loss_and_grads` returns unnormalized sums so callers can
weight batches however they like. Every product and sum keeps the operand
order of a plain per-tensor, per-step implementation, so the numbers are
bit-identical to it; the speed comes from making fewer numpy calls, not
from reassociating arithmetic.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DegenerateInputError, ShapeError, VocabError
from .vocab import BOS, EOS, PAD, UNK, CharVocab

# Ids the decoder must never emit. Their logits are pinned to -inf so every
# step distribution spreads all mass over real characters plus <eos>.
_MASKED_IDS = [BOS, UNK, PAD]

_INIT_SCALE = 0.08

@dataclass(frozen=True)
class ModelConfig:
    hidden_size: int = 64
    embed_size: int = 32
    max_decode_len: int = 64
    learning_rate: float = 1e-4
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    seed: int = 42

    def __post_init__(self):
        if self.hidden_size < 1 or self.embed_size < 1 or self.max_decode_len < 1:
            raise ConfigError("model sizes must be >= 1")
        # chained comparisons are false for NaN, so NaN is rejected too
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 < self.adadelta_rho < 1.0:
            raise ConfigError("adadelta_rho must lie in (0, 1)")
        if not 0.0 < self.adadelta_eps < math.inf:
            raise ConfigError(
                f"adadelta_eps must be finite and positive, got {self.adadelta_eps}")


class FlatParams(dict):
    """Named views into one contiguous float64 vector, `vector`.

    Writing through a view or through the vector changes both. Update
    tensors in place: binding a name to a new array cuts it loose.
    """

    def __init__(self, vector: np.ndarray, layout):
        super().__init__((name, vector[start:stop].reshape(shape))
                         for name, start, stop, shape in layout)
        self.vector = vector


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp never overflows: the argument is -|x|
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Along the last axis. Masked entries are -inf; exp(-inf) is 0."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _gate_stacks(block: np.ndarray, lanes: int, k: int, n: int):
    """(W, U, b) of `lanes` consecutive GRU blocks, as views of `block`.

    A block holds its gates one after another (param_specs order), each as
    W (k, n), U (n, n) and b (n,), so the gates sit one fixed stride apart
    and reshape to (lanes, 3, k, n), (lanes, 3, n, n) and (lanes, 3, n)
    without a copy. A single lane has no lane axis.
    """
    lead = (lanes,) if lanes > 1 else ()
    gates = block.reshape(lead + (3, n * (k + n + 1)))
    w_end = k * n
    u_end = w_end + n * n
    return (gates[..., :w_end].reshape(lead + (3, k, n)),
            gates[..., w_end:u_end].reshape(lead + (3, n, n)),
            gates[..., u_end:])


class _Gru:
    """The one gated recurrent cell: encoding, decoding and training.

    One instance steps one GRU, or several in lock-step as lanes (the
    encoder's two directions): arrays carry the lane, if any, as their
    leading axis. The weights are views of the GRU's block of the flat
    parameter vector, stacked by lane and gate, so a step makes one product
    per kind of weight, not one per gate and lane, and an in-place update of
    the vector is seen at once. Each product in a stack is the same BLAS
    call it would be alone, so the bits do not change; a product with fused
    [Wz|Wr|Wh] columns would change them on some hidden sizes.

    `with_grads` gives the same cell with gradient views over the same block
    of a gradient vector; `backward` accumulates straight into them, with
    one multiply-add per kind of weight and step. That is elementwise, so
    the bits stay those of per-tensor accumulation.
    """

    def __init__(self, block: np.ndarray, lanes: int, k: int, n: int):
        self.dims = (lanes, k, n)
        self.w, u, b = _gate_stacks(block, lanes, k, n)
        self.u_zr = u[..., :2, :, :]
        self.u_h = u[..., 2, :, :]
        self.b_zr = b[..., :2, :]
        self.b_h = b[..., 2, :]

    def with_grads(self, g_block: np.ndarray) -> "_Gru":
        """This cell, accumulating its gradients into g_block (laid out like its block)."""
        cell = copy.copy(self)
        cell.g_w, g_u, cell.g_b = _gate_stacks(g_block, *self.dims)
        cell.g_u_zr = g_u[..., :2, :, :]
        cell.g_u_h = g_u[..., 2, :, :]
        return cell

    def inputs(self, xs: np.ndarray) -> np.ndarray:
        """Input products x W of every step at once: (steps, lanes, 3, n).

        xs holds one row per step (and lane). A stack of row-vector products
        gives the same bits as one product per row, which a plain matrix
        product xs @ W does not.
        """
        return (xs[..., None, None, :] @ self.w)[..., 0, :]

    def forward(self, x: np.ndarray, h: np.ndarray, xw: np.ndarray | None = None):
        """One step; xw is x's row of `inputs` when precomputed."""
        if xw is None:
            xw = self.inputs(x)
        zr = _sigmoid(xw[..., :2, :] + (h[..., None, None, :] @ self.u_zr)[..., 0, :] + self.b_zr)
        keep = 1.0 - zr  # 1 - z, and 1 - r for the backward pass
        rh = zr[..., 1, :] * h
        hh = np.tanh(xw[..., 2, :] + (rh[..., None, :] @ self.u_h)[..., 0, :] + self.b_h)
        return keep[..., 0, :] * h + zr[..., 0, :] * hh, (x, h, zr, keep, rh, hh)

    def backward(self, cache, d_new: np.ndarray):
        """Backprop one step. Returns (d_input, d_prev_state)."""
        x, h, zr, keep, rh, hh = cache
        dph = d_new * zr[..., 0, :] * (1.0 - hh * hh)
        drh = (self.u_h @ dph[..., None])[..., 0]
        dp_zr = np.stack([d_new * (hh - h), drh * h], axis=-2) * zr * keep
        dp = np.concatenate([dp_zr, dph[..., None, :]], axis=-2)  # dpz, dpr, dph

        self.g_w += x[..., None, :, None] * dp[..., :, None, :]
        self.g_u_zr += h[..., None, :, None] * dp_zr[..., :, None, :]
        self.g_u_h += rh[..., :, None] * dph[..., None, :]
        self.g_b += dp

        dxs = (self.w @ dp[..., None])[..., 0]
        dx = dxs[..., 2, :] + (dxs[..., 0, :] + dxs[..., 1, :])
        dhs = (self.u_zr @ dp_zr[..., None])[..., 0]
        dh = d_new * keep[..., 0, :]
        dh += drh * zr[..., 1, :]
        dh += dhs[..., 0, :] + dhs[..., 1, :]
        return dx, dh


def _gru_specs(prefix: str, in_size: int, hidden: int) -> list[tuple[str, tuple]]:
    specs = []
    for gate in ("z", "r", "h"):
        specs.append((f"{prefix}_w{gate}", (in_size, hidden)))
        specs.append((f"{prefix}_u{gate}", (hidden, hidden)))
        specs.append((f"{prefix}_b{gate}", (hidden,)))
    return specs


class Seq2SeqModel:
    """Bidirectional GRU encoder + attention GRU decoder over characters."""

    def __init__(self, config: ModelConfig, src_vocab: CharVocab,
                 tgt_vocab: CharVocab, params: dict[str, np.ndarray] | None = None):
        self.config = config
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        layout = []
        start = 0
        for name, shape in self.param_specs():
            stop = start + int(np.prod(shape))
            layout.append((name, start, stop, shape))
            start = stop
        # (name, start, stop, shape) per tensor, in param_specs() order
        self.layout = tuple(layout)
        self.params = self.zero_grads()
        if params is None:
            self._init_params()
        else:
            self._check_shapes(params)
            for name, view in self.params.items():
                view[...] = params[name]
        # each GRU's block of the flat vector, from its `_wz` to its `_bh`;
        # the encoder's two directions are adjacent, one lane each
        spans = {name: (start, stop) for name, start, stop, _ in layout}
        self._enc_block = slice(spans["enc_f_wz"][0], spans["enc_b_bh"][1])
        self._dec_block = slice(spans["dec_wz"][0], spans["dec_bh"][1])
        h, e = config.hidden_size, config.embed_size
        self._enc = _Gru(self.params.vector[self._enc_block], 2, e, h)
        self._dec = _Gru(self.params.vector[self._dec_block], 1, e + 2 * h, h)

    # -- parameter bookkeeping ------------------------------------------

    def param_specs(self) -> list[tuple[str, tuple]]:
        """Fixed name/shape table; iteration order is the on-disk order."""
        h = self.config.hidden_size
        e = self.config.embed_size
        dec_in = e + 2 * h
        specs: list[tuple[str, tuple]] = [
            ("src_emb", (len(self.src_vocab), e)),
            ("tgt_emb", (len(self.tgt_vocab), e)),
        ]
        specs += _gru_specs("enc_f", e, h)
        specs += _gru_specs("enc_b", e, h)
        specs += [
            ("att_w", (h, h)),
            ("att_u", (2 * h, h)),
            ("att_v", (h,)),
            ("init_w", (2 * h, h)),
            ("init_b", (h,)),
        ]
        specs += _gru_specs("dec", dec_in, h)
        specs += [
            ("out_w", (3 * h + e, len(self.tgt_vocab))),
            ("out_b", (len(self.tgt_vocab),)),
        ]
        return specs

    def _init_params(self) -> None:
        rng = np.random.default_rng(self.config.seed)
        for name, view in self.params.items():
            if not name.rsplit("_", 1)[-1].startswith("b"):
                view[...] = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=view.shape)

    def _check_shapes(self, params: dict[str, np.ndarray]) -> None:
        specs = dict(self.param_specs())
        if set(params) != set(specs):
            missing = sorted(set(specs) - set(params))
            extra = sorted(set(params) - set(specs))
            raise ShapeError(f"parameter names do not match: missing {missing}, extra {extra}")
        for name, shape in specs.items():
            if params[name].shape != shape:
                raise ShapeError(
                    f"{name}: expected shape {shape}, got {params[name].shape}")

    def zero_grads(self) -> FlatParams:
        return FlatParams(np.zeros(self.layout[-1][2]), self.layout)

    # -- encoder ---------------------------------------------------------

    def encode(self, src_ids) -> np.ndarray:
        """Encoder states, one row of width 2*hidden per source position."""
        enc, _ = self._encode(src_ids)
        return enc

    def _encode(self, src_ids):
        """(encoder states, step caches).

        The two directions run in lock-step as the two lanes of the encoder
        cell: at step i the forward lane reads position i and the backward
        lane position m - 1 - i.
        """
        src_ids = list(src_ids)
        if not src_ids:
            raise DegenerateInputError("cannot encode an empty source sequence")
        n_src = len(self.src_vocab)
        for i in src_ids:
            if not 0 <= i < n_src:
                raise VocabError(f"source id {i} outside vocabulary of size {n_src}")
        m = len(src_ids)
        xs = self.params["src_emb"][src_ids]
        xs = np.stack([xs, xs[::-1]], axis=1)
        xws = self._enc.inputs(xs)
        states = np.empty((m, 2, self.config.hidden_size))
        caches = []
        h = np.zeros(states.shape[1:])
        for i in range(m):
            h, cache = self._enc.forward(xs[i], h, xws[i])
            states[i] = h
            caches.append(cache)
        return np.concatenate([states[:, 0], states[::-1, 1]], axis=1), caches

    def _encoder_backward(self, src_ids, gru: _Gru, caches, d_enc: np.ndarray,
                          g: FlatParams) -> None:
        h_size = self.config.hidden_size
        m = len(src_ids)
        # each lane's state gradients in its own step order
        d_states = np.stack([d_enc[:, :h_size], d_enc[::-1, h_size:]], axis=1)
        d_xs = np.empty((m, 2, self.config.embed_size))
        carry = np.zeros((2, h_size))
        for i in range(m - 1, -1, -1):
            carry = carry + d_states[i]
            d_xs[i], carry = gru.backward(caches[i], carry)
        # the forward direction's input gradient first, then the backward's
        dxs = np.zeros((m, self.config.embed_size))
        dxs += d_xs[:, 0]
        dxs += d_xs[::-1, 1]
        np.add.at(g["src_emb"], src_ids, dxs)

    # -- attention ---------------------------------------------------------

    def attention(self, decoder_state: np.ndarray, encoder_states: np.ndarray) -> np.ndarray:
        """Softmax weights over source positions for one decoder state."""
        h_size = self.config.hidden_size
        decoder_state = np.asarray(decoder_state, dtype=np.float64)
        encoder_states = np.asarray(encoder_states, dtype=np.float64)
        if decoder_state.shape != (h_size,):
            raise ShapeError(
                f"decoder state must have shape ({h_size},), got {decoder_state.shape}")
        if encoder_states.ndim != 2 or encoder_states.shape[1] != 2 * h_size:
            raise ShapeError(
                f"encoder states must have shape (m, {2 * h_size}), got {encoder_states.shape}")
        att_enc = encoder_states @ self.params["att_u"]
        weights, _, _ = self._attention_forward(decoder_state, encoder_states, att_enc)
        return weights

    def _attention_forward(self, s_prev, enc, att_enc):
        """Weights, context and cache for one state (h,) or stacked rows (k, h).

        Every product is a stack of row-vector products and every reduction
        runs along the last axis, so each row gets the bits it would get
        alone.
        """
        p = self.params
        q = (s_prev[..., None, :] @ p["att_w"])[..., 0, :]
        t = np.tanh(q[..., None, :] + att_enc)  # (..., m, hidden)
        scores = t @ p["att_v"]
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        ctx = (weights[..., None, :] @ enc)[..., 0, :]
        return weights, ctx, (s_prev, t, weights)

    def _attention_backward(self, cache, enc, d_ctx, g: FlatParams):
        """Returns (d_decoder_state, d_enc_direct, d_att_enc)."""
        p = self.params
        s_prev, t, weights = cache
        d_weights = enc @ d_ctx
        d_enc = weights[:, None] * d_ctx
        de = weights * (d_weights - weights @ d_weights)  # softmax jacobian
        g["att_v"] += t.T @ de
        d_pre = de[:, None] * p["att_v"] * (1.0 - t * t)
        dq = d_pre.sum(axis=0)
        g["att_w"] += s_prev[:, None] * dq
        d_state = p["att_w"] @ dq
        return d_state, d_enc, d_pre

    # -- decoder -----------------------------------------------------------

    def initial_state(self, enc: np.ndarray) -> np.ndarray:
        return np.tanh(enc[0] @ self.params["init_w"] + self.params["init_b"])

    def step(self, s_prev: np.ndarray, y_prev, enc: np.ndarray,
             att_enc: np.ndarray | None = None):
        """One decode step. Returns (log-probs over target vocab, new state).

        Takes one state of shape (hidden,) and one previous id, or k states
        stacked as rows of shape (k, hidden) and k ids; the outputs then
        carry the same leading row axis. Each row is bit-identical to
        stepping it alone.
        """
        p = self.params
        if att_enc is None:
            att_enc = enc @ p["att_u"]
        emb = p["tgt_emb"][y_prev]
        _, ctx, _ = self._attention_forward(s_prev, enc, att_enc)
        s_new, _ = self._dec.forward(np.concatenate([emb, ctx], axis=-1), s_prev)
        return self._output(np.concatenate([s_new, ctx, emb], axis=-1)), s_new

    def _output(self, outs: np.ndarray) -> np.ndarray:
        """Log-probs over the target vocab for one output o = [s, ctx, emb] or rows of them."""
        p = self.params
        logits = (outs[..., None, :] @ p["out_w"])[..., 0, :] + p["out_b"]
        logits[..., _MASKED_IDS] = -np.inf
        return _log_softmax(logits)

    # -- teacher-forced forward: scoring, loss and gradients ----------------

    def _forward(self, src_ids, tgt_ids):
        """Teacher-forced pass over tgt_ids + <eos>: (out_ids, log-probs, cache).

        The recurrence never reads the output layer, so the per-step outputs
        o = [s, ctx, emb] are stacked and go through `_output` once, one row
        of log-probs per step with the bits `step` gives it. The cache holds
        what `loss_and_grads` backpropagates.
        """
        src_ids = list(src_ids)
        out_ids = list(tgt_ids) + [EOS]
        p = self.params
        h_size = self.config.hidden_size
        enc, enc_caches = self._encode(src_ids)
        att_enc = enc @ p["att_u"]
        s = s0 = self.initial_state(enc)

        y_prevs = [BOS] + out_ids[:-1]
        outs = np.empty((len(out_ids), 3 * h_size + self.config.embed_size))
        outs[:, 3 * h_size:] = p["tgt_emb"][y_prevs]
        step_caches = []
        for t in range(len(outs)):
            emb = outs[t, 3 * h_size:]
            _, ctx, att_cache = self._attention_forward(s, enc, att_enc)
            s, gru_cache = self._dec.forward(np.concatenate([emb, ctx]), s)
            outs[t, :h_size] = s
            outs[t, h_size:3 * h_size] = ctx
            step_caches.append((att_cache, gru_cache))
        logp = self._output(outs)
        return out_ids, logp, (src_ids, enc, enc_caches, s0, y_prevs, outs, step_caches)

    def nll(self, src_ids, tgt_ids) -> tuple[float, int]:
        """Teacher-forced NLL sum of tgt_ids + <eos> and its number of scored steps.

        Target steps on <unk> are fed to the decoder but not scored, as in
        `loss_and_grads`.
        """
        out_ids, logp, _ = self._forward(src_ids, tgt_ids)
        return _nll(logp, out_ids)

    def sequence_logprob(self, src: str, tgt: str, terminated: bool = True) -> float:
        """log p(tgt | src), teacher forced.

        With terminated=True the terminal <eos> step is included; with
        terminated=False the score covers exactly the characters of tgt,
        which is the probability of the truncated decode-tree leaf.
        """
        if not src:
            raise DegenerateInputError("cannot score an empty source string")
        out_ids, logp, _ = self._forward(self.src_vocab.encode(src), self.tgt_vocab.encode(tgt))
        n = len(out_ids) if terminated else len(out_ids) - 1  # without the <eos> step
        return _sum(logp[np.arange(n), out_ids[:n]])

    def loss_and_grads(self, src_ids, tgt_ids):
        """Teacher-forced NLL of tgt_ids + <eos> given src_ids.

        Returns (nll_sum, n_steps, grads): `nll`'s two numbers, and a
        FlatParams holding d nll_sum / d θ for every parameter. Target steps
        on <unk> add no loss, no output gradient and no step to n_steps.
        Callers divide by whatever step count defines their batch mean.
        """
        out_ids, logp, cache = self._forward(src_ids, tgt_ids)
        src_ids, enc, enc_caches, s0, y_prevs, outs, step_caches = cache
        nll, n_scored = _nll(logp, out_ids)
        p = self.params
        g = self.zero_grads()
        h_size = self.config.hidden_size
        e_size = self.config.embed_size
        gru_e = self._enc.with_grads(g.vector[self._enc_block])
        gru_d = self._dec.with_grads(g.vector[self._dec_block])

        n_out = len(out_ids)
        d_logits = np.exp(logp)  # softmax probabilities; masked ids hold 0
        d_logits[np.arange(n_out), out_ids] -= 1.0
        d_logits[np.equal(out_ids, UNK)] = 0.0
        # each step's outer product o ⊗ d_logits, summed onto the zero
        # gradient in the backward loop's order, last step first; computed
        # transposed, which makes fewer and longer rows
        prods = np.empty((n_out + 1, len(self.tgt_vocab), outs.shape[1]))
        prods[0] = 0.0
        np.multiply(d_logits[::-1, :, None], outs[::-1, None, :], out=prods[1:])
        g["out_w"][...] = np.add.reduce(prods, axis=0).T
        g["out_b"][...] = np.add.reduce(np.concatenate(
            [g["out_b"][None], d_logits[::-1]]), axis=0)
        d_outs = (d_logits[:, None, :] @ p["out_w"].T)[:, 0]

        m = len(src_ids)
        d_enc = np.zeros((m, 2 * h_size))
        d_att_enc = np.zeros((m, h_size))
        ds = np.zeros(h_size)
        g_tgt = g["tgt_emb"]
        for t in range(n_out - 1, -1, -1):
            att_cache, gru_cache = step_caches[t]
            do = d_outs[t]
            dx, ds_prev = gru_d.backward(gru_cache, do[:h_size] + ds)
            d_state, d_enc_step, d_att_step = self._attention_backward(
                att_cache, enc, do[h_size:3 * h_size] + dx[e_size:], g)
            g_tgt[y_prevs[t]] += do[3 * h_size:] + dx[:e_size]
            ds = ds_prev + d_state
            d_enc += d_enc_step
            d_att_enc += d_att_step

        # initial decoder state projection
        d_pre = ds * (1.0 - s0 * s0)
        g["init_w"] += enc[0][:, None] * d_pre
        g["init_b"] += d_pre
        d_enc[0] += p["init_w"] @ d_pre

        # fold the attention precomputation back onto the encoder states
        d_enc += d_att_enc @ p["att_u"].T
        g["att_u"] += enc.T @ d_att_enc

        self._encoder_backward(src_ids, gru_e, enc_caches, d_enc, g)
        return nll, n_scored, g


def _sum(values: np.ndarray) -> float:
    """Left to right, as a per-step loop adds; the builtin sum may compensate."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def _nll(logp: np.ndarray, out_ids: list[int]) -> tuple[float, int]:
    """NLL sum over the steps whose target is not <unk>, and their count."""
    scored = np.not_equal(out_ids, UNK)
    picked = logp[np.arange(len(out_ids)), out_ids]
    return _sum(-picked[scored]), int(np.count_nonzero(scored))
