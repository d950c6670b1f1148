"""The reference trainer and decoder the model must match bit for bit.

This is the per-tensor implementation the model and trainer replaced, kept
verbatim in what it computes: parameters are a dict of separate arrays, the
backward pass accumulates one outer product at a time, and AdaDelta loops
over the tensors. Tests compare the library against it with exact equality,
so any change in operation order in the library shows up here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct

import numpy as np

from netrans.neural import io, make_model, oriented
from netrans.neural.vocab import BOS, EOS, PAD, UNK

_MASKED_IDS = (BOS, UNK, PAD)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    return shifted - np.log(np.exp(shifted).sum())


def _gru_forward(p: dict, prefix: str, x: np.ndarray, h: np.ndarray):
    z = sigmoid(x @ p[prefix + "_wz"] + h @ p[prefix + "_uz"] + p[prefix + "_bz"])
    r = sigmoid(x @ p[prefix + "_wr"] + h @ p[prefix + "_ur"] + p[prefix + "_br"])
    rh = r * h
    hh = np.tanh(x @ p[prefix + "_wh"] + rh @ p[prefix + "_uh"] + p[prefix + "_bh"])
    h_new = (1.0 - z) * h + z * hh
    return h_new, (x, h, z, r, rh, hh)


def gru_backward(p: dict, prefix: str, cache, d_new: np.ndarray, g: dict):
    x, h, z, r, rh, hh = cache
    dz = d_new * (hh - h)
    dhh = d_new * z
    dh = d_new * (1.0 - z)

    dph = dhh * (1.0 - hh * hh)
    g[prefix + "_wh"] += np.outer(x, dph)
    g[prefix + "_uh"] += np.outer(rh, dph)
    g[prefix + "_bh"] += dph
    dx = p[prefix + "_wh"] @ dph
    drh = p[prefix + "_uh"] @ dph
    dr = drh * h
    dh += drh * r

    dpz = dz * z * (1.0 - z)
    dpr = dr * r * (1.0 - r)
    g[prefix + "_wz"] += np.outer(x, dpz)
    g[prefix + "_uz"] += np.outer(h, dpz)
    g[prefix + "_bz"] += dpz
    g[prefix + "_wr"] += np.outer(x, dpr)
    g[prefix + "_ur"] += np.outer(h, dpr)
    g[prefix + "_br"] += dpr
    dx += p[prefix + "_wz"] @ dpz + p[prefix + "_wr"] @ dpr
    dh += p[prefix + "_uz"] @ dpz + p[prefix + "_ur"] @ dpr
    return dx, dh


class OracleModel:
    """Forward and backward pass over a dict of separate parameter arrays."""

    def __init__(self, model):
        self.config = model.config
        self.specs = model.param_specs()
        self.params = {name: np.array(model.params[name]) for name, _ in self.specs}

    def zero_grads(self) -> dict:
        return {name: np.zeros(shape) for name, shape in self.specs}

    def _encode_cached(self, src_ids):
        p = self.params
        h_size = self.config.hidden_size
        m = len(src_ids)
        xs = [p["src_emb"][i] for i in src_ids]
        fwd = np.zeros((m, h_size))
        caches_f = []
        h = np.zeros(h_size)
        for t in range(m):
            h, cache = _gru_forward(p, "enc_f", xs[t], h)
            fwd[t] = h
            caches_f.append(cache)
        bwd = np.zeros((m, h_size))
        caches_b: list = [None] * m
        h = np.zeros(h_size)
        for t in range(m - 1, -1, -1):
            h, cache = _gru_forward(p, "enc_b", xs[t], h)
            bwd[t] = h
            caches_b[t] = cache
        return np.concatenate([fwd, bwd], axis=1), caches_f, caches_b

    def _encoder_backward(self, src_ids, caches_f, caches_b, d_enc, g) -> None:
        p = self.params
        h_size = self.config.hidden_size
        m = len(src_ids)
        dxs = np.zeros((m, self.config.embed_size))
        carry = np.zeros(h_size)
        for t in range(m - 1, -1, -1):
            carry = carry + d_enc[t, :h_size]
            dx, carry = gru_backward(p, "enc_f", caches_f[t], carry, g)
            dxs[t] += dx
        carry = np.zeros(h_size)
        for t in range(m):
            carry = carry + d_enc[t, h_size:]
            dx, carry = gru_backward(p, "enc_b", caches_b[t], carry, g)
            dxs[t] += dx
        for t, i in enumerate(src_ids):
            g["src_emb"][i] += dxs[t]

    def _attention_forward(self, s_prev, enc, att_enc):
        p = self.params
        t = np.tanh(s_prev @ p["att_w"] + att_enc)
        scores = t @ p["att_v"]
        e = np.exp(scores - scores.max())
        weights = e / e.sum()
        ctx = weights @ enc
        return weights, ctx, (s_prev, enc, t, weights)

    def _attention_backward(self, cache, d_ctx, g):
        p = self.params
        s_prev, enc, t, weights = cache
        d_weights = enc @ d_ctx
        d_enc = np.outer(weights, d_ctx)
        de = weights * (d_weights - weights @ d_weights)
        g["att_v"] += t.T @ de
        d_pre = np.outer(de, p["att_v"]) * (1.0 - t * t)
        dq = d_pre.sum(axis=0)
        g["att_w"] += np.outer(s_prev, dq)
        d_state = p["att_w"] @ dq
        return d_state, d_enc, d_pre

    def _step_forward(self, s_prev, y_prev, enc, att_enc):
        p = self.params
        emb = p["tgt_emb"][y_prev]
        weights, ctx, att_cache = self._attention_forward(s_prev, enc, att_enc)
        x = np.concatenate([emb, ctx])
        s_new, gru_cache = _gru_forward(p, "dec", x, s_prev)
        o = np.concatenate([s_new, ctx, emb])
        logits = o @ p["out_w"] + p["out_b"]
        logits[list(_MASKED_IDS)] = -np.inf
        logp = _log_softmax(logits)
        return logp, s_new, (y_prev, att_cache, gru_cache, o, logp)

    def encode(self, src_ids) -> np.ndarray:
        return self._encode_cached(list(src_ids))[0]

    def initial_state(self, enc: np.ndarray) -> np.ndarray:
        return np.tanh(enc[0] @ self.params["init_w"] + self.params["init_b"])

    def step(self, s_prev, y_prev, enc, att_enc):
        """One decode step: (log-probs over the target vocab, new state)."""
        logp, s_new, _ = self._step_forward(s_prev, y_prev, enc, att_enc)
        return logp, s_new

    def _step_backward(self, cache, y_out, ds_carry, g):
        p = self.params
        h_size = self.config.hidden_size
        e_size = self.config.embed_size
        y_prev, att_cache, gru_cache, o, logp = cache
        d_logits = np.exp(logp)
        d_logits[y_out] -= 1.0
        g["out_w"] += np.outer(o, d_logits)
        g["out_b"] += d_logits
        do = p["out_w"] @ d_logits
        ds_new = do[:h_size] + ds_carry
        d_ctx = do[h_size:3 * h_size].copy()
        d_emb = do[3 * h_size:].copy()
        dx, ds_prev = gru_backward(p, "dec", gru_cache, ds_new, g)
        d_emb += dx[:e_size]
        d_ctx += dx[e_size:]
        d_state, d_enc, d_att_enc = self._attention_backward(att_cache, d_ctx, g)
        g["tgt_emb"][y_prev] += d_emb
        return ds_prev + d_state, d_enc, d_att_enc

    def loss_and_grads(self, src_ids, tgt_ids):
        src_ids = list(src_ids)
        out_ids = list(tgt_ids) + [EOS]
        p = self.params
        enc, caches_f, caches_b = self._encode_cached(src_ids)
        att_enc = enc @ p["att_u"]
        init_pre = enc[0] @ p["init_w"] + p["init_b"]
        s = np.tanh(init_pre)
        s0 = s
        nll = 0.0
        step_caches = []
        y_prev = BOS
        for y in out_ids:
            logp, s, cache = self._step_forward(s, y_prev, enc, att_enc)
            nll -= logp[y]
            step_caches.append(cache)
            y_prev = y
        g = self.zero_grads()
        m = len(src_ids)
        d_enc = np.zeros((m, 2 * self.config.hidden_size))
        d_att_enc = np.zeros((m, self.config.hidden_size))
        ds = np.zeros(self.config.hidden_size)
        for cache, y in zip(reversed(step_caches), reversed(out_ids)):
            ds, d_enc_step, d_att_step = self._step_backward(cache, y, ds, g)
            d_enc += d_enc_step
            d_att_enc += d_att_step
        d_pre = ds * (1.0 - s0 * s0)
        g["init_w"] += np.outer(enc[0], d_pre)
        g["init_b"] += d_pre
        d_enc[0] += p["init_w"] @ d_pre
        d_enc += d_att_enc @ p["att_u"].T
        g["att_u"] += enc.T @ d_att_enc
        self._encoder_backward(src_ids, caches_f, caches_b, d_enc, g)
        return float(nll), len(out_ids), g


class OracleAdaDelta:
    """Per-tensor AdaDelta over an OracleModel's dict."""

    def __init__(self, model: OracleModel):
        cfg = model.config
        self.model = model
        self.rho = cfg.adadelta_rho
        self.eps = cfg.adadelta_eps
        self.lr = cfg.learning_rate
        self.sq_grad = model.zero_grads()
        self.sq_delta = model.zero_grads()

    def update(self, grads: dict, scale: float = 1.0) -> None:
        rho, eps = self.rho, self.eps
        for name, raw in grads.items():
            g = raw * scale
            eg = self.sq_grad[name]
            ex = self.sq_delta[name]
            eg *= rho
            eg += (1.0 - rho) * g * g
            delta = -np.sqrt(ex + eps) / np.sqrt(eg + eps) * g
            ex *= rho
            ex += (1.0 - rho) * delta * delta
            self.model.params[name] += self.lr * delta


def oracle_train(pairs, direction, config, max_epochs: int, patience: int):
    """The reference training loop without a dev set: (model, params dict)."""
    fresh = make_model(pairs, direction, config)
    model = OracleModel(fresh)
    encoded = [(fresh.src_vocab.encode(inp), fresh.tgt_vocab.encode(out))
               for inp, out in oriented(pairs, direction)]
    opt = OracleAdaDelta(model)
    rng = np.random.default_rng(config.seed)
    best = {name: p.copy() for name, p in model.params.items()}
    best_loss = np.inf
    bad_epochs = 0
    for _ in range(max_epochs):
        nll_total = 0.0
        step_total = 0
        for idx in rng.permutation(len(encoded)):
            nll, steps, grads = model.loss_and_grads(*encoded[idx])
            opt.update(grads, 1.0 / steps)
            nll_total += nll
            step_total += steps
        train_loss = nll_total / step_total
        if train_loss < best_loss:
            best_loss = train_loss
            best = {name: p.copy() for name, p in model.params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break
    return fresh, best


def oracle_model_bytes(model, params: dict) -> bytes:
    """The model file as the per-tensor writer laid it out."""
    header = {
        "config": dataclasses.asdict(model.config),
        "src_chars": "".join(model.src_vocab.chars),
        "tgt_chars": "".join(model.tgt_vocab.chars),
        "tensors": [[name, list(shape)] for name, shape in model.param_specs()],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False).encode("utf-8")
    blob = bytearray()
    blob += io.MAGIC
    blob += struct.pack("<II", io.FORMAT_VERSION, len(header_bytes))
    blob += header_bytes
    for name, _ in model.param_specs():
        blob += np.ascontiguousarray(params[name], dtype="<f8").tobytes()
    blob += hashlib.sha256(blob).digest()
    return bytes(blob)
