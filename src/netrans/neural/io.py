"""Binary model serialization.

Layout: 8-byte magic, little-endian uint32 format version and header length,
a canonical JSON header (config, vocab characters, tensor names and shapes),
the raw float64 little-endian tensor data in header order, and a trailing
sha256 digest of everything before it. Canonical JSON plus fixed tensor
order makes identical models serialize to identical bytes.

The tensor data is the model's flat parameter vector as it sits in memory
(`params.vector`, in `param_specs()` order), so saving is one `tobytes` and
loading is one `frombuffer` over the file bytes that the model constructor
copies into a fresh, writable vector.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct

import numpy as np

from ..errors import ChecksumError, ConfigError, ModelIOError, TruncatedModelError, VersionError
from .model import ModelConfig, Seq2SeqModel
from .vocab import CharVocab

MAGIC = b"NETRANSM"
FORMAT_VERSION = 1
_FIXED = struct.Struct("<II")
_DIGEST_LEN = hashlib.sha256().digest_size


def save_model(model: Seq2SeqModel, path: str) -> None:
    header = {
        "config": dataclasses.asdict(model.config),
        "src_chars": "".join(model.src_vocab.chars),
        "tgt_chars": "".join(model.tgt_vocab.chars),
        "tensors": [[name, list(shape)] for name, shape in model.param_specs()],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += _FIXED.pack(FORMAT_VERSION, len(header_bytes))
    blob += header_bytes
    blob += model.params.vector.astype("<f8", copy=False).tobytes()
    blob += hashlib.sha256(blob).digest()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def stored_digest(path: str) -> bytes:
    """The sha256 a model file ends with, read without reading the rest.

    It names the file's contents exactly, where size and mtime do not. A
    file too short to hold one yields what it has; `load_model` rejects it.
    """
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(max(0, size - _DIGEST_LEN))
        return fh.read()


def load_model(path: str) -> Seq2SeqModel:
    with open(path, "rb") as fh:
        data = fh.read()

    fixed_end = len(MAGIC) + _FIXED.size
    if len(data) < fixed_end:
        raise TruncatedModelError(f"{path}: file shorter than the fixed header")
    if data[:len(MAGIC)] != MAGIC:
        raise ModelIOError(f"{path}: not a model file (bad magic)")
    version, header_len = _FIXED.unpack_from(data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise VersionError(
            f"{path}: format version {version}, this build reads {FORMAT_VERSION}")

    header_end = fixed_end + header_len
    if len(data) < header_end:
        raise TruncatedModelError(f"{path}: header cut short")
    try:
        header = json.loads(data[fixed_end:header_end].decode("utf-8"))
        config = ModelConfig(**header["config"])  # a bad size is the file's fault, not the run's
        src_vocab = CharVocab(tuple(header["src_chars"]))
        tgt_vocab = CharVocab(tuple(header["tgt_chars"]))
        tensor_specs = [(name, tuple(shape)) for name, shape in header["tensors"]]
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise ModelIOError(f"{path}: malformed header ({exc})") from exc

    tensor_bytes = sum(8 * int(np.prod(shape, dtype=np.int64)) for _, shape in tensor_specs)
    expected = header_end + tensor_bytes + _DIGEST_LEN
    if len(data) < expected:
        raise TruncatedModelError(
            f"{path}: expected {expected} bytes, found {len(data)}")
    if len(data) > expected:
        raise ModelIOError(f"{path}: {len(data) - expected} trailing bytes")

    if hashlib.sha256(data[:-_DIGEST_LEN]).digest() != data[-_DIGEST_LEN:]:
        raise ChecksumError(f"{path}: checksum mismatch, file is corrupt")

    flat = np.frombuffer(data, dtype="<f8", count=tensor_bytes // 8, offset=header_end)
    params = {}
    offset = 0
    for name, shape in tensor_specs:
        count = int(np.prod(shape, dtype=np.int64))
        params[name] = flat[offset:offset + count].reshape(shape)
        offset += count
    return Seq2SeqModel(config, src_vocab, tgt_vocab, params)  # copies the views
