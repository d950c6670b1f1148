import re
import struct

import numpy as np
import pytest

from netrans.align import ModelTranslator
from netrans.core import NePair, NeType
from netrans.errors import (
    ChecksumError,
    ModelIOError,
    TruncatedModelError,
    VersionError,
)
from netrans.neural import (
    ModelConfig,
    S2T,
    Seq2SeqModel,
    beam,
    io,
    load_model,
    make_model,
    save_model,
    train,
)
from trainer_oracle import oracle_model_bytes

MAGIC_LEN = 8
FIXED_HEADER = MAGIC_LEN + struct.calcsize("<II")


@pytest.fixture()
def saved(tmp_path):
    pairs = [NePair("巴林", "balin", NeType.LOC), NePair("安娜", "anna", NeType.PER)]
    model = make_model(pairs, S2T, ModelConfig(hidden_size=8, embed_size=6, seed=2))
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    return model, path


def test_round_trip_preserves_everything(saved):
    model, path = saved
    back = load_model(str(path))
    assert back.config == model.config
    assert back.src_vocab == model.src_vocab
    assert back.tgt_vocab == model.tgt_vocab
    assert set(back.params) == set(model.params)
    for name in model.params:
        assert np.array_equal(back.params[name], model.params[name])


def test_loaded_parameters_are_writable(saved):
    _, path = saved
    back = load_model(str(path))
    back.params["att_v"][0] = 123.0  # frombuffer views would explode here
    assert back.params["att_v"][0] == 123.0


def test_loaded_parameters_do_not_alias_the_file_bytes(saved):
    _, path = saved
    vector = load_model(str(path)).params.vector
    assert vector.flags.owndata and vector.flags.writeable


def test_save_bytes_match_the_per_tensor_layout_for_non_contiguous_params(saved, tmp_path):
    model, _ = saved
    # every tensor a transposed (non-contiguous) view of its own buffer
    params = {name: np.ascontiguousarray(model.params[name].T).T
              for name, _ in model.param_specs()}
    assert not all(p.flags.c_contiguous for p in params.values())
    rebuilt = Seq2SeqModel(model.config, model.src_vocab, model.tgt_vocab, params)
    path = tmp_path / "rebuilt.bin"
    save_model(rebuilt, str(path))
    assert path.read_bytes() == oracle_model_bytes(model, params)


def test_save_is_byte_deterministic(saved, tmp_path):
    model, path = saved
    again = tmp_path / "again.bin"
    save_model(model, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_corrupted_payload_fails_the_checksum(saved):
    _, path = saved
    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0xFF  # a tensor byte, not part of the trailing digest
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_model(str(path))


def test_bad_magic_is_not_a_model_file(saved):
    _, path = saved
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelIOError):
        load_model(str(path))


def test_unknown_version_is_rejected_before_checksum(saved):
    _, path = saved
    blob = bytearray(path.read_bytes())
    blob[MAGIC_LEN:MAGIC_LEN + 4] = struct.pack("<I", 999)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError, match="999"):
        load_model(str(path))


@pytest.mark.parametrize("keep", [0, 4, FIXED_HEADER - 1, FIXED_HEADER + 3])
def test_truncation_in_the_header_region(saved, keep):
    _, path = saved
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(TruncatedModelError):
        load_model(str(path))


def test_truncated_tensor_data(saved):
    _, path = saved
    path.write_bytes(path.read_bytes()[:-50])
    with pytest.raises(TruncatedModelError):
        load_model(str(path))


def test_trailing_garbage_is_rejected(saved):
    _, path = saved
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(ModelIOError, match="trailing"):
        load_model(str(path))


def test_mangled_header_json(saved):
    _, path = saved
    blob = bytearray(path.read_bytes())
    blob[FIXED_HEADER] = ord("!")  # breaks the JSON object opener
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelIOError):
        load_model(str(path))


def test_an_impossible_size_in_the_header_is_a_malformed_file(saved):
    _, path = saved
    blob = path.read_bytes()
    assert blob.count(b'"hidden_size":8') == 1
    path.write_bytes(blob.replace(b'"hidden_size":8', b'"hidden_size":0'))
    with pytest.raises(ModelIOError, match=f"^{re.escape(str(path))}: malformed header "):
        load_model(str(path))


def test_model_translator_reloads_a_model_saved_over_its_path(tmp_path, monkeypatch):
    loads = []
    monkeypatch.setattr(io, "load_model", lambda path: loads.append(path) or load_model(path))
    pairs = [NePair("巴林", "balin", NeType.LOC), NePair("安娜", "anna", NeType.PER)]
    config = ModelConfig(hidden_size=8, embed_size=6, learning_rate=1.0, seed=2)
    path = str(tmp_path / "model.bin")
    save_model(train(pairs, S2T, config, max_epochs=1), path)
    first = ModelTranslator(path, 3)("巴林")
    assert ModelTranslator(path, 3)("巴林") == first
    assert len(loads) == 1  # an unchanged file loads once

    # the same config gives a file of the same size
    save_model(train(pairs, S2T, config, max_epochs=30), path)
    fresh = beam.translate(load_model(path), "巴林", 3)
    assert fresh != first
    assert ModelTranslator(path, 3)("巴林") == fresh
    assert ModelTranslator(path, 3)("安娜") == beam.translate(load_model(path), "安娜", 3)
    assert len(loads) == 2
