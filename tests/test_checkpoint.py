import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmfnet import checkpoint as ckpt
from ptmfnet.autodiff import Parameter, Tensor, flatten
from ptmfnet.errors import DataFormatError, ValidationError


def _params(rng, spec):
    return [Parameter(name, Tensor(rng.normal(size=shape), requires_grad=True)) for name, shape in spec]


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = _params(rng, [("enc.lld.lstm.W_i", (4, 3)), ("ptmfim.gate_W", (8, 4)), ("head.b", (5,))])
    path = tmp_path / "model.ptmf"
    ckpt.save_checkpoint(path, params)
    loaded = ckpt.load_checkpoint(path)
    assert list(loaded) == [p.name for p in params]
    for name, tensor in params:
        np.testing.assert_array_equal(loaded[name], tensor.data)
    # save(load(x)) is byte-identical
    path2 = tmp_path / "model2.ptmf"
    ckpt.save_checkpoint(path2, [Parameter(n, Tensor(a)) for n, a in loaded.items()])
    assert path.read_bytes() == path2.read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31))
def test_round_trip_random_shapes(tmp_path_factory, r, c, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("ck") / "p.ptmf"
    params = _params(rng, [("w", (r, c))])
    ckpt.save_checkpoint(path, params)
    np.testing.assert_array_equal(ckpt.load_checkpoint(path)["w"], params[0].tensor.data)


def test_header_layout(tmp_path):
    path = tmp_path / "one.ptmf"
    ckpt.save_checkpoint(path, _params(np.random.default_rng(1), [("w", (2, 3))]))
    raw = path.read_bytes()
    assert raw[:4] == b"PTMF"
    version, count = struct.unpack_from("<II", raw, 4)
    assert (version, count) == (ckpt.VERSION, 1) == (2, 1)
    (name_len,) = struct.unpack_from("<I", raw, 12)
    assert raw[16 : 16 + name_len] == b"w"
    rank_off = 16 + name_len
    (rank,) = struct.unpack_from("<I", raw, rank_off)
    assert rank == 2
    assert struct.unpack_from("<II", raw, rank_off + 4) == (2, 3)
    assert len(raw) == rank_off + 4 + 8 + 6 * 8


def test_bad_magic_names_path(tmp_path):
    path = tmp_path / "bad.ptmf"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="bad.ptmf"):
        ckpt.load_checkpoint(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "ok.ptmf"
    ckpt.save_checkpoint(path, _params(np.random.default_rng(2), [("w", (4, 4))]))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(DataFormatError, match="truncated"):
        ckpt.load_checkpoint(path)


def test_v1_file_rejected_naming_its_version(tmp_path):
    path = tmp_path / "old.ptmf"
    ckpt.save_checkpoint(path, _params(np.random.default_rng(5), [("w", (2, 3))]))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="version 1"):
        ckpt.load_checkpoint(path)


def test_name_not_utf8_is_format_error(tmp_path):
    path = tmp_path / "name.ptmf"
    path.write_bytes(b"PTMF" + struct.pack("<III", ckpt.VERSION, 1, 2) + b"\xff\xfe"
                     + struct.pack("<II", 1, 1) + struct.pack("<d", 0.5))
    with pytest.raises(DataFormatError, match="UTF-8"):
        ckpt.load_checkpoint(path)


def test_oversized_header_rejected_before_allocating(tmp_path):
    # 40 bytes whose header claims a 4096 x 4096 f64 payload (128 MiB)
    head = b"PTMF" + struct.pack("<III", ckpt.VERSION, 1, 1) + b"w" + struct.pack("<III", 2, 4096, 4096)
    path = tmp_path / "huge.ptmf"
    path.write_bytes(head + b"\x00" * (40 - len(head)))
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="truncated"):
            ckpt.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_duplicate_names_rejected_on_save(tmp_path):
    rng = np.random.default_rng(3)
    params = _params(rng, [("w", (2,)), ("w", (2,))])
    with pytest.raises(ValidationError):
        ckpt.save_checkpoint(tmp_path / "dup.ptmf", params)


def test_failed_save_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "m.ptmf"
    rng = np.random.default_rng(5)
    ckpt.save_checkpoint(path, _params(rng, [("w", (3, 2))]))
    before = path.read_bytes()
    # a lone surrogate has no UTF-8 encoding, so this save fails after its header
    with pytest.raises(UnicodeEncodeError):
        ckpt.save_checkpoint(path, _params(rng, [("a", (2,)), ("\ud800", (2,))]))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ptmf"]


def test_load_into_checks_names_and_shapes(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "m.ptmf"
    ckpt.save_checkpoint(path, _params(rng, [("a", (2, 2)), ("b", (3,))]))

    target = _params(rng, [("a", (2, 2)), ("b", (3,))])
    ckpt.load_into(target, path)
    loaded = ckpt.load_checkpoint(path)
    np.testing.assert_array_equal(target[0].tensor.data, loaded["a"])

    with pytest.raises(ValidationError, match="missing"):
        ckpt.load_into(_params(rng, [("a", (2, 2)), ("c", (3,))]), path)
    with pytest.raises(ValidationError, match="shape"):
        ckpt.load_into(_params(rng, [("a", (2, 3)), ("b", (3,))]), path)


def test_load_into_with_a_bad_later_shape_leaves_every_parameter_as_it_was(tmp_path):
    # the shapes are checked before any copy: a failed load changes nothing
    path = tmp_path / "m.ptmf"
    ckpt.save_checkpoint(path, [Parameter("a", Tensor(np.ones(2))), Parameter("b", Tensor(np.ones(3)))])
    target = [Parameter("a", Tensor(np.zeros(2))), Parameter("b", Tensor(np.zeros(4)))]
    with pytest.raises(ValidationError, match="parameter 'b'"):
        ckpt.load_into(target, path)
    np.testing.assert_array_equal(target[0].tensor.data, [0.0, 0.0])
    np.testing.assert_array_equal(target[1].tensor.data, np.zeros(4))


def test_load_into_a_flattened_model_writes_through_to_its_flat_vector(tmp_path):
    # an optimizer steps the flat vector `flatten` returns, so a load must
    # copy into the parameters' views of it, not rebind them
    rng = np.random.default_rng(5)
    path = tmp_path / "m.ptmf"
    spec = [("a", (2, 3)), ("b", (4,))]
    ckpt.save_checkpoint(path, _params(rng, spec))
    target = _params(rng, spec)
    data, _ = flatten(target)
    ckpt.load_into(target, path)
    loaded = ckpt.load_checkpoint(path)
    np.testing.assert_array_equal(data, np.concatenate([loaded["a"].ravel(), loaded["b"].ravel()]))
    data += 1.0
    np.testing.assert_array_equal(target[0].tensor.data, loaded["a"] + 1.0)
