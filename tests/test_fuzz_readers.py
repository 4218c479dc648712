"""Hostile input for every file reader: byte flips, truncations and appended
bytes of a valid WAV, feature file (.mpft), checkpoint (.ptmf) and manifest
may fail only with DataFormatError or ValidationError, never with another
exception. A WAV goes through the whole extraction, whose block reads decode
its samples. A feature file fails only with DataFormatError, and leaves no
file descriptor open; nor does a WAV extraction, whose block reads share one
open handle a pass."""

import os
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ptmfnet import dsp
from ptmfnet.autodiff import Parameter, Tensor
from ptmfnet.checkpoint import load_checkpoint, save_checkpoint
from ptmfnet.dataio import (AUDIO_STREAMS, VISUAL_STREAMS, PersonalityProfile, load_manifest,
                            read_feature_file, write_feature_file, write_manifest)
from ptmfnet.errors import DataFormatError, ValidationError


def _wav(path, n=1000):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes((np.sin(np.arange(n) / 7.0) * 8000).astype("<i2").tobytes())


FCFG = dsp.FrameConfig(frame_len=400, hop_len=160)


def _extract(path):
    # fixed framing: a corrupted sample rate must not size the window or filter bank
    w = dsp.read_wav(path)
    dsp.mfcc(w, FCFG, 13)
    dsp.extract_lld_bundle(w, FCFG)


def _mpft(path):
    write_feature_file(np.arange(12, dtype=np.float32).reshape(4, 3), path)


def _ptmf(path):
    rng = np.random.default_rng(0)
    save_checkpoint(path, [Parameter("enc.lstm.W", Tensor(rng.normal(size=(2, 8)))),
                           Parameter("head.fc1.bias", Tensor(rng.normal(size=(1, 3))))])


def _manifest(path):
    for s in AUDIO_STREAMS + VISUAL_STREAMS:
        write_feature_file(np.ones((2, 3), dtype=np.float32), path.parent / f"{s}.mpft")
    profile = PersonalityProfile(extraversion=3, agreeableness=4, openness=2, neuroticism=5,
                                 conscientiousness=1, age=71, gender="female", origin="Hunan")
    write_manifest([{"id": f"s{i}",
                     "audio_paths": {s: f"{s}.mpft" for s in AUDIO_STREAMS},
                     "visual_paths": {s: f"{s}.mpft" for s in VISUAL_STREAMS},
                     "personality": profile.to_dict(),
                     "labels": {"binary": 1, "ternary": 2, "quinary": 3}} for i in range(2)], path)


READERS = {
    "wav": (_wav, _extract),
    "mpft": (_mpft, read_feature_file),
    "ptmf": (_ptmf, load_checkpoint),
    "manifest": (_manifest, load_manifest),
}


@st.composite
def _corruption(draw, size):
    """A truncation, one byte or many appended, or one to four overwritten
    bytes (mostly in the header)."""
    how = draw(st.sampled_from(("cut", "append", "flip")))
    if how == "cut":
        return ("cut", draw(st.integers(0, size - 1)))
    if how == "append":
        return ("append", draw(st.binary(min_size=1, max_size=1) | st.binary(min_size=2, max_size=4 * size)))
    pos = st.integers(0, min(size, 64) - 1) | st.integers(0, size - 1)
    return ("flip", draw(st.lists(st.tuples(pos, st.integers(0, 255)), min_size=1, max_size=4)))


def _corrupted(good: bytes, corruption) -> bytes:
    how, arg = corruption
    if how == "cut":
        return good[:arg]
    if how == "append":
        return good + arg
    data = bytearray(good)
    for pos, value in arg:
        data[pos] = value
    return bytes(data)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_corrupt_file_raises_only_format_or_validation_errors(kind, tmp_path_factory):
    make, read = READERS[kind]
    path = tmp_path_factory.mktemp(kind) / f"input.{kind}"
    make(path)
    good = path.read_bytes()
    read(path)  # the pristine file loads

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_corruption(len(good)))
    def check(corruption):
        path.write_bytes(_corrupted(good, corruption))
        try:
            read(path)
        except (DataFormatError, ValidationError):
            pass

    check()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_corrupt_feature_file_raises_only_format_errors_and_closes_its_descriptor(tmp_path):
    path = tmp_path / "input.mpft"
    _mpft(path)
    good = path.read_bytes()

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_corruption(len(good)))
    def check(corruption):
        path.write_bytes(_corrupted(good, corruption))
        before = os.listdir("/proc/self/fd")
        try:
            read_feature_file(path)
        except DataFormatError:
            pass
        assert os.listdir("/proc/self/fd") == before

    check()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_wav_extraction_closes_its_descriptors(tmp_path):
    path = tmp_path / "input.wav"
    _wav(path)
    good = path.read_bytes()
    before = os.listdir("/proc/self/fd")
    _extract(path)
    assert os.listdir("/proc/self/fd") == before

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_corruption(len(good)))
    def check(corruption):
        path.write_bytes(_corrupted(good, corruption))
        before = os.listdir("/proc/self/fd")
        try:
            _extract(path)
        except (DataFormatError, ValidationError):
            # checked while the traceback holds the failed pass's frames: a handle
            # that only dropping its last reference would close is still open here
            assert os.listdir("/proc/self/fd") == before
        assert os.listdir("/proc/self/fd") == before

    check()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
@pytest.mark.parametrize("keep", [30, 44 + 2 * 20000, 44 + 2 * 60000])
def test_wav_cut_after_its_check_fails_naming_the_file_and_closes_its_descriptor(keep, tmp_path):
    # 500 frames are two blocks of at most 256; the cuts fall in the header, the first block and the second
    path = tmp_path / "late.wav"
    _wav(path, (500 - 1) * 160 + 400)
    w = dsp.read_wav(path)
    path.write_bytes(path.read_bytes()[:keep])
    before = os.listdir("/proc/self/fd")
    for analysis in (lambda: dsp.mfcc(w, FCFG, 13), lambda: dsp.extract_lld_bundle(w, FCFG)):
        with pytest.raises(DataFormatError, match=r"late\.wav") as failure:
            analysis()
        assert os.listdir("/proc/self/fd") == before, failure  # the traceback keeps the pass's frames
