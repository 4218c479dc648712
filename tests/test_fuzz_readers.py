"""Hostile input for every file reader: byte flips and truncations of a valid
WAV, feature file (.mpft), checkpoint (.ptmf) and manifest may fail only with
DataFormatError or ValidationError, never with another exception. A WAV goes
through the whole extraction, whose block reads decode its samples."""

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


def _wav(path):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes((np.sin(np.arange(1000) / 7.0) * 8000).astype("<i2").tobytes())


def _extract(path):
    # fixed framing: a corrupted sample rate must not size the window or filter bank
    w = dsp.read_wav(path)
    fcfg = dsp.FrameConfig(frame_len=400, hop_len=160)
    dsp.mfcc(w, fcfg, 13)
    dsp.extract_lld_bundle(w, fcfg)


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
    """A truncation, or one to four overwritten bytes (mostly in the header)."""
    if draw(st.booleans()):
        return ("cut", draw(st.integers(0, size - 1)))
    pos = st.integers(0, min(size, 64) - 1) | st.integers(0, size - 1)
    return ("flip", draw(st.lists(st.tuples(pos, st.integers(0, 255)), min_size=1, max_size=4)))


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
        how, arg = corruption
        data = good[:arg] if how == "cut" else bytearray(good)
        if how == "flip":
            for pos, value in arg:
                data[pos] = value
        path.write_bytes(bytes(data))
        try:
            read(path)
        except (DataFormatError, ValidationError):
            pass

    check()
