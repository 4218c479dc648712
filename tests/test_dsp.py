"""Audio feature extraction tests.

The reference MFCC pipeline below was written from the textbook definition
(pre-emphasis, framed Hamming analysis, HTK mel triangles, orthonormal
DCT-II) before the vectorized implementation, and deliberately uses
different building blocks: explicit Python loops, scipy.fft.rfft and
scipy.fft.dct instead of numpy's rfft and a hand-built DCT matrix.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmfnet import dsp
from ptmfnet.dsp import FrameConfig, MelConfig, Waveform
from ptmfnet.errors import ValidationError


# ---------------------------------------------------------------------------
# reference pipeline (independent oracle)


def _ref_hamming(n):
    return np.array([0.54 - 0.46 * math.cos(2.0 * math.pi * i / (n - 1)) for i in range(n)])


def _ref_mel(f):
    return 2595.0 * math.log10(1.0 + f / 700.0)


def _ref_mel_inv(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def _ref_filterbank(sr, n_fft, n_mels, fmin, fmax):
    edges = [_ref_mel_inv(_ref_mel(fmin) + (_ref_mel(fmax) - _ref_mel(fmin)) * i / (n_mels + 1))
             for i in range(n_mels + 2)]
    n_bins = n_fft // 2 + 1
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        for k in range(n_bins):
            f = k * sr / n_fft
            if lo < f < hi:
                if f <= mid:
                    fb[m, k] = (f - lo) / (mid - lo)
                else:
                    fb[m, k] = (hi - f) / (hi - mid)
    return fb


def _ref_mfcc(samples, sr, frame_len, hop, n_fft, n_mels, n_mfcc, fmin, fmax, floor):
    emph = np.empty(len(samples))
    emph[0] = samples[0]
    for i in range(1, len(samples)):
        emph[i] = samples[i] - 0.97 * samples[i - 1]
    win = _ref_hamming(frame_len)
    fb = _ref_filterbank(sr, n_fft, n_mels, fmin, fmax)
    n_frames = 1 + (len(samples) - frame_len) // hop
    out = np.zeros((n_frames, n_mfcc))
    for t in range(n_frames):
        frame = emph[t * hop : t * hop + frame_len] * win
        mag = np.abs(scipy.fft.rfft(frame, n_fft))
        energies = np.array([float(np.sum(fb[m] * mag)) for m in range(n_mels)])
        logmel = np.log(np.maximum(energies, floor))
        out[t] = scipy.fft.dct(logmel, type=2, norm="ortho")[:n_mfcc]
    return out


def _wave(samples, sr=16000):
    return Waveform(np.asarray(samples, dtype=np.float64), sr)


def _sine(freq, sr=16000, dur=1.0, amp=0.5):
    t = np.arange(int(sr * dur)) / sr
    return amp * np.sin(2.0 * np.pi * freq * t)


FCFG = FrameConfig(frame_len=400, hop_len=160, window="hamming")
MCFG = MelConfig(n_fft=512, n_mels=26, n_mfcc=13, fmin=0.0, fmax=8000.0, log_floor=1e-10)


# ---------------------------------------------------------------------------
# framing


def _frame_signal(w, cfg):
    """Windowed (T, frame_len) frames of the whole signal, T = 1 + floor((len - frame_len)/hop),
    as the block-wise extractors frame each block."""
    return dsp._frame_raw(w.samples, cfg.frame_len, cfg.hop_len) * dsp._WINDOWS[cfg.window](cfg.frame_len)


def test_frame_count_boundary():
    frames = _frame_signal(_wave(np.ones(400)), FCFG)
    assert frames.shape == (1, 400)


def test_frame_count_formula():
    frames = _frame_signal(_wave(np.ones(720)), FCFG)
    assert frames.shape == (3, 400)


def test_rect_window_frames_equal_raw_slices():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 720)
    cfg = FrameConfig(frame_len=400, hop_len=160, window="rect")
    frames = _frame_signal(_wave(x), cfg)
    for t in range(3):
        np.testing.assert_array_equal(frames[t], x[t * 160 : t * 160 + 400])


def test_frame_offsets_and_window():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 880)
    frames = _frame_signal(_wave(x), FCFG)
    win = _ref_hamming(400)
    assert frames.shape == (4, 400)
    for t in range(4):
        np.testing.assert_allclose(frames[t], x[t * 160 : t * 160 + 400] * win, atol=1e-12)


def test_signal_shorter_than_frame_rejected():
    with pytest.raises(ValidationError):
        _frame_signal(_wave(np.ones(399)), FCFG)


def test_frame_config_validation():
    with pytest.raises(ValidationError):
        FrameConfig(frame_len=400, hop_len=0, window="hamming")
    with pytest.raises(ValidationError):
        FrameConfig(frame_len=400, hop_len=401, window="hamming")
    with pytest.raises(ValidationError):
        FrameConfig(frame_len=400, hop_len=160, window="blackman")


def test_waveform_validation():
    with pytest.raises(ValidationError):
        Waveform(np.array([]), 16000)
    with pytest.raises(ValidationError):
        Waveform(np.zeros(10), 4000)
    with pytest.raises(ValidationError):
        Waveform(np.array([0.0, np.nan]), 16000)


# ---------------------------------------------------------------------------
# energy and zero-crossing rate


def test_energy_silence_is_zero():
    frames = np.zeros((3, 400))
    np.testing.assert_array_equal(dsp.short_term_energy(frames), np.zeros((3, 1)))


def test_energy_unit_constant():
    frames = np.ones((2, 400))
    np.testing.assert_array_equal(dsp.short_term_energy(frames), np.ones((2, 1)))


def test_energy_sine_mean_square():
    # mean square of a*sin is a^2/2 over whole periods
    x = _sine(100.0, dur=0.4, amp=0.5)
    cfg = FrameConfig(frame_len=3200, hop_len=3200, window="rect")
    frames = _frame_signal(_wave(x), cfg)
    e = dsp.short_term_energy(frames)
    assert abs(e[0, 0] - 0.125) < 0.00125


def test_zcr_silence():
    np.testing.assert_array_equal(dsp.zero_crossing_rate(np.zeros((2, 400))), np.zeros((2, 1)))


def test_zcr_alternating():
    frame = np.tile([1.0, -1.0], 200)
    assert dsp.zero_crossing_rate(frame[None, :])[0, 0] == 1.0


def test_zcr_zeros_count_positive():
    # sign sequence +,+,-,+ has 2 changes over 3 gaps
    frame = np.array([0.0, 0.5, -0.5, 0.0])
    assert dsp.zero_crossing_rate(frame[None, :])[0, 0] == pytest.approx(2.0 / 3.0)


def test_zcr_sine_matches_brute_force():
    x = _sine(100.0, dur=0.025)[:400]
    got = dsp.zero_crossing_rate(x[None, :])[0, 0]
    signs = [1 if v >= 0 else -1 for v in x]
    count = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert got == pytest.approx(count / 399.0)


@given(st.floats(0.01, 1.0), st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_scaling_property(s, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.9, 0.9, 720)
    cfg = FrameConfig(frame_len=400, hop_len=160, window="rect")
    base = _frame_signal(_wave(x), cfg)
    scaled = _frame_signal(_wave(s * x), cfg)
    np.testing.assert_allclose(dsp.short_term_energy(scaled), s * s * dsp.short_term_energy(base), rtol=1e-12)
    np.testing.assert_array_equal(dsp.zero_crossing_rate(scaled), dsp.zero_crossing_rate(base))


# ---------------------------------------------------------------------------
# mel filterbank and DCT


def test_filterbank_matches_reference():
    fb = dsp.mel_filterbank(16000, 512, 26, 0.0, 8000.0)
    ref = _ref_filterbank(16000, 512, 26, 0.0, 8000.0)
    np.testing.assert_allclose(fb, ref, atol=1e-12)


def test_filterbank_nonnegative_contiguous():
    fb = dsp.mel_filterbank(16000, 512, 26, 0.0, 8000.0)
    assert np.all(fb >= 0.0)
    for row in fb:
        nz = np.flatnonzero(row > 0)
        assert nz.size > 0
        assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))


def test_dct_matrix_orthonormal():
    m = dsp.dct_matrix(26)
    np.testing.assert_allclose(m.T @ m, np.eye(26), atol=1e-10)
    np.testing.assert_allclose(m @ m.T, np.eye(26), atol=1e-10)


@pytest.mark.parametrize("n_mfcc", [0, -1, 27])
def test_mel_config_n_mfcc_message_states_both_bounds(n_mfcc):
    with pytest.raises(ValidationError, match=f"need 1 <= n_mfcc <= n_mels, got n_mfcc={n_mfcc} n_mels=26"):
        MelConfig(n_fft=512, n_mels=26, n_mfcc=n_mfcc)


def test_mel_config_validation():
    with pytest.raises(ValidationError):
        MelConfig(n_fft=500, n_mels=26, n_mfcc=13, fmin=0.0, fmax=8000.0, log_floor=1e-10)
    with pytest.raises(ValidationError):
        MelConfig(n_fft=512, n_mels=26, n_mfcc=27, fmin=0.0, fmax=8000.0, log_floor=1e-10)
    with pytest.raises(ValidationError):
        MelConfig(n_fft=512, n_mels=26, n_mfcc=13, fmin=8000.0, fmax=8000.0, log_floor=1e-10)
    with pytest.raises(ValidationError):
        MelConfig(n_fft=512, n_mels=26, n_mfcc=13, fmin=0.0, fmax=8000.0, log_floor=0.0)


# ---------------------------------------------------------------------------
# MFCC pipeline


def test_mfcc_silence_is_constant_dct():
    out = dsp.mfcc(_wave(np.zeros(1600)), FCFG, MCFG)
    assert out.shape == (8, 13)
    expected = np.zeros(13)
    expected[0] = math.log(1e-10) * math.sqrt(26.0)
    for row in out:
        np.testing.assert_allclose(row, expected, atol=1e-9)


def test_mfcc_sine_peaks_in_matching_filter():
    w = _wave(_sine(1000.0))
    energies = dsp.log_mel_energies(w, FCFG, MCFG)
    edges = dsp.mel_edges_hz(26, 0.0, 8000.0)
    peak = int(np.argmax(energies.mean(axis=0)))
    assert edges[peak] < 1000.0 < edges[peak + 2]


def test_mfcc_matches_reference_20_waveforms():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 16000)
        got = dsp.mfcc(_wave(x), FCFG, MCFG)
        ref = _ref_mfcc(x, 16000, 400, 160, 512, 26, 13, 0.0, 8000.0, 1e-10)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 1e-5, worst


def test_mfcc_invariant_to_trailing_samples():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 4000)
    base = dsp.mfcc(_wave(x), FCFG, MCFG)
    # frame 23 would need samples up to index 4079, so 79 extras stay below it
    longer = dsp.mfcc(_wave(np.concatenate([x, rng.uniform(-1, 1, 79)])), FCFG, MCFG)
    assert longer.shape == base.shape
    np.testing.assert_array_equal(longer, base)


def test_mfcc_fmax_above_nyquist_rejected():
    bad = MelConfig(n_fft=512, n_mels=26, n_mfcc=13, fmin=0.0, fmax=9000.0, log_floor=1e-10)
    with pytest.raises(ValidationError):
        dsp.mfcc(_wave(np.zeros(1600)), FCFG, bad)


# ---------------------------------------------------------------------------
# block-wise analysis against the whole-signal expressions


_WHOLE_WINDOWS = {"hamming": np.hamming, "rect": np.ones}


def _whole_frames(samples, fcfg):
    return np.lib.stride_tricks.sliding_window_view(samples, fcfg.frame_len)[::fcfg.hop_len]


def _whole_log_mel(w, fcfg, mcfg):
    emphasized = w.samples.copy()
    emphasized[1:] -= 0.97 * w.samples[:-1]
    frames = _whole_frames(emphasized, fcfg) * _WHOLE_WINDOWS[fcfg.window](fcfg.frame_len)
    mag = np.abs(np.fft.rfft(frames, n=mcfg.n_fft, axis=1))
    fb = dsp.mel_filterbank(w.sample_rate, mcfg.n_fft, mcfg.n_mels, mcfg.fmin, mcfg.fmax)
    return np.log(np.maximum(mag @ fb.T, mcfg.log_floor))


def _whole_mfcc(w, fcfg, mcfg):
    return _whole_log_mel(w, fcfg, mcfg) @ dsp.dct_matrix(mcfg.n_mels)[: mcfg.n_mfcc].T


def _whole_lld(w, fcfg):
    raw = _whole_frames(w.samples, fcfg)
    windowed = raw * _WHOLE_WINDOWS[fcfg.window](fcfg.frame_len)
    negative = raw < 0.0
    zcr = np.sum(negative[:, 1:] != negative[:, :-1], axis=1, keepdims=True) / float(fcfg.frame_len - 1)
    return np.hstack([np.mean(np.square(windowed), axis=1, keepdims=True), zcr])


@pytest.mark.parametrize("n_frames", [1, dsp.BLOCK - 1, dsp.BLOCK, dsp.BLOCK + 1, 3 * dsp.BLOCK + 7])
@pytest.mark.parametrize("window", ["hamming", "rect"])
def test_block_wise_features_equal_whole_signal_bitwise(n_frames, window):
    # hop 160 does not divide frame 400, and 97 trailing samples fill no frame
    fcfg = FrameConfig(frame_len=400, hop_len=160, window=window)
    rng = np.random.default_rng(n_frames)
    w = _wave(rng.uniform(-1, 1, (n_frames - 1) * 160 + 400 + 97))
    logmel = dsp.log_mel_energies(w, fcfg, MCFG)
    assert logmel.shape == (n_frames, 26)
    np.testing.assert_array_equal(logmel, _whole_log_mel(w, fcfg, MCFG))
    np.testing.assert_array_equal(dsp.mfcc(w, fcfg, MCFG), _whole_mfcc(w, fcfg, MCFG))
    np.testing.assert_array_equal(dsp.extract_lld_bundle(w, fcfg), _whole_lld(w, fcfg))


def test_extraction_memory_is_bounded_by_the_block_not_the_signal():
    # 120 s is 12k frames; a whole-signal analysis holds several (T, 400-512)
    # float64 arrays at once, about 128 MB traced
    w = _wave(np.random.default_rng(5).uniform(-1, 1, 120 * 16000))
    tracemalloc.start()
    try:
        dsp.mfcc(w, FCFG, MCFG)
        dsp.extract_lld_bundle(w, FCFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


# ---------------------------------------------------------------------------
# LLD bundle


def test_lld_bundle_silence():
    out = dsp.extract_lld_bundle(_wave(np.zeros(1600)), FCFG)
    np.testing.assert_array_equal(out, np.zeros((8, 2)))


def test_lld_bundle_composition():
    rng = np.random.default_rng(10)
    w = _wave(rng.uniform(-1, 1, 1600))
    out = dsp.extract_lld_bundle(w, FCFG)
    assert out.shape == (8, 2)
    windowed = _frame_signal(w, FCFG)
    raw = _frame_signal(w, FrameConfig(400, 160, "rect"))
    np.testing.assert_array_equal(out[:, :1], dsp.short_term_energy(windowed))
    np.testing.assert_array_equal(out[:, 1:], dsp.zero_crossing_rate(raw))


# ---------------------------------------------------------------------------
# WAV decoding


def test_read_wav_round_trip(tmp_path):
    import wave as wavmod

    sr = 16000
    pcm = (32767 * _sine(440.0, dur=0.1)).astype(np.int16)
    path = tmp_path / "tone.wav"
    with wavmod.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sr)
        fh.writeframes(pcm.tobytes())
    w = dsp.read_wav(path)
    assert w.sample_rate == sr
    np.testing.assert_allclose(w.samples, pcm / 32768.0, atol=1e-12)


def test_read_wav_rejects_stereo(tmp_path):
    import wave as wavmod

    from ptmfnet.errors import DataFormatError

    path = tmp_path / "st.wav"
    with wavmod.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(np.zeros(400, dtype=np.int16).tobytes())
    with pytest.raises(DataFormatError):
        dsp.read_wav(path)


def test_read_wav_rejects_data_shorter_than_its_header_declares(tmp_path):
    # an even cut keeps whole samples, so only the declared size can tell
    import wave as wavmod

    from ptmfnet.errors import DataFormatError

    path = tmp_path / "cut.wav"
    with wavmod.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(np.arange(800, dtype=np.int16).tobytes())
    path.write_bytes(path.read_bytes()[:-600])
    with pytest.raises(DataFormatError, match="truncated.*1000 of 1600 bytes"):
        dsp.read_wav(path)


def test_read_wav_peak_memory_stays_near_the_waveform(tmp_path):
    # the 2-byte PCM samples are freed before Waveform builds its 1-byte
    # finiteness mask next to the 8-byte float64 samples
    import wave as wavmod

    pcm = np.random.default_rng(6).integers(-32768, 32768, 60 * 16000).astype("<i2")
    path = tmp_path / "minute.wav"
    with wavmod.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(pcm.tobytes())
    tracemalloc.start()
    try:
        w = dsp.read_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * w.samples.nbytes, peak / w.samples.nbytes
    np.testing.assert_array_equal(w.samples, pcm / 32768.0)
