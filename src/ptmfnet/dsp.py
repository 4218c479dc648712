"""Hand-crafted audio features: MFCCs, short-term energy, zero-crossing rate.

All functions are pure and operate on mono float64 waveforms; frame
layouts follow the usual short-time analysis convention (frame t starts
at t*hop_len, trailing samples that do not fill a frame are dropped).
`log_mel_energies`, `mfcc` and `extract_lld_bundle` analyse BLOCK frames
at a time, so their temporaries scale with the block, not the signal, and
their output has the same bits as a whole-signal analysis. Their source is
a `Waveform` held in memory or a `WavFile` from `read_wav`, whose samples
are read from the file one block at a time and so are never whole in memory.
"""

from __future__ import annotations

import functools
import math
import wave
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ValidationError

PRE_EMPHASIS = 0.97
BLOCK = 2048  # frames analysed at a time

_WINDOWS = {
    "hamming": np.hamming,
    "hann": np.hanning,
    "rect": np.ones,
}


@dataclass(frozen=True)
class Waveform:
    """Mono audio signal, samples nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValidationError("waveform must be a non-empty 1-D sample sequence")
        if not np.all(np.isfinite(samples)):
            raise ValidationError("waveform contains non-finite samples")
        if self.sample_rate < 8000:
            raise ValidationError(f"sample_rate must be >= 8000, got {self.sample_rate}")


@dataclass(frozen=True)
class FrameConfig:
    frame_len: int
    hop_len: int
    window: str = "hamming"

    def __post_init__(self):
        if not 0 < self.hop_len <= self.frame_len:
            raise ValidationError(
                f"need 0 < hop_len <= frame_len, got hop_len={self.hop_len} frame_len={self.frame_len}"
            )
        if self.window not in _WINDOWS:
            raise ValidationError(f"unknown window {self.window!r}; choose from {sorted(_WINDOWS)}")


@dataclass(frozen=True)
class MelConfig:
    n_fft: int = 512
    n_mels: int = 26
    n_mfcc: int = 13
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.n_fft < 1 or self.n_fft & (self.n_fft - 1):
            raise ValidationError(f"n_fft must be a power of two, got {self.n_fft}")
        if not 1 <= self.n_mfcc <= self.n_mels:
            raise ValidationError(f"need 1 <= n_mfcc <= n_mels, got n_mfcc={self.n_mfcc} n_mels={self.n_mels}")
        if not 0.0 <= self.fmin < self.fmax:
            raise ValidationError(f"need 0 <= fmin < fmax, got fmin={self.fmin} fmax={self.fmax}")
        if self.log_floor <= 0.0:
            raise ValidationError("log_floor must be positive")


def _n_frames(size: int, frame_len: int, hop_len: int) -> int:
    if size < frame_len:
        raise ValidationError(f"signal of {size} samples is shorter than one {frame_len}-sample frame")
    return 1 + (size - frame_len) // hop_len


def _frame_raw(samples: np.ndarray, frame_len: int, hop_len: int) -> np.ndarray:
    _n_frames(samples.size, frame_len, hop_len)
    # a read-only strided view: frame t is samples[t*hop_len : t*hop_len + frame_len]
    return np.lib.stride_tricks.sliding_window_view(samples, frame_len)[::hop_len]


def short_term_energy(frames: np.ndarray) -> np.ndarray:
    """Mean squared sample per (already windowed) frame, shape (T, 1)."""
    return np.mean(np.square(frames), axis=1, keepdims=True)


def zero_crossing_rate(frames: np.ndarray) -> np.ndarray:
    """Sign-change fraction per frame, shape (T, 1).

    Expects unwindowed frames (windowing corrupts sign structure); zero
    samples count as positive, so digital silence has rate 0.
    """
    negative = frames < 0.0
    changes = np.sum(negative[:, 1:] != negative[:, :-1], axis=1, keepdims=True)
    return changes / float(frames.shape[1] - 1)


def pre_emphasize(samples: np.ndarray, coef: float = PRE_EMPHASIS) -> np.ndarray:
    out = samples.copy()
    out[1:] -= coef * samples[:-1]
    return out


def mel_from_hz(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def hz_from_mel(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_edges_hz(n_mels: int, fmin: float, fmax: float) -> np.ndarray:
    """n_mels + 2 band edges, equally spaced on the HTK mel scale."""
    mels = np.linspace(mel_from_hz(fmin), mel_from_hz(fmax), n_mels + 2)
    return hz_from_mel(mels)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)  # the tables below are cached: no caller may write into one
    return array


@functools.lru_cache(maxsize=8, typed=True)
def _window(name: str, n: int) -> np.ndarray:
    return _read_only(_WINDOWS[name](n))


@functools.lru_cache(maxsize=8, typed=True)
def mel_filterbank(sample_rate: int, n_fft: int, n_mels: int, fmin: float, fmax: float) -> np.ndarray:
    """Triangular filters evaluated at FFT bin centres, shape (n_mels, n_fft//2 + 1)."""
    edges = mel_edges_hz(n_mels, fmin, fmax)
    bin_hz = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_hz[None, :] - lo) / (mid - lo)
    falling = (hi - bin_hz[None, :]) / (hi - mid)
    return _read_only(np.maximum(0.0, np.minimum(rising, falling)))


@functools.lru_cache(maxsize=8, typed=True)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis; row k dotted with a length-n vector gives coefficient k."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos(np.pi * k * (2 * i + 1) / (2.0 * n)) * np.sqrt(2.0 / n)
    mat[0] /= np.sqrt(2.0)
    return _read_only(mat)


def _frame_blocks(samples, fcfg: FrameConfig):
    """T, and one (a, b, lo, hi) per block: frames a..b-1 lie within samples lo..hi-1.

    Past BLOCK frames every block holds exactly BLOCK, the last overlapping the
    one before it: BLAS rounds a matmul of a few rows differently.
    """
    n_frames = _n_frames(samples.size, fcfg.frame_len, fcfg.hop_len)
    blocks = []
    for a in [*range(0, n_frames - BLOCK, BLOCK), max(n_frames - BLOCK, 0)]:
        b = min(a + BLOCK, n_frames)
        blocks.append((a, b, a * fcfg.hop_len, (b - 1) * fcfg.hop_len + fcfg.frame_len))
    return n_frames, blocks


def log_mel_energies(w: Waveform | WavFile, fcfg: FrameConfig, mcfg: MelConfig) -> np.ndarray:
    """Floored log mel-band magnitudes, shape (T, n_mels)."""
    if mcfg.fmax > w.sample_rate / 2:
        raise ValidationError(f"fmax={mcfg.fmax} exceeds Nyquist for sample_rate={w.sample_rate}")
    if mcfg.n_fft < fcfg.frame_len:
        raise ValidationError(f"n_fft={mcfg.n_fft} shorter than frame_len={fcfg.frame_len}")
    x = w.samples
    n_frames, blocks = _frame_blocks(x, fcfg)  # first: it rejects a signal shorter than the window
    window = _window(fcfg.window, fcfg.frame_len)
    fb_t = mel_filterbank(w.sample_rate, mcfg.n_fft, mcfg.n_mels, mcfg.fmin, mcfg.fmax).T
    out = np.empty((n_frames, mcfg.n_mels))
    for a, b, lo, hi in blocks:
        # emphasizing from lo-1 and dropping that sample equals emphasizing the whole signal
        emphasized = pre_emphasize(x[lo - 1:hi])[1:] if lo else pre_emphasize(x[:hi])
        frames = _frame_raw(emphasized, fcfg.frame_len, fcfg.hop_len) * window
        mag = np.abs(np.fft.rfft(frames, n=mcfg.n_fft, axis=1))
        out[a:b] = np.log(np.maximum(mag @ fb_t, mcfg.log_floor))
    return out


def mfcc(w: Waveform | WavFile, fcfg: FrameConfig, mcfg: MelConfig) -> np.ndarray:
    """Mel-frequency cepstral coefficients, shape (T, n_mfcc)."""
    return log_mel_energies(w, fcfg, mcfg) @ dct_matrix(mcfg.n_mels)[: mcfg.n_mfcc].T


def extract_lld_bundle(w: Waveform | WavFile, fcfg: FrameConfig) -> np.ndarray:
    """Short-term energy and zero-crossing rate side by side, shape (T, 2)."""
    n_frames, blocks = _frame_blocks(w.samples, fcfg)
    window = _window(fcfg.window, fcfg.frame_len)
    out = np.empty((n_frames, 2))
    for a, b, lo, hi in blocks:
        raw = _frame_raw(w.samples[lo:hi], fcfg.frame_len, fcfg.hop_len)
        out[a:b, :1] = short_term_energy(raw * window)
        out[a:b, 1:] = zero_crossing_rate(raw)
    return out


def default_frame_config(sample_rate: int, frame_ms: float = 25.0, hop_ms: float = 10.0) -> FrameConfig:
    for name, ms in (("frame_ms", frame_ms), ("hop_ms", hop_ms)):
        if not (math.isfinite(ms) and ms > 0):
            raise ValidationError(f"{name} must be a positive, finite duration in ms, got {ms!r}")
        if not math.isfinite(sample_rate * ms / 1000.0):
            raise ValidationError(f"{name} of {ms!r} ms is too long to count in samples at {sample_rate} Hz")
    return FrameConfig(frame_len=int(round(sample_rate * frame_ms / 1000.0)),
                       hop_len=int(round(sample_rate * hop_ms / 1000.0)))


_WAV_ERRORS = (wave.Error, EOFError, RuntimeError)  # RuntimeError: a chunk size past EOF


def _unreadable(path, exc) -> DataFormatError:
    return DataFormatError(f"{path}: not a readable WAV file ({exc or type(exc).__name__})")


def _decode(fh, path, lo: int, hi: int) -> np.ndarray:
    """Samples lo..hi-1 of an open 16-bit mono WAV as read-only float64 `pcm / 32768`."""
    fh.setpos(lo)
    raw = fh.readframes(hi - lo)
    if len(raw) != 2 * (hi - lo):  # the data chunk ends early: count what is there
        fh.setpos(0)
        present = sum(map(len, iter(lambda: fh.readframes(1 << 16), b"")))
        raise DataFormatError(f"{path}: truncated sample data ({present} of {2 * fh.getnframes()} bytes)")
    out = np.frombuffer(raw, dtype="<i2") / 32768.0  # exact, and always finite
    out.flags.writeable = False
    return out


class PcmSamples:
    """The samples of a 16-bit PCM mono WAV file: `size`, and `[lo:hi]` reads
    that slice from the file as read-only float64 `pcm / 32768`. A failed
    read is a DataFormatError naming the file."""

    def __init__(self, path, size: int):
        self.path = str(path)
        self.size = size

    def __getitem__(self, key: slice) -> np.ndarray:
        lo, hi, step = key.indices(self.size)
        if step != 1:
            raise ValueError("PcmSamples slices take no step")
        try:
            with wave.open(self.path, "rb") as fh:
                return _decode(fh, self.path, lo, max(hi, lo))
        except _WAV_ERRORS as exc:
            raise _unreadable(self.path, exc) from exc


@dataclass(frozen=True)
class WavFile:
    """A WAV file as an audio source: `log_mel_energies`, `mfcc` and
    `extract_lld_bundle` read its samples one block at a time."""

    samples: PcmSamples
    sample_rate: int


def read_wav(path) -> WavFile:
    """Open a canonical 16-bit PCM mono RIFF file as an audio source, after
    checking its header and that its data chunk holds every declared sample
    (by reading the last one)."""
    try:
        with wave.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            width = fh.getsampwidth()
            rate = fh.getframerate()
            n = fh.getnframes()
            if channels != 1:
                raise DataFormatError(f"{path}: expected mono audio, found {channels} channels")
            if width != 2:
                raise DataFormatError(f"{path}: expected 16-bit PCM, found {8 * width}-bit")
            if n == 0:
                raise ValidationError("waveform must be a non-empty 1-D sample sequence")
            if rate < 8000:
                raise ValidationError(f"sample_rate must be >= 8000, got {rate}")
            _decode(fh, path, n - 1, n)
    except _WAV_ERRORS as exc:
        raise _unreadable(path, exc) from exc
    return WavFile(PcmSamples(path, n), rate)
