"""Hand-crafted audio features: MFCCs, short-term energy, zero-crossing rate.

All functions are pure and operate on mono float64 waveforms; frame
layouts follow the usual short-time analysis convention (frame t starts
at t*hop_len, trailing samples that do not fill a frame are dropped).
The analysis is fixed but for the framing and `n_mfcc`: a Hamming window,
an FFT of `FrameConfig.n_fft` points, N_MELS HTK mel bands from 0 Hz to
Nyquist, and magnitudes floored at LOG_FLOOR before the log.
`log_mel_energies`, `mfcc` and `extract_lld_bundle` analyse the frames in
near-equal blocks of at most BLOCK, writing each block's rows into a
preallocated `(T, n)` output, so their temporaries scale with the block,
not the signal; `mfcc` multiplies each block's log-mel rows by the DCT, so
no `(T, N_MELS)` table is ever whole. Their output has the same bits as a
whole-signal analysis wherever a BLAS product's row bits do not depend on
its row count, which not every OpenBLAS kernel ensures. Their source is a
`Waveform` held in memory or a `WavFile` from `read_wav`, whose samples are
read from the file one block at a time and so are never whole in memory.
"""

from __future__ import annotations

import functools
import math
import wave
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ValidationError

PRE_EMPHASIS = 0.97
N_MELS = 26
LOG_FLOOR = 1e-10
BLOCK = 512  # the most frames analysed at a time


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

    def __post_init__(self):
        if self.frame_len < 2:  # a zero-crossing rate needs two samples a frame
            raise ValidationError(f"frame_len must be at least 2 samples, got frame_len={self.frame_len}")
        if not 0 < self.hop_len <= self.frame_len:
            raise ValidationError(
                f"need 0 < hop_len <= frame_len, got hop_len={self.hop_len} frame_len={self.frame_len}"
            )

    @property
    def n_fft(self) -> int:
        """The least power of two >= frame_len."""
        return 1 << (self.frame_len - 1).bit_length()


def check_n_mfcc(n_mfcc: int) -> int:
    if not 1 <= n_mfcc <= N_MELS:
        raise ValidationError(f"need 1 <= n_mfcc <= n_mels, got n_mfcc={n_mfcc} n_mels={N_MELS}")
    return n_mfcc


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


def pre_emphasize(samples: np.ndarray) -> np.ndarray:
    out = samples.copy()
    out[1:] -= PRE_EMPHASIS * samples[:-1]
    return out


def mel_from_hz(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def hz_from_mel(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_edges_hz(sample_rate: int) -> np.ndarray:
    """N_MELS + 2 band edges from 0 Hz to Nyquist, equally spaced on the HTK mel scale."""
    mels = np.linspace(mel_from_hz(0.0), mel_from_hz(sample_rate / 2.0), N_MELS + 2)
    return hz_from_mel(mels)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)  # the tables below are cached: no caller may write into one
    return array


@functools.lru_cache(maxsize=8, typed=True)
def _window(n: int) -> np.ndarray:
    return _read_only(np.hamming(n))


@functools.lru_cache(maxsize=8, typed=True)
def mel_filterbank(sample_rate: int, n_fft: int) -> np.ndarray:
    """Triangular filters evaluated at FFT bin centres, shape (N_MELS, n_fft//2 + 1)."""
    edges = mel_edges_hz(sample_rate)
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

    ceil(T / BLOCK) blocks of near-equal size cover the frames in order
    without overlap, so none holds more than BLOCK frames, and none fewer
    than BLOCK // 2 once T >= BLOCK; a shorter signal is one block.
    """
    n_frames = _n_frames(samples.size, fcfg.frame_len, fcfg.hop_len)
    n_blocks = -(-n_frames // BLOCK)
    edges = [n_frames * i // n_blocks for i in range(n_blocks + 1)]
    return n_frames, [(a, b, a * fcfg.hop_len, (b - 1) * fcfg.hop_len + fcfg.frame_len)
                      for a, b in zip(edges, edges[1:])]


def _mel_analysis(w: Waveform | WavFile, fcfg: FrameConfig, basis=None) -> np.ndarray:
    """Floored log mel-band magnitudes block by block, each block's rows
    multiplied by `basis` when one is given, into one (T, n) output."""
    x = w.samples
    n_frames, blocks = _frame_blocks(x, fcfg)  # first: it rejects a signal shorter than the window
    window = _window(fcfg.frame_len)
    fb_t = mel_filterbank(w.sample_rate, fcfg.n_fft).T
    out = np.empty((n_frames, N_MELS if basis is None else basis.shape[1]))
    for a, b, lo, hi in blocks:
        # emphasizing from lo-1 and dropping that sample equals emphasizing the whole signal
        emphasized = pre_emphasize(x[lo - 1:hi])[1:] if lo else pre_emphasize(x[:hi])
        frames = _frame_raw(emphasized, fcfg.frame_len, fcfg.hop_len) * window
        mag = np.abs(np.fft.rfft(frames, n=fcfg.n_fft, axis=1))
        log_mel = np.log(np.maximum(mag @ fb_t, LOG_FLOOR))
        out[a:b] = log_mel if basis is None else log_mel @ basis
    return out


def log_mel_energies(w: Waveform | WavFile, fcfg: FrameConfig) -> np.ndarray:
    """Floored log mel-band magnitudes, shape (T, N_MELS)."""
    return _mel_analysis(w, fcfg)


def mfcc(w: Waveform | WavFile, fcfg: FrameConfig, n_mfcc: int) -> np.ndarray:
    """Mel-frequency cepstral coefficients, shape (T, n_mfcc)."""
    return _mel_analysis(w, fcfg, dct_matrix(N_MELS)[: check_n_mfcc(n_mfcc)].T)


def extract_lld_bundle(w: Waveform | WavFile, fcfg: FrameConfig) -> np.ndarray:
    """Short-term energy and zero-crossing rate side by side, shape (T, 2)."""
    n_frames, blocks = _frame_blocks(w.samples, fcfg)
    window = _window(fcfg.frame_len)
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
