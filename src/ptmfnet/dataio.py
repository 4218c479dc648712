"""Dataset plumbing: feature files, JSON-lines manifests, prompt building,
and a synthetic dataset generator for end-to-end testing.

Feature files use a small binary format (magic "MPFT"): f32 on disk and
in memory; `model.collate` widens them to f64 batches. Widening is exact,
so the round trip stays bitwise stable. Feature files and manifests are
written atomically.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError

FEATURE_MAGIC = b"MPFT"
FEATURE_VERSION = 1

AUDIO_STREAMS = ("lld", "mfcc", "wav2vec")
VISUAL_STREAMS = ("openface", "resnet", "densenet")
TASKS = ("binary", "ternary", "quinary")
TASK_CLASSES = {"binary": 2, "ternary": 3, "quinary": 5}

# desk-scale stream widths shared by the synthetic generator and model defaults
DEFAULT_STREAM_DIMS = {
    "lld": 6,
    "mfcc": 13,
    "wav2vec": 24,
    "openface": 8,
    "resnet": 12,
    "densenet": 12,
}
DEFAULT_PERSONALITY_DIM = 16

# severity nesting: quinary 0 is the healthy class for every granularity
_TERNARY_OF_SEVERITY = (0, 1, 1, 2, 2)
_BINARY_OF_SEVERITY = (0, 1, 1, 1, 1)


def labels_from_severity(severity: int) -> dict:
    if not 0 <= severity <= 4:
        raise ValidationError(f"latent severity must be in 0..4, got {severity}")
    return {
        "binary": _BINARY_OF_SEVERITY[severity],
        "ternary": _TERNARY_OF_SEVERITY[severity],
        "quinary": severity,
    }


@contextmanager
def atomic_write(path, mode: str = "w", **open_kw):
    """Write through a temp file beside `path`, renamed over it once the body
    is done; on failure `path` keeps its old contents. No fsync."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kw) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# feature files


def write_feature_file(matrix: np.ndarray, path) -> None:
    m = np.asarray(matrix, dtype=np.float32)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"feature matrix must be 2-D and non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("feature matrix contains non-finite values")
    t, d = m.shape
    with atomic_write(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, t, d))
        fh.write(np.ascontiguousarray(m, dtype="<f4"))  # the array's own buffer, not a bytes copy


def read_feature_file(path) -> np.ndarray:
    """The (T, D) float32 rows of a feature file. Unbuffered, the header
    and the payload are one read each, the payload straight into the
    returned array once the header and the file size check out."""
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(16)
        if head[:4] != FEATURE_MAGIC:
            raise DataFormatError(f"{path}: bad magic {head[:4]!r}, expected {FEATURE_MAGIC!r}")
        if len(head) < 16:
            raise DataFormatError(f"{path}: truncated header")
        version, t, d = struct.unpack_from("<III", head, 4)
        if version != FEATURE_VERSION:
            raise DataFormatError(f"{path}: unsupported version {version}")
        size, expected = os.fstat(fh.fileno()).st_size, 16 + 4 * t * d
        if size != expected:
            raise DataFormatError(f"{path}: truncated or oversized payload ({size} bytes, expected {expected})")
        if t < 1 or d < 1:
            raise DataFormatError(f"{path}: degenerate shape ({t}, {d})")
        m = np.empty((t, d), dtype="<f4")
        if fh.readinto(m) != m.nbytes:  # the file shrank after its size was taken
            raise DataFormatError(f"{path}: truncated payload")
    if not np.isfinite(m).all():
        raise DataFormatError(f"{path}: non-finite values")
    return m


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class PersonalityProfile:
    extraversion: object
    agreeableness: object
    openness: object
    neuroticism: object
    conscientiousness: object
    age: int
    gender: str
    origin: str

    def __post_init__(self):
        for trait in ("extraversion", "agreeableness", "openness", "neuroticism", "conscientiousness"):
            value = getattr(self, trait)
            if value is None or (isinstance(value, str) and not value.strip()):
                raise ValidationError(f"personality trait {trait!r} is missing")
            if (isinstance(value, bool) or not isinstance(value, (int, float, str))
                    or (isinstance(value, float) and not math.isfinite(value))):
                raise ValidationError(f"personality trait {trait!r} must be a finite number "
                                      f"or a non-blank string, got {value!r}")
        for name in ("gender", "origin"):
            value = getattr(self, name)
            if not (isinstance(value, str) and value.strip()):
                raise ValidationError(f"{name} must be a non-blank string, got {value!r}")
        if type(self.age) is not int or self.age < 1:  # not a bool, nor a float such as JSON's NaN
            raise ValidationError(f"age must be a positive integer, got {self.age!r}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class SampleRecord:
    id: str
    audio_paths: dict
    visual_paths: dict
    personality: PersonalityProfile
    labels: dict
    personality_embedding_path: Path | None = None

    def label(self, task: str) -> int:
        return self.labels[task]


PROMPT_TEMPLATE = (
    "The patient is a {age} {gender} from {origin}. "
    "The patient's Extraversion score is {extraversion}. "
    "The Agreeableness score is {agreeableness}. "
    "The Openness score is {openness}. "
    "The Neuroticism score is {neuroticism}. "
    "The Conscientiousness score is {conscientiousness}. "
    "Please generate a concise, fluent English description summarizing the "
    "patient's key personality traits, family environment, and other notable "
    "characteristics. Avoid mentioning depression or related terminology. "
    "Output the response as a single paragraph."
)


def build_prompt(profile: PersonalityProfile) -> str:
    return PROMPT_TEMPLATE.format(**profile.to_dict())


def profile_to_embedding(profile: PersonalityProfile, dim: int = DEFAULT_PERSONALITY_DIM) -> np.ndarray:
    """Deterministic stand-in for an LLM-description text embedding.

    Equal profiles map to identical vectors; the seed is a digest of the
    rendered prompt so any slot change perturbs the whole embedding.
    """
    digest = hashlib.sha256(build_prompt(profile).encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(seed).standard_normal(dim)


# ---------------------------------------------------------------------------
# manifests


def _field(obj: dict, key: str, kind: type, problems: list, default=None):
    """obj[key] when it is a `kind` (or `default` when absent), else None with
    the problem recorded."""
    value = obj.get(key, default)
    if isinstance(value, kind) and (kind is not str or value):
        return value
    wanted = "a non-empty string" if kind is str else "a JSON object"
    problems.append(f"{key!r} must be {wanted}, got {json.dumps(value)[:40]}")
    return None


def load_manifest(path) -> list[SampleRecord]:
    """Parse a JSON-lines manifest, validating every record.

    All problems are gathered into one error so a bad manifest is fixable
    in a single pass; relative paths resolve against the manifest's parent.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: manifest not found")
    base = path.parent
    records: list[SampleRecord] = []
    errors: list[str] = []
    bad_lines = 0
    seen_ids: dict[str, int] = {}

    for line_no, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: line {line_no} is not UTF-8 text ({exc.reason})") from exc
        if not line:
            continue
        problems: list[str] = []
        sample_id, record = _parse_line(line, base, problems)
        if sample_id in seen_ids:  # the first check after the id's own
            problems.insert(0, f"duplicate id {sample_id!r} (first seen on line {seen_ids[sample_id]})")
        elif sample_id is not None:
            seen_ids[sample_id] = line_no
        if problems:
            bad_lines += 1
            errors.extend(f"line {line_no}: {p}" for p in problems)
        else:
            records.append(record)

    if errors:
        raise ValidationError(f"{path}: {bad_lines} invalid manifest line(s)\n" + "\n".join(errors))
    return records


def _parse_line(line: str, base: Path, problems: list):
    """(id, record) of one manifest line, with what is wrong with it appended
    to `problems`; the record counts only when that list stays empty. The id
    is None when the line has none. Checking stops at a missing id, an
    invalid profile or an embedding path that is not a string."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        problems.append(f"invalid JSON ({exc.msg})")
        return None, None
    if not isinstance(obj, dict):
        problems.append(f"expected a JSON object, got {type(obj).__name__}")
        return None, None
    sample_id = obj.get("id")
    if not (isinstance(sample_id, str) and sample_id):
        problems.append("missing or empty 'id'")
        return None, None

    paths = {"audio": {}, "visual": {}}
    for streams, label in ((AUDIO_STREAMS, "audio"), (VISUAL_STREAMS, "visual")):
        src = _field(obj, f"{label}_paths", dict, problems, {})
        for stream in streams if src is not None else ():
            if stream not in src:
                problems.append(f"missing {label} stream {stream!r}")
            elif _field(src, stream, str, problems) is not None:
                p = paths[label][stream] = base / src[stream]  # an absolute path replaces base
                if not p.exists():
                    problems.append(f"{label} path for {stream!r} does not exist: {p}")

    labels = _field(obj, "labels", dict, problems, {})
    for task in TASKS if labels is not None else ():
        if task not in labels:
            problems.append(f"missing label for task {task!r}")
        elif not (type(labels[task]) is int and 0 <= labels[task] < TASK_CLASSES[task]):
            problems.append(f"label {json.dumps(labels[task])[:40]} for task {task!r} "
                            f"is not an integer in 0..{TASK_CLASSES[task] - 1}")

    try:
        profile = PersonalityProfile(**obj.get("personality", {}))
    except (TypeError, ValidationError) as exc:
        problems.append(f"invalid personality profile ({exc})")
        return sample_id, None

    emb_path = None
    if obj.get("personality_embedding_path") is not None:
        if _field(obj, "personality_embedding_path", str, problems) is None:
            return sample_id, None
        emb_path = base / obj["personality_embedding_path"]
        if not emb_path.exists():
            problems.append(f"personality embedding path does not exist: {emb_path}")

    if problems:
        return sample_id, None
    return sample_id, SampleRecord(id=sample_id, audio_paths=paths["audio"],
                                   visual_paths=paths["visual"], personality=profile,
                                   labels={t: labels[t] for t in TASKS}, personality_embedding_path=emb_path)


def write_manifest(records: list[dict], path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for obj in records:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SynthSpec:
    """Controls for the synthetic corpus.

    class_sep scales a per-stream mean offset proportional to the class
    index of `task`; 0 removes all label information from the features.
    personality_sep defaults to class_sep when None.
    """

    n_samples: int
    task: str = "binary"
    class_sep: float = 1.0
    personality_sep: float | None = None
    t_range: tuple = (4, 12)

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValidationError("n_samples must be >= 1")
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r}; choose from {TASKS}")
        for name in ("class_sep", "personality_sep"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")
        if not 1 <= self.t_range[0] <= self.t_range[1]:
            raise ValidationError(f"invalid t_range {self.t_range}")


_GENDERS = ("male", "female")
_ORIGINS = ("Beijing", "Shanghai", "Chengdu", "Xi'an", "Harbin", "Guangzhou")
_TRAITS = ("extraversion", "agreeableness", "openness", "neuroticism", "conscientiousness")


def _draw_severity(task: str, rng: np.random.Generator) -> int:
    # balance the requested task's classes, then spread uniformly inside each
    k = TASK_CLASSES[task]
    cls = int(rng.integers(k))
    if task == "quinary":
        return cls
    if task == "ternary":
        pools = ((0,), (1, 2), (3, 4))
    else:
        pools = ((0,), (1, 2, 3, 4))
    pool = pools[cls]
    return int(pool[rng.integers(len(pool))])


def synth_dataset(spec: SynthSpec, rng: np.random.Generator, out_dir) -> Path:
    """Generate feature files plus a manifest; returns the manifest path.

    Every random draw goes through `rng` in a fixed order, so a fixed seed
    reproduces the corpus bitwise.
    """
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)

    streams = list(DEFAULT_STREAM_DIMS.items())
    directions = {}
    for name, dim in streams:
        v = rng.standard_normal(dim)
        directions[name] = v / np.linalg.norm(v)
    v = rng.standard_normal(DEFAULT_PERSONALITY_DIM)
    pers_direction = v / np.linalg.norm(v)
    pers_sep = spec.class_sep if spec.personality_sep is None else spec.personality_sep

    rows = []
    for i in range(spec.n_samples):
        severity = _draw_severity(spec.task, rng)
        labels = labels_from_severity(severity)
        cls = labels[spec.task]
        sample_id = f"synth_{i:05d}"

        audio_paths, visual_paths = {}, {}
        for name, dim in streams:
            t = int(rng.integers(spec.t_range[0], spec.t_range[1] + 1))
            m = rng.standard_normal((t, dim)) + spec.class_sep * cls * directions[name]
            rel = f"features/{sample_id}_{name}.mpft"
            write_feature_file(m.astype(np.float32), out_dir / rel)
            (audio_paths if name in AUDIO_STREAMS else visual_paths)[name] = rel

        emb = rng.standard_normal(DEFAULT_PERSONALITY_DIM) + pers_sep * cls * pers_direction
        emb_rel = f"features/{sample_id}_personality.mpft"
        write_feature_file(emb[None, :].astype(np.float32), out_dir / emb_rel)

        profile = {
            "age": int(rng.integers(18, 66)),
            "gender": _GENDERS[int(rng.integers(2))],
            "origin": _ORIGINS[int(rng.integers(len(_ORIGINS)))],
        }
        for trait in _TRAITS:
            profile[trait] = int(rng.integers(1, 6))

        rows.append({
            "id": sample_id,
            "audio_paths": audio_paths,
            "visual_paths": visual_paths,
            "personality": profile,
            "personality_embedding_path": emb_rel,
            "labels": labels,
        })

    manifest_path = out_dir / "manifest.jsonl"
    write_manifest(rows, manifest_path)
    return manifest_path
