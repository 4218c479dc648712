import json
import struct
import tracemalloc

import numpy as np
import pytest

from ptmfnet import dataio
from ptmfnet.dataio import PersonalityProfile, SynthSpec
from ptmfnet.errors import DataFormatError, ValidationError


def _profile(**overrides):
    base = dict(extraversion=3, agreeableness=2, openness=4, neuroticism=1,
                conscientiousness=5, age=50, gender="male", origin="Beijing")
    base.update(overrides)
    return PersonalityProfile(**base)


# ---------------------------------------------------------------------------
# feature files


def test_smallest_file_layout(tmp_path):
    path = tmp_path / "one.mpft"
    dataio.write_feature_file(np.array([[42.0]], dtype=np.float32), path)
    raw = path.read_bytes()
    # 4 magic + 4 version + 4 rows + 4 cols + 4 payload
    assert len(raw) == 20
    assert raw[:4] == b"MPFT"
    assert struct.unpack_from("<III", raw, 4) == (1, 1, 1)
    got = dataio.read_feature_file(path)
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, [[42.0]])


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((100, 64)).astype(np.float32)
    path = tmp_path / "m.mpft"
    dataio.write_feature_file(m, path)
    got = dataio.read_feature_file(path)
    assert got.tobytes() == m.tobytes()
    dataio.write_feature_file(got, tmp_path / "m2.mpft")
    assert path.read_bytes() == (tmp_path / "m2.mpft").read_bytes()


def test_writing_a_feature_file_makes_no_copy_of_its_payload(tmp_path):
    m = np.random.default_rng(1).standard_normal((60000, 13)).astype(np.float32)
    tracemalloc.start()
    try:
        dataio.write_feature_file(m, tmp_path / "big.mpft")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the finiteness mask is a quarter of the payload; a bytes copy would be all of it
    assert peak < m.nbytes // 2, (peak, m.nbytes)
    assert (tmp_path / "big.mpft").read_bytes()[16:] == m.tobytes()
    # a column-major matrix is written in row order all the same
    dataio.write_feature_file(np.asfortranarray(m[:50]), tmp_path / "f.mpft")
    assert (tmp_path / "f.mpft").read_bytes()[16:] == m[:50].tobytes()


def test_widening_is_exact(tmp_path):
    m = np.array([[0.1, 2.5]], dtype=np.float32)
    path = tmp_path / "w.mpft"
    dataio.write_feature_file(m, path)
    got = dataio.read_feature_file(path)
    assert got.dtype == np.float32
    assert np.all(got.astype(np.float64).astype(np.float32) == m)


@pytest.mark.parametrize("writer", ["feature_file", "manifest"])
def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    path.write_bytes(b"old bytes")
    with pytest.raises((struct.error, TypeError)):
        if writer == "feature_file":  # the magic is written, then the header cannot be packed
            monkeypatch.setattr(dataio, "FEATURE_VERSION", -1)
            dataio.write_feature_file(np.ones((2, 3)), path)
        else:  # the first line is written, then the second cannot be serialized
            dataio.write_manifest([{"id": "a"}, {"id": object()}], path)
    assert path.read_bytes() == b"old bytes"
    assert list(tmp_path.iterdir()) == [path]


def test_bad_magic_names_path(tmp_path):
    path = tmp_path / "bad.mpft"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="bad.mpft"):
        dataio.read_feature_file(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.mpft"
    dataio.write_feature_file(np.ones((3, 3), dtype=np.float32), path)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(DataFormatError, match="truncated"):
        dataio.read_feature_file(path)


def test_non_finite_rejected_both_ways(tmp_path):
    with pytest.raises(ValidationError):
        dataio.write_feature_file(np.array([[np.nan]]), tmp_path / "n.mpft")
    path = tmp_path / "inf.mpft"
    payload = struct.pack("<III", 1, 1, 1) + struct.pack("<f", np.inf)
    path.write_bytes(b"MPFT" + payload)
    with pytest.raises(DataFormatError, match="non-finite"):
        dataio.read_feature_file(path)


def test_write_rejects_bad_shapes(tmp_path):
    with pytest.raises(ValidationError):
        dataio.write_feature_file(np.ones(4), tmp_path / "x.mpft")
    with pytest.raises(ValidationError):
        dataio.write_feature_file(np.ones((0, 3)), tmp_path / "x.mpft")


# ---------------------------------------------------------------------------
# prompt building


def test_prompt_opening_sentence():
    prompt = dataio.build_prompt(_profile())
    assert prompt.startswith("The patient is a 50 male from Beijing. ")


def test_prompt_instruction_sentences():
    prompt = dataio.build_prompt(_profile())
    assert "Avoid mentioning depression or related terminology." in prompt
    assert prompt.endswith("Output the response as a single paragraph.")
    assert "The patient's Extraversion score is 3." in prompt
    assert "The Agreeableness score is 2." in prompt
    assert "The Openness score is 4." in prompt
    assert "The Neuroticism score is 1." in prompt
    assert "The Conscientiousness score is 5." in prompt


def test_prompt_differs_only_in_slots():
    a = dataio.build_prompt(_profile())
    b = dataio.build_prompt(_profile(age=37))
    assert a != b
    assert a.replace(" a 50 male", " a 37 male") == b


def test_prompt_deterministic():
    assert dataio.build_prompt(_profile()) == dataio.build_prompt(_profile())


def test_profile_validation():
    with pytest.raises(ValidationError):
        _profile(openness=None)
    with pytest.raises(ValidationError):
        _profile(age=0)


@pytest.mark.parametrize("age", [float("nan"), float("inf"), True, 70.5, "70", -3])
def test_profile_age_must_be_a_positive_integer(age):
    with pytest.raises(ValidationError, match=f"age must be a positive integer, got {age!r}"):
        _profile(age=age)


@pytest.mark.parametrize("name,value", [
    ("extraversion", float("nan")), ("neuroticism", float("-inf")), ("agreeableness", [1]),
    ("openness", True), ("conscientiousness", {"score": 3}), ("gender", ""), ("gender", " "),
    ("gender", None), ("origin", 7), ("origin", ["Beijing"]),
])
def test_profile_rejects_a_slot_the_prompt_cannot_render(name, value):
    with pytest.raises(ValidationError) as exc:
        _profile(**{name: value})
    assert name in str(exc.value) and f"got {value!r}" in str(exc.value)


def test_profile_traits_may_be_finite_numbers_or_words():
    profile = _profile(extraversion=3.5, openness="high", agreeableness=10**400)
    assert "Openness score is high" in dataio.build_prompt(profile)


def test_profile_embedding_deterministic():
    e1 = dataio.profile_to_embedding(_profile(), dim=32)
    e2 = dataio.profile_to_embedding(_profile(), dim=32)
    e3 = dataio.profile_to_embedding(_profile(age=51), dim=32)
    assert e1.shape == (32,)
    np.testing.assert_array_equal(e1, e2)
    assert np.any(e1 != e3)


# ---------------------------------------------------------------------------
# manifests


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _record_dict(tmp_path, sample_id="s1", **overrides):
    for name in dataio.AUDIO_STREAMS + dataio.VISUAL_STREAMS:
        p = tmp_path / f"{sample_id}_{name}.mpft"
        if not p.exists():
            dataio.write_feature_file(np.ones((2, 3), dtype=np.float32), p)
    obj = {
        "id": sample_id,
        "audio_paths": {s: f"{sample_id}_{s}.mpft" for s in dataio.AUDIO_STREAMS},
        "visual_paths": {s: f"{sample_id}_{s}.mpft" for s in dataio.VISUAL_STREAMS},
        "personality": _profile().to_dict(),
        "labels": {"binary": 1, "ternary": 2, "quinary": 3},
    }
    obj.update(overrides)
    return obj


def test_empty_manifest(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("", encoding="utf-8")
    assert dataio.load_manifest(path) == []


def test_missing_manifest(tmp_path):
    with pytest.raises(DataFormatError):
        dataio.load_manifest(tmp_path / "absent.jsonl")


def test_out_of_range_label_cites_line(tmp_path):
    lines = [json.dumps(_record_dict(tmp_path, "a")),
             json.dumps(_record_dict(tmp_path, "b", labels={"binary": 0, "ternary": 0, "quinary": 5}))]
    _write_lines(tmp_path / "m.jsonl", lines)
    with pytest.raises(ValidationError, match="line 2"):
        dataio.load_manifest(tmp_path / "m.jsonl")


@pytest.mark.parametrize("value", [True, False])
def test_boolean_label_rejected_citing_line(tmp_path, value):
    # JSON true/false are not integer labels, though Python's bool is an int
    lines = [json.dumps(_record_dict(tmp_path, "a")),
             json.dumps(_record_dict(tmp_path, "b", labels={"binary": value, "ternary": 0, "quinary": 0}))]
    _write_lines(tmp_path / "m.jsonl", lines)
    with pytest.raises(ValidationError, match=f"line 2: label {json.dumps(value)} for task 'binary'"):
        dataio.load_manifest(tmp_path / "m.jsonl")


def test_ten_records_in_order(tmp_path):
    lines = [json.dumps(_record_dict(tmp_path, f"s{i}")) for i in range(10)]
    _write_lines(tmp_path / "m.jsonl", lines)
    records = dataio.load_manifest(tmp_path / "m.jsonl")
    assert [r.id for r in records] == [f"s{i}" for i in range(10)]
    assert records[0].labels == {"binary": 1, "ternary": 2, "quinary": 3}
    assert records[0].audio_paths["mfcc"].exists()


def test_duplicate_id_rejected(tmp_path):
    lines = [json.dumps(_record_dict(tmp_path, "dup")), json.dumps(_record_dict(tmp_path, "dup"))]
    _write_lines(tmp_path / "m.jsonl", lines)
    with pytest.raises(ValidationError, match="duplicate id"):
        dataio.load_manifest(tmp_path / "m.jsonl")


def test_dangling_path_rejected(tmp_path):
    obj = _record_dict(tmp_path, "s1")
    obj["audio_paths"]["mfcc"] = "missing.mpft"
    _write_lines(tmp_path / "m.jsonl", [json.dumps(obj)])
    with pytest.raises(ValidationError, match="does not exist"):
        dataio.load_manifest(tmp_path / "m.jsonl")


def test_errors_aggregate_across_lines(tmp_path):
    bad1 = _record_dict(tmp_path, "x", labels={"binary": 7, "ternary": 0, "quinary": 0})
    bad2 = _record_dict(tmp_path, "y")
    del bad2["labels"]["ternary"]
    _write_lines(tmp_path / "m.jsonl", [json.dumps(bad1), "not json", json.dumps(bad2)])
    with pytest.raises(ValidationError) as exc:
        dataio.load_manifest(tmp_path / "m.jsonl")
    text = str(exc.value)
    assert "line 1" in text and "line 2" in text and "line 3" in text


@pytest.mark.parametrize("name,value,message", [
    ("extraversion", float("nan"), "personality trait 'extraversion' must be a finite number "
                                   "or a non-blank string, got nan"),
    ("origin", 7, "origin must be a non-blank string, got 7"),
])
def test_manifest_line_with_an_unrenderable_profile_cites_line(tmp_path, name, value, message):
    lines = [json.dumps(_record_dict(tmp_path, "a")),
             json.dumps(_record_dict(tmp_path, "b", personality=dict(_profile().to_dict(), **{name: value})))]
    _write_lines(tmp_path / "m.jsonl", lines)
    with pytest.raises(ValidationError) as exc:
        dataio.load_manifest(tmp_path / "m.jsonl")
    assert str(exc.value).splitlines()[1:] == [f"line 2: invalid personality profile ({message})"]


def _every_problem_manifest(tmp_path):
    """A manifest whose lines, together, raise every line-level problem."""
    many = _record_dict(tmp_path, "a", labels={"binary": 7, "quinary": True},
                        personality_embedding_path="missing_emb.mpft")
    del many["audio_paths"]["lld"]
    many["audio_paths"]["mfcc"] = 5
    many["visual_paths"]["resnet"] = "missing.mpft"
    no_visual = _record_dict(tmp_path, "b", audio_paths=["lld"])
    del no_visual["visual_paths"]
    lines = [
        "not json",
        "[1, 2]",
        json.dumps({"id": "", "labels": {}}),
        json.dumps(_record_dict(tmp_path, "a")),
        "",
        json.dumps(many),
        json.dumps(no_visual),
        json.dumps(_record_dict(tmp_path, "c", labels="binary")),
        json.dumps(_record_dict(tmp_path, "d", personality=dict(_profile().to_dict(), openness=None))),
        json.dumps(_record_dict(tmp_path, "e", labels={"binary": 0, "ternary": 0, "quinary": 9},
                                personality_embedding_path=3)),
        json.dumps(_record_dict(tmp_path, "a", personality=dict(_profile().to_dict(), age=0))),
        json.dumps(_record_dict(tmp_path, "f", personality=dict(_profile().to_dict(), age=float("nan")))),
        json.dumps(_record_dict(tmp_path, "g")),
    ]
    _write_lines(tmp_path / "m.jsonl", lines)
    return tmp_path / "m.jsonl"


EVERY_PROBLEM = """<dir>/m.jsonl: 10 invalid manifest line(s)
line 1: invalid JSON (Expecting value)
line 2: expected a JSON object, got list
line 3: missing or empty 'id'
line 6: duplicate id 'a' (first seen on line 4)
line 6: missing audio stream 'lld'
line 6: 'mfcc' must be a non-empty string, got 5
line 6: visual path for 'resnet' does not exist: <dir>/missing.mpft
line 6: label 7 for task 'binary' is not an integer in 0..1
line 6: missing label for task 'ternary'
line 6: label true for task 'quinary' is not an integer in 0..4
line 6: personality embedding path does not exist: <dir>/missing_emb.mpft
line 7: 'audio_paths' must be a JSON object, got ["lld"]
line 7: missing visual stream 'openface'
line 7: missing visual stream 'resnet'
line 7: missing visual stream 'densenet'
line 8: 'labels' must be a JSON object, got "binary"
line 9: invalid personality profile (personality trait 'openness' is missing)
line 10: label 9 for task 'quinary' is not an integer in 0..4
line 10: 'personality_embedding_path' must be a non-empty string, got 3
line 11: duplicate id 'a' (first seen on line 4)
line 11: invalid personality profile (age must be a positive integer, got 0)
line 12: invalid personality profile (age must be a positive integer, got nan)"""


def test_every_line_problem_is_reported_in_line_order(tmp_path):
    with pytest.raises(ValidationError) as exc:
        dataio.load_manifest(_every_problem_manifest(tmp_path))
    assert str(exc.value).replace(str(tmp_path), "<dir>") == EVERY_PROBLEM


def test_error_header_counts_lines_not_problems(tmp_path):
    bad = _record_dict(tmp_path, "b", labels={"binary": 5, "ternary": 5, "quinary": 5})
    _write_lines(tmp_path / "m.jsonl", [json.dumps(_record_dict(tmp_path, "a")), json.dumps(bad)])
    with pytest.raises(ValidationError, match=r"m\.jsonl: 1 invalid manifest line\(s\)\n(line 2: .*\n){2}line 2"):
        dataio.load_manifest(tmp_path / "m.jsonl")


def test_absolute_paths_are_kept_as_given(tmp_path):
    feats = tmp_path / "feats"
    feats.mkdir()
    obj = _record_dict(feats, "s1", personality_embedding_path=str(feats / "s1_lld.mpft"))
    for key in ("audio_paths", "visual_paths"):
        obj[key] = {s: str(feats / p) for s, p in obj[key].items()}
    (tmp_path / "elsewhere").mkdir()
    _write_lines(tmp_path / "elsewhere" / "m.jsonl", [json.dumps(obj)])
    (r,) = dataio.load_manifest(tmp_path / "elsewhere" / "m.jsonl")
    assert r.audio_paths == {s: feats / f"s1_{s}.mpft" for s in dataio.AUDIO_STREAMS}
    assert r.visual_paths == {s: feats / f"s1_{s}.mpft" for s in dataio.VISUAL_STREAMS}
    assert r.personality_embedding_path == feats / "s1_lld.mpft"


# ---------------------------------------------------------------------------
# synthetic corpus


def test_severity_nesting_table():
    assert dataio.labels_from_severity(0) == {"binary": 0, "ternary": 0, "quinary": 0}
    assert dataio.labels_from_severity(2) == {"binary": 1, "ternary": 1, "quinary": 2}
    assert dataio.labels_from_severity(3) == {"binary": 1, "ternary": 2, "quinary": 3}
    with pytest.raises(ValidationError):
        dataio.labels_from_severity(5)


def test_synth_loads_and_nests_labels(tmp_path):
    spec = SynthSpec(n_samples=40, task="quinary", class_sep=1.0)
    manifest = dataio.synth_dataset(spec, np.random.default_rng(3), tmp_path)
    records = dataio.load_manifest(manifest)
    assert len(records) == 40
    for r in records:
        q, t, b = r.labels["quinary"], r.labels["ternary"], r.labels["binary"]
        assert (b == 0) == (q == 0)
        assert t == (0 if q == 0 else 1 if q <= 2 else 2)
        assert r.personality_embedding_path is not None
        emb = dataio.read_feature_file(r.personality_embedding_path)
        assert emb.shape == (1, dataio.DEFAULT_PERSONALITY_DIM)


def test_synth_reproducible_bitwise(tmp_path):
    spec = SynthSpec(n_samples=12, task="ternary", class_sep=2.0)
    m1 = dataio.synth_dataset(spec, np.random.default_rng(7), tmp_path / "a")
    m2 = dataio.synth_dataset(spec, np.random.default_rng(7), tmp_path / "b")
    assert m1.read_text() == m2.read_text()
    for f1 in sorted((tmp_path / "a" / "features").iterdir()):
        f2 = tmp_path / "b" / "features" / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_synth_task_dims_respected(tmp_path):
    spec = SynthSpec(n_samples=5, task="binary", class_sep=0.0, t_range=(3, 3))
    manifest = dataio.synth_dataset(spec, np.random.default_rng(1), tmp_path)
    r = dataio.load_manifest(manifest)[0]
    for stream, dim in dataio.DEFAULT_STREAM_DIMS.items():
        paths = r.audio_paths if stream in dataio.AUDIO_STREAMS else r.visual_paths
        assert dataio.read_feature_file(paths[stream]).shape == (3, dim)


def test_synth_linear_probe_when_separable(tmp_path):
    spec = SynthSpec(n_samples=200, task="binary", class_sep=3.0)
    manifest = dataio.synth_dataset(spec, np.random.default_rng(11), tmp_path)
    records = dataio.load_manifest(manifest)
    feats = np.stack([
        dataio.read_feature_file(r.audio_paths["mfcc"]).astype(np.float64).mean(axis=0) for r in records
    ])
    labels = np.array([r.labels["binary"] for r in records])
    x = np.hstack([feats, np.ones((len(records), 1))])
    onehot = np.eye(2)[labels]
    w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
    acc = float(np.mean(np.argmax(x @ w, axis=1) == labels))
    assert acc >= 0.95, acc


def test_synth_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(n_samples=0)
    with pytest.raises(ValidationError):
        SynthSpec(n_samples=5, task="senary")
    with pytest.raises(ValidationError):
        SynthSpec(n_samples=5, class_sep=-1.0)


@pytest.mark.parametrize("field,value", [("class_sep", float("nan")), ("class_sep", float("inf")),
                                         ("personality_sep", float("nan")),
                                         ("personality_sep", float("-inf")),
                                         ("personality_sep", -0.5)])
def test_synth_spec_rejects_non_finite_or_negative_separation_naming_it(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be a finite number >= 0"):
        SynthSpec(n_samples=5, **{field: value})
