"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public block methods and the readers and writers
of each module, and restores them on `uninstall`. Each wrapped call records a
span (name, start, end, parent) in memory. Tape nodes recorded while a block's
forward runs belong to the innermost such block; `backward` times each node's
VJP and credits it to that block. Nothing here changes what the program
computes, so the traced run's outputs pass the same checks.

No layer of the program waits on a queue, a lock or another thread: it is one
thread doing NumPy work, so the trace reports busy time and counts only.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# op types named after the autodiff function that records them; anything else
# (a fused op added later, say) is counted as "other"
OPS = ("matmul", "add", "sub", "mul", "scale", "sigmoid", "tanh", "relu", "square", "sqrt",
       "log", "softmax", "log_softmax", "layer_norm", "dropout", "concat", "narrow", "reshape",
       "transpose", "tsum", "other")

# blocks that own the tape nodes their forward records
OWNERS = ("encoders.lstm", "encoders.asp", "fusion.coatt", "fusion.tx", "ptmfim", "model.head",
          "model.forward", "training.loss")
LOSS_OWNER = "training.loss"  # also owns the batch-loss sum the training loop records


def op_name(vjp) -> str:
    """Op type of a tape node, from the qualname of its VJP closure. Binary ops
    share one closure; their op is the `vjp_pair` lambda it captured."""
    try:
        name = vjp.__qualname__.split(".")[0]
        if name == "_binary":
            cells = dict(zip(vjp.__code__.co_freevars, vjp.__closure__))
            name = cells["vjp_pair"].cell_contents.__qualname__.split(".")[0]
    except (AttributeError, KeyError, TypeError):
        return "other"
    return name if name in OPS else "other"


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self._stack: list = []
        self._patches: list = []
        self._owner: dict = {}  # id(tape node) -> owning block, until its backward
        self.counts = Counter()
        self.vjp_s = defaultdict(float)  # owning block -> VJP seconds
        self.op_nodes = Counter()
        self.owner_nodes = Counter()
        self.audio_s = 0.0
        self._ad = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        m = {name: sys.modules[f"ptmfnet.{name}"] for name in
             ("autodiff", "cli", "dataio", "encoders", "fusion", "model", "ptmfim", "training")}
        self._ad = m["autodiff"]
        w = self._wrap
        w(m["encoders"].LstmEncoder, "forward", "encoders.lstm", after=self._after_lstm)
        w(m["encoders"].AspPooling, "forward", "encoders.asp")
        w(m["fusion"].CoAttentionFusion, "forward", "fusion.coatt")
        w(m["fusion"].TransformerFusion, "forward", "fusion.tx")
        w(m["ptmfim"].Ptmfim, "forward", "ptmfim")
        w(m["model"].ClassifierHead, "forward", "model.head")
        w(m["model"].DepressionModel, "forward", "model.forward", after=self._after_model)
        w(m["model"], "align_streams", "fusion.align", after=self._after_align)
        w(m["training"], "cross_entropy", "training.loss")
        w(m["training"].Adam, "step", "training.adam_step")
        for mod in (m["training"], m["cli"]):  # `train` calls one name, `eval` the other
            w(mod, "evaluate", "training.evaluate", after=self._after_evaluate)
        w(m["cli"], "train", "training.train")
        w(m["cli"], "load_manifest", "dataio.load_manifest", after=self._after_manifest)
        w(m["dataio"], "read_feature_file", "dataio.read_feature_file", after=self._after_read)
        w(m["cli"], "write_feature_file", "dataio.write_feature_file")
        w(m["cli"], "save_checkpoint", "checkpoint.save")
        w(m["cli"], "load_into", "checkpoint.load")
        w(m["cli"], "read_wav", "dsp.read_wav", after=self._after_wav)
        w(m["cli"], "mfcc", "dsp.mfcc", after=self._after_mfcc)
        w(m["cli"], "extract_lld_bundle", "dsp.lld")
        self._patch(self._ad, "backward", self._backward_wrapper(self._ad.backward))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def _patch(self, obj, attr, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _wrap(self, obj, attr, name, after=None) -> None:
        orig = getattr(obj, attr)
        owns = name in OWNERS
        tape_stack = self._ad._TAPE_STACK

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tape = tape_stack[-1] if tape_stack else None
            n0 = len(tape.nodes) if tape is not None else 0
            with _Span(self, name):
                out = orig(*args, **kwargs)
            if tape is not None and owns:
                owner = self._owner
                for node in tape.nodes[n0:]:
                    owner.setdefault(id(node), name)
            if after is not None:
                after(args, kwargs, out, tape, n0)
            return out

        self._patch(obj, attr, wrapper)

    # -- counters taken at layer boundaries ---------------------------------

    def _after_lstm(self, args, kwargs, out, tape, n0):
        frames = args[1].shape[0]
        self.counts["lstm.frames"] += frames
        if tape is not None:
            self.counts["lstm.frames_taped"] += frames

    def _after_model(self, args, kwargs, out, tape, n0):
        training = kwargs.get("training", args[2] if len(args) > 2 else False)
        self.counts["forward.samples"] += 1
        if tape is not None:
            self.counts["forward.samples_taped"] += 1
        if not training:
            self.counts["eval.forward_samples"] += 1
            self.counts["eval.nodes"] += len(tape.nodes) - n0 if tape is not None else 0

    def _after_align(self, args, kwargs, out, tape, n0):
        self.counts["align.frames_read"] += sum(a.shape[0] for a in args[0])
        self.counts["align.frames_kept"] += sum(a.shape[0] for a in out)

    def _after_evaluate(self, args, kwargs, out, tape, n0):
        self.counts["evaluate.samples"] += len(args[1])

    def _after_manifest(self, args, kwargs, out, tape, n0):
        self.counts["dataio.records"] += len(out)

    def _after_read(self, args, kwargs, out, tape, n0):
        self.counts["dataio.files"] += 1
        self.counts["dataio.bytes"] += os.path.getsize(args[0])

    def _after_wav(self, args, kwargs, out, tape, n0):
        self.audio_s += out.samples.size / out.sample_rate

    def _after_mfcc(self, args, kwargs, out, tape, n0):
        self.counts["dsp.frames"] += out.shape[0]

    # -- backward -----------------------------------------------------------

    def _backward_wrapper(self, orig):
        tracer = self

        @functools.wraps(orig)
        def backward(loss):
            tape = loss._tape
            if tape is not None:
                owners = tracer._owner
                for node in tape.nodes:
                    owner = owners.get(id(node), LOSS_OWNER)
                    op = op_name(node.vjp)
                    tracer.op_nodes[op] += 1
                    tracer.owner_nodes[owner] += 1
                    if op == "narrow":  # the VJP allocates a zero buffer the size of its input
                        tracer.counts["narrow.vjp_bytes"] += node.inputs[0].data.nbytes
                    node.vjp = tracer._timed_vjp(node.vjp, owner)
            with _Span(tracer, "autodiff.backward"):
                orig(loss)
            tracer._owner.clear()

        return backward

    def _timed_vjp(self, vjp, owner):
        acc = self.vjp_s

        def timed(g):
            t0 = time.perf_counter()
            out = vjp(g)
            acc[owner] += time.perf_counter() - t0
            return out

        return timed

    # -- results ------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, Counter]:
        """Inclusive seconds, self seconds and calls per span name. Self time
        is the span minus the part its child spans cover."""
        inclusive, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1
        return inclusive, self_time, calls

    def write_spans(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": round(start - t0, 7),
                                     "end": round(end - t0, 7), "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), 0.0, t._stack[-1] if t._stack else -1])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()


def per_layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """name -> (value, unit) for one traced round. Forward times are per model
    forward (training and eval alike), backward times per sample whose tape
    went through `backward`, dsp times per second of audio."""
    inc, self_time, calls = tr.totals()
    c = tr.counts

    def per(x, n):
        return x / n if n else 0.0

    fwd_n = c["forward.samples"]
    bwd_n = c["forward.samples_taped"]
    vjp_total = sum(tr.vjp_s.values())
    m = {
        "autodiff.nodes_per_sample": (per(sum(tr.op_nodes.values()), bwd_n), "nodes/sample"),
        "autodiff.eval_nodes_per_sample": (per(c["eval.nodes"], c["eval.forward_samples"]), "nodes/sample"),
        "autodiff.backward_s": (per(inc["autodiff.backward"], bwd_n), "s/sample"),
        "autodiff.vjp_s": (per(vjp_total, bwd_n), "s/sample"),
        "autodiff.backward_overhead_s": (per(inc["autodiff.backward"] - vjp_total, bwd_n), "s/sample"),
        "autodiff.narrow_vjp_bytes": (per(c["narrow.vjp_bytes"], bwd_n), "bytes/sample"),
    }
    for op in OPS:
        m[f"autodiff.nodes.{op}"] = (per(tr.op_nodes[op], bwd_n), "nodes/sample")
    fwd_bwd = (("encoders.asp", "encoders.asp"), ("fusion.coatt", "fusion.coatt"),
               ("fusion.tx", "fusion.tx"), ("ptmfim", "ptmfim"), ("model.head", "model.head"))
    for metric, block in fwd_bwd:
        m[f"{metric}.fwd_s"] = (per(inc[block], fwd_n), "s/sample")
        m[f"{metric}.bwd_s"] = (per(tr.vjp_s[block], bwd_n), "s/sample")
    m.update({
        "encoders.lstm.fwd_us_per_frame": (1e6 * per(inc["encoders.lstm"], c["lstm.frames"]), "us/frame"),
        "encoders.lstm.bwd_us_per_frame": (1e6 * per(tr.vjp_s["encoders.lstm"], c["lstm.frames_taped"]),
                                           "us/frame"),
        "encoders.lstm.nodes_per_frame": (per(tr.owner_nodes["encoders.lstm"], c["lstm.frames_taped"]),
                                          "nodes/frame"),
        "fusion.align_kept_frac": (per(c["align.frames_kept"], c["align.frames_read"]), "fraction"),
        "model.forward_glue_s": (per(self_time["model.forward"], fwd_n), "s/sample"),
        "model.fusion_ptmfim_head_share": (per(sum(inc[b] + tr.vjp_s[b] for b in
                                                   ("fusion.coatt", "fusion.tx", "ptmfim", "model.head")),
                                               traced_wall), "fraction"),
        "training.adam_step_s": (per(inc["training.adam_step"], calls["training.adam_step"]), "s/step"),
        "training.loss_s": (per(inc["training.loss"] + tr.vjp_s["training.loss"], bwd_n), "s/sample"),
        "training.evaluate_s": (per(inc["training.evaluate"], c["evaluate.samples"]), "s/sample"),
        "dataio.load_s": (per(inc["dataio.load_manifest"] + inc["dataio.read_feature_file"],
                              c["dataio.records"]), "s/sample"),
        "dataio.files_read": (per(c["dataio.files"], c["dataio.records"]), "files/sample"),
        "dataio.bytes_read": (per(c["dataio.bytes"], c["dataio.records"]), "bytes/sample"),
        "checkpoint.save_s": (per(inc["checkpoint.save"], calls["checkpoint.save"]), "s/call"),
        "checkpoint.load_s": (per(inc["checkpoint.load"], calls["checkpoint.load"]), "s/call"),
        "dsp.read_wav_s": (per(inc["dsp.read_wav"], tr.audio_s), "s/audio-s"),
        "dsp.mfcc_s": (per(inc["dsp.mfcc"], tr.audio_s), "s/audio-s"),
        "dsp.lld_s": (per(inc["dsp.lld"], tr.audio_s), "s/audio-s"),
        "dsp.frames": (per(c["dsp.frames"], tr.audio_s), "frames/audio-s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s/round"),
    })
    return m
