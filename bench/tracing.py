"""Per-layer tracing of sasmamba from outside the package.

Nothing under ``src/`` is edited. :class:`Tracer` replaces each layer's public
functions in the module namespace where their callers look them up (for
example ``sasmamba.sas.bilinear_gather`` or ``sasmamba.cli.forward``) with a
wrapper that records a span, and wraps each module's imported ``make_op`` so
that every adjoint closure is timed and attributed to the span that created
it. Spans live in memory as plain numbers and are written out when the run
ends; self times and per-layer metrics are derived from them afterwards.

A span is ``[name_id, start, end, parent, request, origin]``: ``parent`` is
the span that was open when it started, ``request`` the closed-loop request
index (-1 during set-up), and ``origin`` -- for adjoint spans only -- the span
that was open when the op was recorded on the tape.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from sasmamba import cli, fileio, model, sas, ssm, tensor, training

COMPONENTS = ("offset_conv", "local_conv", "bilinear_sampling", "tap_mixing",
              "scan_streams", "mlp", "embed", "head")
TENSOR_OPS = ("bilinear_gather", "linear", "grid_conv3x3", "depthwise_conv3x3")
FILE_CALLS = ("read_keypoints", "write_keypoints", "save_ckpt", "load_ckpt")
ADJOINT = "adjoint"
_MB = 1024.0 * 1024.0

# Per-layer metrics with their units, in the order they are reported. Times and
# counts are per timed request, except training.gen_synthetic_s (per set-up).
METRIC_UNITS: dict[str, str] = {}
for _c in COMPONENTS:
    METRIC_UNITS[f"component.{_c}.fwd_s"] = "s"
    METRIC_UNITS[f"component.{_c}.bwd_s"] = "s"
    METRIC_UNITS[f"component.{_c}.gmac_per_s"] = "GMAC/s"
METRIC_UNITS.update({
    "model.forward.s": "s",
    "model.unattributed_s": "s",
    "ssm.selective_scan.calls": "count",
    "ssm.selective_scan.fwd_s": "s",
    "ssm.selective_scan.bwd_s": "s",
    "ssm.selective_scan.saved_mb": "MB",
    "sas.sa_conv.fwd_s": "s",
    "sas.sa_conv.self_s": "s",
    "sas.stride_scan.s": "s",
    "sas.four_stream_scan.self_s": "s",
    "tensor.ops": "count",
    "tensor.backward_s": "s",
    "tensor.tape_mb": "MB",
})
for _op in TENSOR_OPS:
    METRIC_UNITS[f"tensor.{_op}.calls"] = "count"
    METRIC_UNITS[f"tensor.{_op}.fwd_s"] = "s"
    METRIC_UNITS[f"tensor.{_op}.bwd_s"] = "s"
METRIC_UNITS.update({
    "tensor.scatter_rows.s": "s",
    "training.loss_s": "s",
    "training.optim_step_s": "s",
    "training.gen_synthetic_s": "s",
    "metrics.mpjpe_p1.s": "s",
    "metrics.mpjpe_p2.s": "s",
    "metrics.mpjpe_p2.s_per_frame": "s",
})
for _f in FILE_CALLS:
    METRIC_UNITS[f"fileio.{_f}.calls"] = "count"
    METRIC_UNITS[f"fileio.{_f}.s"] = "s"
    METRIC_UNITS[f"fileio.{_f}.mb_per_s"] = "MB/s"
METRIC_UNITS.update({
    "cli.main.self_s": "s",
    "cli.frames_dropped": "count",
    "trace.overhead_ratio": "ratio",
})


def _buffer(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory a view points into."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _captured_arrays(fn, depth: int = 2):
    """Arrays an adjoint closure keeps alive, looking into lists and tuples."""
    def walk(value, left):
        if isinstance(value, np.ndarray):
            yield value
        elif left and isinstance(value, (list, tuple)):
            for item in value:
                yield from walk(item, left - 1)

    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:
            continue
        yield from walk(value, depth)


class Tracer:
    """Records spans around sasmamba's layer functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self._component_of: dict[int, int] = {}
        # counters over the timed requests (request >= 0)
        self.ops = 0
        self.tape_bytes = 0
        self.scan_saved_bytes = 0
        self.macs: dict[str, float] = {c: 0.0 for c in COMPONENTS}
        self.file_bytes: dict[str, int] = {f: 0 for f in FILE_CALLS}
        self.p2_frames = 0
        self._tape_seen: set[int] = set()

    # --- spans ---------------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int, origin: int = -1) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, self.request, origin])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_request(self, index: int) -> None:
        self.request = index
        self._tape_seen.clear()

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        """Patch every traced lookup site and start tracing."""
        span = self._patch_span
        span(model, "forward", "model.forward", on_enter=self._enter_forward)
        span(cli, "forward", "model.forward", on_enter=self._enter_forward)
        span(training, "forward", "model.forward", on_enter=self._enter_forward)
        self._patch(model, "linear", self._component_linear)
        span(sas, "linear", "tensor.linear")
        span(sas, "grid_conv3x3", "component.offset_conv", "tensor.grid_conv3x3")
        span(sas, "depthwise_conv3x3", "component.local_conv", "tensor.depthwise_conv3x3")
        span(sas, "bilinear_gather", "component.bilinear_sampling", "tensor.bilinear_gather")
        span(sas.NeighborMixParams, "apply", "component.tap_mixing")
        span(sas, "four_stream_scan", "component.scan_streams", "sas.four_stream_scan")
        span(sas, "sa_conv", "sas.sa_conv")
        span(sas, "stride_scan", "sas.stride_scan")
        span(sas, "selective_scan", "ssm.selective_scan")
        span(tensor, "scatter_rows", "tensor.scatter_rows")
        span(tensor.Tensor, "backward", "tensor.backward", on_exit=self._tape_consumed)
        for mod in (tensor, sas, ssm):
            self._patch(mod, "make_op", self._traced_make_op)
        for name in ("total_loss", "wmpjpe", "tc_loss", "mpjve"):
            span(training, name, "training.loss")
        span(training, "optim_step", "training.optim_step")
        span(training, "gen_synthetic", "training.gen_synthetic")
        span(cli, "main", "cli.main")
        span(cli, "mpjpe_p1", "metrics.mpjpe_p1")
        span(cli, "mpjpe_p2", "metrics.mpjpe_p2", on_enter=self._enter_p2)
        for mod in (cli, fileio):
            for name in FILE_CALLS:
                self._patch(mod, name, self._file_call(name))
        self.active = True

    def pause(self) -> None:
        """Leave the patches in place but let calls pass through untraced."""
        self.active = False

    def resume(self) -> None:
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _patch_span(self, owner, attr: str, *names: str, on_enter=None, on_exit=None):
        ids = [self._intern(n) for n in names]

        def make(original):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return original(*args, **kwargs)
                if on_enter is not None:
                    on_enter(args)
                opened = [self._open(i) for i in ids]
                try:
                    return original(*args, **kwargs)
                finally:
                    for idx in reversed(opened):
                        self._close(idx)
                    if on_exit is not None:
                        on_exit()
            return wrapper

        self._patch(owner, attr, make)

    # --- layer-specific hooks ------------------------------------------------

    def _enter_forward(self, args) -> None:
        m, x = args[0], args[1]
        self._component_of = {id(m.embed.weight): self._intern("component.embed"),
                              id(m.head.weight): self._intern("component.head")}
        mlp = self._intern("component.mlp")
        for bp in m.blocks:
            self._component_of[id(bp.mlp1.weight)] = mlp
            self._component_of[id(bp.mlp2.weight)] = mlp
        frames = np.shape(x.data if isinstance(x, tensor.Tensor) else x)[0]
        if self.request >= 0:
            _, per_component = model.count_macs(m.config, frames)
            for c in COMPONENTS:
                self.macs[c] += per_component[c]

    def _component_linear(self, original):
        linear_id = self._intern("tensor.linear")
        unknown = self._intern("component.unknown")

        def wrapper(x, p, *rest):
            if not self.active:
                return original(x, p, *rest)
            outer = self._open(self._component_of.get(id(p.weight), unknown))
            inner = self._open(linear_id)
            try:
                return original(x, p, *rest)
            finally:
                self._close(inner)
                self._close(outer)
        return wrapper

    def _enter_p2(self, args) -> None:
        if self.request >= 0:
            self.p2_frames += int(np.shape(args[0])[0])

    def _file_call(self, name: str):
        name_id = self._intern(f"fileio.{name}")

        def make(original):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return original(*args, **kwargs)
                path = args[1] if name == "save_ckpt" else args[0]
                idx = self._open(name_id)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(idx)
                    if self.request >= 0 and os.path.exists(path):
                        self.file_bytes[name] += os.path.getsize(path)
            return wrapper
        return make

    def _tape_consumed(self) -> None:
        if self.active:
            self._tape_seen.clear()

    def _new_bytes(self, arrays) -> int:
        total = 0
        for arr in arrays:
            buf = _buffer(arr)
            if id(buf) not in self._tape_seen:
                self._tape_seen.add(id(buf))
                total += buf.nbytes
        return total

    def _traced_make_op(self, original):
        adjoint_id = self._intern(ADJOINT)
        scan_id = self._intern("ssm.selective_scan")

        def wrapper(out_data, parents, backward):
            if not self.active:
                return original(out_data, parents, backward)
            timed = self.request >= 0
            self.ops += timed
            if not (timed and any(p.requires_grad for p in parents)):
                return original(out_data, parents, backward)
            origin = self._stack[-1] if self._stack else -1

            def timed_backward(g):
                if not self.active:
                    return backward(g)
                idx = self._open(adjoint_id, origin)
                try:
                    return backward(g)
                finally:
                    self._close(idx)

            out = original(out_data, parents, timed_backward)
            captured = list(_captured_arrays(backward))
            self.tape_bytes += self._new_bytes([out.data] + captured)
            if origin >= 0 and self.spans[origin][0] == scan_id:
                own = {id(b): b.nbytes for b in map(_buffer, captured)}
                self.scan_saved_bytes += sum(own.values())
            return out
        return wrapper

    # --- results -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent",
                                                       "request", "origin"],
                       "spans": self.spans}, fh)

    def metrics(self, requests: int, setups: int, frames_dropped: float,
                overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics derived from the spans of the timed requests."""
        names = self.names
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        op_bwd: dict[str, float] = {}
        component_bwd: dict[str, float] = {}
        setup_gen = 0.0
        loss_id = self._name_ids.get("training.loss")
        for i, s in enumerate(self.spans):
            name = names[s[0]]
            if s[4] < 0:
                if name == "training.gen_synthetic":
                    setup_gen += dur[i]
                continue
            if name == "training.loss" and s[3] >= 0 and self.spans[s[3]][0] == loss_id:
                continue  # nested loss terms are inside their caller's span
            total[name] = total.get(name, 0.0) + dur[i]
            self_time[name] = self_time.get(name, 0.0) + dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            if name == ADJOINT:
                o = s[5]
                if o >= 0:
                    op = names[self.spans[o][0]]
                    op_bwd[op] = op_bwd.get(op, 0.0) + dur[i]
                while o >= 0:
                    outer = names[self.spans[o][0]]
                    if outer.startswith("component."):
                        component_bwd[outer] = component_bwd.get(outer, 0.0) + dur[i]
                        break
                    o = self.spans[o][3]

        n = max(requests, 1)
        out: dict[str, float] = {}
        for c in COMPONENTS:
            fwd = total.get(f"component.{c}", 0.0)
            out[f"component.{c}.fwd_s"] = fwd / n
            out[f"component.{c}.bwd_s"] = component_bwd.get(f"component.{c}", 0.0) / n
            out[f"component.{c}.gmac_per_s"] = self.macs[c] / fwd / 1e9 if fwd > 0 else 0.0
        fwd_model = total.get("model.forward", 0.0)
        attributed = sum(total.get(f"component.{c}", 0.0) for c in COMPONENTS)
        out["model.forward.s"] = fwd_model / n
        out["model.unattributed_s"] = (fwd_model - attributed) / n
        out["ssm.selective_scan.calls"] = calls.get("ssm.selective_scan", 0) / n
        out["ssm.selective_scan.fwd_s"] = total.get("ssm.selective_scan", 0.0) / n
        out["ssm.selective_scan.bwd_s"] = op_bwd.get("ssm.selective_scan", 0.0) / n
        out["ssm.selective_scan.saved_mb"] = self.scan_saved_bytes / n / _MB
        out["sas.sa_conv.fwd_s"] = total.get("sas.sa_conv", 0.0) / n
        out["sas.sa_conv.self_s"] = self_time.get("sas.sa_conv", 0.0) / n
        out["sas.stride_scan.s"] = total.get("sas.stride_scan", 0.0) / n
        out["sas.four_stream_scan.self_s"] = self_time.get("sas.four_stream_scan", 0.0) / n
        out["tensor.ops"] = self.ops / n
        out["tensor.backward_s"] = total.get("tensor.backward", 0.0) / n
        out["tensor.tape_mb"] = self.tape_bytes / n / _MB
        for op in TENSOR_OPS:
            out[f"tensor.{op}.calls"] = calls.get(f"tensor.{op}", 0) / n
            out[f"tensor.{op}.fwd_s"] = total.get(f"tensor.{op}", 0.0) / n
            out[f"tensor.{op}.bwd_s"] = op_bwd.get(f"tensor.{op}", 0.0) / n
        out["tensor.scatter_rows.s"] = total.get("tensor.scatter_rows", 0.0) / n
        out["training.loss_s"] = total.get("training.loss", 0.0) / n
        out["training.optim_step_s"] = total.get("training.optim_step", 0.0) / n
        out["training.gen_synthetic_s"] = setup_gen / max(setups, 1)
        p2 = total.get("metrics.mpjpe_p2", 0.0)
        out["metrics.mpjpe_p1.s"] = total.get("metrics.mpjpe_p1", 0.0) / n
        out["metrics.mpjpe_p2.s"] = p2 / n
        out["metrics.mpjpe_p2.s_per_frame"] = p2 / self.p2_frames if self.p2_frames else 0.0
        for f in FILE_CALLS:
            secs = total.get(f"fileio.{f}", 0.0)
            out[f"fileio.{f}.calls"] = calls.get(f"fileio.{f}", 0) / n
            out[f"fileio.{f}.s"] = secs / n
            out[f"fileio.{f}.mb_per_s"] = self.file_bytes[f] / _MB / secs if secs > 0 else 0.0
        out["cli.main.self_s"] = self_time.get("cli.main", 0.0) / n
        out["cli.frames_dropped"] = frames_dropped
        out["trace.overhead_ratio"] = overhead_ratio
        return out
