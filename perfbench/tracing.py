"""Per-layer host-time attribution for the benchmark's traced run.

The traced run wraps each layer's public entry points (``ENTRY_POINTS``),
the methods the kernel calls back directly (``KERNEL_CALLBACKS``) and
every generator handed to ``Environment.process`` or the kernel's
``Drive``, so the handler work the event kernel resumes counts for the
layer whose code it is.  Each call records a span —
function, host start, host end and parent span — into flat in-memory
arrays; spans are written to disk only when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Self time of spans outside the ten layers, plus host time
outside every span, is *unattributed*.  Nothing here touches modeled
time: the traced run must reproduce the untraced run's modeled metrics
exactly, which the benchmark checks.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.spec import LAYERS

#: ``module:Class.method`` or ``module:function`` per layer.  A trailing
#: ``*`` wraps every public method of the class with that prefix.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "sim": (
        "repro.sim.core:Environment.run",
        "repro.sim.core:Environment.step",
    ),
    "net": (
        "repro.net.link:Link.send",
        "repro.net.nic:Nic.transmit",
        "repro.net.nic:Nic.dma_transfer",
        "repro.net.cpu:Cpu.execute",
        "repro.net.cpu:Cpu.copy",
    ),
    "rdma": (
        "repro.rdma.qp:QueuePair.post_send",
        "repro.rdma.qp:QueuePair.post_send_batch",
        "repro.rdma.qp:QueuePair.post_recv",
        "repro.rdma.qp:QueuePair.post_recv_batch",
        "repro.rdma.qp:QueuePair.handle_packet",
        "repro.rdma.cq:CompletionQueue.poll",
        "repro.rdma.mr:MemoryRegion.grant",
        "repro.rdma.mr:MemoryRegion.revoke",
        "repro.rdma.device:RdmaDevice.reg_mr",
    ),
    "rubin": (
        "repro.rubin.channel:RubinChannel.write",
        "repro.rubin.channel:RubinChannel.read",
        "repro.rubin.channel:RubinChannel.read_view",
        "repro.rubin.selector:RubinSelector.select",
        "repro.rubin.selector:RubinSelector.select_now",
    ),
    "tcpstack": (
        "repro.tcpstack.connection:TcpConnection.send",
        "repro.tcpstack.connection:TcpConnection.write_some",
        "repro.tcpstack.connection:TcpConnection.receive",
        "repro.tcpstack.connection:TcpConnection.read_some",
    ),
    "nio": (
        "repro.nio.channel:SocketChannel.read",
        "repro.nio.channel:SocketChannel.write",
        "repro.nio.selector:Selector.select",
        "repro.nio.selector:Selector.select_now",
    ),
    "reptor": (
        "repro.reptor.endpoint:ReptorConnection.send",
        "repro.reptor.endpoint:ReptorConnection.receive",
        "repro.reptor.framing:Framer.encode_parts",
        "repro.reptor.framing:Framer.encode",
        "repro.reptor.framing:Framer.feed",
    ),
    "bft": (
        "repro.bft.messages:encode",
        "repro.bft.messages:decode",
        "repro.bft.client:BftClient.invoke",
    ),
    "crypto": (
        "repro.crypto.auth:HmacAuthenticator.sign",
        "repro.crypto.auth:HmacAuthenticator.sign_parts",
        "repro.crypto.auth:HmacAuthenticator.verify",
        "repro.crypto.auth:HmacAuthenticator.verify_parts",
        "repro.crypto.auth:digest",
    ),
    "audit": (
        "repro.audit.core:AuditManager.on_*",
        "repro.audit.recorder:FlightRecorder.record",
    ),
}

#: Methods the event kernel (or the NIC's frame demultiplexer) calls back
#: directly, outside any process: the callback-driven halves of the link
#: and TCP state machines and the NIC protocol handlers.  They are the
#: kernel's way into a layer, like the process generators, so their work
#: counts for their own layer rather than for ``sim``.
KERNEL_CALLBACKS: Dict[str, Tuple[str, ...]] = {
    "net": (
        "repro.net.link:Link._tx_next",
        "repro.net.link:Link._tx_serialize",
        "repro.net.link:Link._tx_finish",
        "repro.net.link:Link._deliver",
        "repro.net.nic:Nic._on_frame",
    ),
    "tcpstack": (
        "repro.tcpstack.stack:TcpStack._on_frame",
        "repro.tcpstack.connection:TcpConnection._tx_step",
        "repro.tcpstack.connection:TcpConnection._tx_segment_charged",
        "repro.tcpstack.connection:TcpConnection._tx_fin_charged",
        "repro.tcpstack.connection:TcpConnection._rx_dequeued",
        "repro.tcpstack.connection:TcpConnection._rx_charged",
    ),
    "rdma": (
        "repro.rdma.device:RdmaDevice._on_frame",
        "repro.rdma.cm:ConnectionManager._on_frame",
    ),
    "rubin": ("repro.rubin.channel:RubinChannel._on_connect_outcome",),
}

#: Layer name for spans of generators defined outside ``repro`` (the
#: benchmark's own client loops).
OUTSIDE = "perfbench"


def layer_of_file(filename: str) -> str:
    """``repro`` package a source file belongs to (``perfbench`` outside it)."""
    parts = os.path.normpath(filename).split(os.sep)
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            head = parts[index + 1]
            return head if not head.endswith(".py") else "repro"
    return OUTSIDE


class SpanRecorder:
    """Flat span storage plus the stack of currently open spans."""

    def __init__(self) -> None:
        self.functions: List[Tuple[str, str]] = []
        self._function_ids: Dict[Tuple[str, str], int] = {}
        self.start = array("d")
        self.end = array("d")
        self.func = array("i")
        self.parent = array("i")
        self.stack: List[int] = []
        self.recording = False
        #: Bytes registered through ``RdmaDevice.reg_mr`` while installed.
        self.registered_bytes = 0
        #: Probes (objects with an ``enabled`` flag, such as the copy
        #: probe) switched on and off together with span recording.
        self.probes: List[object] = []

    def function_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        fid = self._function_ids.get(key)
        if fid is None:
            fid = len(self.functions)
            self.functions.append(key)
            self._function_ids[key] = fid
        return fid

    def __len__(self) -> int:
        return len(self.func)

    def wrap(self, fn: Callable, fid: int) -> Callable:
        """``fn`` recording one span per call while ``recording`` is on."""
        starts, ends, funcs, parents = self.start, self.end, self.func, self.parent
        stack = self.stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.recording:
                return fn(*args, **kwargs)
            index = len(funcs)
            funcs.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced


class TracedGenerator:
    """A process generator whose every resume is one span of its layer.

    The kernel only calls ``send`` and ``throw``; the span logic is
    :meth:`SpanRecorder.wrap`'s, inlined because resumes are the most
    frequent spans.
    """

    __slots__ = ("_generator", "_recorder", "_fid", "__name__")

    def __init__(self, generator, recorder: SpanRecorder, fid: int):
        self._generator = generator
        self._recorder = recorder
        self._fid = fid
        self.__name__ = getattr(generator, "__name__", "process")

    def _resume(self, method, arg):
        recorder = self._recorder
        if not recorder.recording:
            return method(*arg)
        funcs, stack = recorder.func, recorder.stack
        index = len(funcs)
        funcs.append(self._fid)
        recorder.parent.append(stack[-1] if stack else -1)
        recorder.end.append(0.0)
        stack.append(index)
        recorder.start.append(time.perf_counter())
        try:
            return method(*arg)
        finally:
            recorder.end[index] = time.perf_counter()
            stack.pop()

    def send(self, value):
        return self._resume(self._generator.send, (value,))

    def throw(self, *exc_info):
        return self._resume(self._generator.throw, exc_info)

    def close(self):
        return self._generator.close()


def _all_subclasses(cls) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out


def _import_layers() -> None:
    """Import every module of the traced layers so subclasses are known."""
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        for info in pkgutil.walk_packages(package.__path__, f"repro.{layer}."):
            importlib.import_module(info.name)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class Instrumentation:
    """Installs the wrappers on the live classes and modules; undoes them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []
        self._generator_fids: Dict[object, int] = {}
        #: Wrap targets that no longer exist (their work then counts for
        #: the caller's layer; the benchmark prints them).
        self.missing: List[str] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Instrumentation":
        _import_layers()
        for table in (ENTRY_POINTS, KERNEL_CALLBACKS):
            for layer, targets in table.items():
                for target in targets:
                    if not self._install_target(layer, target):
                        self.missing.append(target)
        self._meter_registration()
        self._wrap_process_generators()
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install_target(self, layer: str, target: str) -> bool:
        module_name, _, qualname = target.partition(":")
        module = _module(module_name)
        if "." not in qualname:
            original = getattr(module, qualname, None)
            if not callable(original):
                return False
            self._patch_function(layer, f"{module_name}.{qualname}", original)
            return True
        class_name, _, method = qualname.partition(".")
        cls = getattr(module, class_name, None)
        if not isinstance(cls, type):
            return False
        if method.endswith("*"):
            prefix = method[:-1]
            names = [n for n in vars(cls) if n.startswith(prefix) and callable(vars(cls)[n])]
        else:
            names = [method] if callable(getattr(cls, method, None)) else []
        patched = False
        for name in names:
            # The class's own definition and every subclass override.
            for owner in [cls] + _all_subclasses(cls):
                if name in owner.__dict__:
                    patched = self._patch_method(layer, owner, name) or patched
        return patched

    def _patch_method(self, layer: str, owner: type, name: str) -> bool:
        original = owner.__dict__[name]
        if not callable(original):
            return False
        fid = self.recorder.function_id(layer, f"{owner.__name__}.{name}")
        self._patch(owner, name, self.recorder.wrap(original, fid))
        return True

    def _patch_function(self, layer: str, label: str, original: Callable) -> None:
        """Replace every reference to a module-level function in ``repro``."""
        fid = self.recorder.function_id(layer, label)
        wrapped = self.recorder.wrap(original, fid)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def _meter_registration(self) -> None:
        from repro.rdma.device import RdmaDevice

        recorder = self.recorder
        inner = RdmaDevice.__dict__["reg_mr"]

        @functools.wraps(inner)
        def reg_mr(device, pd, buffer, *args, **kwargs):
            recorder.registered_bytes += len(buffer)
            return inner(device, pd, buffer, *args, **kwargs)

        self._patch(RdmaDevice, "reg_mr", reg_mr)

    def _generator_fid(self, generator) -> int:
        code = getattr(generator, "gi_code", None)
        fid = self._generator_fids.get(code)
        if fid is None:
            if code is None:
                layer, name = OUTSIDE, type(generator).__name__
            else:
                layer = layer_of_file(code.co_filename)
                name = getattr(code, "co_qualname", code.co_name)
            fid = self.recorder.function_id(layer, f"<resume> {name}")
            self._generator_fids[code] = fid
        return fid

    def _wrap_process_generators(self) -> None:
        from repro.sim.core import Environment
        from repro.sim.process import Drive

        instrumentation = self
        recorder = self.recorder
        process = Environment.__dict__["process"]
        process_fid = recorder.function_id("sim", "Environment.process")
        traced_process = recorder.wrap(process, process_fid)

        def process_wrapper(env, generator, name=None):
            generator = TracedGenerator(
                generator, recorder, instrumentation._generator_fid(generator)
            )
            return traced_process(env, generator, name=name)

        self._patch(Environment, "process", functools.wraps(process)(process_wrapper))

        drive_init = Drive.__dict__["__init__"]

        def drive_wrapper(drive, env, generator):
            generator = TracedGenerator(
                generator, recorder, instrumentation._generator_fid(generator)
            )
            drive_init(drive, env, generator)

        self._patch(Drive, "__init__", functools.wraps(drive_init)(drive_wrapper))


# -- analysis ----------------------------------------------------------------


def self_times(
    start: Sequence[float],
    end: Sequence[float],
    parent: Sequence[int],
) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for index, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[index] - start[index]
    return own


def attribute(recorder: SpanRecorder, window_s: float) -> dict:
    """Per-layer self time, share and calls for spans in a ``window_s`` run.

    Also returns ``unattributed_s`` (self time outside the ten layers plus
    the window time no root span covers), the per-function breakdown and
    the integrity figures the benchmark checks: the root coverage (which
    the self times must sum to) and the most negative self time.
    """
    own = self_times(recorder.start, recorder.end, recorder.parent)
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_calls = {layer: 0 for layer in LAYERS}
    func_self = [0.0] * len(recorder.functions)
    func_calls = [0] * len(recorder.functions)
    other_self = 0.0
    root_cover = 0.0
    for index, fid in enumerate(recorder.func):
        func_self[fid] += own[index]
        func_calls[fid] += 1
        if recorder.parent[index] < 0:
            root_cover += recorder.end[index] - recorder.start[index]
    for fid, (layer, _name) in enumerate(recorder.functions):
        if layer in layer_self:
            layer_self[layer] += func_self[fid]
            layer_calls[layer] += func_calls[fid]
        else:
            other_self += func_self[fid]
    unattributed = other_self + (window_s - root_cover)
    return {
        "layer_self_s": layer_self,
        "layer_calls": layer_calls,
        "unattributed_s": unattributed,
        "root_cover_s": root_cover,
        "self_sum_s": sum(own),
        "min_self_s": min(own) if own else 0.0,
        "functions": {
            f"{layer}:{name}": (func_self[fid], func_calls[fid])
            for fid, (layer, name) in enumerate(recorder.functions)
            if func_calls[fid]
        },
    }


def function_calls(recorder: SpanRecorder, names: Sequence[str]) -> int:
    """Total spans recorded for the functions called any of ``names``."""
    wanted = {fid for fid, (_l, name) in enumerate(recorder.functions) if name in names}
    return sum(1 for fid in recorder.func if fid in wanted)


def write_spans(path: str, recorder: SpanRecorder, meta: dict) -> None:
    """Write the spans: one JSON header line, then the raw column arrays."""
    header = dict(meta)
    header.update(
        {
            "format": "perfbench-spans/v1",
            "count": len(recorder),
            "columns": ["start:d", "end:d", "func:i", "parent:i"],
            "functions": [list(f) for f in recorder.functions],
        }
    )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n")
        for column in (recorder.start, recorder.end, recorder.func, recorder.parent):
            column.tofile(handle)


def read_spans(path: str) -> Tuple[dict, SpanRecorder]:
    """Inverse of :func:`write_spans`."""
    recorder = SpanRecorder()
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        for column in (recorder.start, recorder.end, recorder.func, recorder.parent):
            column.fromfile(handle, count)
    for layer, name in header["functions"]:
        recorder.function_id(layer, name)
    return header, recorder


def top_functions(analysis: dict, limit: int = 12) -> List[Tuple[str, float, int]]:
    """The ``limit`` functions with the most self time."""
    ranked = sorted(analysis["functions"].items(), key=lambda kv: -kv[1][0])
    return [(name, self_s, calls) for name, (self_s, calls) in ranked[:limit]]


def run_recorded(recorder: Optional[SpanRecorder], body: Callable[[], object]):
    """Call ``body`` with span recording and the probes on (given a recorder)."""
    if recorder is None:
        return body()
    for probe in recorder.probes:
        probe.enabled = True
    recorder.recording = True
    try:
        return body()
    finally:
        recorder.recording = False
        for probe in recorder.probes:
            probe.enabled = False
