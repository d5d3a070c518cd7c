"""Spans recorded from the benchmark's side of each layer boundary.

The traced pass rebinds, on the objects of the bed the benchmark built,
the public entry points of each layer to wrappers that record a span.
Everything runs on one thread, so a stack of open spans gives each span
its parent.  A layer's self time is its spans' duration minus the part
their child spans cover.  Nothing under ``src/`` is touched; spans
inside the program are a later change.

Callbacks a layer hands to the kernel (``schedule``) run later, from the
kernel's dispatch; they are wrapped when scheduled and charged to the
layer whose module defines them, so timer-driven work such as Totem's
token handling is not billed to the kernel.  Generator bodies resumed by
the kernel cross no wrapped boundary until they call into a layer, so
the kernel's self time includes process-resume bookkeeping.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

import repro.net.udp as udp_module

from .beds import Bed, GatewayTap, current_receiver
from .spec import GROUP

#: Module prefix -> layer, most specific first.
_LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.network", "sim.network"),
    ("repro.sim.faults", "bench"),
    ("repro.sim", "sim.kernel"),
    ("repro.totem", "totem"),
    ("repro.replication.codec", "net.wire"),
    ("repro.replication", "replication"),
    ("repro.core", "core"),
    ("repro.rpc", "rpc"),
    ("repro.net.kernel", "net.kernel"),
    ("repro.net.udp", "net.udp"),
    ("repro.net.wire", "net.wire"),
    ("repro.net.auth", "net.auth"),
    ("repro.net.daemon", "net.daemon"),
    ("repro.control.admission", "control.admission"),
    ("bench", "bench"),
)

_COLUMNS = (("name_id", "H"), ("parent", "i"), ("start_ns", "q"),
            ("end_ns", "q"))


def layer_of(name: str) -> str:
    return name.split("/", 1)[0]


class Tracer:
    """Span recorder.  Span names are ``layer/what``."""

    def __init__(self):
        self.on = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._stack: List[int] = []
        self._owner_ids: Dict[Tuple[str, str], int] = {}
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``self.names[nid]``."""
        if not self.on:
            return fn(*args, **kwargs)
        stack = self._stack
        index = len(self.start_ns)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end_ns.append(0)
        stack.append(index)
        self.start_ns.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end_ns[index] = perf_counter_ns()
            stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)
        call = self.call

        def traced(*args, **kwargs):
            return call(nid, fn, *args, **kwargs)

        return traced

    def _owner_nid(self, callback: Callable, default_layer: str) -> int:
        """Span id for a callback handed to the kernel: the layer whose
        module defines it."""
        owner = getattr(callback, "__self__", None)
        module = (type(owner).__module__ if owner is not None
                  else getattr(callback, "__module__", None) or "")
        what = getattr(callback, "__name__", "callback")
        key = (module, what)
        nid = self._owner_ids.get(key)
        if nid is None:
            layer = next((layer for prefix, layer in _LAYER_OF_MODULE
                          if module.startswith(prefix)), default_layer)
            nid = self._owner_ids[key] = self._intern(f"{layer}/{what}")
        return nid

    # -- installation --------------------------------------------------

    def _rebind(self, obj, attr: str, name: str) -> None:
        original = getattr(obj, attr)
        setattr(obj, attr, self.wrap(name, original))

    def install(self, bed: Bed, client=None) -> None:
        """Wrap the layer entry points of a set-up bed (and of the live
        load generator, whose cost is the ``bench`` layer)."""
        testbed = bed.testbed
        self._install_kernel(bed)
        for node_id in testbed.node_ids:
            self._install_iface(bed, node_id)
            self.install_protocol(bed, node_id)
        if bed.rpc is not None:
            self._rebind(bed.rpc, "call", "rpc/call")
            self._install_endpoint(bed.rpc.endpoint, "rpc/on_message")
        for gateway in bed.gateways:
            self._rebind(gateway, "handle", "net.daemon/handle")
            self._rebind(gateway.admission, "submit",
                         "control.admission/submit")
            self._rebind(gateway.admission, "complete",
                         "control.admission/complete")
        if testbed_auth := getattr(testbed, "auth", None):
            self._rebind(testbed_auth, "sign_field", "net.auth/sign")
            self._rebind(testbed_auth, "verify", "net.auth/verify")
        if client is not None:
            self._install_client(bed, client)

    def _install_kernel(self, bed: Bed) -> None:
        sim = bed.sim
        if bed.workload.is_sim:
            layer = "sim.kernel"
            self._rebind(sim, "step", "sim.kernel/step")
        else:
            layer = "net.kernel"
            loop = sim.loop
            call_later = loop.call_later
            fire = self._intern("net.kernel/fire")

            def traced_call_later(delay, callback, *args, **kwargs):
                return call_later(delay, self.call, fire, callback, *args,
                                  **kwargs)

            loop.call_later = traced_call_later
        schedule = sim.schedule
        schedule_nid = self._intern(f"{layer}/schedule")

        def traced_schedule(delay, callback, *args):
            # The span covers the scheduling; the callback gets its own
            # span, in its owner's layer, when the kernel fires it.
            return self.call(schedule_nid, schedule, delay, self.call,
                             self._owner_nid(callback, layer), callback,
                             *args)

        sim.schedule = traced_schedule
        self._rebind(sim, "timeout", f"{layer}/timeout")

    def _install_iface(self, bed: Bed, node_id: str) -> None:
        iface = bed.testbed.node(node_id).iface
        net = "sim.network" if bed.workload.is_sim else "net.udp"
        self._rebind(iface, "unicast", f"{net}/unicast")
        self._rebind(iface, "multicast", f"{net}/multicast")
        if not bed.workload.is_sim:
            self._rebind(iface, "sendto", "net.udp/sendto")
            iface.sock = _TracedSocket(iface.sock, self)

    def install_protocol(self, bed: Bed, node_id: str) -> None:
        """Wrap one node's Totem processor, group runtime and replica.
        Called again for a node recovered mid-run, whose protocol
        objects are new."""
        testbed = bed.testbed
        node = testbed.node(node_id)
        receiver = current_receiver(node)
        if isinstance(receiver, GatewayTap):
            receiver.ring_receiver = self.wrap("totem/receive",
                                               receiver.ring_receiver)
        else:
            node.set_receiver(self.wrap("totem/receive", receiver))
        processor = testbed.processors[node_id]
        self._rebind(processor, "mcast", "totem/mcast")
        for hook in ("on_deliver", "on_config_change", "on_raw_message"):
            self._rebind(processor, hook, f"replication/{hook}")
        replica = testbed.replicas(GROUP).get(node_id)
        if replica is not None:
            self._install_endpoint(replica.endpoint,
                                   "replication/endpoint.on_message")
            self._rebind(replica, "dispatch", "replication/dispatch")
            source = replica.time_source
            self._rebind(source, "read", "core/read")
            self._rebind(source, "handle_ccs", "core/handle_ccs")
            self._rebind(source, "handle_raw_ccs", "core/handle_raw_ccs")

    def _install_endpoint(self, endpoint, on_message_name: str) -> None:
        self._rebind(endpoint, "mcast", "replication/endpoint.mcast")
        self._rebind(endpoint, "on_message", on_message_name)

    def _install_client(self, bed: Bed, client) -> None:
        client.wrap = self.wrap
        self._rebind(client, "encode", "net.wire/encode")
        self._rebind(client, "decode", "net.wire/decode")
        self._rebind(client, "on_readable", "bench/on_readable")
        # The ring's codec calls go through names bound in the UDP
        # module; restored by uninstall().
        for attr, name in (("encode_frame", "net.wire/encode"),
                           ("decode_frame_ex", "net.wire/decode")):
            original = getattr(udp_module, attr)
            setattr(udp_module, attr, self.wrap(name, original))
            self._undo.append(
                lambda attr=attr, original=original:
                setattr(udp_module, attr, original))
        # Each logical client's group endpoint on its sticky gateway
        # (created during set-up by the probe ops).
        nodes = bed.testbed.node_ids
        for index in range(bed.workload.clients):
            runtime = bed.testbed.runtimes[nodes[index % len(nodes)]]
            self._install_endpoint(runtime.endpoint(f"client.b{index}"),
                                   "net.daemon/forward")

    def uninstall(self) -> None:
        """Undo the module-level rebinding (object-level wrappers die
        with the bed)."""
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start_ns)

    def counts(self) -> Dict[str, int]:
        """Spans recorded per span name."""
        per_id: Dict[int, int] = defaultdict(int)
        for nid in self.name_id:
            per_id[nid] += 1
        return {self.names[nid]: count for nid, count in per_id.items()}

    def layer_self_ns(self) -> Dict[str, int]:
        return layer_self_ns(self.names, self.name_id, self.parent,
                             self.start_ns, self.end_ns)

    def write(self, path: Path, **header) -> None:
        """One JSON header line, then the span columns as raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header.update(names=self.names, count=len(self),
                      columns=[list(column) for column in _COLUMNS])
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for attr, _code in _COLUMNS:
                getattr(self, attr).tofile(out)


class _TracedSocket:
    """Stands in for a UDP port's socket so receive syscalls get a span
    (the port's reader callback is private; its socket is not)."""

    def __init__(self, sock, tracer: Tracer):
        self._sock = sock
        self.recvfrom = tracer.wrap("net.udp/recvfrom", sock.recvfrom)

    def __getattr__(self, attr):
        return getattr(self._sock, attr)


def layer_self_ns(names, name_id, parent, start_ns, end_ns) -> Dict[str, int]:
    """Self time per layer: each span's duration minus its children's."""
    count = len(start_ns)
    child_ns = [0] * count
    totals: Dict[str, int] = defaultdict(int)
    layers = [layer_of(name) for name in names]
    # Children are recorded after their parents, so one reverse pass
    # sees every child before its parent.
    for index in range(count - 1, -1, -1):
        duration = end_ns[index] - start_ns[index]
        totals[layers[name_id[index]]] += duration - child_ns[index]
        if parent[index] >= 0:
            child_ns[parent[index]] += duration
    return dict(totals)


def load_spans(path: Path):
    """Read a file written by :meth:`Tracer.write`; returns
    ``(header, columns)`` with one array per column name."""
    with open(path, "rb") as source:
        header = json.loads(source.readline())
        columns = {}
        for name, code in header["columns"]:
            column = array(code)
            column.fromfile(source, header["count"])
            columns[name] = column
    return header, columns
