"""The open-loop overload point against a stand-in gateway: one UDP
socket answering every request, alternately served and shed.

No cluster and no testbed — the point is the generator's own accounting.
Arrivals, calls and replies all run on one kernel, so no tally is shared
between threads; every request sent must still be accounted for exactly
once.
"""

import random
import socket
import threading

import pytest

from repro.control.admission import OVERLOADED, overloaded_value
from repro.net.client import LiveCaller
from repro.net.kernel import LiveKernel
from repro.net.wire import decode_frame_ex, encode_frame
from repro.replication.envelope import MsgType, make_envelope
from repro.rpc.messages import Result
from repro.workloads import open_loop_point

pytestmark = pytest.mark.live

#: What one point of a recorded ``open-loop-overload`` run carries.
POINT_KEYS = {
    "mode", "duration_s", "completed", "errors", "ops_per_s", "p50_us",
    "p99_us", "offered_rate_ops_s", "identities", "zipf_s", "sent", "served",
    "shed", "timeouts", "goodput_ops_s", "shed_rate", "mean_retry_after_s",
    "gen_late_p99_us",
}


class StandInGateway:
    """Answers request k with a served reply (k even) or a typed
    ``Overloaded`` one (k odd), from its own thread."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.address = self.sock.getsockname()
        self.answered = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                data, addr = self.sock.recvfrom(65536)
            except socket.timeout:
                continue
            _src, request, _trace = decode_frame_ex(data)
            header = request.header
            body = (Result(value={"micros": 1_000 + self.answered})
                    if self.answered % 2 == 0 else
                    Result(value=overloaded_value(0.25), error=OVERLOADED))
            self.answered += 1
            reply = make_envelope(
                MsgType.REPLY, header.dst_grp, header.src_grp,
                header.conn_id, header.msg_seq_num, "n0", body=body)
            self.sock.sendto(encode_frame("n0", reply), addr)

    def close(self):
        self._stop.set()
        self._thread.join(timeout=2.0)
        self.sock.close()


class KernelBed:
    """What the generator needs of a bed: a kernel, and a way to run it."""

    def __init__(self):
        self.sim = LiveKernel()

    def run(self, seconds):
        self.sim.run(self.sim.now + seconds)


def test_every_request_is_accounted_for_exactly_once():
    gateway = StandInGateway()
    bed = KernelBed()
    callers = [LiveCaller(bed.sim, [gateway.address], client_id=f"ol{i}")
               for i in range(8)]
    try:
        result = open_loop_point(
            bed, callers, rate_ops_s=2_000.0, duration_s=0.5, zipf_s=1.1,
            rng=random.Random(3), deadline_s=0.5)
    finally:
        for caller in callers:
            caller.close()
        bed.sim.close()
        gateway.close()
    tallies = result.to_dict()
    assert set(tallies) == POINT_KEYS
    assert tallies["sent"] == gateway.answered > 200
    assert (tallies["served"] + tallies["shed"] + tallies["timeouts"]
            + tallies["errors"]) == tallies["sent"]
    assert tallies["served"] == result.completed == len(result.latencies_us)
    assert abs(tallies["served"] - tallies["shed"]) <= 1
    assert tallies["mean_retry_after_s"] == 0.25
    assert tallies["shed_rate"] == pytest.approx(0.5, abs=0.01)
    assert tallies["goodput_ops_s"] == tallies["ops_per_s"]
    # One thread generates the load: it issues each arrival when it is
    # due, give or take the loop's own latency.
    assert 0 <= tallies["gen_late_p99_us"] < 50_000
    # Every identity kept to its own caller, so to its own client group.
    assert sum(caller.stats.calls for caller in callers) == tallies["sent"]
