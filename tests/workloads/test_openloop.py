"""The open-loop injector against a stand-in gateway: one UDP socket
answering every request, alternately served and shed.

No cluster and no testbed — the point is the injector's own accounting.
Its sender and receiver threads used to bump the same result object
with no lock; now each keeps its own tallies and ``run`` adds them up
once both have finished, so every request sent must be accounted for
exactly once.
"""

import json
import random
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.control.admission import OVERLOADED, overloaded_value
from repro.net.wire import decode_frame, encode_frame
from repro.replication.envelope import MsgType, make_envelope
from repro.rpc.messages import Result
from repro.workloads import OpenLoopInjector

pytestmark = pytest.mark.live

TRAJECTORY = Path(__file__).parents[2] / "BENCH_throughput.json"


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
            _src, request = decode_frame(data)
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


class IdleBed:
    """What the injector needs of a bed when nothing needs pumping."""

    def pump(self, seconds, until=None):
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline and not (until and until()):
            time.sleep(0.01)


def test_every_request_is_accounted_for_exactly_once():
    gateway = StandInGateway()
    injector = OpenLoopInjector([gateway.address], identities=8, zipf_s=1.1,
                                rng=random.Random(3), deadline_s=0.5)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # make a lost update likely, were one possible
    try:
        result = injector.run(IdleBed(), rate_ops_s=2_000.0, duration_s=0.5)
    finally:
        sys.setswitchinterval(previous)
        injector.close()
        gateway.close()
    tallies = result.to_dict()
    assert tallies["sent"] == gateway.answered > 200
    assert (tallies["served"] + tallies["shed"] + tallies["timeouts"]
            + tallies["errors"]) == tallies["sent"]
    assert tallies["served"] == result.completed == len(result.latencies_us)
    assert abs(tallies["served"] - tallies["shed"]) <= 1
    assert tallies["mean_retry_after_s"] == 0.25
    assert tallies["shed_rate"] == pytest.approx(0.5, abs=0.01)
    assert tallies["goodput_ops_s"] == tallies["ops_per_s"]

    # The trajectory file's open-loop points keep their keys.
    committed = next(run for run in json.loads(TRAJECTORY.read_text())["runs"]
                     if run.get("kind") == "open-loop-overload")
    assert set(committed["points"]["4x"]) <= set(tallies)
