"""The benchmark's own closed-loop load driver.

One process, no threads: a handful of TCP connections, each pipelined
to a fixed number of outstanding requests, multiplexed with
``selectors``.  A connection sends its next request only when an
earlier one has been answered (closed loop: the callers of a storage
service wait for their replies), so the offered load follows the
server's speed and nothing is ever shed.

Unlike ``repro.service.loadgen`` the driver keeps every response: per
operation it records when the answer arrived, how long it took on the
wall clock, which class it belongs to, and the simulated latency the
service reported.  It checks each answer as it arrives.
"""

import selectors
import socket
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.service import protocol

from bench.host import cpu_seconds, peak_rss_mb
from bench.spans import SpanLog
from bench.stats import Windows
from bench.workloads import value_of

Request = Dict[str, Any]

#: Request types whose reported latency counts as a read.
READ_TYPES = frozenset(("read", "get", "scan"))

#: Seconds without a single answer before the run is declared hung.
STALL_TIMEOUT_S = 20.0


class DriverError(RuntimeError):
    """The connection or the protocol broke; the run cannot continue."""


def check_response(request: Request, response: Dict[str, Any]) -> Optional[str]:
    """Why ``response`` is a wrong answer to ``request``, or ``None``."""
    if response.get("ok") is not True:
        return f"{request['type']} answered {response.get('error')!r}"
    if request["type"] == "ping":
        return None
    latency = response.get("latency_us")
    if not isinstance(latency, (int, float)) or latency <= 0:
        return f"{request['type']} reported latency_us={latency!r}"
    rtype = request["type"]
    if rtype == "get":
        if response.get("found") is not True \
                or response.get("value") != value_of(request["key"]):
            return (f"get {request['key']!r} returned found="
                    f"{response.get('found')!r} value={response.get('value')!r}")
    elif rtype == "scan":
        keys = [item[0] for item in response.get("items", ())]
        if keys != sorted(keys) or len(keys) > request["count"] \
                or (keys and keys[0] < request["start"]) \
                or any(item[1] != value_of(item[0])
                       for item in response["items"]):
            return f"scan from {request['start']!r} returned {keys!r}"
    return None


class Connection:
    """One TCP connection speaking ``repro.service.protocol``."""

    def __init__(self, host: str, port: int,
                 tenant: Optional[str] = None) -> None:
        self.sock = socket.create_connection((host, port), timeout=STALL_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = protocol.FrameDecoder()
        self.binary = False
        self._next_id = 1
        hello: Request = {"type": "hello", "v": protocol.PROTOCOL_VERSION}
        if tenant is not None:
            hello["tenant"] = tenant
        # The hello itself is JSON; hot requests go binary iff offered.
        self.binary = "bin" in self.call(hello).get("capabilities", ())

    def next_id(self) -> int:
        rid = self._next_id
        self._next_id += 1
        return rid

    def call(self, request: Request) -> Dict[str, Any]:
        """One control request (hello, stats) on an idle connection."""
        message = dict(request, id=self.next_id())
        self.sock.sendall(protocol.encode_frame(message))
        while True:
            data = self.sock.recv(1 << 16)
            if not data:
                raise DriverError("server closed the connection")
            for response in self.decoder.feed(data):
                if response.get("id") != message["id"]:
                    raise DriverError(f"unexpected answer {response!r}")
                if response.get("ok") is not True:
                    raise DriverError(f"{request['type']} failed: {response!r}")
                return response

    def close(self) -> None:
        self.sock.close()


class PhaseResult:
    """Everything one phase of load produced."""

    def __init__(self, start_s: float, windows: Windows) -> None:
        self.start_s = start_s
        self.end_s = start_s
        self.windows = windows
        self.issued = 0
        self.failures: List[str] = []
        self.failed = 0
        #: Per answered operation, in arrival order.
        self.done_s: List[float] = []
        self.wall_s: List[float] = []
        self.is_read: List[bool] = []
        self.sim_us: List[float] = []
        #: Position of the operation in its connection's stream.
        self.op_index: List[int] = []
        self.gen_cpu_s = 0.0
        self.server_cpu_s = 0.0
        #: The server's peak memory when the fixed prefix had been served.
        self.prefix_rss_mb = 0.0

    @property
    def completed(self) -> int:
        return len(self.done_s)

    @property
    def seconds(self) -> float:
        return self.end_s - self.start_s

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)


def run_phase(
    conns: List[Connection],
    streams: List[Iterator[Request]],
    depth: int,
    server_pid: int,
    *,
    seconds: Optional[float] = None,
    min_ops: int = 0,
    window_s: float = 1.0,
    spin: bool = False,
    spans: Optional[SpanLog] = None,
    span_parent: int = -1,
) -> PhaseResult:
    """Drive ``streams[i]`` down ``conns[i]`` at ``depth`` outstanding each.

    With ``seconds`` the phase stops issuing at the deadline, provided
    every connection has issued ``min_ops`` (the fixed prefix the
    simulated-time statistics are taken over); without it the phase runs
    until the streams are exhausted.  Either way every outstanding
    request is awaited before the phase ends.  With ``spin`` the driver
    polls for answers without sleeping, which takes its own wake-up
    latency out of a latency measurement.
    """
    selector = selectors.DefaultSelector()
    outstanding: List[Dict[int, Any]] = [{} for _ in conns]
    issued = [0] * len(conns)
    exhausted = [False] * len(conns)
    for index, conn in enumerate(conns):
        conn.sock.setblocking(True)
        selector.register(conn.sock, selectors.EVENT_READ, index)
    clock = time.perf_counter
    encode = protocol.encode_frame_as
    cpu_before = time.process_time()
    server_cpu_before = cpu_seconds(server_pid)
    start = clock()
    result = PhaseResult(start, Windows(window_s, start, server_cpu_before))
    windows = result.windows
    deadline = None if seconds is None else start + seconds
    last_answer = start
    prefix_total = min_ops * len(conns)
    try:
        while True:
            now = clock()
            if prefix_total and result.completed >= prefix_total:
                result.prefix_rss_mb = peak_rss_mb(server_pid)
                prefix_total = 0
            if now >= windows.next_cut_s:
                windows.cut(now, result.completed, cpu_seconds(server_pid))
            stop = (deadline is not None and now >= deadline
                    and min(issued) >= min_ops)
            for index, conn in enumerate(conns):
                if stop or exhausted[index]:
                    continue
                pending = outstanding[index]
                out = bytearray()
                while len(pending) < depth:
                    request = next(streams[index], None)
                    if request is None:
                        exhausted[index] = True
                        break
                    rid = conn.next_id()
                    request["id"] = rid
                    if spans is None:
                        out += encode(request, conn.binary)
                        pending[rid] = (request, clock(), issued[index])
                    else:
                        t0 = spans.now()
                        out += encode(request, conn.binary)
                        t1 = spans.now()
                        span = spans.add("driver.request", t0, t0,
                                         span_parent, rid)
                        spans.add("protocol.encode", t0, t1, span, rid)
                        pending[rid] = (request, clock(), issued[index], span)
                    issued[index] += 1
                if out:
                    conn.sock.sendall(out)
            if not any(outstanding):
                if stop or all(exhausted):
                    break
                continue
            ready = selector.select(timeout=0.0 if spin else 1.0)
            if not ready:
                if clock() - last_answer > STALL_TIMEOUT_S:
                    waiting = sum(len(p) for p in outstanding)
                    result.failed += waiting
                    raise DriverError(
                        f"no answer for {STALL_TIMEOUT_S:.0f}s with "
                        f"{waiting} requests outstanding")
                continue
            for key, _ in ready:
                index = key.data
                conn = conns[index]
                data = conn.sock.recv(1 << 16)
                if not data:
                    raise DriverError("server closed the connection")
                if spans is None:
                    responses = conn.decoder.feed(data)
                else:
                    t0 = spans.now()
                    responses = conn.decoder.feed(data)
                    spans.add("protocol.decode", t0, spans.now(), span_parent)
                arrived = last_answer = clock()
                pending = outstanding[index]
                for response in responses:
                    entry = pending.pop(response.get("id"), None)
                    if entry is None:
                        result.fail(f"answer to no open request: {response!r}")
                        continue
                    request = entry[0]
                    why = check_response(request, response)
                    if why is not None:
                        result.fail(why)
                        continue
                    rtype = request["type"]
                    result.done_s.append(arrived)
                    result.wall_s.append(arrived - entry[1])
                    result.is_read.append(rtype in READ_TYPES)
                    result.sim_us.append(response.get("latency_us", 0.0))
                    result.op_index.append(entry[2])
                    if spans is not None:
                        span = entry[3]
                        name, t_start, _, parent, rid = spans.spans[span]
                        spans.spans[span] = (name, t_start, spans.now(),
                                             parent, rid)
    finally:
        selector.close()
        result.end_s = clock()
        result.issued = sum(issued)
        result.gen_cpu_s = time.process_time() - cpu_before
    if prefix_total:    # the prefix ended the phase: take the memory now
        result.prefix_rss_mb = peak_rss_mb(server_pid)
    # The last, partial window is dropped: a short window's rate is noise.
    result.server_cpu_s = cpu_seconds(server_pid) - server_cpu_before
    return result
