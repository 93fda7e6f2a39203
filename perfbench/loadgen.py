"""Open-loop load generator for `portopt serve`.

One thread drives at most `nproc` Unix-socket connections.  Requests
are due on a fixed schedule (rate r: request i is due at t0 + i/r) and
are sent when due whatever the server is doing, so a slow server builds
a queue instead of receiving less load.  Every latency is measured from
the request's due time, which charges a generator stall to the requests
it delayed; how late the generator itself ran is reported next to it.

Frames are the server's binary framing: 0xB1, a big-endian u32 payload
length, then the JSON payload.
"""

import json
import os
import select
import socket
import struct
import time

MAGIC = 0xB1
# How long a step waits, past its deadline, for the replies it counted
# as failed, so that none crosses into the next step.
DRAIN_S = 30.0


def frame(payload):
    return bytes([MAGIC]) + struct.pack(">I", len(payload)) + payload


def quantile(sorted_values, q):
    """Linear-interpolated quantile of an ascending list."""
    if not sorted_values:
        return float("nan")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()

    def frames(self):
        """Complete reply payloads buffered so far."""
        got = []
        buf = self.inbuf
        while len(buf) >= 5:
            if buf[0] != MAGIC:
                raise RuntimeError("reply is not a binary frame")
            n = struct.unpack_from(">I", buf, 1)[0]
            if len(buf) < 5 + n:
                break
            got.append(bytes(buf[5:5 + n]))
            del buf[:5 + n]
        return got

    def close(self):
        self.sock.close()


def request(path, payload, timeout=30.0):
    """One blocking request/reply on a fresh connection (health, metrics)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(path)
        s.sendall(frame(json.dumps(payload).encode()))
        buf = b""
        while True:
            if len(buf) >= 5:
                n = struct.unpack_from(">I", buf, 1)[0]
                if len(buf) >= 5 + n:
                    return json.loads(buf[5:5 + n])
            chunk = s.recv(65536)
            if not chunk:
                raise RuntimeError("server closed the connection")
            buf += chunk


class Generator:
    """Sends the stream's requests in order, step after step.

    A step that needs more requests than the rest of the stream holds
    goes on from its start: request ids are stream positions, so one
    step never holds a position twice, and the server's cache has long
    forgotten a miss by the time it comes round again."""

    def __init__(self, path, stream, conns):
        self.stream = stream
        self.next = 0
        self.conns = [Conn(path) for _ in range(conns)]

    def close(self):
        for c in self.conns:
            c.close()

    def fits(self, n):
        return max(1, int(round(n))) <= len(self.stream)

    def step(self, rate, seconds, grace):
        """Run one fixed-rate step; return its raw measurements.

        A request unanswered `grace` seconds after the step's last due
        time counts as failed; the step still waits for its reply."""
        n = max(1, int(round(rate * seconds)))
        if not self.fits(n):
            raise RuntimeError("step longer than the query stream")
        size = len(self.stream)
        order = [(self.next + k) % size for k in range(n)]
        self.next = (self.next + n) % size
        index = {pos: k for k, pos in enumerate(order)}
        conns = self.conns
        by_fd = {c.sock.fileno(): c for c in conns}
        due = [0.0] * n
        late = []
        lat = [None] * n
        replied = [False] * n
        received = 0
        failed = 0
        refused = 0
        wrong = 0
        answered = 0
        sent = 0
        max_backlog = 0
        start = time.perf_counter() + 0.001
        deadline = start + seconds + grace
        interval = 1.0 / rate
        while sent < n or received < sent:
            now = time.perf_counter()
            while sent < n and start + sent * interval <= now:
                d = start + sent * interval
                due[sent] = d
                late.append(now - d)
                conns[sent % len(conns)].out += self.stream[order[sent]]["frame"]
                sent += 1
            if sent < n:
                max_backlog = max(max_backlog, sent - received)
            for c in conns:
                if c.out:
                    try:
                        k = c.sock.send(c.out)
                        del c.out[:k]
                    except BlockingIOError:
                        pass
            if now > deadline and lat.count(None) > n - sent:
                # Past the deadline: whatever is unanswered has failed.
                for i in range(sent):
                    if lat[i] is None:
                        lat[i] = float("inf")
                        failed += 1
            if now > deadline + DRAIN_S:
                raise RuntimeError("the server stopped answering")
            wait = (start + sent * interval - now) if sent < n else (deadline - now)
            if wait <= 0 and sent == n:
                wait = deadline + DRAIN_S - now
            wait = max(0.0, wait)
            writers = [c.sock for c in conns if c.out]
            readable, _, _ = select.select(list(by_fd), writers, [], wait)
            for fd in readable:
                c = by_fd[fd]
                try:
                    chunk = c.sock.recv(262144)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise RuntimeError("server closed a connection")
                c.inbuf += chunk
                t = time.perf_counter()
                for payload in c.frames():
                    reply = json.loads(payload)
                    i = index.get(reply.get("id"))
                    if i is None or i >= sent or replied[i]:
                        raise RuntimeError("reply with an unknown id")
                    replied[i] = True
                    received += 1
                    if lat[i] is not None:
                        # Counted as failed at the deadline.
                        continue
                    q = self.stream[order[i]]
                    if not reply.get("ok"):
                        if reply.get("code") == 429:
                            refused += 1
                        failed += 1
                        lat[i] = float("inf")
                        continue
                    got_n = [nb["index"] for nb in reply["neighbours"]]
                    if reply["passes"] != q["passes"] or got_n != q["neighbours"]:
                        wrong += 1
                        failed += 1
                        lat[i] = float("inf")
                        continue
                    lat[i] = t - due[i]
                    answered += 1
        latencies = sorted(x for x in lat if x is not None)
        late.sort()
        return {
            "rate": rate,
            "attempted": n,
            "answered": answered,
            "failed": failed,
            "refused": refused,
            "wrong": wrong,
            "latencies": latencies,
            "late": late,
            "backlog": max_backlog,
            "hot": sum(1 for i in order if self.stream[i]["hot"]),
        }


def timer_lateness(samples=2000, period=0.0005):
    """Idle timer lateness: how late a 0.5 ms sleep-to-deadline wakes."""
    out = []
    t = time.perf_counter()
    for _ in range(samples):
        t += period
        while True:
            now = time.perf_counter()
            if now >= t:
                break
            select.select([], [], [], t - now)
        out.append(time.perf_counter() - t)
    out.sort()
    return out


def nproc():
    return len(os.sched_getaffinity(0))
