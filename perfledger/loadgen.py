"""A closed-loop HTTP load generator and ``sst serve`` process control.

One caller on one keep-alive connection sends each request only after
the previous reply has been read in full, as an alignment pipeline or
the browser does.  Requests are encoded before the timed phase starts;
a connection the server closes (``Connection: close`` after its
per-connection request cap) is reopened before the next request and
counted as a reconnect.

The caller sleeps in ``recv`` while it waits, as a real client does,
so the server has both vCPUs of a small host to itself between
replies; a caller that polled its socket would keep one of them busy.
One caller, not one per core: two callers made two server threads hand
the interpreter lock back and forth across vCPUs, which doubled the
median latency and its spread from run to run.
"""

import json
import os
import re
import signal
import socket
import subprocess
import threading
import time

READY_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
REPLY_TIMEOUT = 60.0
_LISTENING = re.compile(r":(\d+) \(")


def encode_request(op):
    """The full HTTP/1.1 request bytes of one op."""
    body = json.dumps(op["body"]).encode("utf-8")
    head = (f"POST {op['path']} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("ascii") + body


class Connection:
    """One keep-alive client connection."""

    def __init__(self, port):
        self.port = port
        self.sock = None
        self.reader = None
        self.reconnects = 0
        #: CPU seconds this connection's thread spent.
        self.cpu = 0.0

    def _open(self):
        self.sock = socket.create_connection(("127.0.0.1", self.port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(REPLY_TIMEOUT)
        self.reader = self.sock.makefile("rb")

    def close(self):
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None

    def request(self, raw):
        """Send one request; return ``(status, body)``."""
        started = time.thread_time()
        if self.sock is None:
            self._open()
        self.sock.sendall(raw)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        keep = True
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                keep = False
        body = self.reader.read(length)
        if not keep:
            self.close()
            self.reconnects += 1
        self.cpu += time.thread_time() - started
        return status, body

    def get(self, path):
        return self.request(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "\r\n".encode("ascii"))


def closed_loop(port, requests):
    """Replay every encoded request, in order, as one closed loop.

    Returns per-request records ``(index, latency_s, status, body)``,
    the elapsed seconds, reconnects and the generator's own CPU seconds.
    """
    connection = Connection(port)
    records = []
    started = time.perf_counter()
    try:
        for index, raw in enumerate(requests):
            sent = time.perf_counter()
            try:
                status, body = connection.request(raw)
            except (ConnectionError, OSError):
                connection.close()
                connection.reconnects += 1
                status, body = 0, b""
            records.append((index, time.perf_counter() - sent, status,
                            body))
        elapsed = time.perf_counter() - started
    finally:
        connection.close()
    return {"records": records, "elapsed": elapsed, "cpu": connection.cpu,
            "started": started, "reconnects": connection.reconnects}


class Server:
    """One ``sst serve`` child: spawn, wait for readiness, stop."""

    def __init__(self, argv, env, cwd, log_path):
        self.log = open(log_path, "wb")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True)
        self.port = None
        self._lines = []
        self._drain = threading.Thread(target=self._pump, daemon=True)
        self._drain.start()

    def _pump(self):
        for line in self.process.stderr:
            self.log.write(line)
            self._lines.append(line)

    def wait_ready(self):
        """Block until ``/readyz`` answers 200; return the spawn time."""
        limit = time.perf_counter() + READY_TIMEOUT
        while self.port is None:
            for line in list(self._lines):
                match = _LISTENING.search(line.decode("utf-8", "replace"))
                if match:
                    self.port = int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError("sst serve exited during start-up")
            if time.perf_counter() > limit:
                raise RuntimeError("sst serve did not report its port")
            time.sleep(0.002)
        probe = Connection(self.port)
        try:
            while True:
                try:
                    status, _ = probe.get("/readyz")
                except (ConnectionError, OSError):
                    probe.close()
                    status = 0
                if status == 200:
                    return
                if time.perf_counter() > limit:
                    raise RuntimeError("sst serve never became ready")
                time.sleep(0.002)
        finally:
            probe.close()

    def stop(self):
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        self._drain.join(STOP_TIMEOUT)
        self.log.close()
        return self.process.returncode
