"""Benchmark-owned call shims: spans around the public functions of each layer.

Installed only for a traced run, in the client process (:func:`install_client`)
and in the server process by the launcher (:func:`install_server`).  Nothing in
``src/`` knows about them; an untraced run imports none of this.

A span is ``[id, parent, name, t0, t1, req]``.  Times are
``time.perf_counter_ns`` readings, which on Linux come from ``CLOCK_MONOTONIC``
and are therefore comparable between the client and server processes on one
machine.  ``req`` is the wire correlation key ``(client port, frame id)``: it
links a server-side span, or a client span recorded on the connection's reader
thread, to the client request span that sent the frame.  Parents inside one
process come from a context variable, which asyncio tasks and the server's
executor hop (``contextvars.copy_context``) carry along.

Spans stay in memory; the server launcher writes them out when asked at the
end of the run.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import threading
from time import perf_counter_ns

#: Span name -> layer.  Names are the wrapped functions.
LAYERS = {
    "RemoteConnection.request": "service.client",
    "RemoteSession.execute": "service.client",
    "RemoteSession.insert": "service.client",
    "RemoteSession.delete": "service.client",
    "RemotePreparedStatement.execute": "service.client",
    "RemoteCursor.fetchall": "service.client",
    "encode_frame": "service.protocol",
    "decode_body": "service.protocol",
    "QueryServer._serve_request": "service.server",
    "parse": "nra.parser",
    "pretty": "nra.parser",
    "Query.elaborate": "api",
    "lift_constants": "api",
    "Session.execute": "api",
    "Session.prepare_template": "api",
    "Database.insert": "api",
    "Database.delete": "api",
    "Database.apply": "api",
    "engine.lock_wait": "engine.lock_wait",
    "Engine.run": "engine",
    "Rewriter.rewrite": "engine.rewrite",
    "Router.route": "engine.router",
    "Router.record_runtime": "engine.router",
    "VectorizedEvaluator.run": "engine.vectorized",
    "VectorizedEvaluator.compile": "engine.vectorized",
    "MemoEvaluator.run": "engine.memo",
    "MaterializedView.apply": "engine.incremental",
    "to_jsonable": "objects.encoding",
    "from_jsonable": "objects.encoding",
}

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_CONN_PORT: contextvars.ContextVar = contextvars.ContextVar("perfbench_conn", default=None)


class Recorder:
    """Holds the spans of one process, plus the side measurements."""

    def __init__(self) -> None:
        self.spans: list = []
        self.lock_holds: list = []  # (span id, hold ns) per outermost engine-lock hold
        self.routes: dict = {}  # backend -> Router.route decisions returned
        self.frame_bytes: list = []  # (req, bytes) per encoded frame
        self.leaves: dict = {}  # (parent span id, name) -> summed ns
        self._ids = itertools.count(1)
        self._in_leaf = threading.local()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[sid, name, ns] for (sid, name), ns in self.leaves.items()],
            "lock_holds": self.lock_holds,
            "routes": self.routes,
            "frame_bytes": self.frame_bytes,
        }

    @contextlib.contextmanager
    def root(self):
        """The ``client.roundtrip`` span of one closed-loop operation."""
        sp = [next(self._ids), None, "client.roundtrip", perf_counter_ns(), 0, None]
        token = _CURRENT.set(sp)
        try:
            yield sp
        finally:
            sp[4] = perf_counter_ns()
            _CURRENT.reset(token)
            self.spans.append(sp)

    def wrap(self, name: str, fn, req_of=None):
        """A synchronous shim recording one span per outermost call of ``fn``."""
        ids, spans = self._ids, self.spans

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = _CURRENT.get()
            if parent is not None and parent[2] == name:
                return fn(*args, **kwargs)  # recursion: one span per outer call
            sp = [next(ids), parent[0] if parent else None, name, 0, 0, None]
            token = _CURRENT.set(sp)
            sp[3] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                sp[4] = perf_counter_ns()
                _CURRENT.reset(token)
                spans.append(sp)
            if req_of is not None:
                sp[5] = req_of(args, out)
            return out

        return shim

    def wrap_async(self, name: str, fn, req_of=None):
        """The coroutine form of :meth:`wrap`; ``req_of`` sees the arguments only."""
        ids, spans = self._ids, self.spans

        @functools.wraps(fn)
        async def shim(*args, **kwargs):
            parent = _CURRENT.get()
            sp = [next(ids), parent[0] if parent else None, name, 0, 0, None]
            if req_of is not None:
                sp[5] = req_of(args, None)
            token = _CURRENT.set(sp)
            sp[3] = perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                sp[4] = perf_counter_ns()
                _CURRENT.reset(token)
                spans.append(sp)

        return shim

    def wrap_leaf(self, name: str, fn):
        """A cheaper shim for per-row leaf calls: time summed per parent span.

        Only for functions that call no other shimmed function, so their
        time lies outside every child span of the parent.
        """
        leaves, flag = self.leaves, self._in_leaf

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = _CURRENT.get()
            if parent is None or getattr(flag, "on", False):
                return fn(*args, **kwargs)
            flag.on = True
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (parent[0], name)
                leaves[key] = leaves.get(key, 0) + perf_counter_ns() - t0
                flag.on = False

        return shim


class TimedLock:
    """The engine's reentrant lock, timed where the program itself takes it.

    Replaces ``Engine._lock`` in the traced server process, so every
    ``with engine.lock`` block of the program keeps its place and its extent.
    Each outermost acquisition by a thread records an ``engine.lock_wait``
    span under the current span, and its hold time (acquired to released)
    beside the spans, keyed by the same parent.  Acquisitions outside any
    span (status and metrics scrapes) are not recorded.
    """

    def __init__(self, rec: Recorder, lock) -> None:
        self._rec = rec
        self._lock = lock
        self._tls = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        depth = getattr(self._tls, "depth", 0)
        t0 = perf_counter_ns()
        ok = self._lock.acquire(blocking, timeout)
        if not ok:
            return False
        self._tls.depth = depth + 1
        if depth == 0:
            t1 = perf_counter_ns()
            parent = _CURRENT.get()
            self._tls.held = (parent, t1)
            if parent is not None:
                self._rec.spans.append(
                    [next(self._rec._ids), parent[0], "engine.lock_wait", t0, t1, None])
        return True

    def release(self) -> None:
        self._tls.depth -= 1
        if self._tls.depth == 0:
            parent, t1 = self._tls.held
            if parent is not None:
                self._rec.lock_holds.append((parent[0], perf_counter_ns() - t1))
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def _patch_method(rec: Recorder, cls, attr: str) -> None:
    setattr(cls, attr, rec.wrap(f"{cls.__name__}.{attr}", getattr(cls, attr)))


def _frame_req(port_of):
    def req_of(args, out):
        frame = out if isinstance(out, dict) else args[0]
        rid = frame.get("id") if isinstance(frame, dict) else None
        port = port_of()
        return None if rid is None or port is None else [port, rid]
    return req_of


def install_common(rec: Recorder, port_of) -> None:
    """The frame codec, which both processes run."""
    from repro.service import protocol

    req_of = _frame_req(port_of)
    encode = rec.wrap("encode_frame", protocol.encode_frame, req_of=req_of)

    def encode_counted(payload, *a, **k):
        out = encode(payload, *a, **k)
        rec.frame_bytes.append((req_of((payload,), None), len(out)))
        return out

    protocol.encode_frame = encode_counted
    protocol.decode_body = rec.wrap("decode_body", protocol.decode_body, req_of=req_of)


def install_client(rec: Recorder) -> None:
    """Shim the SDK, the client-side shipping path and the row decoder."""
    from repro.api import query as api_query
    from repro.objects import encoding
    from repro.service import client

    tls = threading.local()

    def port_of():
        return getattr(tls, "port", None)

    install_common(rec, port_of)

    # The reader thread decodes responses; remember which connection it is
    # reading so decoded frames can be keyed by (port, id).
    read_frame = client.read_frame_sync

    def read_frame_keyed(sock, *a, **k):
        tls.port = sock.getsockname()[1]
        return read_frame(sock, *a, **k)

    client.read_frame_sync = read_frame_keyed

    request = client.RemoteConnection.request

    def request_keyed(self, op, *a, **k):
        tls.port = self._sock.getsockname()[1]
        return request(self, op, *a, **k)

    client.RemoteConnection.request = rec.wrap(
        "RemoteConnection.request", request_keyed
    )
    for cls, attr in (
        (client.RemoteSession, "execute"),
        (client.RemoteSession, "insert"),
        (client.RemoteSession, "delete"),
        (client.RemotePreparedStatement, "execute"),
        (client.RemoteCursor, "fetchall"),
        (api_query.Query, "elaborate"),
    ):
        _patch_method(rec, cls, attr)
    client.lift_constants = rec.wrap("lift_constants", client.lift_constants)
    client.pretty = rec.wrap("pretty", client.pretty)
    # RemoteCursor rows decode through a call-time import of this name.
    encoding.from_jsonable = rec.wrap_leaf("from_jsonable", encoding.from_jsonable)


def install_server(rec: Recorder) -> None:
    """Shim the server, api, engine and codec layers inside the server process."""
    # Modules by path: some of these names are shadowed by package re-exports.
    (catalog, session, engine_mod, memo, rewrite, router, view, executor, server) = (
        importlib.import_module(f"repro.{m}") for m in (
            "api.catalog", "api.session", "engine.engine", "engine.memo",
            "engine.rewrite", "engine.router", "engine.incremental.view",
            "engine.vectorized.executor", "service.server"))

    install_common(rec, _CONN_PORT.get)

    handle = server.QueryServer._handle_connection

    async def handle_keyed(self, reader, writer):
        # Every task this connection spawns (requests, the writer drain)
        # inherits the port, so server spans carry the client's wire key.
        _CONN_PORT.set(writer.get_extra_info("peername")[1])
        await handle(self, reader, writer)

    server.QueryServer._handle_connection = handle_keyed

    def serve_req(args, _out):
        frame = args[2]
        return [_CONN_PORT.get(), frame.get("id")]

    serve = rec.wrap_async(
        "QueryServer._serve_request", server.QueryServer._serve_request,
        req_of=serve_req,
    )
    server.QueryServer._serve_request = serve

    init = engine_mod.Engine.__init__

    def init_timed(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._lock = TimedLock(rec, self._lock)

    engine_mod.Engine.__init__ = init_timed

    route = router.Router.route

    def route_counted(self, *args, **kwargs):
        decision = route(self, *args, **kwargs)
        rec.routes[decision.backend] = rec.routes.get(decision.backend, 0) + 1
        return decision

    router.Router.route = rec.wrap("Router.route", route_counted)
    for cls, attr in (
        (session.Session, "execute"),
        (session.Session, "prepare_template"),
        (catalog.Database, "insert"),
        (catalog.Database, "delete"),
        (catalog.Database, "apply"),
        (engine_mod.Engine, "run"),
        (rewrite.Rewriter, "rewrite"),
        (router.Router, "record_runtime"),
        (executor.VectorizedEvaluator, "run"),
        (executor.VectorizedEvaluator, "compile"),
        (memo.MemoEvaluator, "run"),
        (view.MaterializedView, "apply"),
    ):
        _patch_method(rec, cls, attr)
    server.parse = rec.wrap("parse", server.parse)
    server.to_jsonable = rec.wrap_leaf("to_jsonable", server.to_jsonable)
    server.from_jsonable = rec.wrap_leaf("from_jsonable", server.from_jsonable)
