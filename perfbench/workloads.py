"""The four closed-loop workloads.

Each workload owns its seeded inputs and oracles (made once per run, before
any timing), opens its connections against a running server, and drives one
closed loop per connection: the next request goes out only after the previous
reply, and for reads the last row, has arrived.  Every answer is checked
against the oracle; a wrong answer or a raised error counts as a failure and
the loop goes on.
"""

from __future__ import annotations

import bisect
import random
import threading
from time import perf_counter_ns

import data

NS = 1e-9


class Tally:
    """Attempted and failed operations, shared by a run's threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: list[str] = []

    def attempt(self, n: int = 1) -> None:
        with self._lock:
            self.attempted += n

    def fail(self, what: str, mismatch: bool = False) -> None:
        with self._lock:
            self.failed += 1
            self.mismatches += mismatch
            if len(self.errors) < 20:
                self.errors.append(what)


class Op:
    """One timed operation of a closed loop."""

    __slots__ = ("kind", "label", "t0", "t1", "rows", "root")

    def __init__(self, kind, label, t0, t1, rows, root):
        self.kind, self.label = kind, label
        self.t0, self.t1, self.rows, self.root = t0, t1, rows, root


class Workload:
    """Base: inputs, connections, and the closed loop."""

    def __init__(self, cfg: dict, seed: int, tally: Tally) -> None:
        self.cfg = cfg
        self.tally = tally
        self.rec = None  # a tracing.Recorder during the traced phase
        self.conns: list = []
        self.ops: list[Op] = []
        self._ops_lock = threading.Lock()

    # -- to override ---------------------------------------------------------

    def database(self) -> dict:
        raise NotImplementedError

    def setup(self, host: str, port: int) -> None:
        raise NotImplementedError

    def loops(self) -> list:
        """One ``body(measured)`` callable per connection: one closed-loop turn."""
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks, after every loop has stopped."""

    # -- shared ----------------------------------------------------------------

    def connect(self, host: str, port: int):
        from repro.service import connect

        conn = connect(host, port, timeout=60.0)
        self.conns.append(conn)
        return conn

    def start(self, host: str, port: int) -> None:
        """Fresh connections and per-run state against a just-started server."""
        self.ops = []
        self.conns = []
        self.setup(host, port)

    def warm(self, turns: int) -> None:
        """Untimed turns after set-up, before the measured window."""
        self.run_loops(float("inf"), measured=False, limit=turns)

    def fresh_ms(self) -> list[float]:
        """Commit-to-notification latencies (only view-churn has them)."""
        return []

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []

    def run_loops(self, deadline_ns: int, measured: bool, limit=None) -> None:
        """Run every connection's loop until the deadline or ``limit`` turns."""

        def loop(body):
            n = 0
            while perf_counter_ns() < deadline_ns and (limit is None or n < limit):
                body(measured)
                n += 1

        threads = [threading.Thread(target=loop, args=(body,), daemon=True)
                   for body in self.loops()]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def step(self, kind: str, label: str, op, check, measured: bool):
        """Run one operation: time it, check it, record it.  Never raises."""
        self.tally.attempt()
        root = None
        t0 = perf_counter_ns()
        try:
            if self.rec is not None and measured:
                with self.rec.root() as span:
                    out = op()
                root = span[0]
            else:
                out = op()
        except Exception as exc:  # the loop must go on; the failure is counted
            self.tally.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        t1 = perf_counter_ns()
        problem = check(out)
        if problem:
            self.tally.fail(f"{kind}: {problem}", mismatch=True)
        if measured:
            rows = len(out) if isinstance(out, list) else 0
            with self._ops_lock:
                self.ops.append(Op(kind, label, t0, t1, rows, root))
        return out


def _expect(rows: list, want) -> str:
    got = frozenset(rows)
    if got != want:
        return f"{len(got)} rows != oracle {len(want)} rows"
    if len(rows) != len(got):
        return "duplicate rows"
    return ""


def _graph(cfg: dict, rng: random.Random) -> list:
    return data.seeded_graph(rng, **cfg["graph"])


def _reach_query():
    from repro.api import Q

    return Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))


class ReachPrepared(Workload):
    def __init__(self, cfg, seed, tally):
        super().__init__(cfg, seed, tally)
        rng = random.Random(f"reach-prepared/{seed}")
        self.edges = _graph(cfg, rng)
        self.tc = data.closure(self.edges)
        self.src_seeds = [rng.random() for _ in range(cfg["connections"])]

    def database(self):
        return {"name": "reach", "mutable": False,
                "collections": {"edges": self.edges}}

    def setup(self, host, port):
        self.stmts = []
        for _ in range(self.cfg["connections"]):
            s = self.connect(host, port).session()
            self.stmts.append(s.prepare(_reach_query()))
        self.rngs = [random.Random(x) for x in self.src_seeds]

    def loops(self):
        return [self._body(stmt, rng) for stmt, rng in zip(self.stmts, self.rngs)]

    def _body(self, stmt, rng):
        n = self.cfg["graph"]["n"]

        def body(measured):
            src = rng.randrange(n)
            want = data.reach_from(self.tc, src)
            self.step("read", "reach", lambda: stmt.execute(src=src).fetchall(),
                      lambda rows: _expect(rows, want), measured)
        return body


class AdhocAuto(Workload):
    FAMILIES = ("reach", "two_hop", "select_project", "unnest", "parity")

    def __init__(self, cfg, seed, tally):
        super().__init__(cfg, seed, tally)
        rng = random.Random(f"adhoc-auto/{seed}")
        self.n = cfg["graph"]["n"]
        self.edges = _graph(cfg, rng)
        self.tc = data.closure(self.edges)
        self.hop2 = data.two_hop(self.edges)
        self.bits = data.seeded_bits(rng, cfg["bits"])
        self.stream_seed = rng.random()

    def database(self):
        return {"name": "adhoc", "mutable": False, "collections": {
            "edges": self.edges,
            "adj": data.adjacency(self.n, self.edges),
            "bits": self.bits,
        }}

    def setup(self, host, port):
        self.session = self.connect(host, port).session(backend="auto")
        self.rng = random.Random(self.stream_seed)
        self.block: list = []

    def next_query(self):
        """(family, a freshly built fluent query, its oracle rows)."""
        from repro.api import Q
        from repro.relational.queries import parity_dcr

        if not self.block:
            self.block = [f for f in self.FAMILIES for _ in range(self.cfg["block"][f])]
            self.rng.shuffle(self.block)
        family = self.block.pop()
        k = self.rng.randrange(self.n)
        edges = Q.coll("edges")
        if family == "reach":
            return family, edges.fix().where(lambda e: e.fst == k), data.reach_from(self.tc, k)
        if family == "two_hop":
            q = edges.compose(Q.coll("edges")).where(lambda e: e.fst == k)
            return family, q, frozenset(p for p in self.hop2 if p[0] == k)
        if family == "select_project":
            q = edges.where(lambda e: e.snd == k).map(lambda e: e.fst)
            return family, q, frozenset(a for a, b in self.edges if b == k)
        if family == "unnest":
            q = Q.coll("adj").unnest().where(lambda e: e.snd == k)
            return family, q, frozenset(p for p in self.edges if p[1] == k)
        k = self.rng.randrange(len(self.bits))
        q = Q.coll("bits").where(lambda b: b.fst != k).pipe(parity_dcr())
        rest = [b for i, b in enumerate(self.bits) if i != k]
        return family, q, frozenset([data.parity(rest)])

    def loops(self):
        def body(measured):
            family, q, want = self.next_query()
            self.step("read", family, lambda: self.session.execute(q).fetchall(),
                      lambda rows: _expect(rows, want), measured)
        return [body]


class ClosureBatch(Workload):
    """Prepared full closures over several seeded graphs, plus dcr parity.

    Each run cycles over ``graphs`` independently drawn graphs (collections
    ``edges0``, ``edges1``, ...), so the cost of tc_dcr and tc_logloop,
    which depends on a graph's shape beyond its closure size, is averaged
    over several shapes within every run rather than fixed by one per seed.
    """

    STYLES = ("tc_dcr", "tc_logloop", "tc_sri", "parity_dcr")

    def __init__(self, cfg, seed, tally):
        super().__init__(cfg, seed, tally)
        rng = random.Random(f"closure-batch/{seed}")
        self.graphs = [_graph(cfg, rng) for _ in range(cfg["graphs"])]
        self.bits = data.seeded_bits(rng, cfg["bits"])
        parity = frozenset([data.parity(self.bits)])
        self.want = {}
        for k, edges in enumerate(self.graphs):
            tc = data.closure(edges)
            self.want.update({(style, k): tc for style in self.STYLES[:3]})
            self.want[("parity_dcr", k)] = parity
        self.stream_seed = rng.random()

    def database(self):
        cols = {f"edges{k}": edges for k, edges in enumerate(self.graphs)}
        cols["bits"] = self.bits
        return {"name": "closure", "mutable": False, "collections": cols}

    def setup(self, host, port):
        from repro.relational.queries import parity_query, query_library

        s = self.connect(host, port).session()
        chunk = self.cfg["chunk"]
        parity = s.prepare(parity_query("bits", "dcr"), chunk=chunk)
        self.stmts = {}
        for k in range(len(self.graphs)):
            lib = query_library(f"edges{k}")
            for style in self.STYLES[:3]:
                self.stmts[(style, k)] = s.prepare(lib[style], chunk=chunk)
            self.stmts[("parity_dcr", k)] = parity
        self.rng = random.Random(self.stream_seed)
        self.block: list = []

    def warm(self, turns):
        for key, stmt in self.stmts.items():  # each statement's first execution
            self.step("read", key[0], lambda: stmt.execute().fetchall(),
                      lambda rows: _expect(rows, self.want[key]), False)
        super().warm(turns)

    def loops(self):
        def body(measured):
            if not self.block:
                self.block = [key for key in self.stmts
                              for _ in range(self.cfg["block"][key[0]])]
                self.rng.shuffle(self.block)
            key = self.block.pop()
            stmt, want = self.stmts[key], self.want[key]
            self.step("read", key[0], lambda: stmt.execute().fetchall(),
                      lambda rows: _expect(rows, want), measured)
        return [body]


class ViewChurn(Workload):
    """A writer and a reader connection over a maintained, subscribed TC view.

    The writer's batches come from ``mixed_update_stream`` on a shadow
    database held by the benchmark.  Each batch is applied and then reverted
    as four writes (delete D, insert I, delete I, insert D), so the graph
    returns to its seeded state every four writes.  Every write changes the
    database, so the TC view pushes exactly one notification per write; the
    k-th notification therefore answers the k-th write, and its content is
    checked against the oracle's closure delta.
    """

    def __init__(self, cfg, seed, tally):
        super().__init__(cfg, seed, tally)
        from repro.api import Database
        from repro.objects.values import from_python, to_python
        from repro.workloads.streams import mixed_update_stream

        rng = random.Random(f"view-churn/{seed}")
        self.n = cfg["graph"]["n"]
        self.edges = _graph(cfg, rng)
        shadow = Database("shadow", mutable=True).register(
            "edges", from_python(set(self.edges)))
        stream = mixed_update_stream(
            shadow, churn=cfg["churn"], insert_ratio=cfg["insert_ratio"],
            seed=rng.randrange(2**31), domain=self.n)
        # Write program: (op, rows, state after).  States are edge sets.
        base = frozenset(self.edges)
        self.states = [base]
        self._state_ids = {base: 0}
        self.program = []
        for _ in range(cfg["batches"]):
            cs = stream.next_changeset()["edges"]
            ins = [to_python(v) for v in cs.inserts]
            dels = [to_python(v) for v in cs.deletes]
            state = base
            for op, rows in (("delete", dels), ("insert", ins),
                             ("delete", ins), ("insert", dels)):
                if not rows:
                    continue
                state = state - set(rows) if op == "delete" else state | set(rows)
                self.program.append((op, rows, self._state_id(state)))
        self._tcs: dict[int, frozenset] = {}
        self.src_seed = rng.random()

    def _state_id(self, state: frozenset) -> int:
        if state not in self._state_ids:
            self._state_ids[state] = len(self.states)
            self.states.append(state)
        return self._state_ids[state]

    def tc(self, state: int) -> frozenset:
        found = self._tcs.get(state)
        if found is None:
            found = self._tcs[state] = data.closure(self.states[state])
        return found

    def database(self):
        return {"name": "churn", "mutable": True, "collections": {"edges": self.edges}}

    def setup(self, host, port):
        from repro.api import Q

        writer = self.connect(host, port).session()
        reader = self.connect(host, port).session()
        edges = Q.coll("edges")
        self.hop2_view = writer.materialize(edges.compose(Q.coll("edges")),
                                            name="two-hop", subscribe=False)
        self.tc_view = reader.materialize(edges.fix(), name="tc", subscribe=True)
        self.reach = reader.prepare(_reach_query())
        self.writer = writer
        self.version0 = self.conns[0].status()["db_version"]
        self.rng = random.Random(self.src_seed)
        self.writes: list = []  # (t_send, t_recv or None, state after, measured)
        self.reads: list = []  # (t0, t1, src, rows)
        self.notes: list = []  # (t_recv, ViewChange)
        self.deletes_misreported = 0
        self.state = 0
        self._pos = 0
        self._stop = threading.Event()
        self._listener = threading.Thread(target=self._listen, daemon=True)
        self._listener.start()

    def _listen(self) -> None:
        from repro.service import ServiceTimeout

        while not self._stop.is_set() or self.tc_view.pending_notifications():
            try:
                change = self.tc_view.notifications(timeout=0.05)
            except ServiceTimeout:
                continue
            self.notes.append((perf_counter_ns(), change))

    def _write(self, measured: bool) -> None:
        op, rows, state = self.program[self._pos % len(self.program)]
        entry = [perf_counter_ns(), None, state, measured]
        self.writes.append(entry)
        version = self.version0 + len(self.writes)

        def check(reply) -> str:
            if reply["version"] != version:
                return f"version {reply['version']} after write, expected {version}"
            if op == "insert" and reply["applied"] != len(rows):
                return f"insert applied {reply['applied']} of {len(rows)} rows"
            if op == "delete" and reply["applied"] != len(rows):
                # Known defect: delete replies count inserts.  Deletes are
                # verified through the views and the version instead.
                self.deletes_misreported += 1
            return ""

        call = self.writer.insert if op == "insert" else self.writer.delete
        if self.step("write", op, lambda: call("edges", rows), check, measured) is None:
            # Not committed (or not known to be): retry the same step, so the
            # program and the server stay in step if the commit did not land.
            self.writes.pop()
            return
        entry[1] = perf_counter_ns()
        self.state = state
        self._pos += 1
        if self._pos % (4 * self.cfg["check_every"]) == 0:
            self._check_views()

    def _check_views(self) -> None:
        self.tally.attempt()
        try:
            got = self.hop2_view.rows()
        except Exception as exc:
            self.tally.fail(f"two-hop view: {type(exc).__name__}: {exc}")
            return
        problem = _expect(list(got), data.two_hop(self.states[self.state]))
        if problem:
            self.tally.fail(f"two-hop view: {problem}", mismatch=True)

    def _read(self, measured: bool) -> None:
        src = self.rng.randrange(self.n)
        t0 = perf_counter_ns()
        rows = self.step("read", "reach", lambda: self.reach.execute(src=src).fetchall(),
                         lambda rows: "", measured)
        if rows is not None:
            self.reads.append((t0, perf_counter_ns(), src, rows))

    def loops(self):
        return [self._write, self._read]

    def close(self) -> None:
        self._stop.set()
        self._listener.join(timeout=10)
        super().close()

    def fresh_ms(self) -> list[float]:
        """Per measured write: send -> its notification on the reader."""
        out = []
        for (t_send, _, _, measured), (t_recv, _) in zip(self.writes, self.notes):
            if measured:
                out.append((t_recv - t_send) * NS * 1e3)
        return out

    def finish(self) -> None:
        wait_until = perf_counter_ns() + 10 * 10**9
        while len(self.notes) < len(self.writes) and perf_counter_ns() < wait_until:
            self._stop.wait(0.01)
        self._stop.set()
        self._listener.join(timeout=10)
        # Reads: the answer must match a state that was live at some point
        # during the read.  Writes are sequential, so the states in play are
        # those after the last write acknowledged before the read began up
        # to the last write sent before it ended.
        sends = [w[0] for w in self.writes]
        acks = [w[1] for w in self.writes]
        for t0, t1, src, rows in self.reads:
            lo, hi = bisect.bisect_left(acks, t0), bisect.bisect_left(sends, t1)
            states = {0 if i == 0 else self.writes[i - 1][2]
                      for i in range(lo, hi + 1)}
            got = frozenset(rows)
            if not any(got == data.reach_from(self.tc(s), src) for s in states):
                self.tally.fail(f"read from {src}: matches no live state",
                                mismatch=True)
        # Notifications: one per write, in commit order, carrying the
        # closure delta of that write.
        self.tally.attempt(len(self.writes))
        if len(self.notes) != len(self.writes):
            self.tally.fail(f"{len(self.notes)} notifications for "
                            f"{len(self.writes)} writes", mismatch=True)
        prev = 0
        for (_, _, state, _), (_, change) in zip(self.writes, self.notes):
            before, after = self.tc(prev), self.tc(state)
            if (frozenset(change.inserted) != after - before
                    or frozenset(change.deleted) != before - after
                    or change.size != len(after)):
                self.tally.fail("notification does not match the closure delta",
                                mismatch=True)
            prev = state
        # Final state: both views against a cold recompute.
        self._check_views()
        self.tally.attempt()
        problem = _expect(list(self.tc_view.rows()), self.tc(self.state))
        if problem:
            self.tally.fail(f"tc view: {problem}", mismatch=True)


WORKLOADS = {
    "reach-prepared": ReachPrepared,
    "adhoc-auto": AdhocAuto,
    "view-churn": ViewChurn,
    "closure-batch": ClosureBatch,
}
