"""Statistics, counter deltas and the traced per-layer breakdown."""

from __future__ import annotations

import statistics

MS = 1e-6  # ns -> ms

#: The layers the breakdown reports, in call order from the client inward.
LAYERS = (
    "service.client", "service.protocol", "service.server", "nra.parser", "api",
    "engine.lock_wait", "engine", "engine.rewrite", "engine.router",
    "engine.vectorized", "engine.memo", "engine.incremental", "objects.encoding",
)
BACKENDS = ("vectorized", "memo", "reference", "parallel")


def tail(xs: list, pct: float) -> tuple[float, int]:
    """(value, samples beyond it) of the tail percentile (linear interpolation)."""
    if len(xs) == 1:
        return xs[0], 0
    value = statistics.quantiles(xs, n=100, method="inclusive")[int(pct) - 1]
    return value, sum(1 for x in xs if x > value)


def median(xs: list) -> float:
    return statistics.median(xs) if xs else 0.0


# -- counters scraped through the public wire ops ---------------------------------

def scrape(conn) -> dict:
    """Counters from the ``metrics``, ``status`` and ``sessions`` ops."""
    counters = dict(conn.metrics()["metrics"]["counters"])
    router = conn.status().get("router") or {}
    for backend, n in (router.get("backends") or {}).items():
        counters[f"router_templates.{backend}"] = n
    for row in conn.sessions():
        for key, value in row["stats"].items():
            name = f"session.{key}"
            counters[name] = counters.get(name, 0) + value
    return counters


def delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


# -- the traced breakdown -------------------------------------------------------

class Tree:
    """Client and server spans joined into one tree per operation."""

    def __init__(self, client: dict, server: dict) -> None:
        self.nodes: dict = {}
        self.children: dict = {}
        self.leaves: dict = {}  # span key -> {leaf name: summed ns}
        for proc, dump in (("c", client), ("s", server)):
            for sid, parent, name, t0, t1, req in dump["spans"]:
                key = (proc, sid)
                self.nodes[key] = [(proc, parent) if parent else None, name, t0, t1,
                                   tuple(req) if req else None]
            for sid, name, ns in dump["leaves"]:
                self.leaves.setdefault((proc, sid), {})[name] = ns
        # A client request span takes the wire key of the frame it encoded.
        requests = {}
        for key, (parent, name, _, _, req) in self.nodes.items():
            if key[0] == "c" and name == "encode_frame" and req and parent:
                p = self.nodes.get(parent)
                if p is not None and p[1] == "RemoteConnection.request":
                    requests[req] = parent
                    p[4] = req
        # Spans recorded outside any parent context (server tasks, the
        # client's reader thread) hang under the request that sent the frame.
        for key, node in self.nodes.items():
            if node[0] is None and node[4] is not None:
                node[0] = requests.get(node[4])
        for key, node in self.nodes.items():
            if node[0] is not None:
                self.children.setdefault(node[0], []).append(key)

    def self_ns(self, key) -> int:
        _, _, t0, t1, _ = self.nodes[key]
        covered, end = 0, t0
        kids = sorted((max(self.nodes[k][2], t0), min(self.nodes[k][3], t1))
                      for k in self.children.get(key, ()))
        for a, b in kids:
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        return (t1 - t0) - covered - sum(self.leaves.get(key, {}).values())

    def walk(self, root):
        stack = [root]
        while stack:
            key = stack.pop()
            yield key
            stack.extend(self.children.get(key, ()))


def breakdown(ops: list, client: dict, server: dict) -> dict:
    """Per-operation self time by layer, plus the named layer metrics.

    ``other`` is the round trip minus every attributed self time, so the
    layer self times and ``other`` add up to the round trip by construction;
    ``overlap_ms`` is how far the attributed times overrun the root's own
    uncovered time, which is zero when no two spans double count.
    """
    from tracing import LAYERS as NAME_LAYER

    tree = Tree(client, server)
    holds: dict = {}
    for src, rows in (("c", client["lock_holds"]), ("s", server["lock_holds"])):
        for sid, ns in rows:
            holds[(src, sid)] = holds.get((src, sid), 0) + ns
    frame_bytes: dict = {}
    for rows in (client["frame_bytes"], server["frame_bytes"]):
        for req, n in rows:
            if req:
                frame_bytes[tuple(req)] = frame_bytes.get(tuple(req), 0) + n

    per_op = []
    for op in ops:
        root = ("c", op.root)
        if op.root is None or root not in tree.nodes:
            continue
        node = tree.nodes[root]
        rt = node[3] - node[2]
        layer_ns = {layer: 0 for layer in LAYERS}
        names: dict = {}
        hold = nbytes = queue_wait = requests = 0
        decode_end: dict = {}
        for key in tree.walk(root):
            parent, name, t0, t1, req = tree.nodes[key]
            for leaf, ns in tree.leaves.get(key, {}).items():
                layer_ns[NAME_LAYER[leaf]] += ns
                names[leaf] = names.get(leaf, 0) + ns
            if key == root:
                continue
            own = tree.self_ns(key)
            layer_ns[NAME_LAYER[name]] += own
            names[name] = names.get(name, 0) + own
            hold += holds.get(key, 0)
            if name == "RemoteConnection.request" and req:
                nbytes += frame_bytes.get(req, 0)
            if key[0] == "s" and name == "decode_body" and req:
                decode_end[req] = t1
        for key in tree.walk(root):
            parent, name, t0, t1, req = tree.nodes[key]
            if name == "QueryServer._serve_request" and req in decode_end:
                entry = min((tree.nodes[k][2] for k in tree.walk(key)
                             if NAME_LAYER[tree.nodes[k][1]] == "api"
                             and tree.nodes[k][1] not in ("Query.elaborate", "lift_constants")),
                            default=None)
                if entry is not None:
                    queue_wait += entry - decode_end[req]
            if name == "RemoteConnection.request" and key[0] == "c":
                requests += 1
        attributed = sum(layer_ns.values())
        per_op.append({
            "kind": op.kind,
            "rt": rt,
            "layers": layer_ns,
            "names": names,
            "other": rt - attributed,
            "overlap": tree.self_ns(root) - (rt - attributed),
            "hold": hold,
            "bytes": nbytes,
            "queue_wait": queue_wait,
            "requests": requests,
        })
    return per_op


def layer_metrics(per_op: list, routes: dict) -> dict:
    """The per-layer metrics of the traced phase (values only)."""
    reads = [o for o in per_op if o["kind"] == "read"] or per_op
    writes = [o for o in per_op if o["kind"] == "write"]

    def med(rows, fn):
        return median([fn(o) for o in rows]) if rows else 0.0

    def names_ms(rows, *names):
        return med(rows, lambda o: sum(o["names"].get(n, 0) for n in names) * MS)

    total_rt = sum(o["rt"] for o in per_op) or 1
    out = {}
    for layer in LAYERS:
        if layer != "engine.lock_wait":
            out[f"{layer}.self_ms"] = med(reads, lambda o: o["layers"][layer] * MS)
        out[f"{layer}.share"] = sum(o["layers"][layer] for o in per_op) / total_rt
    out["other.share"] = sum(o["other"] for o in per_op) / total_rt
    out["engine.lock_wait_ms"] = med(reads, lambda o: o["layers"]["engine.lock_wait"] * MS)
    out["engine.lock_hold_ms"] = med(reads, lambda o: o["hold"] * MS)
    out["vectorized.execute_ms"] = names_ms(reads, "VectorizedEvaluator.run")
    out["vectorized.compile_ms"] = names_ms(reads, "VectorizedEvaluator.compile")
    out["parser.parse_ms"] = names_ms(reads, "parse")
    out["rewrite.ms"] = names_ms(reads, "Rewriter.rewrite")
    out["router.route_ms"] = names_ms(reads, "Router.route", "Router.record_runtime")
    out["client.ship_ms"] = names_ms(reads, "Query.elaborate", "lift_constants", "pretty")
    out["memo.execute_ms"] = names_ms(reads, "MemoEvaluator.run")
    out["incremental.apply_ms"] = names_ms(writes, "MaterializedView.apply")
    out["catalog.commit_ms"] = names_ms(writes, "Database.insert", "Database.delete",
                                        "Database.apply")
    out["encoding.encode_ms"] = names_ms(reads, "to_jsonable")
    out["client.decode_ms"] = names_ms(reads, "from_jsonable")
    out["protocol.codec_ms"] = names_ms(reads, "encode_frame", "decode_body")
    out["protocol.frame_bytes"] = med(reads, lambda o: o["bytes"])
    out["server.queue_wait_ms"] = med(reads, lambda o: o["queue_wait"] * MS)
    out["client.roundtrip_ms"] = med(reads, lambda o: o["rt"] * MS)
    out["other_ms"] = med(reads, lambda o: o["other"] * MS)
    out["trace.overlap_ms"] = med(per_op, lambda o: o["overlap"] * MS)
    n_routes = sum(routes.values())
    for b in BACKENDS:
        out[f"router.backend_share.{b}"] = routes.get(b, 0) / n_routes if n_routes else 0.0
    return out


def mean_decomposition(per_op: list) -> dict:
    """Mean self time per layer and ``other``; sums to the mean round trip."""
    n = len(per_op) or 1
    out = {layer: sum(o["layers"][layer] for o in per_op) * MS / n for layer in LAYERS}
    out["other"] = sum(o["other"] for o in per_op) * MS / n
    out["client.roundtrip"] = sum(o["rt"] for o in per_op) * MS / n
    return out
