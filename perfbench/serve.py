"""Server launcher: one ``QueryServer`` process over the generated database.

Run by ``run.py``, never by hand::

    python3 perfbench/serve.py --trace 0|1 --src <checkout>/src

Protocol over the pipes (one JSON document per line):

* stdin line 1: the database, ``{"name", "mutable", "collections": {...}}``
  with ``edges*`` as ``[[u, v], ...]``, ``adj`` as ``[[u, [v, ...]], ...]``
  and ``bits`` as ``[true, false, ...]``;
* stdout: ``{"port": p}`` once the server accepts connections;
* stdin ``spans``: reply with the recorded spans (traced mode only);
* stdin EOF or ``stop``: stop the server and exit.

With ``--trace 1`` the launcher installs the benchmark's shims
(:mod:`tracing`) before the server is built; without it, it imports nothing
of the benchmark's and serves the program as shipped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def build_database(doc: dict):
    from repro.api import Database
    from repro.objects.types import BASE, ProdType, SetType
    from repro.objects.values import from_python
    from repro.relational.queries import tagged_boolean_set

    db = Database(doc["name"], mutable=doc["mutable"])
    for name, rows in doc["collections"].items():
        if name.startswith("edges"):
            db.register(name, from_python({tuple(e) for e in rows}),
                        type=SetType(ProdType(BASE, BASE)))
        elif name == "adj":
            db.register(name, from_python({(u, frozenset(vs)) for u, vs in rows}),
                        type=SetType(ProdType(BASE, SetType(BASE))))
        elif name == "bits":
            db.register(name, tagged_boolean_set(rows))
        else:
            raise ValueError(f"unknown collection {name!r}")
    return db


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    rec = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing

        rec = tracing.Recorder()
        tracing.install_server(rec)

    from repro.service import QueryServer

    doc = json.loads(sys.stdin.readline())
    server = QueryServer(db=build_database(doc))
    _, port = server.start_in_thread()
    print(json.dumps({"port": port}), flush=True)
    try:
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "stop":
                break
            if cmd == "spans" and rec is not None:
                print(json.dumps(rec.dump()), flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
