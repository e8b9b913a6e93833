"""Open-loop ``/delay`` load generator (stdlib only).

Traffic: table-mode NAND3 queries.  About 30% of requests are exact
repeats of a recent single query (response-cache hits), about 5% are
``{"queries": [...]}`` requests of 8 fresh queries (fanned out over the
server pool), and the rest are fresh single queries.  Requests are due
at a fixed rate, evenly spaced, and go out over a fixed number of
persistent connections; each is timed from its due time, so a stall
also delays the requests queued behind it.
"""

from __future__ import annotations

import bisect
import http.client
import json
import random
import socket
import threading
from time import perf_counter, sleep
from typing import Callable, List, NamedTuple, Optional

from common import finite_positive, request_body

#: The fixed open-loop rate (requests/s), well below capacity.
SERVE_RATE = 200.0
BATCH_SHARE = 0.05
REPEAT_SHARE = 0.30
BATCH_SIZE = 8
#: A repeat copies a single request between ``REPEAT_MIN_GAP`` and
#: ``REPEAT_MAX_GAP`` positions back: late enough that the original has
#: been answered, recent enough that the daemon's response cache (1024
#: entries by default) still holds it, so which requests hit depends only
#: on the traffic's structure, never on the query contents.
REPEAT_MIN_GAP = 16
REPEAT_MAX_GAP = 256


class Request(NamedTuple):
    body: bytes
    kind: str          # "single" | "repeat" | "batch"
    queries: tuple     # the query tuples the request carries


class Record(NamedTuple):
    due: float         # when the request was due
    free: float        # when a connection was free to take it
    sent: float        # when it was written
    done: float        # when the whole response was read
    status: int
    body: bytes


def build_requests(count: int, structure_seed: int,
                   fresh: Callable[[int], list]) -> List[Request]:
    """``count`` requests.  ``structure_seed`` fixes which are singles,
    repeats and batches; ``fresh(n)`` supplies the n fresh queries."""
    rng = random.Random(structure_seed)
    plan, singles, n_fresh = [], [], 0
    for i in range(count):
        u = rng.random()
        first = bisect.bisect_left(singles, i - REPEAT_MAX_GAP)
        last = bisect.bisect_right(singles, i - REPEAT_MIN_GAP)
        if u < BATCH_SHARE:
            plan.append(("batch", None))
            n_fresh += BATCH_SIZE
        elif u < BATCH_SHARE + REPEAT_SHARE and last > first:
            plan.append(("repeat", singles[rng.randrange(first, last)]))
        else:
            plan.append(("single", None))
            singles.append(i)
            n_fresh += 1
    queries = iter(fresh(n_fresh))
    requests: List[Request] = []
    for kind, source in plan:
        if kind == "repeat":
            requests.append(requests[source]._replace(kind="repeat"))
        elif kind == "batch":
            batch = tuple(next(queries) for _ in range(BATCH_SIZE))
            body = {"queries": [request_body(q) for q in batch]}
            requests.append(Request(json.dumps(body).encode(), kind, batch))
        else:
            query = next(queries)
            requests.append(Request(json.dumps(request_body(query)).encode(),
                                    kind, (query,)))
    return requests


class UnixConnection(http.client.HTTPConnection):
    """HTTP/1.1 over a unix-domain socket."""

    def __init__(self, path: str, timeout: float = 60.0) -> None:
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._path)
        self.sock = sock


def post(conn: http.client.HTTPConnection, path: str, body: bytes):
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def run_open_loop(socket_path: str, requests: List[Request], rate: float,
                  connections: int = 2) -> List[Optional[Record]]:
    """Send ``requests`` due ``1/rate`` apart; return one record each.

    Requests are taken in order by whichever connection is free first
    (a FIFO queue in front of ``connections`` servers).  A request that
    raises records status 0.
    """
    lock = threading.Lock()
    cursor = [0]
    records: List[Optional[Record]] = [None] * len(requests)
    start = perf_counter() + 0.02

    def sender() -> None:
        conn = UnixConnection(socket_path)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests):
                    return
                due = start + i / rate
                free = perf_counter()
                if free < due:
                    sleep(due - free)
                sent = perf_counter()
                try:
                    status, data = post(conn, "/delay", requests[i].body)
                except (OSError, http.client.HTTPException):
                    conn.close()
                    status, data = 0, b""
                records[i] = Record(due, free, sent, perf_counter(), status,
                                    data)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, name=f"loadgen-{k}")
               for k in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def served_failures(records, requests):
    """(failed count, [(query, report)] samples) for served responses."""
    failed, samples = 0, []
    for i, (record, request) in enumerate(zip(records, requests)):
        if record is None or record.status != 200:
            failed += 1
            continue
        try:
            document = json.loads(record.body)
            results = (document["results"] if request.kind == "batch"
                       else [document])
            good = len(results) == len(request.queries) and all(
                r["ok"] and finite_positive(float(r["result"]["delay"]),
                                            float(r["result"]["ttime"]))
                for r in results)
        except (ValueError, KeyError, TypeError):
            good = False
        if not good:
            failed += 1
        elif request.kind != "repeat" and i % 7 == 0:
            samples.extend((q, r["report"])
                           for q, r in zip(request.queries, results))
    return failed, samples
