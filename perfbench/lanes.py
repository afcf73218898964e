"""The benchmark's lanes: build a container, query it in process, serve
it over a socket, and the paper's decompress-then-query reference.

Every call into the program sits inside a span named after the layer
it enters (``core.compress``, ``encoding.encode``, ``queries.reach``,
``serving.request``...), so a traced run can split the time by layer.
"""

import multiprocessing
import os
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout

from repro import CompressedGraph, ShardedCompressedGraph, connect, serve
from repro.encoding.container import decode_sharded_container
from repro.serving import QueryResult
from repro.serving.codec import (
    decode_frame,
    encode_frame,
    requests_to_wire,
    results_to_wire,
)

from harness import children_peak_rss_mb, median, now, tail
from oracle import GraphOracle, adjacency_of, bfs_reach, fingerprint, \
    rpq_texts

POINT_KINDS = ("out", "in", "neighborhood", "degree")
#: Served requests that are not answered within this many seconds
#: count as failed.
SERVE_TIMEOUT_S = 30.0
#: Seconds a router process may take to start or to stop.
ROUTER_START_S = 60.0


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------
class Mix:
    """A seeded request generator over one graph's node IDs.

    ``weights`` maps ``point``/``reach``/``path``/``rpq`` to whole
    counts per deck: each deck of requests holds exactly that many of
    each, shuffled, so a short run still gets the stated mix.  Point
    lookups draw their node Zipf-skewed over the ``hot`` node list
    when one is given, else uniformly; pairs are always uniform.
    """

    def __init__(self, rng, nodes, label, weights, hot=None, zipf=1.1):
        self.rng = rng
        self.nodes = nodes
        self.patterns = rpq_texts(label)
        self.weights = weights
        self.deck = []
        self.hot = hot
        if hot:
            running = 0.0
            self.hot_cumulative = []
            for rank in range(len(hot)):
                running += 1.0 / (rank + 1) ** zipf
                self.hot_cumulative.append(running)

    def node(self):
        return self.rng.randint(1, self.nodes)

    def next(self):
        rng = self.rng
        if not self.deck:
            self.deck = [kind for kind, count in self.weights.items()
                         for _ in range(count)]
            rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind == "point":
            if not self.hot:
                node = self.node()
            else:
                node = rng.choices(self.hot,
                                   cum_weights=self.hot_cumulative)[0]
            return (rng.choice(POINT_KINDS), node)
        if kind == "rpq":
            return ("rpq", rng.choice(self.patterns), self.node(),
                    self.node())
        return (kind, self.node(), self.node())


def hot_set(rng, nodes, count):
    return rng.sample(range(1, nodes + 1), min(count, nodes))


def layer_of(kind):
    return "rpq" if kind == "rpq" else "queries"


#: Request kind -> the handle method that answers it (both
#: ``CompressedGraph`` and ``ShardedCompressedGraph`` have them all).
LOCAL_METHODS = {"out": "out", "in": "in_", "neighborhood": "neighborhood",
                 "degree": "degree", "reach": "reach", "path": "path",
                 "rpq": "rpq"}


def call_local(handle, request):
    return getattr(handle, LOCAL_METHODS[request[0]])(*request[1:])


def label_of(alphabet):
    label = alphabet.terminals()[0]
    return label, alphabet.name(label)


def check_answer(oracle, request, answer):
    if request[0] == "path":
        return oracle.path_ok(request[1], request[2], answer)
    return answer == oracle.answer(request)


# ----------------------------------------------------------------------
# Build: compress -> validate -> encode
# ----------------------------------------------------------------------
class Built:
    """One compressed corpus and what building it cost."""

    def __init__(self, name, graph, alphabet, handle, blob, times):
        self.name = name
        self.graph = graph
        self.alphabet = alphabet
        self.handle = handle
        self.blob = blob
        self.times = times                    # compress/validate/encode
        self.edges = graph.num_edges
        # Names excluded, as the paper counts bits; from here on
        # ``handle.sizes`` describes this container.
        self.bits = 8 * len(handle.to_bytes(include_names=False))
        self.stats = handle.stats
        self.grammar_size = handle.grammar.size

    @property
    def bpe(self):
        return self.bits / self.edges


def build(tracer, name, graph, alphabet):
    """What ``repro compress`` does: compress, validate, encode, with
    each step timed apart."""
    times = {}
    start = now()
    with tracer.span("core.compress"):
        handle = CompressedGraph.compress(graph, alphabet, validate=False)
    times["compress"] = now() - start
    start = now()
    with tracer.span("core.validate"):
        handle.grammar.validate()
    times["validate"] = now() - start
    start = now()
    with tracer.span("encoding.encode"):
        blob = handle.to_bytes()
    times["encode"] = now() - start
    return Built(name, graph, alphabet, handle, blob, times)


def build_sharded(tracer, graph, alphabet):
    """A 2-shard ``bfs`` build (validated, as ``repro compress`` does)
    and its container, the build timed as the partition layer."""
    start = now()
    with tracer.span("partition.compress_sharded"):
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, partitioner="bfs")
    seconds = now() - start
    with tracer.span("encoding.encode_sharded"):
        blob = handle.to_bytes()
    return handle, blob, seconds


def roundtrip_check(tracer, tally, built):
    """decode -> derive -> compare with the input; returns the decoded
    handle and its derived graph."""
    with tracer.span("encoding.decode"):
        decoded = CompressedGraph.from_bytes(built.blob)
    with tracer.span("core.derive"):
        derived = decoded.decompress()
    tally.check(fingerprint(derived) == fingerprint(built.graph),
                f"{built.name}: derived graph differs from the input")
    tally.check(built.stats.get("recount_passes") == 0,
                f"{built.name}: recount_passes="
                f"{built.stats.get('recount_passes')}")
    return decoded, derived


# ----------------------------------------------------------------------
# In-process queries
# ----------------------------------------------------------------------
class Latencies:
    """Request latencies (seconds) by request kind; ``None`` marks a
    request that was never sent."""

    def __init__(self, kinds=(), values=()):
        self.kinds = list(kinds)
        self.values = list(values)

    def extend(self, kinds, values):
        self.kinds += kinds
        self.values += values

    def pooled(self, kinds=None):
        return [value for kind, value in zip(self.kinds, self.values)
                if value is not None and (kinds is None or kind in kinds)]


class Replays(Latencies):
    """Latencies of one request list run several times from the same
    fresh state, each request keeping its fastest run.  For in-process
    work the runs differ only in how much other tenants of the machine
    disturbed them, and the fastest run is the least disturbed one."""

    def __init__(self, kinds):
        kinds = list(kinds)
        super().__init__(kinds, [None] * len(kinds))

    def add(self, latencies):
        self.values = [old if new is None else
                       new if old is None else min(old, new)
                       for old, new in zip(self.values, latencies)]


def run_local(tracer, handles, requests):
    """Closed loop, one request at a time.  ``requests`` holds
    ``(handle index, request)`` pairs.  Returns the latencies and the
    answers."""
    latencies, answers = [], []
    for index, request in requests:
        kind = request[0]
        start = now()
        with tracer.span(f"{layer_of(kind)}.{kind}"):
            answer = call_local(handles[index], request)
        latencies.append(now() - start)
        answers.append(answer)
    return latencies, answers


def check_answers(tally, oracles, requests, answers, names):
    for (index, request), answer in zip(requests, answers):
        tally.check(check_answer(oracles[index], request, answer),
                    f"{names[index]}: wrong answer to {request}")


def check_same(tally, first, again, what):
    """A replay must answer exactly as the first run did."""
    for want, got in zip(first, again):
        tally.check(got == want, f"{what}: replay answered {got!r}, "
                                 f"first run {want!r}")


def make_oracle(derived, alphabet):
    label, name = label_of(alphabet)
    return GraphOracle(derived, label, name)


# ----------------------------------------------------------------------
# The paper's reference: decompress-then-query vs query-the-grammar
# ----------------------------------------------------------------------
def paper_lane(tracer, built, rng, pairs=40):
    """Per-corpus ratios, each against a base measured in this run.

    * ``bpe``: container bits (names excluded) / input edges;
    * ``grammar_to_graph``: grammar size |G| / input graph size |g|;
    * ``reach_speedup``: (one decompression + one BFS) / one grammar
      ``reach``, medians over the same uniform pairs, grammar handle
      with its result cache off.
    """
    handle = CompressedGraph.from_bytes(built.blob, cache_size=0)
    with tracer.span("queries.warm"):
        handle.warm()
    decompress_times = []
    for _ in range(3):
        start = now()
        with tracer.span("core.derive"):
            derived = handle.decompress()
        decompress_times.append(now() - start)
    adjacency = adjacency_of(derived)
    nodes = handle.node_count()
    grammar_times, bfs_times = [], []
    agree = True
    for _ in range(pairs):
        source, target = rng.randint(1, nodes), rng.randint(1, nodes)
        start = now()
        with tracer.span("queries.reach"):
            answer = handle.reach(source, target)
        grammar_times.append(now() - start)
        start = now()
        expected = bfs_reach(adjacency, source, target)
        bfs_times.append(now() - start)
        agree = agree and answer == expected
    return {
        "bpe": built.bpe,
        "grammar_to_graph": built.grammar_size / built.graph.total_size,
        "reach_speedup": (median(decompress_times) + median(bfs_times))
        / median(grammar_times),
    }, agree


# ----------------------------------------------------------------------
# Served reads
# ----------------------------------------------------------------------
def _router_main(blob, conn):
    """Child process: serve ``blob`` (``serve()`` defaults) and answer
    ``"stats"`` with the router's public counters until ``"stop"``."""
    with serve(blob) as server:
        conn.send(server.endpoint)
        while _command(conn) == "stats":
            service = server.service
            conn.send({
                "shard_trips": sum(shard.round_trips
                                   for shard in service.shards),
                "hits": service.cache_info["hits"],
                "misses": service.cache_info["misses"],
                "closure_built": service.closure_built,
                "shards_rss_mb": children_peak_rss_mb(),
                "cpu_s": serving_cpu_s(),
            })


def serving_cpu_s():
    """CPU seconds of this process and of its live children (a router
    and its shard hosts), from ``/proc``."""
    total = time.process_time()
    tick = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def _command(conn):
    try:
        return conn.recv()
    except EOFError:            # the benchmark process went away
        return "stop"


class Served:
    """A router process serving a container, and one pipelined client.

    The router runs in a process of its own, as ``repro serve`` deploys
    it, so it shares no interpreter lock with the load generator; its
    shard hosts are its own forked children.  Router counters come
    back over a pipe (:meth:`stats`)."""

    def __init__(self, tracer, blob):
        self.tracer = tracer
        context = multiprocessing.get_context("spawn")
        self._conn, child = context.Pipe()
        with tracer.span("serving.start"):
            self._process = context.Process(target=_router_main,
                                            args=(blob, child))
            self._process.start()
            child.close()
            endpoint = None
            if self._conn.poll(ROUTER_START_S):
                try:
                    endpoint = self._conn.recv()
                except EOFError:        # the router exited before serving
                    pass
            if endpoint is None:
                self.close()
                raise RuntimeError("router process did not start")
        self.client = connect(endpoint, pipeline=True)

    def close(self):
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        try:
            self._conn.send("stop")
        except OSError:
            pass
        self._process.join(ROUTER_START_S)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        self._conn.close()

    def stats(self):
        self._conn.send("stats")
        return self._conn.recv()

    def shard_trips(self):
        return self.stats()["shard_trips"]

    def router_cache(self):
        stats = self.stats()
        return stats["hits"], stats["misses"]

    def ask(self, request):
        """One closed-loop served request (warm-up and probes)."""
        with self.tracer.span("serving.request"):
            return self.client.execute([request])[0]

    def warm_up(self, mix, chunk=50, min_chunks=4, max_chunks=12,
                settle=0.02):
        """Closed-loop requests until the router cache hit rate levels
        off: the hit rate over the whole warm-up moves by less than
        ``settle`` across a chunk.  (One cross-shard reach makes
        hundreds of lookups, so a single chunk's own rate never
        settles.)  Returns the hit rate after each chunk."""
        hits0, misses0 = self.router_cache()
        rates = []
        for _ in range(max_chunks):
            for _ in range(chunk):
                self.ask(mix.next())
            hits, misses = self.router_cache()
            lookups = (hits - hits0) + (misses - misses0)
            rates.append((hits - hits0) / lookups if lookups else 1.0)
            if (len(rates) >= min_chunks
                    and abs(rates[-1] - rates[-2]) < settle):
                break
        return rates

    def saturate(self, requests, answers, tally):
        """The highest rate the server sustains: a closed loop that
        keeps :data:`SATURATE_WINDOW` requests outstanding on the
        pipelined connection, so the server sets the pace.  Checks
        every reply against ``answers``.  Each send and reply is stamped
        in wall and in reference seconds, so the caller must keep the
        reference clock sampling."""
        slots = threading.Semaphore(SATURATE_WINDOW)
        sent, done, futures = [], [None] * len(requests), []

        def finisher(index):
            def finish(_future):
                done[index] = (time.perf_counter(), now())
                slots.release()
            return finish

        cpu0 = self.stats()["cpu_s"]
        for index, request in enumerate(requests):
            # A request that never comes back frees no slot.
            slots.acquire(timeout=SERVE_TIMEOUT_S)
            sent.append((time.perf_counter(), now()))
            future = self.client.execute_async([request])
            future.add_done_callback(finisher(index))
            futures.append(future)
        for request, future, want in zip(requests, futures, answers):
            result = _result(future)
            tally.check(result.error is None and result.value == want,
                        f"served {request}: {result} != {want}")
        _wait_until(lambda: None not in done)
        return Saturation(sent, done, self.stats()["cpu_s"] - cpu0)

    def ping_ms(self, count=20):
        times = []
        for _ in range(count):
            start = time.perf_counter()
            with self.tracer.span("serving.ping"):
                self.client.ping()
            times.append(time.perf_counter() - start)
        return 1e3 * median(times)

    def reach_trips(self, mix, count=10):
        """Shard round trips per served ``reach``, closed loop."""
        trips = []
        for _ in range(count):
            request = ("reach", mix.node(), mix.node())
            before = self.shard_trips()
            with self.tracer.span("sharding.reach"):
                self.client.execute([request])
            trips.append(self.shard_trips() - before)
        return sum(trips) / len(trips)


def _result(future):
    """A served request's result; a refused, dropped or late request
    becomes an error result."""
    try:
        return future.result(SERVE_TIMEOUT_S)[0]
    except FutureTimeout:
        return QueryResult(error="timed out")
    except Exception as exc:
        return QueryResult(error=f"{type(exc).__name__}: {exc}")


def _wait_until(condition):
    """A future's result can be read before its done-callbacks ran."""
    deadline = time.monotonic() + SERVE_TIMEOUT_S
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)


#: Requests the saturating loop keeps outstanding, and the runs of
#: consecutive replies whose median rate it reports.
SATURATE_WINDOW = 4
SATURATE_CHUNKS = 20


class Saturation:
    """Results of a saturating closed loop, from the (wall, reference)
    seconds of each send and reply.

    ``rate`` (requests per reference second) and ``wall_rate`` are
    medians of the completion rate over :data:`SATURATE_CHUNKS` equal
    runs of consecutive replies, so a short stall moves one run, not
    the figure.  ``latency`` holds each request's wall seconds from send
    to reply; ``cpu_ms`` is the serving processes' CPU milliseconds per
    request.
    """

    def __init__(self, sent, done, cpu_s):
        answered = [(start, end) for start, end in zip(sent, done)
                    if end is not None]
        self.latency = [end[0] - start[0] for start, end in answered]
        self.wall_rate, self.rate = (
            _chunk_rate([sent[0][clock]] + sorted(end[clock]
                                                  for _, end in answered))
            for clock in (0, 1))
        self.cpu_ms = 1e3 * cpu_s / len(sent)


def _chunk_rate(times):
    """Median rate over the chunks of ``times[1:]``, each chunk timed
    from the end of the one before (the first from ``times[0]``)."""
    size = (len(times) - 1) // SATURATE_CHUNKS
    return median(size / (times[(k + 1) * size] - times[k * size])
                  for k in range(SATURATE_CHUNKS))


def schedule(mix, rate, seconds):
    """Poisson arrivals at ``rate`` per second over ``seconds``, given
    their count: ``rate * seconds`` arrival times drawn uniformly and
    sorted, so every run of a rung offers the same number of requests."""
    count = round(rate * seconds)
    offsets = sorted(mix.rng.uniform(0.0, seconds) for _ in range(count))
    return [(offset, mix.next()) for offset in offsets]


#: A rung whose outstanding requests exceed this many seconds of
#: arrivals (and at least ``BACKLOG_FLOOR`` requests) has a growing
#: backlog: it stops sending and fails.
BACKLOG_SECONDS = 0.5
BACKLOG_FLOOR = 16


class Rung:
    """Results of one open-loop rate: latencies from each request's
    due time, generator lateness and the backlog."""

    def __init__(self, rate, count):
        self.rate = rate
        self.latency = [None] * count
        self.late = []
        self.sent = 0
        self.backlog_cap = max(BACKLOG_FLOOR, rate * BACKLOG_SECONDS)
        self.overloaded = False
        self.backlog_max = 0
        self.backlog_end = 0
        self.failed = 0
        self.client_trips = 0
        self.shard_trips = 0
        self.router_hits = 0
        self.router_lookups = 0

    def done(self):
        return [value for value in self.latency if value is not None]


def run_rung(served, plan, answers, tally, rate, trace_requests):
    """Send ``plan`` open loop over one pipelined connection; check
    every reply against ``answers``."""
    rung = Rung(rate, len(plan))
    completed = [0]
    lock = threading.Lock()
    futures = []
    tracer = served.tracer
    client_trips0 = served.client.round_trips
    shard_trips0 = served.shard_trips()
    hits0, misses0 = served.router_cache()

    def finisher(index, due_ns):
        def finish(_future):
            now = time.perf_counter_ns()
            rung.latency[index] = (now - due_ns) / 1e9
            with lock:
                completed[0] += 1
            if trace_requests:
                tracer.record("serving.request", due_ns, now, rid=index)
        return finish

    start_ns = time.perf_counter_ns() + 2_000_000
    for index, (offset, request) in enumerate(plan):
        due_ns = start_ns + int(offset * 1e9)
        wait = (due_ns - time.perf_counter_ns()) / 1e9
        if wait > 0:
            time.sleep(wait)
        sent_ns = time.perf_counter_ns()
        rung.late.append((sent_ns - due_ns) / 1e9)
        future = served.client.execute_async([request])
        future.add_done_callback(finisher(index, due_ns))
        futures.append(future)
        rung.sent = index + 1
        backlog = rung.sent - completed[0]
        rung.backlog_max = max(rung.backlog_max, backlog)
        if backlog > rung.backlog_cap:
            rung.overloaded = True
            break
    rung.backlog_end = rung.sent - completed[0]
    for index, future in enumerate(futures):
        request = plan[index][1]
        result = _result(future)
        ok = result.error is None and result.value == answers[index]
        if not tally.check(ok, f"served {request}: {result} != "
                               f"{answers[index]}"):
            rung.failed += 1
    _wait_until(lambda: completed[0] >= rung.sent)
    rung.client_trips = served.client.round_trips - client_trips0
    rung.shard_trips = served.shard_trips() - shard_trips0
    hits1, misses1 = served.router_cache()
    rung.router_hits = hits1 - hits0
    rung.router_lookups = (hits1 - hits0) + (misses1 - misses0)
    return rung


def codec_us(plan, answers):
    """Median encode / decode microseconds per frame over the
    workload's own request and reply messages."""
    encode_times, decode_times = [], []
    for seq, ((_, request), answer) in enumerate(zip(plan, answers)):
        messages = ({"op": "batch", "requests": requests_to_wire([request])},
                    {"op": "batch", "results": results_to_wire(
                        [QueryResult(id=0, value=answer)])})
        for message in messages:
            start = time.perf_counter()
            frame = encode_frame(message, "json", seq=seq)
            encode_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            decode_frame(frame)
            decode_times.append(time.perf_counter() - start)
    return 1e6 * median(encode_times), 1e6 * median(decode_times)


def materialized_frac(blob):
    """Share of a sharded container one shard host copies to serve
    shard 0 (lazy decode: meta plus its own blob)."""
    container = decode_sharded_container(blob)
    container.shard(0)
    return container.materialized_bytes / len(blob)


def open_container(tracer, path):
    start = now()
    with tracer.span("encoding.open"):
        handle = CompressedGraph.open(path)
    return handle, now() - start
