"""The three workloads.

Every workload reports every end-to-end metric, so each one runs the
same three lanes over its own corpora -- build, in-process queries,
served reads -- and gives the measured time mostly to the lane it is
named after:

``compress``
    Closed loop over four corpora, one per dataset family: compress ->
    validate -> encode -> decode -> derive -> check.  The check queries
    each decoded handle against a networkx oracle.  A short served
    probe runs over a 2-shard ``bfs`` build of the version corpus.
``query-local``
    Three containers at three compression levels, opened with mmap and
    queried closed loop from one thread: Zipf-skewed point lookups
    from a hot set that fits the default 1024-entry result cache,
    uniform reach/path/RPQ pairs.  Every answer is checked against the
    oracle.  The paper lane and a short served probe follow.
``serve-sharded``
    A 2-shard ``bfs`` container of a heavy-tailed communication graph
    whose boundary closure is over the planner's budget, so
    cross-shard reach chains through the router.  A saturating closed
    loop, then open-loop Poisson load at a nominal rate, over one
    pipelined connection, uniform over the nodes, so the working set
    exceeds the router cache.  Every reply is checked against the
    in-process sharded handle.

The machine a benchmark runs on is usually shared, so every timed
in-process lane runs its request list ``REPLAYS`` times from the same
fresh state (fresh handles) and each request keeps its fastest run;
compress passes repeat the same corpora and each corpus keeps its
fastest pass.  The corpora are fixed instances of the dataset
generators (their default seeds), so figures compare across runs and
with the pilots in the README; ``--seed`` draws every request stream,
hot set and arrival schedule but the served saturating loop's list
and the warm-up before it.
"""

import gc
import os
import tempfile
import time
import random

from repro import CompressedGraph, ShardedCompressedGraph
from repro.datasets import (
    coauthorship_graph,
    communication_graph,
    fig13_base_graph,
    identical_copies,
)
from repro.datasets.rdf import identica_graph
from repro.datasets.versions import dblp_version_graph

import lanes
from harness import CLOCK, Clock, Tally, median, now, peak_rss_mb, tail

#: Identical runs of each timed lane; each request keeps its fastest.
REPLAYS = 3
#: Request mixes, in requests per deck of 20.  Served mixes have no
#: ``path``: a served path costs as much as a reach and adds nothing
#: the reach lane does not show.
SERVE_MIX = {"point": 16, "reach": 3, "rpq": 1}
LOCAL_MIX = {"point": 14, "reach": 3, "path": 2, "rpq": 1}
#: Hot point-lookup nodes: 4 kinds x 200 nodes fits the 1024-entry LRU.
HOT_NODES = 200
#: Server starts per served phase; the last server serves the load.
SERVER_STARTS = 3
#: Requests of the check step run on every decoded corpus.
CHECK_REQUESTS = 150
POINT_AND_PAIR_KINDS = ("out", "in", "neighborhood", "degree", "reach",
                        "path")
#: ``CompressionStats`` counters reported as ``core.<name>``.
CORE_COUNTERS = ("digrams_replaced", "occurrences_replaced", "queue_pops",
                 "nodes_recounted", "recount_passes")


class ServeSpec:
    """One served phase: on each of ``SERVER_STARTS`` fresh servers, a
    warm-up and one pass of a saturating closed loop over a list of
    ``saturate`` uniform requests, the median pass giving
    ``serve_rate_at_slo_qps``; then, on the last server, the nominal
    rate, whose latencies give the ``serving.*`` figures.  ``limit_ms``
    bounds the tail latency of both.  The inline oracle answers every
    served request plus fresh ones from the same mix up to
    ``inline_requests``: where it is the workload's in-process lane, it
    needs more samples than the served runs."""

    def __init__(self, nominal, saturate, limit_ms, hot, inline_requests=0):
        self.nominal = nominal
        self.saturate = saturate
        self.limit_s = limit_ms / 1e3
        self.hot = hot
        self.inline_requests = inline_requests


class Run:
    """State of one benchmark run."""

    def __init__(self, seed, seconds, tracer):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.tally = Tally()
        self.e2e = {}
        self.layer = {}

    def rng(self, stream):
        return random.Random(f"{self.seed}/{stream}")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def latency_metrics(run, replays):
    """The in-process lane's latency and throughput figures."""
    pooled = replays.pooled()
    p99, used = tail(pooled)
    run.layer["queries.p50_us"] = 1e6 * median(pooled)
    run.layer["queries.p99_us"] = 1e6 * p99
    run.layer["queries.qps"] = len(pooled) / sum(pooled)
    run.layer["queries.samples"] = len(pooled)
    run.layer["queries.tail_pct"] = 100 * used
    for kind in POINT_AND_PAIR_KINDS:
        values = replays.pooled((kind,))
        run.layer[f"queries.{kind}_p50_us"] = (
            1e6 * median(values) if values else 0.0)
        run.layer[f"queries.{kind}_p99_us"] = (
            1e6 * tail(values)[0] if values else 0.0)
    values = replays.pooled(("rpq",))
    run.layer["rpq.p50_us"] = 1e6 * median(values) if values else 0.0
    run.layer["rpq.p99_us"] = 1e6 * tail(values)[0] if values else 0.0


def cache_hit_rate(handles):
    hits = sum(handle.cache_info["hits"] for handle in handles)
    misses = sum(handle.cache_info["misses"] for handle in handles)
    return hits / (hits + misses) if hits + misses else 0.0


def fastest(times):
    """Build name -> the fastest seconds of each build step, from a
    list of step timings per build name."""
    return {name: {key: min(pass_times[key] for pass_times in runs)
                   for key in runs[0]}
            for name, runs in times.items()}


def core_metrics(run, builds, best):
    """``core.*`` and ``encoding.*`` figures of a set of builds;
    ``best`` maps a build's name to its fastest compress/validate/
    encode seconds."""
    for key in CORE_COUNTERS:
        run.layer[f"core.{key}"] = sum(int(b.stats.get(key, 0))
                                       for b in builds)
    run.layer["core.grammar_size"] = sum(b.grammar_size for b in builds)
    for key, metric in (("compress", "core.compress_s"),
                        ("validate", "core.validate_s"),
                        ("encode", "encoding.encode_s")):
        run.layer[metric] = sum(times[key] for times in best.values())
    sections = {"start": 0, "rules": 0, "alphabet": 0}
    for built in builds:
        for name, size in built.handle.sizes.items():
            section = name.rsplit("/", 1)[-1]
            if section in sections:
                sections[section] += size
    for section, size in sections.items():
        run.layer[f"encoding.bytes.{section}"] = size
    edges = sum(b.edges for b in builds)
    run.e2e["compress_edges_per_s"] = edges / sum(
        times["compress"] + times["validate"] + times["encode"]
        for times in best.values())
    run.e2e["bpe"] = sum(b.bits for b in builds) / edges


def paper_metrics(run, tiers):
    """``paper.<ratio>.<tier>`` for the workload's tiered corpora;
    a workload without a tier reports 0 for it."""
    rng = run.rng("paper")
    for tier in ("high", "medium", "low"):
        built = tiers.get(tier)
        figures = {"bpe": 0.0, "grammar_to_graph": 0.0,
                   "reach_speedup": 0.0}
        if built is not None:
            figures, agree = lanes.paper_lane(run.tracer, built, rng)
            run.tally.check(agree, f"{built.name}: grammar reach disagrees "
                                   "with decompress-then-BFS")
        for name, value in figures.items():
            run.layer[f"paper.{name}.{tier}"] = value


# ----------------------------------------------------------------------
# The served phase, shared by every workload
# ----------------------------------------------------------------------
class ServedCorpus:
    """A 2-shard ``bfs`` container and what building it cost."""

    def __init__(self, run, graph, alphabet):
        self.graph = graph
        start = now()
        self.sharded, self.blob, self.partition_s = lanes.build_sharded(
            run.tracer, graph, alphabet)
        self.build_s = now() - start
        self.bits = 8 * len(self.sharded.to_bytes(include_names=False))
        self.nodes = self.sharded.node_count()
        self.label = lanes.label_of(alphabet)[1]


def serve_phase(run, corpus, spec, nominal_s):
    """Inline oracle, then ``SERVER_STARTS`` servers one after the
    other: warm-up and the saturating loop on each, and the nominal
    rate, which runs for ``nominal_s``, on the last.

    Returns the median server start seconds (set-up time) and the inline
    lane's :class:`lanes.Replays`."""
    tracer, tally = run.tracer, run.tally
    hot = (lanes.hot_set(run.rng("hot"), corpus.nodes, HOT_NODES)
           if spec.hot else None)
    mix = lanes.Mix(run.rng("serve"), corpus.nodes, corpus.label,
                    SERVE_MIX, hot=hot)
    # The warm-up and the saturating loop ask the same uniform requests
    # in every run, whatever the seed: the cost of uniform cross-shard
    # reach varies so much between lists (CPU ms per served request
    # 5.3-10.2 over five seeded lists on serve-sharded) that a seeded
    # list would measure the list, not the server.
    fixed_mix = lanes.Mix(random.Random("saturate"), corpus.nodes,
                          corpus.label, SERVE_MIX)
    plans = [[(0.0, fixed_mix.next()) for _ in range(spec.saturate)],
             lanes.schedule(mix, spec.nominal, nominal_s)]
    requests = [(0, request) for plan in plans for _, request in plan]
    requests += [(0, mix.next())
                 for _ in range(spec.inline_requests - len(requests))]

    inline = lanes.Replays(request[0] for _, request in requests)
    answers = None
    warm_times = []
    with tracer.span("bench.inline"):
        for replay in range(REPLAYS):
            handle = ShardedCompressedGraph.from_bytes(corpus.blob)
            start = now()
            with tracer.span("queries.warm"):
                handle.warm()
            warm_times.append(now() - start)
            latencies, got = lanes.run_local(tracer, [handle], requests)
            inline.add(latencies)
            if answers is None:
                answers = got
            else:
                lanes.check_same(tally, answers, got, "inline")
    # Workloads with their own in-process lane report that lane's.
    run.layer.setdefault("queries.warm_ms", 1e3 * min(warm_times))
    run.layer.setdefault("queries.cache_hit_rate", cache_hit_rate([handle]))
    per_plan, position = [], 0
    for plan in plans:
        per_plan.append(answers[position:position + len(plan)])
        position += len(plan)

    # The client's reader thread runs in this process: keep the earlier
    # lanes' heap (corpora, oracles) out of collections that would
    # pause it mid-rung.
    gc.collect()
    gc.freeze()
    # No clock samples while the open-loop generator runs: it must keep
    # its schedule.  The server start is timed at the last speed sampled.
    with CLOCK.paused():
        # A start takes 0.45-0.7 s from one to the next on the same
        # container, as much as the rest of set-up: it is set-up time,
        # so it repeats like the rest and the median counts.
        starts, warmup_times, passes, served = [], [], [], None
        try:
            for _ in range(SERVER_STARTS):
                if served is not None:
                    served.close()
                    served = None
                start = now()
                served = lanes.Served(tracer, corpus.blob)
                starts.append(now() - start)
                # Warm-up is closed-loop served work, several times more
                # sensitive to a busy machine than the rest of set-up:
                # it is reported on its own, not in ``setup_s``.  Every
                # warm-up asks the same requests, so every pass meets
                # the router in the same state.
                warm_mix = lanes.Mix(random.Random("warm-up"), corpus.nodes,
                                     corpus.label, SERVE_MIX)
                start = time.perf_counter()
                warm_rates = served.warm_up(warm_mix)
                warmup_times.append(time.perf_counter() - start)
                # The server sets the pace here, so the clock samples:
                # the rate is in requests per reference second.
                with tracer.span("bench.saturate"), CLOCK.running():
                    passes.append(served.saturate(
                        [request for _, request in plans[0]], per_plan[0],
                        tally))
            run.layer["serving.warmup_s"] = median(warmup_times)
            with tracer.span("bench.rung"):
                nominal = lanes.run_rung(served, plans[1], per_plan[1],
                                         tally, spec.nominal, tracer.enabled)
            _serve_metrics(run, spec, corpus, served, plans[1], per_plan[1],
                           nominal, passes, inline, warm_rates)
            run.layer["encoding.materialized_frac"] = (
                lanes.materialized_frac(corpus.blob))
            run.e2e["peak_rss_mb"] = (peak_rss_mb()
                                      + served.stats()["shards_rss_mb"])
        finally:
            if served is not None:
                served.close()
    return median(starts), inline


def _serve_metrics(run, spec, corpus, served, plan, answers, nominal,
                   passes, inline, warm_rates):
    layer = run.layer
    # The median pass: the fastest one is at times far above the
    # others, when the reference clock sampled a slow kernel run.
    saturated = sorted(passes, key=lambda result: result.rate)[
        len(passes) // 2]
    latencies = lanes.Latencies([request[0] for _, request in plan],
                                nominal.latency)
    done = latencies.pooled()
    p99, used = tail(done)
    layer["serving.p50_ms"] = 1e3 * median(done)
    # Tails of a few hundred served requests vary with which requests
    # hit a cold cross-shard reach: report-only, no bound.
    layer["serving.p99_ms"] = 1e3 * p99
    layer["serving.point_p99_ms"] = 1e3 * tail(
        latencies.pooled(lanes.POINT_KINDS))[0]
    # A saturating loop cannot grow a backlog (it keeps a fixed window
    # outstanding), but its tail must meet the limit too.
    run.e2e["serve_rate_at_slo_qps"] = saturated.rate
    saturated_p99 = tail(saturated.latency)[0]
    layer["serving.saturated_wall_qps"] = saturated.wall_rate
    layer["serving.saturated_p99_ms"] = 1e3 * saturated_p99
    layer["serving.cpu_ms_per_request"] = saturated.cpu_ms
    layer["serving.slo_met"] = int(saturated_p99 <= spec.limit_s)
    if saturated_p99 > spec.limit_s:
        print(f"  SLO missed at saturation: tail {1e3 * saturated_p99:.0f} ms"
              f" over the {1e3 * spec.limit_s:.0f} ms limit")
    # A nominal run whose generator ran late or whose backlog grew
    # measured the load generator or an overloaded machine, not the
    # server: it is flagged, and its figures should not be compared.
    late = tail(nominal.late)[0]
    valid = late <= spec.limit_s / 4 and not nominal.overloaded
    if not valid:
        print(f"  INVALID nominal run: generator {1e3 * late:.1f} ms late, "
              f"backlog max {nominal.backlog_max}")
    layer["serving.nominal_valid"] = int(valid)
    # The inline lane asks the saturating list first, then this plan.
    inline_ms = 1e3 * sum(
        inline.values[spec.saturate:spec.saturate + len(plan)]) / len(plan)
    layer["serving.samples"] = len(done)
    layer["serving.tail_pct"] = 100 * used
    layer["serving.ping_ms"] = served.ping_ms()
    layer["serving.client_round_trips_per_request"] = (
        nominal.client_trips / nominal.sent)
    (layer["serving.codec_encode_us"],
     layer["serving.codec_decode_us"]) = lanes.codec_us(plan, answers)
    layer["serving.inline_ms_per_request"] = inline_ms
    layer["serving.overhead_ms_per_request"] = (
        1e3 * sum(done) / len(done) - inline_ms)
    layer["serving.generator_late_ms"] = 1e3 * late
    layer["serving.backlog_max"] = nominal.backlog_max
    layer["serving.warmup_chunks"] = len(warm_rates)
    layer["sharding.shard_round_trips_per_request"] = (
        nominal.shard_trips / nominal.sent)
    layer["sharding.shard_round_trips_per_reach"] = served.reach_trips(
        lanes.Mix(run.rng("trips"), corpus.nodes, corpus.label, SERVE_MIX))
    layer["sharding.closure_built"] = int(served.stats()["closure_built"])
    layer["sharding.cache_hit_rate"] = (
        nominal.router_hits / nominal.router_lookups
        if nominal.router_lookups else 0.0)
    print("  warm-up hit rates: " + " ".join(f"{r:.2f}" for r in warm_rates))
    print(f"  nominal {nominal.rate:.0f} req/s: {nominal.sent} sent, "
          f"p50 {1e3 * median(done):.2f} ms, tail {1e3 * p99:.1f} ms, "
          f"backlog end {nominal.backlog_end}, failed {nominal.failed}")
    print(f"  saturated: {saturated.rate:.1f} req/s, tail "
          f"{1e3 * saturated_p99:.1f} ms, {saturated.cpu_ms:.2f} CPU ms "
          f"per request, wall {saturated.wall_rate:.1f} req/s; passes "
          + " ".join(f"{result.rate:.1f}" for result in passes))


# ----------------------------------------------------------------------
# compress
# ----------------------------------------------------------------------
COMPRESS_CORPORA = (
    ("coauthorship", "low", lambda: coauthorship_graph(600)),
    ("identica", None, lambda: identica_graph(1500)),
    ("dblp", "medium", lambda: dblp_version_graph(8, 40)),
    ("copies1024", "high",
     lambda: identical_copies(fig13_base_graph(), 1024)),
)
PROBE_SERVE = ServeSpec(nominal=50, saturate=1500, limit_ms=250, hot=False)


class CorpusCheck:
    """The check step of one corpus: its oracle and request list, the
    first pass's answers and every pass's latencies."""

    def __init__(self, oracle, requests):
        self.oracle = oracle
        self.requests = requests
        self.first = None
        self.replays = lanes.Replays(request[0] for _, request in requests)


def run_compress(run):
    setups = []
    for _ in range(REPLAYS):
        start = now()
        with run.tracer.span("bench.setup"):
            corpora = [(name, tier, *make())
                       for name, tier, make in COMPRESS_CORPORA]
            served = ServedCorpus(run, *corpora[2][2:])
        setups.append(now() - start)

    clock = Clock(0.6 * run.seconds)
    times = {name: [] for name, *_ in corpora}
    checks = {}
    builds, tiers, decoded_handles, warm_times = {}, {}, [], []
    passes = 0
    while passes < 2 or not clock.expired():
        for name, tier, graph, alphabet in corpora:
            with run.tracer.span("bench.corpus"):
                built = lanes.build(run.tracer, name, graph, alphabet)
                times[name].append(built.times)
                decoded, derived = lanes.roundtrip_check(
                    run.tracer, run.tally, built)
                start = now()
                with run.tracer.span("queries.warm"):
                    decoded.warm()
                warm_times.append(now() - start)
                check = checks.get(name)
                if check is None:
                    oracle = lanes.make_oracle(derived, alphabet)
                    mix = lanes.Mix(run.rng(f"check/{name}"),
                                    decoded.node_count(), oracle.label_name,
                                    LOCAL_MIX)
                    check = checks[name] = CorpusCheck(
                        oracle, [(0, mix.next())
                                 for _ in range(CHECK_REQUESTS)])
                latencies, answers = lanes.run_local(
                    run.tracer, [decoded], check.requests)
                check.replays.add(latencies)
                if check.first is None:
                    lanes.check_answers(run.tally, [check.oracle],
                                        check.requests, answers, [name])
                    check.first = answers
                else:
                    lanes.check_same(run.tally, check.first, answers, name)
                run.tally.check(decoded.canonicalizations <= 1,
                                f"{name}: {decoded.canonicalizations} "
                                "canonicalizations on one handle")
            builds[name] = built
            if tier:
                tiers[tier] = built
            decoded_handles.append(decoded)
        passes += 1

    best = fastest(times)
    core_metrics(run, list(builds.values()), best)
    pooled = lanes.Latencies()
    for check in checks.values():
        pooled.extend(check.replays.kinds, check.replays.values)
    latency_metrics(run, pooled)
    run.layer["queries.warm_ms"] = 1e3 * median(warm_times)
    run.layer["queries.cache_hit_rate"] = cache_hit_rate(decoded_handles)
    run.layer["rpq.skeleton_builds"] = sum(
        h.rpq_info["skeleton_builds"] for h in decoded_handles)
    run.layer["bench.compress_passes"] = passes
    print(f"  {passes} passes; fastest compress+validate+encode per "
          "corpus: " + ", ".join(f"{name} {sum(t.values()):.2f} s"
                                 for name, t in best.items()))
    paper_metrics(run, tiers)
    partition_metrics(run, served)
    started, _ = serve_phase(run, served, PROBE_SERVE, 0.2 * run.seconds)
    run.e2e["setup_s"] = median(setups) + started


def partition_metrics(run, corpus):
    stats = corpus.sharded.partition_stats
    run.layer["partition.compress_sharded_s"] = corpus.partition_s
    run.layer["partition.boundary_edges"] = stats["boundary_edges"]
    run.layer["partition.cut_ratio"] = stats["cut_ratio"]
    run.layer["partition.balance"] = stats["balance"]


# ----------------------------------------------------------------------
# query-local
# ----------------------------------------------------------------------
QUERY_CORPORA = (
    ("copies4096", "high",
     lambda: identical_copies(fig13_base_graph(), 4096)),
    ("dblp", "medium", lambda: dblp_version_graph(8, 40)),
    ("coauthorship", "low", lambda: coauthorship_graph(600)),
)
#: Requests of the in-process lane, the same list in every replay: a
#: fixed count, so the share of cache hits depends on the seed only.
QUERY_REQUESTS = 1500
#: Set-ups of the three containers.  One takes about a quarter of a
#: run (7 reference seconds), and with three ``setup_s`` spread
#: 0.02-0.05 over ten seeds: two are enough.
QUERY_SETUPS = 2
HOT_SERVE = ServeSpec(nominal=50, saturate=1500, limit_ms=250, hot=True)


def run_query_local(run):
    with tempfile.TemporaryDirectory(prefix="perfbench-",
                                     dir=os.getcwd()) as workdir:
        _query_local(run, workdir)


def _open_all(run, paths):
    """Fresh mmap-opened, warmed handles; returns them and the open and
    warm seconds."""
    handles, open_s, warm_s = [], 0.0, 0.0
    for path in paths:
        handle, seconds = lanes.open_container(run.tracer, path)
        open_s += seconds
        start = now()
        with run.tracer.span("queries.warm"):
            handle.warm()
        warm_s += now() - start
        handles.append(handle)
    return handles, open_s, warm_s


def _query_local(run, workdir):
    setups = []
    times = {name: [] for name, _, _ in QUERY_CORPORA}
    for attempt in range(QUERY_SETUPS):
        start = now()
        with run.tracer.span("bench.setup"):
            builds, paths = [], []
            for name, _, make in QUERY_CORPORA:
                built = lanes.build(run.tracer, name, *make())
                # A fresh file each time: earlier handles still map the
                # earlier ones.
                path = os.path.join(workdir, f"{name}.{attempt}.grpr")
                with run.tracer.span("encoding.save"):
                    with open(path, "wb") as out:
                        out.write(built.blob)
                builds.append(built)
                paths.append(path)
                times[name].append(built.times)
            handles, open_s, warm_s = _open_all(run, paths)
            medium = builds[1]
            served = ServedCorpus(run, medium.graph, medium.alphabet)
        setups.append(now() - start)
    core_metrics(run, builds, fastest(times))

    rng = run.rng("queries")
    names = [b.name for b in builds]
    mixes = []
    for built, handle in zip(builds, handles):
        nodes = handle.node_count()
        mixes.append(lanes.Mix(rng, nodes, lanes.label_of(built.alphabet)[1],
                               LOCAL_MIX,
                               hot=lanes.hot_set(rng, nodes, HOT_NODES)))
    # The containers take turns, in a shuffled order per round.
    requests = []
    while len(requests) < QUERY_REQUESTS:
        order = list(range(len(mixes)))
        rng.shuffle(order)
        requests += [(index, mixes[index].next()) for index in order]

    first, replays = None, lanes.Replays(request[0] for _, request in requests)
    open_times, warm_times = [open_s], [warm_s]
    for replay in range(REPLAYS):
        if replay:
            handles, open_s, warm_s = _open_all(run, paths)
            open_times.append(open_s)
            warm_times.append(warm_s)
        latencies, answers = lanes.run_local(run.tracer, handles, requests)
        if first is None:
            first = answers
        else:
            lanes.check_same(run.tally, first, answers, "query-local")
        replays.add(latencies)
        for name, handle in zip(names, handles):
            run.tally.check(handle.canonicalizations <= 1,
                            f"{name}: {handle.canonicalizations} "
                            "canonicalizations on one handle")
    with run.tracer.span("bench.check"):
        oracles = [lanes.make_oracle(handle.decompress(), built.alphabet)
                   for built, handle in zip(builds, handles)]
        lanes.check_answers(run.tally, oracles, requests, first, names)
    latency_metrics(run, replays)
    run.layer["encoding.open_ms"] = 1e3 * min(open_times)
    run.layer["queries.warm_ms"] = 1e3 * min(warm_times)
    run.layer["queries.cache_hit_rate"] = cache_hit_rate(handles)
    run.layer["rpq.skeleton_builds"] = sum(
        h.rpq_info["skeleton_builds"] for h in handles)
    decode_s = 0.0
    for built in builds:
        start = now()
        with run.tracer.span("encoding.decode"):
            CompressedGraph.from_bytes(built.blob)
        decode_s += now() - start
    run.layer["encoding.decode_s"] = decode_s
    paper_metrics(run, {tier: built for (_, tier, _), built
                        in zip(QUERY_CORPORA, builds)})
    partition_metrics(run, served)
    started, _ = serve_phase(run, served, HOT_SERVE, 0.2 * run.seconds)
    run.e2e["setup_s"] = median(setups) + started


# ----------------------------------------------------------------------
# serve-sharded
# ----------------------------------------------------------------------
#: The sharded build is short, so it repeats more often than the
#: other workloads' set-up to find a quiet moment of the machine.
SERVE_BUILDS = 5
SERVE_SPEC = ServeSpec(nominal=20, saturate=800, limit_ms=1500, hot=False,
                       inline_requests=3000)


def run_serve_sharded(run):
    setups, build_times = [], []
    for _ in range(SERVE_BUILDS):
        start = now()
        with run.tracer.span("bench.setup"):
            corpus = ServedCorpus(run, *communication_graph(1000, 3000))
        setups.append(now() - start)
        build_times.append(corpus.build_s)
    edges = corpus.graph.num_edges
    run.e2e["compress_edges_per_s"] = edges / min(build_times)
    run.e2e["bpe"] = corpus.bits / edges
    stats = corpus.sharded.stats
    for key in CORE_COUNTERS:
        run.layer[f"core.{key}"] = sum(int(shard.get(key, 0))
                                       for shard in stats["per_shard"])
    run.layer["core.grammar_size"] = sum(stats["shard_grammar_sizes"])
    partition_metrics(run, corpus)
    started, inline = serve_phase(run, corpus, SERVE_SPEC,
                                 0.6 * run.seconds)
    run.e2e["setup_s"] = median(setups) + started
    latency_metrics(run, inline)


WORKLOADS = {
    "compress": run_compress,
    "query-local": run_query_local,
    "serve-sharded": run_serve_sharded,
}

