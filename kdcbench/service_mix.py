"""``service-mix``: a closed loop of two clients against one ``repro serve`` daemon.

The daemon runs with default settings on a fresh ``--state-dir``.  Each of
two client threads holds one TCP connection and replays its own seeded op
sequence, in blocks of ten ops holding eight repeat solves (``hit``: a
cached answer), one first-touch solve (``miss``: add a freshly relabelled
100–300-vertex graph, then solve it) and one update (``update``: mutate the
thread's 1,000-vertex chain by the next fixed delta, then solve the
successor).  A thread sends its next op only after the previous one is
answered.  After ``--seconds`` the daemon is drained and restarted on its
state dir (``restart``), and the restored counts are checked.

A traced run makes two half-length passes on fresh state dirs, untraced
and then through the traced launcher, so tracing overhead is measured on
the same op sequences.  Its per-layer figures cover the closed loop only:
the spans that start and end inside it, the loop's own replies and the
service counters it added, all divided by the loop's op count.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Tuple

import check
import gen
import layers
import procs
import spans
import stats
from repro.service.client import Client

SETUP_SPAWNS = 5
THREADS = 2
HOT_GRAPHS = 8
#: k of the hot set's solves, and of first-touch solves
HOT_KS = (1, 3)
MISS_K = 1
#: k of each thread's chain; the service tracks one incremental epoch per
#: k and seeds it on every fresh solve, so each chain gets a k no other op
#: solves with
CHAIN_KS = (2, 4)
BLOCK = ("hit",) * 8 + ("miss", "update")
#: seconds a client waits for one reply before counting a timeout
REQUEST_TIMEOUT = 60.0
#: loop ops after which the daemon's peak RSS is read, so the figure does
#: not grow with how many first-touch graphs a faster run manages to add
RSS_AFTER_OPS = 1000


class _Inputs:
    """Fixed structures plus their adjacency, shared by both passes."""

    def __init__(self, golden: Dict) -> None:
        self.pool = gen.service_pool()
        self.chain_n, self.chain_base, self.deltas = gen.chain_structure()
        self.table = golden["workloads"]["service-mix"]
        digest = gen.structure_digest(
            self.pool + [("chain", self.chain_n, self.chain_base)]
            + [(f"delta{i}", len(a), a + r) for i, (a, r) in enumerate(self.deltas)]
        )
        if digest != self.table["structure_digest"]:
            raise RuntimeError("the fixed structures of service-mix changed; see pin_golden.py")
        self.pool_adj = {name: gen.adjacency(n, edges) for name, n, edges in self.pool}


class _Op:
    __slots__ = ("thread", "cls", "seconds", "name", "k", "step", "inverse", "reply", "error")

    def __init__(self, thread: int, cls: str) -> None:
        self.thread, self.cls = thread, cls
        self.seconds = 0.0
        self.name: Optional[str] = None
        self.k = 0
        self.step = -1
        self.inverse: Dict[int, int] = {}
        self.reply: Optional[Dict] = None
        self.error: Optional[str] = None


class _Pass:
    """One daemon lifetime: set-up, warm-up, the closed loop, restart."""

    def __init__(self, inputs: _Inputs, seed: int, seconds: float, work: str,
                 traced: bool, spawns: int) -> None:
        self.inputs, self.seed, self.seconds = inputs, seed, seconds
        self.work, self.traced, self.spawns = work, traced, spawns
        self.ops: List[_Op] = []
        self.rtt_ms: Dict[str, List[float]] = {"solve": [], "add": [], "mutate": []}
        self._lock = threading.Lock()
        self.hot: List[Tuple[str, int, str, Dict[int, int]]] = []
        self.chains: List[Tuple[str, List[int], Dict[int, int]]] = []
        self.daemon: Optional[procs.Daemon] = None
        self.loop_ops = 0
        self.peak_rss: Optional[float] = None

    # -- helpers ---------------------------------------------------------- #
    def _connect(self, port: int):
        return Client.connect("127.0.0.1", port, timeout=REQUEST_TIMEOUT)

    def _timed(self, op: str, fn, *args, **kwargs):
        start = time.perf_counter()
        reply = fn(*args, **kwargs)
        with self._lock:
            self.rtt_ms[op].append((time.perf_counter() - start) * 1000.0)
        return reply

    def _trace_path(self, label: str) -> Optional[str]:
        return os.path.join(self.work, f"spans-{label}.json") if self.traced else None

    # -- phases ----------------------------------------------------------- #
    def run(self) -> Dict:
        state_dir = os.path.join(self.work, "state")
        setups: List[float] = []
        daemon = None
        try:
            for i in range(self.spawns):
                last = i == self.spawns - 1
                daemon = procs.Daemon(state_dir if last else os.path.join(self.work, f"probe{i}"),
                                      self._trace_path("daemon") if last else None)
                with self._connect(daemon.port) as client:
                    client.ping()
                    setups.append(daemon.cpu_s())
                if not last:
                    daemon.drain()
            self.daemon = daemon
            with self._connect(daemon.port) as client:
                self._warm(client)
                warm = client.stats()
            threads = [threading.Thread(target=self._loop, args=(t, daemon.port))
                       for t in range(THREADS)]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            end = time.perf_counter()
            with self._connect(daemon.port) as client:
                before = client.stats()
            peak_rss = self.peak_rss if self.peak_rss is not None else daemon.peak_rss_mb()
            restart_s, after = self._restart(daemon, state_dir)
        finally:
            if daemon is not None:
                procs.stop(daemon.proc)
        return {"setups": setups, "begin": begin, "end": end, "window_s": end - begin,
                "stats": before, "restored": after, "peak_rss_mb": peak_rss,
                "restart_s": restart_s,
                "loop_stats": {key: before[key] - warm[key] for key in layers.SERVICE_COUNTERS}}

    def _warm(self, client) -> None:
        """Register and solve the hot set and the chain bases (untimed)."""
        inputs = self.inputs
        for j in range(HOT_GRAPHS):
            name, n, edges = inputs.pool[j]
            relabelled, perm, inverse = gen.relabelled(n, edges, self.seed, "hot", j)
            digest = client.add_graph(relabelled, vertices=perm)
            for k in HOT_KS:
                op = _Op(-1, "warm")
                op.name, op.k, op.inverse = name, k, inverse
                op.reply = client.solve(digest, k)
                self.ops.append(op)
                self.hot.append((digest, k, name, inverse))
        for t in range(THREADS):
            relabelled, perm, inverse = gen.relabelled(
                inputs.chain_n, inputs.chain_base, self.seed, "chain", t)
            digest = client.add_graph(relabelled, vertices=perm)
            op = _Op(t, "warm")
            op.name, op.k, op.inverse = "chain", CHAIN_KS[t], inverse
            op.reply = client.solve(digest, CHAIN_KS[t])
            self.ops.append(op)
            self.chains.append((digest, perm, inverse))

    def _loop(self, t: int, port: int) -> None:
        rng = gen.instance_rng(self.seed, "ops", t)
        digest, perm, inverse = self.chains[t]
        step = 0
        chain_ok = True
        end = time.perf_counter() + self.seconds
        client = self._connect(port)
        i = 0
        try:
            while time.perf_counter() < end:
                block = list(BLOCK)
                rng.shuffle(block)
                for cls in block:
                    if time.perf_counter() >= end:
                        break
                    if cls == "update" and (not chain_ok or step >= len(self.inputs.deltas)):
                        continue
                    op = _Op(t, cls)
                    i += 1
                    try:
                        if cls == "hit":
                            hot_digest, op.k, op.name, op.inverse = rng.choice(self.hot)
                            start = time.perf_counter()
                            op.reply = self._timed("solve", client.solve, hot_digest, op.k)
                        elif cls == "miss":
                            op.name, n, edges = rng.choice(self.inputs.pool)
                            op.k = MISS_K
                            relabelled, labels, op.inverse = gen.relabelled(
                                n, edges, self.seed, "miss", t, i)
                            start = time.perf_counter()
                            new = self._timed("add", client.add_graph, relabelled,
                                              vertices=labels)
                            op.reply = self._timed("solve", client.solve, new, op.k)
                        else:
                            adds, removes = self.inputs.deltas[step]
                            op.name, op.k, op.step = "chain", CHAIN_KS[t], step
                            op.inverse = inverse
                            start = time.perf_counter()
                            reply = self._timed(
                                "mutate", client.mutate, digest,
                                [(perm[u], perm[v]) for u, v in adds],
                                [(perm[u], perm[v]) for u, v in removes])
                            digest = reply["digest"]
                            step += 1
                            op.reply = self._timed("solve", client.solve, digest, op.k)
                        op.seconds = time.perf_counter() - start
                    except Exception as exc:  # noqa: BLE001 - every failure is counted
                        op.error = f"{type(exc).__name__}: {exc}"
                        if cls == "update":
                            chain_ok = False
                        client.close()
                        client = self._connect(port)
                    with self._lock:
                        self.ops.append(op)
                        self.loop_ops += 1
                        if self.loop_ops == RSS_AFTER_OPS:
                            self.peak_rss = self.daemon.peak_rss_mb()
        finally:
            client.close()

    def _restart(self, daemon: procs.Daemon, state_dir: str) -> Tuple[float, Dict]:
        """Drain, respawn on the same state dir, and time until state is back."""
        start = time.perf_counter()
        daemon.drain()
        second = procs.Daemon(state_dir, self._trace_path("restart"))
        try:
            with self._connect(second.port) as client:
                client.ping()
                restored = client.stats()
            seconds = time.perf_counter() - start
        finally:
            second.drain()
        return seconds, restored


def _verify(inputs: _Inputs, ops: List[_Op], before: Dict, restored: Dict,
            restart_s: float) -> stats.Tally:
    tally = stats.Tally()
    sizes = inputs.table["sizes"]
    chain_sizes = inputs.table["chain_sizes"]
    chain_adj = {}
    for op in sorted(ops, key=lambda o: (o.thread, o.step)):
        if op.error is not None:
            tally.fail(op.cls, op.error)
            continue
        reply = dict(op.reply)
        reply["clique"] = [op.inverse.get(v, ("unknown", v)) for v in reply.get("clique", ())]
        if op.name == "chain":
            adj = chain_adj.get(op.thread)
            if adj is None:
                adj = chain_adj[op.thread] = gen.adjacency(inputs.chain_n, inputs.chain_base)
            if op.step >= 0:
                adds, removes = inputs.deltas[op.step]
                for u, v in removes:
                    adj[u].discard(v)
                    adj[v].discard(u)
                for u, v in adds:
                    adj[u].add(v)
                    adj[v].add(u)
            expected = chain_sizes[str(op.k)][op.step + 1]
        else:
            adj = inputs.pool_adj[op.name]
            expected = sizes[f"{op.name}/{op.k}"]
        reason = check.check_answer(adj, op.k, reply, expected)
        if reason is None:
            tally.ok(op.cls, op.seconds)
        else:
            tally.fail(op.cls, reason)
    expected_counts = {
        "restored_graphs": before["graphs"],
        "restored_results": before["result_cache_entries"],
        "restored_deltas": before["mutations"],
    }
    wrong = {key: (restored.get(key), want) for key, want in expected_counts.items()
             if restored.get(key) != want}
    if wrong:
        tally.fail("restart", f"restored counts differ (got, want): {wrong}")
    else:
        tally.ok("restart", restart_s)
    return tally


#: op classes whose latencies form the time-to-optimum cells.  Cache hits
#: (~0.2 ms) are left out: their median flips between an idle and a
#: GIL-contended mode from run to run, which made the geometric mean spread
#: by 0.27 over ten seeds; they are reported with their tail instead and
#: carry 80% of ``req_per_s``.
TTO_CLASSES = ("miss", "update")


def _end_to_end(tally: stats.Tally, window: float) -> Dict[str, float]:
    medians = [stats.median(tally.samples.get(cls, [float("inf")])) for cls in TTO_CLASSES]
    answered = sum(1 for cls in ("hit", "miss", "update")
                   for v in tally.samples.get(cls, ()) if v != float("inf"))
    return {
        "tto_total_s": sum(medians),
        "tto_geomean_ms": stats.geomean(medians) * 1000.0,
        "req_per_s": answered / window,
    }


def run(seed: int, seconds: float, traced: bool, work: str, golden: Dict) -> Dict:
    inputs = _Inputs(golden)
    length = seconds / 2 if traced else seconds
    plain_dir = os.path.join(work, "plain")
    os.makedirs(plain_dir)
    plain = _Pass(inputs, seed, length, plain_dir, traced=False,
                  spawns=1 if traced else SETUP_SPAWNS)
    info = plain.run()
    tally = _verify(inputs, plain.ops, info["stats"], info["restored"], info["restart_s"])
    result = {
        "tally": tally,
        "window_s": info["window_s"],
        "setup_s": stats.median(info["setups"]),
        "peak_rss_mb": info["peak_rss_mb"],
        "restart_s": info["restart_s"],
        "stats": info["stats"],
    }
    result.update(_end_to_end(tally, info["window_s"]))
    if traced:
        traced_dir = os.path.join(work, "traced")
        os.makedirs(traced_dir)
        tpass = _Pass(inputs, seed, length, traced_dir, traced=True, spawns=1)
        tinfo = tpass.run()
        ttally = _verify(inputs, tpass.ops, tinfo["stats"], tinfo["restored"], tinfo["restart_s"])
        tally.samples.update({f"traced:{c}": v for c, v in ttally.samples.items()})
        tally.failures.extend(ttally.failures)
        loop_spans = spans.within(spans.load(os.path.join(traced_dir, "spans-daemon.json")),
                                  tinfo["begin"], tinfo["end"])
        restart_spans = spans.load(os.path.join(traced_dir, "spans-restart.json"))
        replay_s = spans.self_times(restart_spans).get("persist.replay", (0.0, 0))[0]
        loop_ops = [op for op in tpass.ops if op.cls != "warm"]
        searched = [op.reply["stats"] for op in loop_ops
                    if op.reply is not None and not op.reply["stats"].get("cache_hit")]
        result["layers"] = layers.compute(
            loop_spans, searched, len(loop_ops),
            result["tto_total_s"], _end_to_end(ttally, tinfo["window_s"])["tto_total_s"],
            service=tinfo["loop_stats"], rtt_ms=tpass.rtt_ms, replay_s=replay_s,
        )
    return result
