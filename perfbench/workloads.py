"""The benchmark's workloads, driven through the program's public functions.

``interactive``
    One simulated user in a closed loop: SeeSaw (+DB align, paper defaults)
    on the LVIS analog's multiscale vectors, served by the Spark vector
    store. A round is ``image_feedback`` -> ``SeeSawSession.observe`` ->
    ``topk_images(...).collect()``, timed from submitting feedback to
    holding the next image id.

``sweep-coarse``
    ``run_sweep`` of Table 3's five methods on the four coarse bundles.

See ``perfbench/README.md`` for why these two, what each metric means and
which layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from perfbench.spans import Tracer, median, pct
from repro.bench import loop as loop_mod
from repro.bench import runner as runner_mod
from repro.bench.ap import average_precision
from repro.bench.loop import run_search
from repro.bench.runner import build_bundle, make_ranker, run_sweep
from repro.core import aligner as aligner_mod
from repro.core import lbfgs as lbfgs_mod
from repro.core import loss as loss_mod
from repro.embed.datasets import DATASET_NAMES, build_dataset
from repro.graph import laplacian as laplacian_mod
from repro.store.scan import topk_images

TARGET, BUDGET = 10, 60  # the paper's find-10-in-60 search task
SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
WARMUP_ROUNDS = 3  # untimed interactive rounds (JVM, codegen, worker start)
WARMUP_TASKS = 20  # searches in the untimed warm-up sweep pass
MIN_PASSES = 2  # timed sweep passes, even if one pass outlasts --seconds
CATEGORY_STRIDE = 16  # a timed sweep pass searches every 16th category
SCORE_TOL = 1e-9  # relative tolerance of the store check (float64 dot products)

# Table 3's methods: (method, params, config label).
TABLE3_METHODS = [
    ("zeroshot", {}, "zero-shot CLIP"),
    ("fewshot", {}, "few-shot CLIP"),
    ("ens", {"horizon": 60}, "ENS"),
    ("rocchio", {}, "Rocchio"),
    ("seesaw", {}, "this work"),
]


@dataclass
class Run:
    """What one benchmark run was asked to do."""

    spark: Any
    seed: int
    seconds: float
    scale: str
    tracer: Tracer
    inject_fault: bool


@dataclass
class Outcome:
    attempted: int
    failed: int
    end_to_end: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)


# -- tracing hooks -----------------------------------------------------------
def _counting(tr: Tracer, key: str) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            tr.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    return make


def _counting_minimize(tr: Tracer) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            tr.counts["lbfgs.solves"] += 1
            tr.counts["lbfgs.iters"] += res.n_iter
            tr.counts["lbfgs.nonconverged"] += not res.converged
            return res

        return counted

    return make


def _patch_setup_layers(tr: Tracer) -> None:
    """Spans around the preprocessing kernels ``build_bundle`` calls."""
    tr.patch(laplacian_mod, "knn_graph_np", lambda f: tr.wrap(f, "graph.knn"))
    tr.patch(runner_mod, "knn_graph_np", lambda f: tr.wrap(f, "graph.knn"))
    tr.patch(laplacian_mod, "m_matrix_np", lambda f: tr.wrap(f, "graph.m_d"))


def _patch_search_layers(tr: Tracer) -> None:
    """Spans and counts around the per-round layer calls."""
    tr.patch(aligner_mod.QueryAligner, "align", lambda f: tr.wrap(f, "core.align"))
    tr.patch(lbfgs_mod, "minimize", _counting_minimize(tr))
    tr.patch(loss_mod, "l3_loss_grad", _counting(tr, "core.fg_evals"))
    tr.patch(loop_mod, "image_feedback", lambda f: tr.wrap(f, "loop.feedback"))


def _select_ms(tr: Tracer) -> list[float]:
    """``run_search``'s self time per round: from the end of the ranker's
    ``vector_scores`` to the start of ``image_feedback`` in the same search
    (per-image max, seen mask, argmax)."""
    last_score_end: dict[int, float] = {}
    out = []
    for s in tr.spans:
        if s["name"] == "loop.score":
            last_score_end[s["parent"]] = s["end"]
        elif s["name"] == "loop.feedback" and s["parent"] in last_score_end:
            out.append((s["start"] - last_score_end.pop(s["parent"])) * 1e3)
    return out


def _layer_metrics(tr: Tracer) -> dict[str, float]:
    """The span- and count-derived per-layer metrics (0 where the workload
    never calls the layer)."""
    c = tr.counts
    solves = max(c["lbfgs.solves"], 1)
    lookups = max(c["store.lookups"], 1)
    return {
        "store.lookup_ms_p50": pct(tr.durations_ms("store.lookup"), 50),
        "store.lookup_ms_p90": pct(tr.durations_ms("store.lookup"), 90),
        "store.spark_jobs_per_lookup": c["store.jobs"] / lookups,
        "store.spark_tasks_per_lookup": c["store.tasks"] / lookups,
        "store.load_s": median(tr.per_trace_s("store.load", "setup")),
        "core.align_ms_p50": pct(tr.durations_ms("core.align"), 50),
        "core.align_ms_p90": pct(tr.durations_ms("core.align"), 90),
        "core.lbfgs_iters_mean": c["lbfgs.iters"] / solves,
        "core.fg_evals_per_solve": c["core.fg_evals"] / solves,
        "core.lbfgs_nonconverged": float(c["lbfgs.nonconverged"]),
        "loop.score_ms_p50": pct(tr.durations_ms("loop.score"), 50),
        "loop.select_ms_p50": pct(_select_ms(tr), 50),
        "loop.feedback_ms_p50": pct(tr.durations_ms("loop.feedback"), 50),
        "baselines.ens_score_ms_p50": pct(tr.durations_ms("loop.score", method="ens"), 50),
        "runner.make_ranker_ms_p50": pct(
            tr.durations_ms("runner.make_ranker", method="ens"), 50
        ),
        "embed.build_s": median(tr.per_trace_s("embed.build", "setup")),
        "graph.knn_s": median(tr.per_trace_s("graph.knn", "setup")),
        "graph.m_d_s": median(tr.per_trace_s("graph.m_d", "setup")),
    }


def _group_stats(sc, group: str) -> tuple[int, list[int]]:
    """Jobs of one job group, and the tasks that ran in each of their stages
    (a stage skipped because its shuffle output was reused ran none)."""
    st = sc.statusTracker()
    jobs = sorted(st.getJobIdsForGroup(group))
    tasks = []
    for job in jobs:
        info = st.getJobInfo(job)
        for sid in sorted(info.stageIds) if info else []:
            stage = st.getStageInfo(sid)
            if stage is not None and stage.numCompletedTasks:
                tasks.append(stage.numCompletedTasks)
    return len(jobs), tasks


def _set_job_group(spark, tr: Tracer, group: str) -> None:
    if tr.enabled:
        spark.sparkContext.setJobGroup(group, "perfbench")


def _timed_setups(
    tr: Tracer, setup: Callable[[], Any], teardown: Callable[[Any], None] | None = None
) -> tuple[Any, list[float]]:
    """Run ``setup`` from a cold dataset cache ``SETUP_REPEATS`` times and
    keep the last result; ``teardown`` releases each earlier one untimed."""
    _patch_setup_layers(tr)
    times, out = [], None
    try:
        for i in range(SETUP_REPEATS):
            if out is not None and teardown is not None:
                teardown(out)
            build_dataset.cache_clear()
            tr.trace = f"setup-{i}"
            t0 = time.perf_counter()
            out = setup()
            times.append(time.perf_counter() - t0)
    finally:
        tr.unpatch()
    return out, times


# -- interactive -------------------------------------------------------------
class _User:
    """One simulated user searching the categories in a seeded order.

    Every store answer is checked against numpy scoring of the same query:
    the image must be unseen and score within ``SCORE_TOL`` of the best
    unseen image (max over its patch vectors).
    """

    def __init__(self, run: Run, ds, bundle, vec_df):
        self.run, self.ds, self.bundle, self.vec_df = run, ds, bundle, vec_df
        self.tr = Tracer(False)  # the workload swaps in the run's tracer
        self.order = np.random.default_rng(run.seed).permutation(ds.n_categories)
        self.vec64 = ds.vectors.astype(np.float64)
        self.attempted = self.failed = 0
        self.searches: list[tuple[list[bool], int]] = []
        self.lookups = 0
        self.groups: list[str] = []
        self._next_cat = 0
        self.start_search()

    def start_search(self) -> None:
        ds = self.ds
        self.cat = int(self.order[self._next_cat % len(self.order)])
        self._next_cat += 1
        self.session = make_ranker("seesaw", {}, self.bundle)
        self.session.reset(ds, ds.query_vecs[self.cat].astype(np.float64))
        self.shown: list[int] = []
        self.rels: list[bool] = []
        self.seen = np.zeros(ds.n_images, dtype=bool)
        self.n_rel = int(ds.rel_image[self.cat].sum())
        self.searches.append((self.rels, self.n_rel))
        self._lookup()
        self.check_and_show()

    def _lookup(self) -> None:
        tr = self.tr
        self.q = self.session.query
        group = f"lookup-{self.lookups}"
        self.lookups += 1
        _set_job_group(self.run.spark, tr, group)
        with tr.span("store.lookup"):
            k = 2 if self.run.inject_fault else 1  # fault: a store one rank off
            rows = topk_images(self.vec_df, self.q, k, exclude_images=self.shown).collect()
        if tr.enabled:
            self.groups.append(group)
        self.img = int(rows[-1]["image_id"])

    def round(self) -> bool:
        """Feedback on the shown image, the solve, and the next lookup.
        False if the feedback ended the search (no next image is needed)."""
        relevant, pos, neg = loop_mod.image_feedback(self.ds, self.cat, self.img)
        self.rels.append(relevant)
        if sum(self.rels) >= min(TARGET, self.n_rel) or len(self.shown) >= BUDGET:
            return False
        self.session.observe(self.img, relevant, pos, neg)
        self._lookup()
        return True

    def check_and_show(self) -> None:
        ds = self.ds
        best = np.full(ds.n_images, -np.inf)
        np.maximum.at(best, ds.image_of, self.vec64 @ self.q)
        best[self.seen] = -np.inf
        top = float(best.max())
        self.attempted += 1
        if self.seen[self.img] or not best[self.img] >= top - SCORE_TOL * max(1.0, abs(top)):
            self.failed += 1
        self.seen[self.img] = True
        self.shown.append(self.img)

    def step(self) -> float | None:
        """One round; its seconds, or None if it ended the search."""
        t0 = time.perf_counter()
        more = self.round()
        dt = time.perf_counter() - t0
        if not more:
            self.start_search()
            return None
        self.check_and_show()
        return dt

    def rounds(self, seconds: float) -> list[float]:
        """Timed rounds until ``seconds`` of round time are measured."""
        times: list[float] = []
        while sum(times) < seconds:
            self.tr.trace = f"round-{self.lookups}"
            with self.tr.span("bench.round"):
                dt = self.step()
            if dt is not None:
                times.append(dt)
        return times

    def map(self) -> float:
        """Mean truncated AP of the searches run (a search the run ended
        early is scored on the images it had shown)."""
        return float(np.mean([average_precision(r, n) for r, n in self.searches if r]))


def interactive(run: Run) -> Outcome:
    spark, tr = run.spark, run.tracer

    def setup():
        with tr.span("embed.build"):
            ds = build_dataset("lvis", run.scale)
        bundle = build_bundle(ds)
        with tr.span("store.load"):
            vec_df = ds.to_vector_df(spark).cache()
            vec_df.count()
        return ds, bundle, vec_df

    (ds, bundle, vec_df), setups = _timed_setups(
        tr, setup, teardown=lambda prev: prev[2].unpersist(blocking=True)
    )
    user = _User(run, ds, bundle, vec_df)
    for _ in range(WARMUP_ROUNDS):
        user.step()
    times = user.rounds(run.seconds)
    layers: dict[str, float] = {}
    if tr.enabled:
        user.tr = tr
        _patch_search_layers(tr)
        try:
            traced = user.rounds(run.seconds)
        finally:
            tr.unpatch()
        spark.sparkContext.setLocalProperty("spark.jobGroup.id", None)
        for group in user.groups:
            jobs, tasks = _group_stats(spark.sparkContext, group)
            tr.counts["store.lookups"] += 1
            tr.counts["store.jobs"] += jobs
            tr.counts["store.tasks"] += sum(tasks)
        layers = _layer_metrics(tr) | {
            "runner.sweep_s": 0.0,
            "runner.udf_tasks": 0.0,
            "runner.broadcast_mb": 0.0,
            "runner.parallel_speedup": 0.0,
            "bench.replay_cpu_per_wall": 0.0,
            "bench.trace_overhead_pct": 100.0 * (median(traced) / median(times) - 1.0),
            "bench.map": user.map(),
        }
    vec_df.unpersist()
    ms = [t * 1e3 for t in times]
    return Outcome(
        attempted=user.attempted,
        failed=user.failed,
        end_to_end={
            "round_ms_p50": pct(ms, 50),
            # Rounds run back to back, so one user finishes a full-budget
            # (60-round) search every BUDGET rounds.
            "searches_per_s": 1.0 / (BUDGET * float(np.mean(times))),
            "setup_s": median(setups),
        },
        layers=layers,
        summary={
            "rounds_timed": len(times),
            "round_ms_p50": pct(ms, 50),
            "round_ms_p90": pct(ms, 90),
            "searches_started": len(user.searches),
            "map": user.map(),
            "setup_s_each": setups,
        },
    )


# -- sweep-coarse ------------------------------------------------------------
Key = tuple[str, str, int]
Row = tuple[float, int, int]


def _task_key(t: dict[str, Any]) -> Key:
    return (t["bundle"], t["config"], int(t["cat"]))


def _rows(result) -> dict[Key, Row]:
    """``run_sweep``'s frame as {task key: (ap, n_found, n_shown)}; a task
    with two rows keeps neither, so it fails the completeness check."""
    out: dict[Key, Row] = {}
    dup: set[Key] = set()
    for r in result.itertuples(index=False):
        key = (r.bundle, r.config, int(r.cat))
        if key in out:
            dup.add(key)
        out[key] = (float(r.ap), int(r.n_found), int(r.n_shown))
    for key in dup:
        del out[key]
    return out


def _valid(row: Row | None) -> bool:
    return row is not None and np.isfinite(row[0]) and 0.0 <= row[0] <= 1.0 and row[2] <= BUDGET


def _replay(bundles, tasks, tr: Tracer) -> dict[Key, Row]:
    """The sweep's searches run one by one in this process: the reference
    for the output checks and, traced, the source of the per-layer spans."""
    rows: dict[Key, Row] = {}
    for i, t in enumerate(tasks):
        b, method = bundles[t["bundle"]], t["method"]
        tr.trace = f"search-{i}"
        with tr.span("runner.make_ranker", method=method):
            ranker = make_ranker(method, dict(t["params"], cat=int(t["cat"])), b)
        if tr.enabled:
            ranker.vector_scores = tr.wrap(ranker.vector_scores, "loop.score", method=method)
        with tr.span("loop.search", method=method):
            res = run_search(b.ds, int(t["cat"]), ranker, target=TARGET, budget=BUDGET)
        rows[_task_key(t)] = (res.ap, res.n_found, res.n_shown)
    return rows


def _failures(rows: dict[Key, Row], tasks, reference: dict[Key, Row]) -> int:
    """Searches of ``tasks`` whose row is missing, malformed, or differs
    from the reference."""
    return sum(
        1
        for t in tasks
        if not _valid(rows.get(_task_key(t))) or rows[_task_key(t)] != reference.get(_task_key(t))
    )


def _map(rows: dict[Key, Row]) -> float:
    """Mean AP, summed in key order so it repeats to the last digit."""
    return float(np.mean([rows[k][0] for k in sorted(rows)]))


def _negated(bundle):
    """Fault injection: every ranker of the bundle scores with negated
    vectors, so it shows the worst image first."""
    return replace(bundle, ds=replace(bundle.ds, vectors=-bundle.ds.vectors))


def sweep_coarse(run: Run) -> Outcome:
    spark, tr = run.spark, run.tracer
    rng = np.random.default_rng(run.seed)

    def setup():
        bundles = {}
        for name in DATASET_NAMES:
            with tr.span("embed.build"):
                ds = build_dataset(name, run.scale).coarse_only()
            bundles[f"{name}:coarse"] = build_bundle(ds, with_graph=True)
        return bundles

    bundles, setups = _timed_setups(tr, setup)
    universe = [
        {"bundle": b, "method": m, "config": label, "params": p, "cat": c}
        for b in bundles
        for m, p, label in TABLE3_METHODS
        for c in range(bundles[b].ds.n_categories)
    ]
    # The timed pass is the same for every seed (README: drawing its
    # categories from the seed made throughput depend on the draw); the seed
    # orders it and draws the warm-up pass.
    timed = [t for t in universe if t["cat"] % CATEGORY_STRIDE == 0]
    timed = [timed[i] for i in rng.permutation(len(timed))]
    warmup = [universe[i] for i in rng.choice(len(universe), WARMUP_TASKS, replace=False)]
    swept = {k: _negated(b) for k, b in bundles.items()} if run.inject_fault else bundles
    off = Tracer(False)

    rows = _rows(run_sweep(spark, swept, warmup, target=TARGET, budget=BUDGET))
    attempted, failed = len(warmup), _failures(rows, warmup, _replay(bundles, warmup, off))

    passes: list[float] = []
    results = []
    while sum(passes) < run.seconds or len(passes) < MIN_PASSES:
        _set_job_group(spark, tr, f"sweep-{len(passes)}")
        t0 = time.perf_counter()
        result = run_sweep(spark, swept, timed, target=TARGET, budget=BUDGET)
        passes.append(time.perf_counter() - t0)
        results.append(_rows(result))

    t0, c0 = time.perf_counter(), time.process_time()
    reference = _replay(bundles, timed, off)
    replay_s = time.perf_counter() - t0
    cpu_per_wall = (time.process_time() - c0) / replay_s
    for rows in results:
        attempted += len(timed)
        failed += _failures(rows, timed, reference)

    layers: dict[str, float] = {}
    if tr.enabled:
        spark.sparkContext.setLocalProperty("spark.jobGroup.id", None)
        _patch_search_layers(tr)
        try:
            t0 = time.perf_counter()
            traced_rows = _replay(bundles, timed, tr)
            traced_s = time.perf_counter() - t0
        finally:
            tr.unpatch()
        attempted += len(timed)
        failed += _failures(traced_rows, timed, results[0])  # replay == sweep
        # The applyInPandas stage is the last stage of each pass.
        udf_tasks = [
            _group_stats(spark.sparkContext, f"sweep-{i}")[1][-1] for i in range(len(passes))
        ]
        layers = _layer_metrics(tr) | {
            "runner.sweep_s": median(passes),
            "runner.udf_tasks": median(udf_tasks),
            "runner.broadcast_mb": len(pickle.dumps(swept, pickle.HIGHEST_PROTOCOL)) / 1e6,
            "runner.parallel_speedup": replay_s / median(passes),
            "bench.replay_cpu_per_wall": cpu_per_wall,
            "bench.trace_overhead_pct": 100.0 * (traced_s / replay_s - 1.0),
            "bench.map": _map(results[0]),
        }
    rounds = sum(row[2] for row in results[0].values())
    return Outcome(
        attempted=attempted,
        failed=failed,
        end_to_end={
            # Rounds inside the Spark task cannot be timed one by one: this is
            # pass time per feedback round, median over the timed passes.
            "round_ms_p50": median([p * 1e3 / rounds for p in passes]),
            "searches_per_s": median([len(timed) / p for p in passes]),
            "setup_s": median(setups),
        },
        layers=layers,
        summary={
            "passes_s": passes,
            "searches_per_pass": len(timed),
            "rounds_per_pass": rounds,
            "replay_s": replay_s,
            "map": _map(results[0]),
            "setup_s_each": setups,
        },
    )


WORKLOADS: dict[str, Callable[[Run], Outcome]] = {
    "interactive": interactive,
    "sweep-coarse": sweep_coarse,
}
