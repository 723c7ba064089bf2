"""Metric catalogue and the per-layer metrics of the traced run.

END_TO_END and PER_LAYER are the single source of the names, units and
directions in BENCHMARK.json (test_helpers.py checks they agree).  For
every per-layer metric, MOVES names the end-to-end metric it should
move and the workload it is measured on.
"""

from . import stats

# (name, unit, better, bound)
# Bounds: the time metrics get the largest bound allowed, because on a
# shared 4-core host their quartile spread over ten seeds still reaches
# about 0.1 after calibration (README.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p99_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("kernel_cycles_geomean", "cycles", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("interp_eps", "elem/s", "higher", 0.25),
    ("walk_eps", "elem/s", "higher", 0.25),
    ("walk_2t_eps", "elem/s", "higher", 0.25),
    ("jit_eps", "elem/s", "higher", 0.25),
]

KERNELS = ("gemm", "conv2d", "gemv", "gemm_i8", "conv2d_i8")
EXECUTORS = ("reference", "direct", "packed")
ENGINES = ("interp", "walk", "walk_2t", "jit")

# (name, unit, better, moves, workload)
PER_LAYER = [
    ("serve.parse_us", "us", "lower", "p50_ms", "serve_hotset"),
    ("serve.resolve_us", "us", "lower", "p50_ms", "serve_hotset"),
    ("serve.serialize_us", "us", "lower", "p50_ms", "serve_hotset"),
    ("serve.response_bytes", "bytes", "lower", "p50_ms", "serve_hotset"),
    ("serve.queue_wait_ms", "ms", "lower", "p99_ms", "compile_cold"),
    ("serve.transport_ms", "ms", "lower", "p99_ms", "serve_hotset"),
    ("serve.served_by.memory", "share", "higher", "p50_ms", "serve_hotset"),
    ("serve.served_by.disk", "share", "lower", "p99_ms", "serve_hotset"),
    ("serve.served_by.compile", "share", "lower", "p99_ms", "serve_hotset"),
    ("serve.served_by.coalesced", "share", "higher", "p99_ms",
     "serve_hotset"),
    ("cache.get_memory_us", "us", "lower", "p99_ms", "serve_hotset"),
    ("cache.get_disk_us", "us", "lower", "p99_ms", "serve_hotset"),
    ("cache.put_us", "us", "lower", "p99_ms", "serve_hotset"),
    ("cache.snapshot_us", "us", "lower", "p99_ms", "serve_hotset"),
    ("cache.warm_s", "s", "lower", "setup_s", "serve_hotset"),
    ("cache.store_entries", "count", "higher", "setup_s", "serve_hotset"),
    ("cache.store_build_s", "s", "lower", "setup_s", "serve_hotset"),
    ("amos.replay_us", "us", "lower", "p50_ms", "serve_hotset"),
    ("amos.finish_us", "us", "lower", "p50_ms", "compile_cold"),
    ("mapping.enumerate_ms", "ms", "lower", "p99_ms", "compile_cold"),
    ("mapping.plans", "count", "lower", "p99_ms", "compile_cold"),
    ("explore.tune_ms", "ms", "lower", "p50_ms", "compile_cold"),
    ("explore.screened", "count", "lower", "throughput_per_s",
     "compile_cold"),
    ("explore.measured", "count", "lower", "throughput_per_s",
     "compile_cold"),
    ("explore.generations_run", "count", "lower", "p50_ms", "compile_cold"),
    ("explore.reuse_ratio", "share", "higher", "kernel_cycles_geomean",
     "compile_cold"),
    ("schedule.lower_us", "us", "lower", "p50_ms", "compile_cold"),
    ("schedule.expert_us", "us", "lower", "p50_ms", "compile_cold"),
    ("model.estimate_us", "us", "lower", "p50_ms", "compile_cold"),
    ("sim.simulate_us", "us", "lower", "p50_ms", "compile_cold"),
    ("explore.est_share.lower", "share", "lower", "p50_ms", "compile_cold"),
    ("explore.est_share.model", "share", "lower", "p50_ms", "compile_cold"),
    ("explore.est_share.sim", "share", "lower", "p50_ms", "compile_cold"),
    ("explore.est_share.other", "share", "lower", "p50_ms", "compile_cold"),
    ("explore.span.model_eval_ms", "ms", "lower", "p50_ms", "compile_cold"),
    ("explore.span.measure_ms", "ms", "lower", "p50_ms", "compile_cold"),
    ("explore.span.generation_self_ms", "ms", "lower", "p50_ms",
     "compile_cold"),
    ("explore.span.exploit_ms", "ms", "lower", "p50_ms", "compile_cold"),
    ("warm_start.nearest_us", "us", "lower", "p99_ms", "serve_hotset"),
    ("warm_start.seeded_ratio", "share", "higher", "kernel_cycles_geomean",
     "serve_hotset"),
    ("exec_plan.build_us", "us", "lower", "setup_s", "execute_engines"),
    ("codegen.emit_us", "us", "lower", "setup_s", "execute_engines"),
    ("jit.compile_ms", "ms", "lower", "setup_s", "execute_engines"),
    ("jit.load_ms", "ms", "lower", "setup_s", "execute_engines"),
]
for _k in KERNELS:
    for _x in EXECUTORS:
        for _e in ENGINES:
            PER_LAYER.append(("exec.%s.%s.%s_eps" % (_k, _x, _e), "elem/s",
                              "higher", _e + "_eps", "execute_engines"))
PER_LAYER += [
    ("exec.fallbacks", "count", "lower", "error_rate", "execute_engines"),
    ("trace.coverage.compile_cold", "share", "higher", "-", "compile_cold"),
    ("trace.coverage.serve_hotset", "share", "higher", "-", "serve_hotset"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Time of the harness's calibration loop (harness/calib.cc) on the
# reference core: about its median on a shared 4-core x86 VM
# ("Intel(R) Xeon(R) Processor", gcc 12.2).  Every time metric except
# the traced run's is scaled to this core speed by the loop's time
# measured beside it, so that the host's drift of up to 2x over
# minutes cancels out.
CALIB_REFERENCE_S = 4.0e-3


def _by_name(spans):
    """{name: [durations in us]} over a harness span list."""
    out = {}
    for name, start, end, _, _ in spans:
        out.setdefault(name, []).append(end - start)
    return out


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def coverage(spans):
    """Share of request wall time covered by the request's child spans."""
    selfs = stats.self_times(spans)
    total = own = 0.0
    for idx, span in enumerate(spans):
        if span[0] == "request":
            total += span[2] - span[1]
            own += selfs[idx]
    return 1.0 - own / total if total else 0.0


def scaled_rounds(row):
    """Execution times of an engine row per round, each scaled to the
    reference core speed by the calibration loop run just before and
    after the row in that round."""
    return [[t * stats.speed_scale(calib, CALIB_REFERENCE_S) for t in times]
            for times, calib in zip(row["rounds"], row["calib"])]


def row_eps(row):
    """Elements/s of one engine row: median over its rounds."""
    return row["elements"] / stats.median(
        [stats.median(times) for times in scaled_rounds(row)])


def engine_eps(rows):
    """{engine: median over rounds of the geomean eps over kernel x
    executor in that round}, at the reference core speed."""
    out = {}
    for e in ENGINES:
        mine = [(r["elements"], scaled_rounds(r)) for r in rows
                if r["engine"] == e]
        per_round = [
            stats.geomean(elements / stats.median(rounds[i])
                          for elements, rounds in mine)
            for i in range(len(mine[0][1]))]
        out[e] = stats.median(per_round)
    return out


def per_layer(cold, hot, engines):
    """Per-layer metrics from the three traced sections.

    ``cold`` and ``hot`` hold the served rows of the untraced server
    portion ("served"), the in-process replay ("trace") and, for hot,
    the store build ("store"); ``engines`` is the engines output with
    probe spans.
    """
    m = {}
    hot_spans = _by_name(hot["trace"]["spans"])
    cold_spans = _by_name(cold["trace"]["spans"])
    for name in ("parse", "resolve", "serialize"):
        m["serve.%s_us" % name] = _mean(hot_spans.get("serve." + name, []))
    m["serve.response_bytes"] = _mean(
        [r["bytes"] for r in hot["trace"]["requests"]])

    cold_ok = [(sent, recv, resp) for _, sent, recv, resp in cold["served"]
               if resp and resp.get("ok")]
    m["serve.queue_wait_ms"] = _mean(
        [resp["queue_wait_ms"] for _, _, resp in cold_ok])
    hot_ok = [(due, recv, resp) for due, _, recv, resp in hot["served"]
              if resp and resp.get("ok")]
    m["serve.transport_ms"] = _mean(
        [(recv - due) * 1e3 - resp["latency_ms"] for due, recv, resp in hot_ok])
    for tier in ("memory", "disk", "compile", "coalesced"):
        m["serve.served_by." + tier] = (
            sum(1 for *_, r in hot_ok if r["served_by"] == tier) /
            max(1, len(hot_ok)))

    for name in ("get_memory", "get_disk", "put", "snapshot"):
        m["cache.%s_us" % name] = _mean(hot_spans.get("cache." + name, []))
    m["cache.warm_s"] = _mean(hot_spans.get("cache.warm", [])) / 1e6
    m["cache.store_entries"] = hot["store"]["entries"]
    m["cache.store_build_s"] = hot["store"]["build_s"]
    m["amos.replay_us"] = _mean(hot_spans.get("amos.replay", []))
    m["amos.finish_us"] = _mean(cold_spans.get("amos.finish", []))

    compiled = [r for r in cold["trace"]["requests"] if "plans" in r]
    m["mapping.enumerate_ms"] = _mean(
        cold_spans.get("mapping.enumerate", [])) / 1e3
    m["mapping.plans"] = _mean([r["plans"] for r in compiled])
    tune_us = cold_spans.get("explore.tune", [])
    m["explore.tune_ms"] = _mean(tune_us) / 1e3
    for key, field in (("screened", "screened"), ("measured", "measured"),
                       ("generations_run", "generations")):
        m["explore." + key] = _mean([r[field] for r in compiled])
    screened = sum(r["screened"] for r in compiled)
    measured = sum(r["measured"] for r in compiled)
    m["explore.reuse_ratio"] = (sum(r["reused"] for r in compiled) /
                                max(1, screened))
    probes = {name: _mean(cold_spans.get("probe." + name, []))
              for name in ("schedule.lower", "schedule.expert",
                           "model.estimate", "sim.simulate")}
    for name, value in probes.items():
        m[name + "_us"] = value
    # Estimated split of explore.tune: call counts from the tuner's own
    # telemetry times the probed per-call cost.  Every screened
    # candidate is lowered and modelled; every measured one is lowered
    # again and simulated.
    tune_total = sum(tune_us) or 1.0
    est = {"lower": (screened + measured) * probes["schedule.lower"],
           "model": screened * probes["model.estimate"],
           "sim": measured * probes["sim.simulate"]}
    for name, value in est.items():
        m["explore.est_share." + name] = value / tune_total
    m["explore.est_share.other"] = max(0.0, 1.0 - sum(est.values()) /
                                       tune_total)

    totals, traced = {}, 0
    for _, _, resp in cold_ok:
        if "trace" in resp:
            traced += 1
            stats.tree_totals(resp["trace"].get("spans", []), totals)
    for key, name, column in (("model_eval", "explore.model_eval", 0),
                              ("measure", "explore.measure", 0),
                              ("generation_self", "explore.generation", 1),
                              ("exploit", "explore.exploit", 0)):
        m["explore.span.%s_ms" % key] = (
            totals.get(name, [0.0, 0.0])[column] / max(1, traced) / 1e3)

    hot_compiled = [r for r in hot["trace"]["requests"] if "plans" in r]
    m["warm_start.nearest_us"] = _mean(
        hot_spans.get("warm_start.nearest", []))
    m["warm_start.seeded_ratio"] = (
        sum(r["seeded"] for r in hot_compiled) /
        max(1, sum(r["neighbors"] for r in hot_compiled)))

    eng_spans = _by_name(engines["spans"])
    m["exec_plan.build_us"] = _mean(eng_spans.get("exec_plan.build", []))
    m["codegen.emit_us"] = _mean(eng_spans.get("codegen.emit", []))
    m["jit.compile_ms"] = _mean(eng_spans.get("jit.compile", [])) / 1e3
    m["jit.load_ms"] = _mean(eng_spans.get("jit.load", [])) / 1e3
    for row in engines["rows"]:
        m["exec.%s.%s.%s_eps" % (row["kernel"], row["executor"],
                                 row["engine"])] = row_eps(row)
    m["exec.fallbacks"] = sum(1 for r in engines["rows"] if not r["tier_ok"])
    m["trace.coverage.compile_cold"] = coverage(cold["trace"]["spans"])
    m["trace.coverage.serve_hotset"] = coverage(hot["trace"]["spans"])
    return m
