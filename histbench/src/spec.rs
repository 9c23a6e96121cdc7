//! The fixed names of the benchmark: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `BENCHMARK.json` at the repository
//! root repeats these tables; a unit test keeps the two in step.

/// The four workloads. Later issues cite these names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdPoint,
    HotPoint,
    MixedRw,
    RestartScan,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdPoint,
        Workload::HotPoint,
        Workload::MixedRw,
        Workload::RestartScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPoint => "cold_point",
            Workload::HotPoint => "hot_point",
            Workload::MixedRw => "mixed_rw",
            Workload::RestartScan => "restart_scan",
        }
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdPoint => {
                "distinct times over a disk store: every read plans, fetches, decodes and overlays; both caches and the reactor fast path are bypassed"
            }
            Workload::HotPoint => {
                "four repeated times: parse, response cache and reactor fast path do all the work; index and storage do none, so a change there must not show"
            }
            Workload::MixedRw => {
                "reads of every verb beside one writer on four shards: invalidation, the tail lock, fan-out and the multipoint planner run; a read/ingest trade shows"
            }
            Workload::RestartScan => {
                "recover a durable directory and read every shard once, repeatedly: segment read and index rebuild on first touch dominate; cold_point is its warm twin"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests of the script replayed by hand in a traced run. Counts, not
    /// seconds, so `kvstore.gets_per_point` repeats exactly; sized so the
    /// replay of the slowest class stays within a few seconds.
    pub fn trace_requests(self, quick: bool) -> usize {
        let full = match self {
            Workload::ColdPoint => 320,
            Workload::HotPoint => 2000,
            Workload::MixedRw => 480,
            Workload::RestartScan => 34,
        };
        if quick {
            full.min(96)
        } else {
            full
        }
    }
}

/// `datagen::ChurnConfig` scale, the same for every workload: a quarter of
/// the default trace (~25k events, ~10k distinct timestamps). At the full
/// scale one cold retrieval takes ~17 ms on the reference box, a
/// `restart_scan` cycle ~7 s, and neither a twenty-second window nor the
/// driver's total time cap holds enough of them.
pub fn scale(quick: bool) -> f64 {
    if quick {
        0.05
    } else {
        0.25
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: what a user of the server sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// The bound ISSUE 11 proposed before any spread was measured; kept so
    /// the README can show both.
    pub proposed: f64,
}

/// `fail_ratio` is the eighth end-to-end number of ISSUE 11. It is 0 on a
/// healthy build, so it travels as `failed / attempted` in the result line
/// instead of as a bounded metric.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        proposed: 0.20,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        proposed: 0.10,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        proposed: 0.10,
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        proposed: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        proposed: 0.10,
    },
    EndToEnd {
        name: "stored_bytes_per_event",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
        proposed: 0.02,
    },
    EndToEnd {
        name: "reply_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.08,
        proposed: 0.02,
    },
];

/// One per-layer metric: `layer.name`, where the layer is a module of the
/// repository (or `client`/`trace` for the benchmark's own parts).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 73] = [
    lower("client.lat_p50_us.point", "us"),
    lower("client.lat_p50_us.multipoint", "us"),
    lower("client.lat_p50_us.between", "us"),
    lower("client.lat_p50_us.diff", "us"),
    lower("client.lat_p50_us.node", "us"),
    lower("client.lat_p50_us.history", "us"),
    lower("client.lat_p50_us.append", "us"),
    lower("client.lat_p50_us.append_batch", "us"),
    lower("client.lat_p50_us.release", "us"),
    lower("server.phase_queue_wait_p50_us", "us"),
    lower("server.phase_service_p50_us", "us"),
    lower("server.phase_outbox_flush_p50_us", "us"),
    higher("server.fast_path_ratio", "ratio"),
    lower("server.requests_shed", "count"),
    lower("server.deadline_exceeded", "count"),
    higher("flight.coalesced_ratio", "ratio"),
    lower("server.rtt_overhead_p50_us", "us"),
    lower("histql.parse_us", "us"),
    lower("histql.hot_hit_us", "us"),
    lower("histql.execute_us", "us"),
    lower("histql.render_us", "us"),
    lower("histql.reply_bytes", "B"),
    higher("cache.snapshot_hit_ratio", "ratio"),
    lower("cache.snapshot_evictions", "count"),
    lower("cache.snapshot_invalidations", "count"),
    higher("cache.response_hit_ratio", "ratio"),
    lower("cache.response_invalidations", "count"),
    lower("cache.response_bytes", "B"),
    lower("cache.probe_us", "us"),
    lower("sharded.route_us", "us"),
    lower("sharded.multipoint_fanout", "count"),
    lower("sharded.hydrate_ms", "ms"),
    lower("sharded.skew", "ratio"),
    lower("sharded.rolls", "count"),
    lower("manager.retrieve_cached_us", "us"),
    lower("manager.append_us", "us"),
    lower("manager.append_batch_us", "us"),
    lower("manager.prepare_batch_us", "us"),
    lower("manager.normalized_events", "count"),
    lower("deltagraph.build_s", "s"),
    lower("deltagraph.plan_us", "us"),
    lower("deltagraph.plan_edges", "count"),
    lower("deltagraph.get_snapshot_us", "us"),
    lower("deltagraph.self_us", "us"),
    lower("deltagraph.multipoint_us_per_snapshot", "us"),
    lower("deltagraph.multipoint_share_ratio", "ratio"),
    lower("deltagraph.model_cost_ratio", "ratio"),
    lower("deltagraph.append_event_us", "us"),
    lower("deltagraph.leaves", "count"),
    lower("deltagraph.height", "count"),
    lower("deltagraph.stored_bytes", "B"),
    lower("kvstore.get_us", "us"),
    lower("kvstore.gets_per_point", "count"),
    lower("kvstore.bytes_read_per_point", "B"),
    lower("kvstore.time_share", "ratio"),
    lower("kvstore.put_bytes_per_event", "B"),
    lower("kvstore.wal_append_us", "us"),
    lower("kvstore.segment_read_ms", "ms"),
    lower("kvstore.wal_fsyncs_per_event", "count"),
    lower("kvstore.wal_bytes_per_event", "B"),
    lower("kvstore.segment_bytes_per_event", "B"),
    lower("tgraph.delta_apply_us_per_kelem", "us"),
    lower("tgraph.eventlist_apply_us_per_kevent", "us"),
    lower("tgraph.decode_us_per_kb", "us"),
    lower("graphpool.overlay_us", "us"),
    lower("graphpool.release_us", "us"),
    lower("graphpool.bytes_per_overlay", "B"),
    lower("graphpool.union_elements", "count"),
    lower("durable.build_persist_s", "s"),
    lower("durable.open_ms", "ms"),
    lower("durable.first_answer_ms", "ms"),
    higher("trace.coverage", "ratio"),
    lower("trace.store_wrapper_overhead_ratio", "ratio"),
];

/// Seconds one run measures (`run_seconds`): five 4 s slices.
pub const RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"histbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"histbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_what_the_tables_say() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `histbench manifest > BENCHMARK.json`"
        );
        for m in &END_TO_END {
            assert!(m.bound <= 0.25 && m.bound >= m.proposed, "{}", m.name);
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn names_fit_the_contract() {
        let ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for name in Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(ok(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert_eq!(Workload::parse("mixed_rw"), Some(Workload::MixedRw));
        assert_eq!(Workload::parse("nope"), None);
    }
}
