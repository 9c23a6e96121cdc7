//! One end-to-end run (`--trace 0`): set-up, warm-up, the timed window and
//! its checks. The traced run (`--trace 1`) is in [`crate::layers`].

use std::time::Instant;

use historygraph::{ShardedGraphManager, StorageInfo};
use server::ServerHandle;

use crate::dataset::{self, Inputs};
use crate::load::{self, Layout, Plan, RunShape, ScratchDir, Window};
use crate::spec::{self, Workload, END_TO_END};
use crate::stats::OverSlices;

/// What a run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// What a run measured: named values in the order of the tables in
/// [`crate::spec`], the operation counts, and the lines printed above the
/// result.
pub struct RunResult {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

#[cfg(test)]
impl RunResult {
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }
}

/// A built deployment: what set-up produces.
pub struct Deployment {
    // Dropped in this order: the server drains before its files go away.
    server: Option<ServerHandle>,
    /// `None` for `restart_scan`, which opens per cycle.
    router: Option<ShardedGraphManager>,
    /// Storage statistics of the durable build.
    pub storage: Option<StorageInfo>,
    dir: ScratchDir,
}

/// Dataset generation + index build (+ persist) + server start.
pub fn set_up(args: &RunArgs, shape: &RunShape, label: &str) -> (Inputs, Layout, Deployment, f64) {
    let started = Instant::now();
    let inputs = dataset::generate(spec::scale(args.quick));
    let layout = load::layout(args.workload, &inputs.dataset.events, shape);
    let dir = ScratchDir::new(label);
    let mut deployment = Deployment {
        server: None,
        router: None,
        storage: None,
        dir,
    };
    if args.workload == Workload::RestartScan {
        deployment.storage = Some(load::build_durable(
            &inputs.dataset.events,
            &layout,
            &deployment.dir.0,
        ));
    } else {
        let router = load::build_router(
            args.workload,
            &inputs.dataset.events,
            &layout,
            &deployment.dir.0,
            |store| store,
        );
        deployment.server = Some(load::start_server(&router, shape.conns));
        deployment.router = Some(router);
    }
    (inputs, layout, deployment, started.elapsed().as_secs_f64())
}

pub fn check_inputs(inputs: &Inputs, shape: &RunShape) -> Result<(), String> {
    dataset::check_distinct_timestamps(inputs.distinct_timestamps, shape.cache)
}

pub fn run_window(
    args: &RunArgs,
    shape: &RunShape,
    layout: &Layout,
    plan: &Plan,
    deployment: &Deployment,
) -> Window {
    match (&deployment.router, &deployment.server) {
        (Some(router), Some(server)) => {
            plan.bind_keys(router);
            load::run_window(args.workload, server.addr(), plan, shape)
        }
        _ => load::run_restart_cycles(layout, &deployment.dir.0, plan, shape),
    }
}

/// Bytes the history occupies, per event it covers. Events still in an
/// index's in-memory tail (appended, not yet sealed into a leaf) are in
/// neither count, so the value does not depend on where in a leaf the
/// writer happened to stop.
fn stored_bytes_per_event(deployment: &Deployment, layout: &Layout, events: usize) -> f64 {
    match &deployment.router {
        Some(router) => {
            let (mut bytes, mut unsealed) = (0u64, 0usize);
            for shard in router.shard_handles().expect("every shard is built") {
                let stats = shard.read().stats();
                bytes += stats.stored_bytes;
                unsealed += stats.recent_events;
            }
            bytes as f64 / (events - unsealed) as f64
        }
        None => {
            let info = load::open_durable(layout, &deployment.dir.0).storage_info();
            (info.segment_bytes + info.wal_bytes) as f64 / events as f64
        }
    }
}

pub fn fingerprint(
    args: &RunArgs,
    shape: &RunShape,
    inputs: &Inputs,
    layout: &Layout,
    plan: &Plan,
) -> String {
    let scripts: Vec<String> = plan
        .scripts
        .iter()
        .map(|s| format!("\"{:016x}\"", s.fnv()))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"scale\": {}, \"events\": {}, \
         \"distinct_timestamps\": {}, \"trace_fnv1a\": \"{:016x}\", \"script_fnv1a\": [{}], \
         \"git_rev\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \"connections\": {}, \
         \"workers\": {}, \"shards\": {}, \"store\": \"{}\", \"snapshot_cache\": {}, \
         \"response_cache\": {}, \"wal_sync\": \"{}\", \"warmup_s\": {}, \"slice_s\": {}, \
         \"slices\": {}, \"quick\": {}}}",
        args.workload.name(),
        args.seed,
        spec::scale(args.quick),
        inputs.dataset.events.len(),
        inputs.distinct_timestamps,
        inputs.trace_fnv,
        scripts.join(", "),
        tool_output("git", &["rev-parse", "HEAD"]),
        tool_output("rustc", &["-V"]),
        shape.conns,
        shape.conns,
        layout.shards.len(),
        layout.backend,
        shape.cache,
        shape.cache,
        if args.workload == Workload::RestartScan {
            load::WAL_POLICY.to_string()
        } else {
            "none".into()
        },
        shape.warmup.as_secs_f64(),
        shape.slice.as_secs_f64(),
        shape.slices,
        shape.quick,
    )
}

/// First line a tool prints, or `unknown` (a benchmark checkout need not be
/// a git repository).
fn tool_output(program: &str, args: &[&str]) -> String {
    // git must not look for a repository above the working directory.
    let ceiling = std::env::current_dir().unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env(
            "GIT_CEILING_DIRECTORIES",
            ceiling.parent().unwrap_or(&ceiling),
        )
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(|l| l.replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `--trace 0`: the end-to-end metrics of one workload.
pub fn end_to_end(args: &RunArgs) -> Result<RunResult, String> {
    let shape = RunShape::new(args.seconds, args.quick);
    // Set-up is repeated and its median reported; only the last deployment
    // is measured.
    let repeats = if args.quick { 1 } else { 5 };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut built = None;
    for i in 0..repeats {
        drop(built.take());
        let (inputs, layout, deployment, secs) = set_up(args, &shape, &format!("setup{i}"));
        check_inputs(&inputs, &shape)?;
        setup_s.push(secs);
        built = Some((inputs, layout, deployment));
    }
    let (inputs, layout, deployment) = built.expect("at least one set-up");
    let plan = Plan::new(args.workload, args.seed, &inputs, &layout, &shape);
    let mut notes = vec![format!(
        "fingerprint {}",
        fingerprint(args, &shape, &inputs, &layout, &plan)
    )];

    let window = run_window(args, &shape, &layout, &plan, &deployment);
    let rss = load::rss_peak_mb();
    let mismatched = load::check_kept(&window, &inputs.dataset);
    let events = inputs.dataset.events.len() + window.appended.len();
    let stored = stored_bytes_per_event(&deployment, &layout, events);
    drop(deployment);

    let setup = OverSlices::of(&setup_s);
    let ops = window.ops_per_s();
    let p50 = window.lat_us(0.50);
    let p99 = window.lat_us(0.99);
    let over = |name: &str, o: &OverSlices| {
        let values: Vec<String> = o.values.iter().map(|v| format!("{v:.3}")).collect();
        format!(
            "  {name}: median {:.3}, min {:.3}, max {:.3} over [{}]",
            o.median,
            o.min,
            o.max,
            values.join(", ")
        )
    };
    notes.push(over("setup_s (repeats)", &setup));
    notes.push(over("ops_per_s", &ops));
    notes.push(over("lat_p50_us", &p50));
    notes.push(over("lat_p99_us", &p99));
    // Read back by `histbench aa`: slices that disagree by more than a
    // metric's bound cannot resolve a change of the bound's size.
    notes.push(format!(
        "slice_spread ops_per_s={:.4} lat_p50_us={:.4} lat_p99_us={:.4}",
        ops.spread(),
        p50.spread(),
        p99.spread()
    ));
    let min_samples = window.min_slice_samples();
    notes.push(format!(
        "  lat_p99_us samples per slice >= {min_samples}{}",
        if min_samples < 1000 {
            " (fewer than 1000: unresolved at p99, read with its min/max)"
        } else {
            ""
        }
    ));
    let failed = window.failed() + mismatched;
    notes.push(format!(
        "  fail_ratio = {:.6} ({} failed + {mismatched} of {} kept replies mismatched, {} attempted)",
        failed as f64 / window.attempted().max(1) as f64,
        window.failed(),
        window.kept.len(),
        window.attempted()
    ));
    let values = [
        setup.median,
        ops.median,
        p50.median,
        p99.median,
        rss,
        stored,
        window.reply_bytes_per_op(),
    ];
    Ok(RunResult {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        attempted: window.attempted(),
        failed,
        notes,
    })
}
