//! Shared plumbing for the benchmark harness.
//!
//! Every figure and table of the paper's evaluation section has a binary in
//! `src/bin/` that regenerates it, named after it (`fig1_…` through
//! `fig11_…`, plus the auxiliary experiments); this library holds the
//! pieces they share: scaled dataset construction, index builders over
//! memory- or disk-backed stores, timing helpers, and a tiny table
//! printer. Absolute numbers will differ from the paper's (different
//! hardware, scaled datasets, a reimplemented storage engine); the harness is
//! about reproducing the *shape* of each result.

use std::sync::Arc;
use std::time::Instant;

use datagen::{churn_trace, dblp_like, ChurnConfig, Dataset, DblpConfig};
use deltagraph::{DeltaGraph, DeltaGraphConfig, DifferentialFunction};
use kvstore::{DiskStore, KeyValueStore, MemStore};

/// Command-line options shared by every harness binary.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Scale factor applied to the default dataset sizes (1.0 ≈ 20k-edge
    /// Dataset 1; the paper's full datasets correspond to roughly 100×).
    pub scale: f64,
    /// Store the index on disk (default) or in memory.
    pub on_disk: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 1.0,
            on_disk: true,
        }
    }
}

impl HarnessOptions {
    /// Parses `--scale <f>` and `--memory` from the command line; anything
    /// else is ignored so binaries can add their own flags.
    pub fn from_args() -> Self {
        let mut opts = HarnessOptions::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
                        opts.scale = v;
                        i += 1;
                    }
                }
                "--memory" => opts.on_disk = false,
                _ => {}
            }
            i += 1;
        }
        opts
    }

    /// Whether a flag (e.g. `--with-log`) was passed.
    pub fn flag(name: &str) -> bool {
        std::env::args().any(|a| a == name)
    }
}

/// Dataset 1 (growing-only co-authorship analogue) at the given scale.
pub fn dataset1(scale: f64) -> Dataset {
    dblp_like(&DblpConfig::default().scaled(scale))
}

/// Dataset 2 (Dataset 1 + balanced churn) at the given scale.
pub fn dataset2(scale: f64) -> Dataset {
    churn_trace(&ChurnConfig::default().scaled(scale))
}

/// A fresh backing store according to the harness options. Disk stores live
/// under a per-process temporary directory (best-effort cleanup is left to
/// the operating system's temp-dir policy).
pub fn fresh_store(opts: &HarnessOptions, label: &str) -> Arc<dyn KeyValueStore> {
    if opts.on_disk {
        let dir = std::env::temp_dir().join(format!(
            "historygraph-bench-{}-{}",
            std::process::id(),
            label
        ));
        std::fs::create_dir_all(&dir).expect("create bench temp dir");
        Arc::new(DiskStore::create(dir.join("data.log")).expect("create disk store"))
    } else {
        Arc::new(MemStore::new())
    }
}

/// Builds a DeltaGraph over `dataset` with the given parameters.
pub fn build_deltagraph(
    dataset: &Dataset,
    leaf_size: usize,
    arity: usize,
    f: DifferentialFunction,
    store: Arc<dyn KeyValueStore>,
) -> DeltaGraph {
    DeltaGraph::build(
        &dataset.events,
        DeltaGraphConfig::new(leaf_size, arity).with_diff_fn(f),
        store,
    )
    .expect("index construction")
}

/// Runs `f` and returns its result together with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Milliseconds of `f`, discarding its result.
pub fn time_ms(f: impl FnOnce()) -> f64 {
    timed(f).1
}

/// Prints a header followed by aligned rows (simple fixed-width columns), so
/// harness output can be pasted into EXPERIMENTS.md or redirected to CSV-ish
/// post-processing.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(String::len).unwrap_or(0))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i] + 2))
            .collect::<String>()
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Mean of a slice of f64.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_datasets_shrink_with_scale() {
        let small = dataset1(0.02);
        let smaller = dataset1(0.01);
        assert!(small.events.len() > smaller.events.len());
    }

    #[test]
    fn timing_and_mean_helpers() {
        let (value, ms) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(ms >= 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn build_helper_produces_queryable_index() {
        let ds = dataset1(0.01);
        let dg = build_deltagraph(
            &ds,
            200,
            2,
            DifferentialFunction::Intersection,
            Arc::new(MemStore::new()),
        );
        let t = ds.end_time();
        let snap = dg.get_snapshot(t, &tgraph::AttrOptions::all()).unwrap();
        assert_eq!(snap, ds.final_snapshot());
    }
}
