//! `histbench` — the repository's one performance record.
//!
//! ```text
//! histbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   (the driver's form)
//! histbench <workload> | trace <workload> | all | aa  [--seed n] [--seconds s] [--quick]
//! ```
//!
//! Four closed-loop workloads (`cold_point`, `hot_point`, `mixed_rw`,
//! `restart_scan`) against the in-process `histql` server over real TCP,
//! every reply checked against a replay of the raw trace. `--trace 0`
//! prints the end-to-end metrics, `--trace 1` the per-layer metrics of a
//! separate traced run. The last line of standard output is one JSON object
//! `{correct, attempted, failed, metrics}`. See `README.md` beside this file.

mod dataset;
mod layers;
mod load;
mod run;
mod script;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use run::{RunArgs, RunResult};
use spec::{Better, Workload, END_TO_END};

const USAGE: &str = "usage: histbench --workload <cold_point|hot_point|mixed_rw|restart_scan> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]\n       \
histbench <workload> | trace <workload> | all | aa  [--seed <n>] [--seconds <s>] [--quick]\n       \
histbench manifest";

const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;

enum Command {
    One {
        workload: Workload,
        trace: bool,
    },
    All,
    Aa,
    /// Prints `BENCHMARK.json` as the tables in [`spec`] define it.
    Manifest,
}

struct Cli {
    command: Command,
    seed: u64,
    seconds: f64,
    quick: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: Command::All,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        quick: false,
    };
    let mut workload = None;
    let mut trace = false;
    let mut verb: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number\n{USAGE}"))?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds takes a positive number\n{USAGE}"))?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}\n{USAGE}")),
                };
            }
            "--quick" => cli.quick = true,
            "all" | "aa" | "trace" | "manifest" if verb.is_none() && workload.is_none() => {
                verb = Some(arg)
            }
            name => match Workload::parse(name) {
                Some(w) if workload.is_none() => workload = Some(w),
                _ => return Err(format!("unexpected argument {name:?}\n{USAGE}")),
            },
        }
    }
    cli.command = match (verb, workload) {
        (None, Some(workload)) => Command::One { workload, trace },
        (Some("trace"), Some(workload)) => Command::One {
            workload,
            trace: true,
        },
        (Some("all"), None) => Command::All,
        (Some("aa"), None) => Command::Aa,
        (Some("manifest"), None) => Command::Manifest,
        _ => return Err(USAGE.to_string()),
    };
    if cli.quick && cli.seconds == DEFAULT_SECONDS {
        cli.seconds = 2.5;
    }
    Ok(cli)
}

fn run_one(args: &RunArgs, trace: bool) -> Result<RunResult, String> {
    if trace {
        layers::per_layer(args)
    } else {
        run::end_to_end(args)
    }
}

/// Every metric by name with its unit, then the notes of the run.
fn print_human(args: &RunArgs, trace: bool, result: &RunResult) {
    println!(
        "== {} ({}, seed {}, {} s) ==",
        args.workload.name(),
        if trace { "per-layer" } else { "end-to-end" },
        args.seed,
        args.seconds
    );
    for (name, value, unit) in &result.metrics {
        println!("  {name} = {value:.4} {unit}");
    }
    for note in &result.notes {
        println!("{note}");
    }
}

/// The driver's result line.
fn result_json(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // `{}` prints an f64 with every digit it has.
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// What the suite keeps of one workload's run.
struct SuiteRun {
    /// In the order of [`END_TO_END`].
    values: Vec<f64>,
    failed: u64,
    /// `(max - min) / median` over the slices, per sliced metric.
    slice_spread: Vec<(String, f64)>,
}

/// The number that follows `key` in `text`.
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Runs every workload once (`--trace 0`), each in a process of its own:
/// `rss_peak_mb` is a high-water mark of the whole process, so workloads
/// sharing one would report each other's memory.
fn run_suite(cli: &Cli) -> Result<Vec<(Workload, SuiteRun)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    Workload::ALL
        .into_iter()
        .map(|workload| {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload.name(), "--trace", "0"])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()]);
            if cli.quick {
                child.arg("--quick");
            }
            let out = child
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            if !out.status.success() {
                return Err(format!("{} exited with {}", workload.name(), out.status));
            }
            let result = text.lines().last().unwrap_or_default();
            let values = END_TO_END
                .iter()
                .map(|m| number_after(result, &format!("\"{}\": {{\"value\": ", m.name)))
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| format!("{}: no result line", workload.name()))?;
            let spreads = text
                .lines()
                .find_map(|l| l.strip_prefix("slice_spread "))
                .unwrap_or_default();
            Ok((
                workload,
                SuiteRun {
                    values,
                    failed: number_after(result, "\"failed\": ").unwrap_or(f64::NAN) as u64,
                    slice_spread: spreads
                        .split_whitespace()
                        .filter_map(|pair| pair.split_once('='))
                        .filter_map(|(name, v)| Some((name.to_string(), v.parse().ok()?)))
                        .collect(),
                },
            ))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `histbench aa`: the suite twice on the same build. Every (metric,
/// workload) pair must agree within the metric's bound in both directions.
fn run_aa(cli: &Cli) -> Result<bool, String> {
    let first = run_suite(cli)?;
    let second = run_suite(cli)?;
    println!("== A/A: two runs of the same build ==");
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>7} {:>9}",
        "workload", "metric", "first", "second", "diff", "bound", "proposed"
    );
    let mut agree = true;
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for (i, m) in END_TO_END.iter().enumerate() {
            let (va, vb) = (a.values[i], b.values[i]);
            let diff = worsening(m.better, va, vb);
            let ok = diff.abs() <= m.bound;
            agree &= ok;
            // Slices of one run that disagree by more than the bound cannot
            // resolve a change of the bound's size.
            let unresolved = [a, b].iter().any(|r| {
                r.slice_spread
                    .iter()
                    .any(|(name, spread)| name == m.name && *spread > m.bound)
            });
            println!(
                "{:<14} {:<24} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}% {:>8.0}%{}{}",
                workload.name(),
                m.name,
                va,
                vb,
                diff * 100.0,
                m.bound * 100.0,
                m.proposed * 100.0,
                if ok { "" } else { "  OUTSIDE ITS BOUND" },
                if unresolved {
                    "  unresolved (slice spread > bound)"
                } else {
                    ""
                }
            );
        }
        let failed = a.failed + b.failed;
        agree &= failed == 0;
        println!(
            "{:<14} {:<24} {:>14} {:>14}{}",
            workload.name(),
            "failed",
            a.failed,
            b.failed,
            if failed == 0 { "" } else { "  FAILURES" }
        );
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.command {
        Command::One { workload, trace } => {
            let args = RunArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                quick: cli.quick,
            };
            run_one(&args, trace).map(|result| {
                print_human(&args, trace, &result);
                println!("{}", result_json(&result));
                true
            })
        }
        Command::All => run_suite(&cli).map(|runs| runs.iter().all(|(_, r)| r.failed == 0)),
        Command::Aa => run_aa(&cli),
        Command::Manifest => {
            print!("{}", spec::manifest());
            Ok(true)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("histbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::PER_LAYER;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn both_command_forms_parse() {
        let c = cli(&[
            "--workload",
            "hot_point",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(matches!(
            c.command,
            Command::One {
                workload: Workload::HotPoint,
                trace: true
            }
        ));
        assert_eq!((c.seed, c.seconds), (7, 3.0));
        assert!(matches!(
            cli(&["trace", "cold_point"]).unwrap().command,
            Command::One {
                workload: Workload::ColdPoint,
                trace: true
            }
        ));
        assert!(matches!(
            cli(&["aa", "--quick"]).unwrap().command,
            Command::Aa
        ));
        assert!(matches!(cli(&["all"]).unwrap().command, Command::All));
        assert!(cli(&[]).is_err());
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--trace", "2", "--workload", "mixed_rw"]).is_err());
        assert!(cli(&["--seconds", "0", "--workload", "mixed_rw"]).is_err());
    }

    #[test]
    fn result_line_numbers_are_read_back() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 3, "metrics": {"setup_s": {"value": 0.125, "unit": "s"}, "ops_per_s": {"value": 1.5e3, "unit": "1/s"}}}"#;
        assert_eq!(number_after(line, "\"failed\": "), Some(3.0));
        assert_eq!(number_after(line, "\"setup_s\": {\"value\": "), Some(0.125));
        assert_eq!(
            number_after(line, "\"ops_per_s\": {\"value\": "),
            Some(1500.0)
        );
        assert_eq!(number_after(line, "\"lat_p50_us\": {\"value\": "), None);
    }

    #[test]
    fn worsening_follows_the_direction_of_the_metric() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    /// `--quick`: every workload end to end and traced, on a twentieth-size
    /// trace with short slices; every metric of `BENCHMARK.json` is printed
    /// and no reply is wrong.
    #[test]
    fn quick_suite_prints_every_metric_and_fails_nothing() {
        let started = std::time::Instant::now();
        for workload in Workload::ALL {
            let args = RunArgs {
                workload,
                seed: 1,
                seconds: 2.5,
                quick: true,
            };
            let e2e = run::end_to_end(&args).unwrap();
            let line = result_json(&e2e);
            for m in &END_TO_END {
                assert!(
                    line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                    "{}",
                    m.name
                );
                let v = e2e.value(m.name);
                assert!(
                    v.is_finite() && v > 0.0,
                    "{} = {v} on {}",
                    m.name,
                    workload.name()
                );
            }
            assert_eq!(e2e.failed, 0, "{}: {:?}", workload.name(), e2e.notes);
            assert!(e2e.attempted > 0);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));

            let layers = layers::per_layer(&args).unwrap();
            let line = result_json(&layers);
            assert_eq!(layers.metrics.len(), PER_LAYER.len());
            for m in &PER_LAYER {
                assert!(
                    line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                    "{}",
                    m.name
                );
                assert!(layers.value(m.name).is_finite(), "{}", m.name);
            }
            assert_eq!(layers.failed, 0, "{}: {:?}", workload.name(), layers.notes);
            for note in layers.notes.iter().filter(|n| n.contains("check ")) {
                assert!(
                    note.ends_with(": ok") || note.contains("warning only"),
                    "{}: {note}",
                    workload.name()
                );
            }
        }
        // End to end and traced, all four workloads; `all --quick` alone
        // (end to end only) stays under 20 s.
        if !cfg!(debug_assertions) {
            assert!(started.elapsed().as_secs() < 60, "the quick suite is quick");
        }
    }
}
