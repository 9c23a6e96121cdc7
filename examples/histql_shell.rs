//! An interactive `histql` shell over a freshly built historical graph.
//!
//! ```text
//! cargo run --example histql_shell            # toy trace
//! cargo run --example histql_shell -- --churn # small churn trace
//! ```
//!
//! Type `histql` statements at the prompt (`HELP` lists them, `QUIT`
//! exits). The shell runs the same [`histql::Executor`] the TCP server
//! uses, against an in-memory index.

use std::io::{self, BufRead, Write};

use historygraph::{ShardedConfig, ShardedGraphManager};
use histql::Executor;

fn main() {
    let churn = std::env::args().any(|a| a == "--churn");
    let (events, label) = if churn {
        let ds = historygraph::datagen::churn_trace(&historygraph::datagen::ChurnConfig::tiny(42));
        (ds.events, "churn trace")
    } else {
        (historygraph::datagen::toy_trace().events, "toy trace")
    };
    let router = ShardedGraphManager::build_in_memory(&events, ShardedConfig::default())
        .expect("index construction");
    let (start, end) = router.history_range().expect("non-empty history");
    let mut executor = Executor::for_router(router);

    println!("histql shell over a {label}: history [{start}, {end}]");
    println!("try: GET GRAPH AT {end} WITH +node:all+edge:all   (HELP for more, QUIT to exit)");

    let stdin = io::stdin();
    loop {
        print!("histql> ");
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let request = line.trim();
        if request.is_empty() {
            continue;
        }
        if request.eq_ignore_ascii_case("QUIT") {
            break;
        }
        if request.eq_ignore_ascii_case("HELP") {
            print_help(start.raw(), end.raw());
            continue;
        }
        match executor.execute_line(request) {
            Ok(response) => {
                for l in response.to_lines() {
                    println!("{l}");
                }
            }
            Err(e) => println!("ERR {e}"),
        }
    }
}

fn print_help(start: i64, end: i64) {
    let mid = (start + end) / 2;
    println!(
        "\
GET GRAPH AT {mid} WITH +node:all+edge:all
GET GRAPHS AT {start}, {mid}, {end}
GET GRAPH BETWEEN {start} AND {end}
GET GRAPH MATCHING {mid} AND NOT {end}
DIFF {end} {mid}
BIND alice 1
NODE alice AT {mid}
HISTORY NODE alice FROM {start} TO {end}
APPEND NODE {next} 777
STATS
RELEASE ALL
QUIT",
        next = end + 1
    );
}
