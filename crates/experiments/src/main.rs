//! `mochy-exp` — regenerates the tables and figures of the paper, and offers
//! the dataset tooling of the original MoCHy release.
//!
//! ```text
//! mochy-exp <experiment> [--scale tiny|small|medium]
//! mochy-exp all [--scale tiny|small|medium]
//! mochy-exp list
//! mochy-exp gen <domain> <nodes> <edges> <seed> <path>
//! mochy-exp count <path> [e|a:<samples>|a+:<samples>] [threads]
//! mochy-exp convert <input> [<simplices>] <out.mochy>
//! mochy-exp shard-check [--shards <k,k,...>] [--threads <n>] [--json <path>]
//! mochy-exp snapshot-check [--dir <path>] [--threads <n>] [--reps <n>]
//! mochy-exp ci-budget <budget.json> <profile> <stage>=<ms>...
//! mochy-exp perf [--json <path>] [--threads <n>] [--samples <n>]
//!           [--check <baseline.json>] [--tolerance <pct>] [--min-ms <ms>]
//! mochy-exp loadtest [--json <path>] [--clients <n>] [--requests <n>]
//!           [--repeats <n>] [--seed <n>] [--check <baseline.json>]
//!           [--tolerance <pct>] [--min-ms <ms>] [--min-speedup <x>]
//! mochy-exp dist-check --serve-bin <mochy-serve> [--json <path>]
//!           [--workers <n>] [--nodes <n>] [--edges <n>] [--seed <n>]
//! mochy-exp evolve [--years <n>] [--window <n|none>] [--authors <n>]
//!           [--papers <n>] [--growth <n>] [--seed <n>] [--no-verify]
//! ```

#![forbid(unsafe_code)]

use mochy_experiments::tool::{self, CountAlgorithm};
use mochy_experiments::{
    cibudget, dist, evolve, loadtest, perf, run_experiment, shard, snapshot, ExperimentScale,
    ALL_EXPERIMENTS,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    let command = args[0].as_str();
    if command == "gen" {
        run_gen(&args[1..]);
        return;
    }
    if command == "count" {
        run_count(&args[1..]);
        return;
    }
    if command == "convert" {
        run_convert(&args[1..]);
        return;
    }
    if command == "shard-check" {
        run_shard_check(&args[1..]);
        return;
    }
    if command == "snapshot-check" {
        run_snapshot_check(&args[1..]);
        return;
    }
    if command == "ci-budget" {
        run_ci_budget(&args[1..]);
        return;
    }
    if command == "perf" {
        run_perf(&args[1..]);
        return;
    }
    if command == "loadtest" {
        run_loadtest(&args[1..]);
        return;
    }
    if command == "evolve" {
        run_evolve(&args[1..]);
        return;
    }
    if command == "dist-check" {
        run_dist_check(&args[1..]);
        return;
    }
    let scale = parse_scale(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });

    match command {
        "list" => {
            for name in ALL_EXPERIMENTS {
                println!("{name}");
            }
        }
        "all" => {
            for name in ALL_EXPERIMENTS {
                match run_experiment(name, scale) {
                    Ok(report) => println!("{report}"),
                    Err(message) => {
                        eprintln!("{message}");
                        std::process::exit(1);
                    }
                }
            }
        }
        name => match run_experiment(name, scale) {
            Ok(report) => println!("{report}"),
            Err(message) => {
                eprintln!("{message}");
                print_usage();
                std::process::exit(1);
            }
        },
    }
}

fn run_gen(args: &[String]) {
    if args.len() != 5 {
        eprintln!("usage: mochy-exp gen <domain> <nodes> <edges> <seed> <path>");
        std::process::exit(2);
    }
    let domain = tool::parse_domain(&args[0]).unwrap_or_else(|| {
        eprintln!(
            "unknown domain `{}` (coauth|contact|email|tags|threads)",
            args[0]
        );
        std::process::exit(2);
    });
    let parse_number = |text: &str, what: &str| -> usize {
        text.parse().unwrap_or_else(|_| {
            eprintln!("invalid {what} `{text}`");
            std::process::exit(2);
        })
    };
    let nodes = parse_number(&args[1], "node count");
    let edges = parse_number(&args[2], "edge count");
    let seed = parse_number(&args[3], "seed") as u64;
    match tool::generate_to_file(domain, nodes, edges, seed, std::path::Path::new(&args[4])) {
        Ok(written) => println!("wrote {written} hyperedges to {}", args[4]),
        Err(error) => {
            eprintln!("failed to write dataset: {error}");
            std::process::exit(1);
        }
    }
}

fn run_count(args: &[String]) {
    if args.is_empty() || args.len() > 3 {
        eprintln!("usage: mochy-exp count <path> [e|a:<samples>|a+:<samples>] [threads]");
        std::process::exit(2);
    }
    let algorithm = args
        .get(1)
        .map(|text| {
            CountAlgorithm::parse(text).unwrap_or_else(|| {
                eprintln!("unknown algorithm `{text}` (e, a:<samples>, a+:<samples>)");
                std::process::exit(2);
            })
        })
        .unwrap_or(CountAlgorithm::Exact);
    let threads = args
        .get(2)
        .map(|text| {
            text.parse().unwrap_or_else(|_| {
                eprintln!("invalid thread count `{text}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(1usize);
    match tool::count_file(std::path::Path::new(&args[0]), algorithm, threads, 0) {
        Ok(report) => println!("{report}"),
        Err(error) => {
            eprintln!("failed to count `{}`: {error}", args[0]);
            std::process::exit(1);
        }
    }
}

fn run_convert(args: &[String]) {
    if args.len() < 2 || args.len() > 3 {
        eprintln!("usage: mochy-exp convert <input> [<simplices>] <out.mochy>");
        eprintln!("       (one input: edge-list text; two: Benson nverts + simplices)");
        std::process::exit(2);
    }
    let (inputs, output) = args.split_at(args.len() - 1);
    match snapshot::convert(inputs, &output[0]) {
        Ok(summary) => println!("{summary}"),
        Err(error) => {
            eprintln!("convert failed: {error}");
            std::process::exit(1);
        }
    }
}

fn run_shard_check(args: &[String]) {
    let usage = "usage: mochy-exp shard-check [--shards <k,k,...>] [--threads <n>] \
                 [--json <path>]";
    let mut options = shard::ShardCheckOptions::default();
    let mut json_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(argument) = iter.next() {
        let mut take_value = |what: &str| -> String {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} requires a value");
                std::process::exit(2);
            })
        };
        match argument.as_str() {
            "--json" => json_path = Some(take_value("--json")),
            "--threads" => {
                options.threads = take_value("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("invalid thread count");
                    std::process::exit(2);
                })
            }
            "--shards" => {
                let list = take_value("--shards");
                options.shards = list
                    .split(',')
                    .map(|text| {
                        text.trim().parse().unwrap_or_else(|_| {
                            eprintln!("invalid shard count `{text}` in `{list}`");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }
    let outcome = shard::shard_check(&options).unwrap_or_else(|error| {
        eprintln!("shard-check failed to run: {error}");
        std::process::exit(1);
    });
    // SHARD.json records the full matrix even when the gate fails, so the
    // uploaded artifact shows *what* diverged.
    if let Some(path) = &json_path {
        if let Err(error) = std::fs::write(path, &outcome.json) {
            eprintln!("failed to write {path}: {error}");
            std::process::exit(1);
        }
    }
    print!("{}", outcome.table);
    if outcome.violations.is_empty() {
        println!("shard-equivalence gate passed: all merged reports bit-identical");
    } else {
        eprintln!(
            "shard-equivalence gate FAILED:\n{}",
            outcome.violations.join("\n")
        );
        std::process::exit(1);
    }
}

fn run_snapshot_check(args: &[String]) {
    let mut options = snapshot::SnapshotCheckOptions::default();
    let mut iter = args.iter();
    while let Some(argument) = iter.next() {
        let mut take_value = |what: &str| -> String {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} requires a value");
                std::process::exit(2);
            })
        };
        let parse_count = |text: String, what: &str| -> usize {
            text.parse().unwrap_or_else(|_| {
                eprintln!("invalid {what} `{text}`");
                std::process::exit(2);
            })
        };
        match argument.as_str() {
            "--dir" => options.dir = take_value("--dir"),
            "--threads" => options.threads = parse_count(take_value("--threads"), "thread count"),
            "--reps" => options.reps = parse_count(take_value("--reps"), "rep count"),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: mochy-exp snapshot-check [--dir <path>] [--threads <n>] [--reps <n>]"
                );
                std::process::exit(2);
            }
        }
    }
    match snapshot::snapshot_check(&options) {
        Ok(table) => print!("{table}"),
        Err(violations) => {
            eprintln!("snapshot round-trip gate FAILED:\n{violations}");
            std::process::exit(1);
        }
    }
}

fn run_ci_budget(args: &[String]) {
    if args.len() < 3 {
        eprintln!("usage: mochy-exp ci-budget <budget.json> <profile> <stage>=<ms>...");
        std::process::exit(2);
    }
    let budget = std::fs::read_to_string(&args[0]).unwrap_or_else(|error| {
        eprintln!("failed to read budget {}: {error}", args[0]);
        std::process::exit(1);
    });
    let observed = cibudget::parse_stage_args(&args[2..]).unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(2);
    });
    match cibudget::check(&budget, &args[1], &observed) {
        Ok(summary) => println!("{summary}"),
        Err(violations) => {
            eprintln!("ci-budget gate FAILED against {}:\n{violations}", args[0]);
            eprintln!(
                "(if a stage legitimately grew or was added/removed, update CI_BUDGET.json \
                 in the same commit)"
            );
            std::process::exit(1);
        }
    }
}

fn run_perf(args: &[String]) {
    let mut options = perf::PerfOptions::default();
    let mut check_options = perf::CheckOptions::default();
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(argument) = iter.next() {
        let mut take_value = |what: &str| -> String {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} requires a value");
                std::process::exit(2);
            })
        };
        let parse_number = |text: String, what: &str| -> f64 {
            text.parse().unwrap_or_else(|_| {
                eprintln!("invalid {what} `{text}`");
                std::process::exit(2);
            })
        };
        match argument.as_str() {
            "--json" => json_path = Some(take_value("--json")),
            "--check" => baseline_path = Some(take_value("--check")),
            "--tolerance" => {
                check_options.tolerance_pct = parse_number(take_value("--tolerance"), "tolerance")
            }
            "--min-ms" => check_options.min_ms = parse_number(take_value("--min-ms"), "floor"),
            "--threads" => {
                options.threads = take_value("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("invalid thread count");
                    std::process::exit(2);
                })
            }
            "--samples" => {
                options.samples = take_value("--samples").parse().unwrap_or_else(|_| {
                    eprintln!("invalid sample count");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: mochy-exp perf [--json <path>] [--threads <n>] [--samples <n>] \
                     [--check <baseline.json>] [--tolerance <pct>] [--min-ms <ms>]"
                );
                std::process::exit(2);
            }
        }
    }
    let json = perf::run(&options);
    match &json_path {
        Some(path) => {
            if let Err(error) = std::fs::write(path, &json) {
                eprintln!("failed to write {path}: {error}");
                std::process::exit(1);
            }
            println!(
                "wrote perf matrix to {path} (threads = {}, samples = {}, seed = {})",
                options.threads, options.samples, options.seed
            );
        }
        None => {
            if baseline_path.is_none() {
                print!("{json}");
            }
        }
    }
    if let Some(path) = baseline_path {
        let baseline = std::fs::read_to_string(&path).unwrap_or_else(|error| {
            eprintln!("failed to read baseline {path}: {error}");
            std::process::exit(1);
        });
        match perf::check(&baseline, &json, &check_options) {
            Ok(summary) => println!("{summary}"),
            Err(violations) => {
                eprintln!("perf gate FAILED against {path}:\n{violations}");
                eprintln!(
                    "(if this change legitimately moves timings or counts, refresh the baseline: \
                     mochy-exp perf --json {path} --threads <as before>)"
                );
                std::process::exit(1);
            }
        }
    }
}

fn run_loadtest(args: &[String]) {
    let mut options = loadtest::LoadtestOptions::default();
    let mut check_options = loadtest::CheckOptions::default();
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(argument) = iter.next() {
        let mut take_value = |what: &str| -> String {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} requires a value");
                std::process::exit(2);
            })
        };
        let parse_number = |text: String, what: &str| -> f64 {
            text.parse().unwrap_or_else(|_| {
                eprintln!("invalid {what} `{text}`");
                std::process::exit(2);
            })
        };
        let parse_count = |text: String, what: &str| -> usize {
            text.parse().unwrap_or_else(|_| {
                eprintln!("invalid {what} `{text}`");
                std::process::exit(2);
            })
        };
        match argument.as_str() {
            "--json" => json_path = Some(take_value("--json")),
            "--check" => baseline_path = Some(take_value("--check")),
            "--tolerance" => {
                check_options.tolerance_pct = parse_number(take_value("--tolerance"), "tolerance")
            }
            "--min-ms" => check_options.min_ms = parse_number(take_value("--min-ms"), "floor"),
            "--min-speedup" => {
                check_options.min_speedup = parse_number(take_value("--min-speedup"), "speedup")
            }
            "--clients" => {
                options.clients = parse_count(take_value("--clients"), "client count").max(1)
            }
            "--requests" => {
                options.requests_per_client =
                    parse_count(take_value("--requests"), "request count").max(1)
            }
            "--repeats" => {
                options.repeats = parse_count(take_value("--repeats"), "repeat count").max(1)
            }
            "--seed" => options.seed = parse_count(take_value("--seed"), "seed") as u64,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: mochy-exp loadtest [--json <path>] [--clients <n>] [--requests <n>] \
                     [--repeats <n>] [--seed <n>] [--check <baseline.json>] [--tolerance <pct>] \
                     [--min-ms <ms>] [--min-speedup <x>]"
                );
                std::process::exit(2);
            }
        }
    }
    let json = loadtest::run(&options).unwrap_or_else(|error| {
        eprintln!("loadtest failed: {error}");
        std::process::exit(1);
    });
    match &json_path {
        Some(path) => {
            if let Err(error) = std::fs::write(path, &json) {
                eprintln!("failed to write {path}: {error}");
                std::process::exit(1);
            }
            println!(
                "wrote loadtest report to {path} (clients = {}, requests = {}, seed = {})",
                options.clients, options.requests_per_client, options.seed
            );
        }
        None => {
            if baseline_path.is_none() {
                print!("{json}");
            }
        }
    }
    if let Some(path) = baseline_path {
        let baseline = std::fs::read_to_string(&path).unwrap_or_else(|error| {
            eprintln!("failed to read baseline {path}: {error}");
            std::process::exit(1);
        });
        match loadtest::check(&baseline, &json, &check_options) {
            Ok(summary) => println!("{summary}"),
            Err(violations) => {
                eprintln!("loadtest gate FAILED against {path}:\n{violations}");
                eprintln!(
                    "(if serving legitimately changed, refresh the baseline: \
                     mochy-exp loadtest --json {path} --clients <as before>)"
                );
                std::process::exit(1);
            }
        }
    }
}

fn run_dist_check(args: &[String]) {
    let mut options = dist::DistOptions::default();
    let mut json_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(argument) = iter.next() {
        let mut take_value = |what: &str| -> String {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} requires a value");
                std::process::exit(2);
            })
        };
        let parse_count = |text: String, what: &str| -> usize {
            text.parse().unwrap_or_else(|_| {
                eprintln!("invalid {what} `{text}`");
                std::process::exit(2);
            })
        };
        match argument.as_str() {
            "--serve-bin" => options.serve_bin = take_value("--serve-bin"),
            "--json" => json_path = Some(take_value("--json")),
            "--workers" => options.workers = parse_count(take_value("--workers"), "worker count"),
            "--nodes" => options.nodes = parse_count(take_value("--nodes"), "node count").max(1),
            "--edges" => options.edges = parse_count(take_value("--edges"), "edge count").max(1),
            "--seed" => options.seed = parse_count(take_value("--seed"), "seed") as u64,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: mochy-exp dist-check --serve-bin <mochy-serve> [--json <path>] \
                     [--workers <n>] [--nodes <n>] [--edges <n>] [--seed <n>]"
                );
                std::process::exit(2);
            }
        }
    }
    match dist::run(&options) {
        Ok((summary, document)) => {
            println!("{summary}");
            if let Some(path) = json_path {
                if let Err(error) = dist::write_report(&document, std::path::Path::new(&path)) {
                    eprintln!("{error}");
                    std::process::exit(1);
                }
                println!("wrote dist report to {path}");
            }
        }
        Err(failures) => {
            eprintln!("{failures}");
            std::process::exit(1);
        }
    }
}

fn run_evolve(args: &[String]) {
    let mut options = mochy_experiments::evolve::EvolveOptions::default();
    let mut iter = args.iter();
    while let Some(argument) = iter.next() {
        let mut take_value = |what: &str| -> String {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} requires a value");
                std::process::exit(2);
            })
        };
        let parse_count = |text: String, what: &str| -> usize {
            text.parse().unwrap_or_else(|_| {
                eprintln!("invalid {what} `{text}`");
                std::process::exit(2);
            })
        };
        match argument.as_str() {
            "--years" => options.years = parse_count(take_value("--years"), "year count"),
            "--window" => {
                let value = take_value("--window");
                options.window = if value == "none" {
                    None
                } else {
                    Some(parse_count(value, "window"))
                };
            }
            "--authors" => options.authors = parse_count(take_value("--authors"), "author count"),
            "--papers" => {
                options.papers_first_year = parse_count(take_value("--papers"), "paper count")
            }
            "--growth" => options.papers_growth = parse_count(take_value("--growth"), "growth"),
            "--seed" => options.seed = parse_count(take_value("--seed"), "seed") as u64,
            "--no-verify" => options.verify = false,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: mochy-exp evolve [--years <n>] [--window <n|none>] [--authors <n>] \
                     [--papers <n>] [--growth <n>] [--seed <n>] [--no-verify]"
                );
                std::process::exit(2);
            }
        }
    }
    match evolve::run(&options) {
        Ok(table) => print!("{table}"),
        Err(error) => {
            eprintln!("evolve failed: {error}");
            std::process::exit(1);
        }
    }
}

fn parse_scale(args: &[String]) -> Result<ExperimentScale, String> {
    let mut scale = ExperimentScale::Small;
    let mut iter = args.iter().skip(1);
    while let Some(argument) = iter.next() {
        if argument == "--scale" {
            let value = iter
                .next()
                .ok_or_else(|| "--scale requires a value (tiny|small|medium)".to_string())?;
            scale = ExperimentScale::parse(value)
                .ok_or_else(|| format!("unknown scale `{value}` (tiny|small|medium)"))?;
        } else {
            return Err(format!("unknown argument `{argument}`"));
        }
    }
    Ok(scale)
}

fn print_usage() {
    eprintln!("usage: mochy-exp <experiment|all|list> [--scale tiny|small|medium]");
    eprintln!("       mochy-exp gen <domain> <nodes> <edges> <seed> <path>");
    eprintln!("       mochy-exp count <path> [e|a:<samples>|a+:<samples>] [threads]");
    eprintln!("       mochy-exp convert <input> [<simplices>] <out.mochy>");
    eprintln!("       mochy-exp shard-check [--shards <k,k,...>] [--threads <n>] [--json <path>]");
    eprintln!("       mochy-exp snapshot-check [--dir <path>] [--threads <n>] [--reps <n>]");
    eprintln!("       mochy-exp ci-budget <budget.json> <profile> <stage>=<ms>...");
    eprintln!("       mochy-exp perf [--json <path>] [--threads <n>] [--samples <n>]");
    eprintln!(
        "                      [--check <baseline.json>] [--tolerance <pct>] [--min-ms <ms>]"
    );
    eprintln!("       mochy-exp loadtest [--json <path>] [--clients <n>] [--requests <n>]");
    eprintln!("                          [--repeats <n>] [--seed <n>] [--check <baseline.json>]");
    eprintln!("                          [--tolerance <pct>] [--min-ms <ms>] [--min-speedup <x>]");
    eprintln!("       mochy-exp evolve [--years <n>] [--window <n|none>] [--authors <n>]");
    eprintln!("                        [--papers <n>] [--growth <n>] [--seed <n>] [--no-verify]");
    eprintln!("experiments: {}", ALL_EXPERIMENTS.join(", "));
}
