//! The benchmark command.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--smoke] [--threads <n>]
//! benchmark all [--seed <u64>] [--seconds <s>] [--trace] [--check] [--smoke] [--workload <name>]...
//! benchmark compare <base.json> <new.json>
//! ```
//!
//! The first form runs one workload in this process. It prints every
//! metric as `workload metric value unit`, writes `results/<workload>.json`
//! (`.layers.json` and `.trace.json` when traced), and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`, holding the
//! end-to-end metrics untraced and the per-layer metrics traced. It exits
//! nonzero when a check failed.
//!
//! `all` runs each workload in a child process of its own (at most 2
//! threads), optionally traced too; `--check` adds two more untraced runs
//! per workload, one on a single thread, and requires every modeled
//! metric to repeat bit for bit. It writes `results/summary.json`.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use shidiannao_benchmark::compare;
use shidiannao_benchmark::json::Json;
use shidiannao_benchmark::metrics::Tier;
use shidiannao_benchmark::run::{err, results_dir, results_json, results_path, Opts, Workload};
use shidiannao_benchmark::workloads;

/// Threads a workload may use.
const THREADS: usize = 2;
/// Timed seconds per phase under `all` unless `--seconds` says otherwise.
const ALL_SECONDS: f64 = 3.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("-h" | "--help") | None => Err(usage()),
        Some(_) => one(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage: benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--smoke] [--threads <n>]\n\
     \x20      benchmark all [--seed <u64>] [--seconds <s>] [--trace] [--check] [--smoke] [--workload <name>]...\n\
     \x20      benchmark compare <base.json> <new.json>\n\
     workloads: vga_convnn zoo_table2 video_static video_pan serve_mixed"
        .to_string()
}

/// Parsed `--key value` options and bare `--flag`s.
struct Args {
    values: BTreeMap<String, Vec<String>>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            values: BTreeMap::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a}\n{}", usage()))?;
            if flags.contains(&key) {
                out.flags.push(key.to_string());
            } else {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                out.values
                    .entry(key.to_string())
                    .or_default()
                    .push(v.clone());
            }
        }
        Ok(out)
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name).and_then(|v| v.last()) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} value {v}")),
        }
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.values.get("workload") {
            None => Ok(Workload::ALL.to_vec()),
            Some(names) => names
                .iter()
                .map(|n| {
                    Workload::parse(n).ok_or_else(|| format!("unknown workload {n}\n{}", usage()))
                })
                .collect(),
        }
    }
}

/// Runs one workload in this process.
fn one(args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(args, &["smoke"])?;
    let [w] = a.workloads()?[..] else {
        return Err(format!("name exactly one --workload\n{}", usage()));
    };
    let seconds: f64 = a.value("seconds", 15.0)?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("bad --seconds {seconds}"));
    }
    let opts = Opts {
        seed: a.value("seed", 1)?,
        seconds,
        trace: a.value::<u8>("trace", 0)? == 1,
        smoke: a.flag("smoke"),
        threads: a.value("threads", THREADS)?.max(1),
    };
    // The simulator's parallel maps read this before spawning workers.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", opts.threads.to_string());
    }
    let out = workloads::run(w, &opts)?;
    for m in out.metrics.all() {
        println!("{} {} {} {}", w.name(), m.decl.name, m.value, m.decl.unit);
    }
    for e in &out.errors {
        eprintln!("{}: {e}", w.name());
    }
    std::fs::create_dir_all(results_dir()).map_err(err)?;
    std::fs::write(results_path(w, opts.trace), results_json(w, &opts, &out)).map_err(err)?;
    let tier = if opts.trace {
        Tier::PerLayer
    } else {
        Tier::EndToEnd
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        out.metrics.line_json(tier)
    );
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs a workload in a child process; returns whether it passed and its
/// results document.
fn child(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    threads: usize,
) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args([
        "--trace",
        if trace { "1" } else { "0" },
        "--threads",
        &threads.to_string(),
    ])
    .env("RAYON_NUM_THREADS", threads.to_string());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(err)?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let passed = output.status.success()
        && Json::parse(last)
            .ok()
            .and_then(|j| j.get("correct").and_then(Json::as_bool))
            == Some(true);
    let doc = std::fs::read_to_string(results_path(w, trace)).map_err(err)?;
    Ok((passed, doc))
}

/// Modeled metric values of a results document, by name.
fn modeled(doc: &str) -> Result<BTreeMap<String, u64>, String> {
    let j = Json::parse(doc)?;
    let metrics = j
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("results without metrics")?;
    Ok(metrics
        .iter()
        .filter(|(_, m)| m.get("source").and_then(Json::as_str) == Some("modeled"))
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?.to_bits())))
        .collect())
}

/// Runs the selected workloads, each in its own process.
fn all(args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(args, &["trace", "check", "smoke"])?;
    let seed: u64 = a.value("seed", 1)?;
    let seconds: f64 = a.value("seconds", ALL_SECONDS)?;
    let smoke = a.flag("smoke");
    let mut docs = Vec::new();
    let mut failures = Vec::new();
    for w in a.workloads()? {
        let (passed, doc) = child(w, seed, seconds, false, smoke, THREADS)?;
        if !passed {
            failures.push(format!("{}: a correctness check failed", w.name()));
        }
        if a.flag("check") {
            let base = modeled(&doc)?;
            for threads in [THREADS, 1] {
                let (passed, again) = child(w, seed, seconds, false, smoke, threads)?;
                if !passed || modeled(&again)? != base {
                    failures.push(format!(
                        "{}: modeled metrics differ on a repeat run with {threads} thread(s)",
                        w.name()
                    ));
                }
            }
        }
        docs.push(doc);
        if a.flag("trace") {
            let (passed, doc) = child(w, seed, seconds, true, smoke, THREADS)?;
            if !passed {
                failures.push(format!(
                    "{}: a correctness check failed in the traced run",
                    w.name()
                ));
            }
            docs.push(doc);
        }
    }
    let summary = results_dir().join("summary.json");
    let body = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"runs\": [\n{}]}}\n",
        docs.join(",\n")
    );
    std::fs::write(&summary, body).map_err(err)?;
    println!("# wrote {}", summary.display());
    for f in &failures {
        eprintln!("benchmark: {f}");
    }
    println!(
        "# {}",
        if failures.is_empty() {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Compares two results files.
fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err(usage());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, worse) =
        compare::render(&compare::load(&read(base)?)?, &compare::load(&read(new)?)?);
    print!("{table}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
