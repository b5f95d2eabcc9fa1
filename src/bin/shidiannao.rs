//! Command-line front-end: run any Table 2 benchmark (or all of them) on
//! a configurable accelerator and print the performance, traffic, and
//! energy report.
//!
//! ```text
//! shidiannao [OPTIONS] [NETWORK]
//!
//! NETWORK              benchmark name (default: all ten)
//!   --pe <N>           square PE mesh side (default 8)
//!   --seed <N>         weight/input seed (default 2015)
//!   --no-propagation   disable inter-PE data propagation (Fig. 7 ablation)
//!   --multimap         enable multi-map packing (the rejected §10.2 idea)
//!   --layers           print the per-layer breakdown
//!   --csv <PATH>       dump per-layer statistics as CSV
//! ```

use shidiannao::prelude::*;
use std::process::ExitCode;

struct Options {
    network: Option<String>,
    pe: usize,
    seed: u64,
    propagation: bool,
    multimap: bool,
    layers: bool,
    csv: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        network: None,
        pe: 8,
        seed: 2015,
        propagation: true,
        multimap: false,
        layers: false,
        csv: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pe" => {
                let v = args.next().ok_or("--pe needs a value")?;
                opts.pe = v.parse().map_err(|e| format!("--pe: {e}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--csv" => {
                opts.csv = Some(args.next().ok_or("--csv needs a path")?);
            }
            "--no-propagation" => opts.propagation = false,
            "--multimap" => opts.multimap = true,
            "--layers" => opts.layers = true,
            "--help" | "-h" => {
                return Err("usage: shidiannao [--pe N] [--seed N] [--no-propagation] \
                            [--multimap] [--layers] [--csv PATH] [NETWORK]"
                    .into())
            }
            name if !name.starts_with('-') => opts.network = Some(name.to_string()),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(opts)
}

fn run_one(name_or_builder: NetworkBuilder, opts: &Options) -> Result<(), String> {
    let network = name_or_builder
        .build(opts.seed)
        .map_err(|e| e.to_string())?;
    let mut cfg = AcceleratorConfig::with_pe_grid(opts.pe, opts.pe);
    cfg.inter_pe_propagation = opts.propagation;
    cfg.multi_map_packing = opts.multimap;
    let accel = Accelerator::new(cfg);
    let input = network.random_input(opts.seed ^ 0xABCD);
    let run = accel
        .prepare(&network)
        .and_then(|p| p.session().run(&input))
        .map_err(|e| e.to_string())?;
    assert_eq!(
        run.output(),
        network.forward_fixed(&input).output(),
        "simulator diverged from the golden reference"
    );
    let total = run.stats().total();
    println!(
        "{:<11} {:>9} cycles  {:>7.1} us  {:>6.1}% util  {:>10.1} nJ  {:>7.1} mW",
        network.name(),
        run.stats().cycles(),
        run.seconds() * 1e6,
        100.0 * total.pe_utilization(),
        run.energy().total_nj(),
        run.average_power_mw()
    );
    if let Some(path) = &opts.csv {
        let csv = shidiannao::sim::trace::stats_to_csv(run.stats());
        std::fs::write(path, csv).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("    per-layer statistics written to {path}");
    }
    if opts.layers {
        for layer in run.stats().layers() {
            println!(
                "    {:<5} {:>9} cycles  {:>6.1}% util  NBin {:>8} B  SB {:>8} B  FIFO {:>8}",
                layer.label,
                layer.cycles,
                100.0 * layer.pe_utilization(),
                layer.nbin.read_bytes,
                layer.sb.read_bytes,
                layer.fifo_pops
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &opts.network {
        Some(name) => match zoo::by_name(name) {
            Some(b) => run_one(b, &opts),
            None => Err(format!(
                "unknown network '{name}'; available: {}",
                zoo::all()
                    .iter()
                    .map(|b| b.name().to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        },
        None => zoo::all().into_iter().try_for_each(|b| run_one(b, &opts)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
