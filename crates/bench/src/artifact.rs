//! The scaffold every gated harness subcommand (`bench`, `faults`,
//! `serve`, `cluster`, `tune`, `cascade`, `video`) shares: gate the
//! report, render its summary, and write its `BENCH_*.json` artifact —
//! after, for the subcommands that certify determinism, evaluating it
//! three times (once pinned to a single rayon worker) and comparing the
//! documents.

use std::fmt::Display;

/// A report a gated subcommand writes as a `BENCH_*.json` artifact.
pub trait Artifact {
    /// The machine-readable artifact document.
    fn to_json(&self) -> String;
    /// The human-readable summary printed to stdout.
    fn render(&self) -> String;
    /// Every gate violation (empty = the gates passed).
    fn gate_errors(&self) -> Vec<String>;
}

/// A gated subcommand's outcome: the stdout summary and every gate
/// violation. The harness exits nonzero iff the list is non-empty.
pub type Gated = (String, Vec<String>);

/// Gates `report` and writes its artifact to `path`. Violations are the
/// report's gate errors, then `extra`, then a failed write.
pub fn emit(path: &str, report: &impl Artifact, extra: Vec<String>) -> Gated {
    let mut errors = report.gate_errors();
    errors.extend(extra);
    let mut out = report.render();
    match std::fs::write(path, report.to_json()) {
        Ok(()) => out += &format!("\nwrote {path}\n"),
        Err(e) => errors.push(format!("could not write {path}: {e}")),
    }
    (out, errors)
}

/// Evaluates a `what` report three times — pinned to one rayon worker,
/// then twice at the ambient worker count — and [`emit`]s the second,
/// adding a violation when the three documents are not byte-identical
/// or a repeat evaluation fails.
pub fn emit_deterministic<R: Artifact, E: Display>(
    path: &str,
    what: &str,
    evaluate: impl Fn() -> Result<R, E>,
) -> Gated {
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = evaluate().map(|r| r.to_json());
    match &saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let report = match evaluate() {
        Ok(r) => r,
        Err(e) => return (String::new(), vec![format!("{what} run failed: {e}")]),
    };
    let parallel = report.to_json();
    let third = evaluate().map(|r| r.to_json());

    let mut extra = Vec::new();
    match serial {
        Ok(s) if s != parallel => {
            extra.push(format!(
                "{path} differs between serial and parallel evaluation"
            ));
        }
        Err(e) => extra.push(format!("serial {what} run failed: {e}")),
        _ => {}
    }
    match third {
        Ok(t) if t != parallel => extra.push(format!("{path} differs between two identical runs")),
        Err(e) => extra.push(format!("repeat {what} run failed: {e}")),
        _ => {}
    }
    emit(path, &report, extra)
}
