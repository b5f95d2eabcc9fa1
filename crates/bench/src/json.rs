//! Shared deterministic JSON serialization for the `BENCH_*.json`
//! artefacts.
//!
//! The harness gates on these files being byte-identical across runs and
//! machines, so there is no external JSON dependency and no formatting
//! left to chance: every writer (`BENCH_faults.json`,
//! `BENCH_harness.json`, `BENCH_serve.json`) goes through these helpers
//! with one agreed float grammar:
//!
//! * non-finite values serialize as `null` (JSON has no NaN/Inf),
//! * whole-number floats keep a trailing `.0` so a field never silently
//!   changes JSON type between runs (`2.0`, not `2`),
//! * everything else uses Rust's shortest round-trip `{v}` formatting,
//!   which is deterministic for a given bit pattern.

/// Serializes an `f64` deterministically (see module docs for the
/// grammar).
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Serializes a string with the minimal JSON escapes (quotes,
/// backslashes, control characters) — benchmark and tenant names pass
/// through unchanged.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The element separator for position `i` of a `len`-element JSON array:
/// a comma everywhere except after the last element.
pub fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_are_json_safe_and_type_stable() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.0), "0.0");
        assert_eq!(json_f64(-3.0), "-3.0");
    }

    #[test]
    fn strings_escape_specials() {
        assert_eq!(json_str("lenet5"), "\"lenet5\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\ny\"");
    }

    #[test]
    fn commas_separate_all_but_last() {
        assert_eq!(comma(0, 3), ",");
        assert_eq!(comma(1, 3), ",");
        assert_eq!(comma(2, 3), "");
        assert_eq!(comma(0, 1), "");
    }
}
