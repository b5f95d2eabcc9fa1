//! The one writer of the `BENCH_*.json` artefacts.
//!
//! A harness builds its report as a [`Json`] value (key–value pairs,
//! rows, lists, strings, numbers and bools) and [`Json::render`] lays it
//! out. The harness gates on these files being byte-identical across
//! runs and machines, so there is no external JSON dependency and no
//! layout or formatting left to the callers:
//!
//! * a document is `{`, one member per line indented two spaces per
//!   depth, then `}` and a newline; a member whose value is an object
//!   nests the same way;
//! * rows are `[`, one element per line rendered inline one level
//!   deeper, then `]` at the member's indent (empty rows too);
//! * inline objects are `{"k": v, "k2": v2}` and inline lists
//!   `[a, b]`;
//! * every string goes through the minimal JSON escapes (quotes,
//!   backslashes, control characters);
//! * non-finite floats serialize as `null` (JSON has no NaN/Inf),
//!   whole-number floats keep a trailing `.0` so a field never silently
//!   changes JSON type between runs (`2.0`, not `2`), and everything
//!   else uses Rust's shortest round-trip `{v}` formatting, which is
//!   deterministic for a given bit pattern.

/// A JSON value of a `BENCH_*.json` document. An [`Json::Object`] or
/// [`Json::Rows`] member value is laid out one element per line; every
/// other value, and everything inside a row, renders inline.
#[derive(Clone, Debug)]
pub enum Json {
    /// Key–value members in document order.
    Object(Vec<(&'static str, Json)>),
    /// An array printed one element per line.
    Rows(Vec<Json>),
    /// An array printed on one line.
    List(Vec<Json>),
    /// A string, escaped on output.
    Str(String),
    /// An integer (wide enough for every `u64` and `i64`).
    Int(i128),
    /// A float (see the module docs for the grammar).
    Float(f64),
    /// A bool.
    Bool(bool),
}

impl Json {
    /// Rows of objects, one per item of `items`, each built from the
    /// members `row` returns.
    pub fn rows<T, M>(items: impl IntoIterator<Item = T>, row: impl Fn(T) -> M) -> Json
    where
        M: IntoIterator<Item = (&'static str, Json)>,
    {
        let object = |item| Json::Object(row(item).into_iter().collect());
        Json::Rows(items.into_iter().map(object).collect())
    }

    /// An inline list of strings.
    pub fn strs<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> Json {
        Json::List(items.into_iter().map(|s| s.as_ref().into()).collect())
    }

    /// The document text: this value at depth 0, then a newline.
    pub fn render(&self) -> String {
        self.text(Some(0)) + "\n"
    }

    /// This value as a member whose key sits at `depth` (objects and
    /// rows one element per line), or on one line when `depth` is `None`.
    fn text(&self, depth: Option<usize>) -> String {
        let (open, close, items): (_, _, Vec<String>) = match self {
            Json::Object(members) => {
                let inner = depth.map(|d| d + 1);
                let member = |(k, v): &(&str, Json)| format!("{}: {}", json_str(k), v.text(inner));
                ('{', '}', members.iter().map(member).collect())
            }
            Json::Rows(items) | Json::List(items) => {
                ('[', ']', items.iter().map(|v| v.text(None)).collect())
            }
            Json::Str(s) => return json_str(s),
            Json::Int(n) => return n.to_string(),
            Json::Float(v) => return json_f64(*v),
            Json::Bool(b) => return b.to_string(),
        };
        match depth {
            Some(d) if !matches!(self, Json::List(_)) => {
                let pad = "  ".repeat(d + 1);
                let lines: Vec<String> = items.iter().map(|i| format!("\n{pad}{i}")).collect();
                format!("{open}{}\n{}{close}", lines.join(","), "  ".repeat(d))
            }
            _ => format!("{open}{}{close}", items.join(", ")),
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Integers of every width the reports carry (each fits an `i128`).
macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as i128)
            }
        }
    )*};
}
int_from!(u64, u32, usize, i16);

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Serializes an `f64` deterministically (see module docs for the
/// grammar).
fn json_f64(v: f64) -> String {
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
fn json_str(s: &str) -> String {
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
    fn documents_follow_the_shared_layout() {
        let doc = Json::Object(vec![
            ("name", "a\"b".into()),
            ("count", 3u64.into()),
            (
                "nested",
                Json::Object(vec![
                    ("whole", 2.0.into()),
                    ("rows", Json::rows([1u64, 2], |n| [("n", n.into())])),
                    ("events", Json::Rows(vec![])),
                ]),
            ),
            ("lines", Json::Rows(vec!["x".into(), "y\n".into()])),
            ("list", Json::strs(["p", "q"])),
            ("empty", Json::strs(Vec::<&str>::new())),
            (
                "inline",
                Json::rows([0], |_| {
                    [
                        ("frac", 0.25.into()),
                        ("nan", f64::NAN.into()),
                        ("inf", f64::NEG_INFINITY.into()),
                        ("ok", true.into()),
                        ("tags", Json::strs(["t"])),
                    ]
                }),
            ),
        ]);
        let expected = r#"{
  "name": "a\"b",
  "count": 3,
  "nested": {
    "whole": 2.0,
    "rows": [
      {"n": 1},
      {"n": 2}
    ],
    "events": [
    ]
  },
  "lines": [
    "x",
    "y\n"
  ],
  "list": ["p", "q"],
  "empty": [],
  "inline": [
    {"frac": 0.25, "nan": null, "inf": null, "ok": true, "tags": ["t"]}
  ]
}
"#;
        assert_eq!(doc.render(), expected);
    }
}
