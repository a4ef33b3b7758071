//! The metric catalogue, read from `BENCHMARK.json` at the repository
//! root: the one place that lists every metric's name and unit. The code
//! keeps only how each metric is computed and what it should move.
//!
//! The `serde_json` this repository builds against is an offline stub
//! that prints JSON but cannot parse it, so this module carries a small
//! reader of its own.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
}

/// The `per_layer` metrics when tracing, else the `end_to_end` ones, in
/// file order.
pub fn metrics(trace: bool) -> Vec<Metric> {
    let group = if trace { "per_layer" } else { "end_to_end" };
    let spec = parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let Some(Value::Array(items)) = get(&spec, group) else {
        panic!("BENCHMARK.json has no {group} list");
    };
    let text = |m: &Value, key: &str| match get(m, key) {
        Some(Value::String(s)) => s.clone(),
        _ => panic!("a {group} entry of BENCHMARK.json has no {key}"),
    };
    items.iter().map(|m| Metric { name: text(m, "name"), unit: text(m, "unit") }).collect()
}

/// The value under `key` if `v` is an object that has one.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                let mut entries = Vec::new();
                self.seq(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.ws();
                    if p.s.get(p.i) != Some(&b':') {
                        return p.err("expected ':'");
                    }
                    p.i += 1;
                    entries.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(entries))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => self.string().map(Value::String),
            _ => self.literal(),
        }
    }

    /// The items of an object or array, after its opening bracket.
    fn seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.i += 1;
        self.ws();
        if self.s.get(self.i) == Some(&close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(&c) if c == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or a closing bracket"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return self.err("expected a string");
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.i) else { return self.err("unterminated string") };
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else { return self.err("bad escape") };
                    self.i += 1;
                    let ch = match e {
                        b'"' | b'\\' | b'/' => e as char,
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).unwrap_or_default();
                            self.i += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(ch) = code else { return self.err("bad \\u escape") };
                            ch
                        }
                        _ => return self.err("bad escape"),
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                c => out.push(c),
            }
        }
    }

    fn literal(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c)) {
            self.i += 1;
        }
        match &self.s[start..self.i] {
            b"true" => Ok(Value::Bool(true)),
            b"false" => Ok(Value::Bool(false)),
            b"null" => Ok(Value::Null),
            word => match std::str::from_utf8(word).ok().and_then(|w| w.parse::<f64>().ok()) {
                Some(n) if n.is_finite() => Ok(Value::Number(n)),
                _ => {
                    self.i = start;
                    self.err("expected a value")
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_printer_writes_and_rejects_bad_documents() {
        let doc = serde_json::json!({
            "a": [1, -2.5, 1e-7, true, Value::Null],
            "b": { "c": "q\"\\\n\tü" },
            "e": [],
        });
        assert_eq!(parse(&doc.to_string()), Ok(doc.clone()));
        assert_eq!(parse(&serde_json::to_string_pretty(&doc).unwrap()), Ok(doc));
        assert_eq!(parse(r#"["\u00fc\/"]"#), Ok(serde_json::json!(["ü/"])));
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\x\"", "nan"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn both_groups_are_listed() {
        assert!(metrics(false).iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(!metrics(true).is_empty());
    }
}
