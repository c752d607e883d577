//! A minimal JSON object writer for the result lines.

use std::fmt::Write as _;

/// A JSON object built field by field, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(String, String)>);

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits; non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    pub fn raw(&mut self, key: &str, json: String) {
        self.0.push((key.to_string(), json));
    }

    pub fn str(&mut self, key: &str, v: &str) {
        self.raw(key, quote(v));
    }

    pub fn num(&mut self, key: &str, v: f64) {
        self.raw(key, number(v));
    }

    pub fn int(&mut self, key: &str, v: u64) {
        self.raw(key, v.to_string());
    }

    pub fn bool(&mut self, key: &str, v: bool) {
        self.raw(key, v.to_string());
    }

    pub fn obj(&mut self, key: &str, v: Obj) {
        self.raw(key, v.render());
    }

    /// Compact one-line rendering.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escaped_compact_json() {
        let mut o = Obj::new();
        o.str("a\"b", "x\ny");
        o.num("n", 1.25);
        o.num("inf", f64::INFINITY);
        o.int("i", 7);
        assert_eq!(
            o.render(),
            r#"{"a\"b":"x\u000ay","n":1.25,"inf":null,"i":7}"#
        );
    }
}
