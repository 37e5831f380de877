//! A JSON reader just large enough for `BENCHMARK.json` and the result
//! line: objects, arrays, strings without escapes beyond `\"` and `\\`,
//! numbers, booleans, null.

// Each test file uses its own part of this.
#![allow(dead_code)]

use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    /// Keys in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value();
        p.space();
        assert_eq!(p.at, p.bytes.len(), "trailing bytes after the JSON value");
        v
    }

    pub fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    pub fn str(&self) -> &str {
        match self {
            Json::String(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    pub fn number(&self) -> f64 {
        match self {
            Json::Number(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    pub fn bool(&self) -> bool {
        match self {
            Json::Bool(b) => *b,
            other => panic!("not a boolean: {other:?}"),
        }
    }

    /// `name → unit` of a metric list (`BENCHMARK.json`) or a metric map
    /// (the result line).
    pub fn units(&self) -> BTreeMap<String, String> {
        match self {
            Json::Array(items) => items
                .iter()
                .map(|m| {
                    (
                        m.get("name").str().to_string(),
                        m.get("unit").str().to_string(),
                    )
                })
                .collect(),
            Json::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                .collect(),
            other => panic!("not a metric list: {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.space();
        assert_eq!(self.bytes[self.at], b, "at byte {}", self.at);
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.space();
        self.bytes[self.at]
    }

    fn literal(&mut self, word: &str, v: Json) -> Json {
        assert!(self.bytes[self.at..].starts_with(word.as_bytes()));
        self.at += word.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            let b = self.bytes[self.at];
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    out.push(self.bytes[self.at]);
                    self.at += 1;
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).expect("utf-8 string")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut pairs = Vec::new();
                while self.peek() != b'}' {
                    if !pairs.is_empty() {
                        self.eat(b',');
                    }
                    let k = self.string();
                    self.eat(b':');
                    pairs.push((k, self.value()));
                }
                self.eat(b'}');
                Json::Object(pairs)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    if !items.is_empty() {
                        self.eat(b',');
                    }
                    items.push(self.value());
                }
                self.eat(b']');
                Json::Array(items)
            }
            b'"' => Json::String(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
                Json::Number(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}
