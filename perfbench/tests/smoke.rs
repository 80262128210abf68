//! Smoke runs of every workload on the tiny world: the result line holds
//! exactly the metrics `BENCHMARK.json` lists for the mode, outputs are
//! verified, and a wrong report pin fails the run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A parsed JSON value: just what the result line and `BENCHMARK.json` use.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {:?} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                let word: &[u8] = match self.s[self.i] {
                    b't' => b"true",
                    b'f' => b"false",
                    _ => b"null",
                };
                assert_eq!(&self.s[self.i..self.i + word.len()], word);
                self.i += word.len();
                match word {
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn catalogue(key: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let Json::Arr(items) = Json::parse(&text).get(key).clone() else {
        panic!("{key} is not a list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(args: &[&str]) -> (Output, Json) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result = Json::parse(last);
    (out, result)
}

fn smoke(workload: &str, trace: &str) {
    let (out, result) = run(&[
        "--workload",
        workload,
        "--seed",
        "0",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--world",
        "tiny",
    ]);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let Json::Obj(top) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);

    let expected = catalogue(if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    });
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let names: Vec<&String> = metrics.keys().collect();
    let mut want: Vec<&String> = expected.iter().map(|(n, _)| n).collect();
    want.sort();
    assert_eq!(names, want, "{workload} --trace {trace} metric names");
    for (name, unit) in &expected {
        let m = &metrics[name];
        assert_eq!(m.get("unit").str(), unit, "{name}");
        let value = m.get("value").num();
        assert!(value.is_finite(), "{name} = {value}");
        if trace == "0" {
            assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
        }
    }
}

#[test]
fn study_reports_every_metric() {
    smoke("study", "0");
    smoke("study", "1");
}

#[test]
fn serve_reports_every_metric() {
    smoke("serve", "0");
    smoke("serve", "1");
}

#[test]
fn a_wrong_pin_fails_the_run() {
    let (out, result) = run(&[
        "--workload",
        "study",
        "--seconds",
        "0",
        "--world",
        "tiny",
        "--expect-digest",
        "0000000000000000",
    ]);
    assert!(!out.status.success());
    assert_eq!(result.get("correct"), &Json::Bool(false));
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
