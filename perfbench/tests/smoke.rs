//! Tiny-size self-test of the benchmark binary: every metric
//! `BENCHMARK.json` lists is emitted with its unit, the correctness gate
//! catches a deliberately corrupted output, and the output digest
//! follows the seed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Just enough JSON for `BENCHMARK.json` and the result line.
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
        assert_eq!(p.i, p.s.len(), "trailing input in {text}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
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
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
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
                        panic!("object key at {}", self.i)
                    };
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                self.i = start;
                while self.s[self.i] != b'"' {
                    self.i += 1 + usize::from(self.s[self.i] == b'\\');
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/"))
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// Runs one tiny invocation; returns (exit ok, stdout, last-line result).
fn tiny(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (bool, String, Json) {
    let seed = seed.to_string();
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
        "--ops",
        "4",
    ];
    args.extend_from_slice(extra);
    let out = run(&args);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output").to_string();
    (out.status.success(), stdout, Json::parse(&last))
}

fn digest(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("untraced pass: "))
        .and_then(|l| l.split("digest ").nth(1))
        .and_then(|l| l.split(',').next())
        .expect("untraced pass line with a digest")
        .to_string()
}

fn workloads() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect()
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit() {
    let bench = benchmark_json();
    for workload in workloads() {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let (ok, stdout, result) = tiny(&workload, 1, trace, &[]);
            assert!(ok, "{workload} trace={trace} failed:\n{stdout}");
            assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
            assert_eq!(result.get("failed"), &Json::Num(0.0));
            let metrics = result.get("metrics");
            let Json::Obj(emitted) = metrics else {
                panic!("metrics is not an object")
            };
            let listed = bench.get(list).arr();
            assert_eq!(emitted.len(), listed.len(), "{workload}: extra metrics");
            for m in listed {
                let name = m.get("name").str();
                let got = metrics.get(name);
                assert_eq!(got.get("unit").str(), m.get("unit").str(), "{name}");
                assert!(matches!(got.get("value"), Json::Num(v) if v.is_finite()));
            }
        }
    }
}

#[test]
fn corrupted_outputs_are_caught_by_the_gate() {
    for workload in workloads() {
        let (ok, stdout, result) = tiny(&workload, 1, false, &["--corrupt"]);
        assert!(!ok, "{workload}: corrupted run exited 0:\n{stdout}");
        assert_eq!(result.get("correct"), &Json::Bool(false), "{stdout}");
        assert!(stdout.contains("VIOLATION"), "{stdout}");
    }
}

#[test]
fn digest_follows_the_seed() {
    for workload in workloads() {
        let (_, a, _) = tiny(&workload, 5, false, &[]);
        let (_, b, _) = tiny(&workload, 5, false, &[]);
        let (_, c, _) = tiny(&workload, 6, false, &[]);
        assert_eq!(digest(&a), digest(&b), "{workload}: same seed, new digest");
        assert_ne!(digest(&a), digest(&c), "{workload}: new seed, same digest");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
