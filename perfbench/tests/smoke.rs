//! The benchmark's own tests: reduced-size runs of every workload, and
//! checks that the output checks have teeth.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;
use step_perfbench::serving::Replay;
use step_perfbench::sweep::{Sweep, failing_point, points};
use step_perfbench::{
    Config, END_TO_END, Kind, MIN_ROUNDS, Output, PER_LAYER, Size, Workload, run, run_workload,
};

/// A parsed JSON value — just enough to read `BENCHMARK.json` and the
/// result line.
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
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array: {self:?}"),
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
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    assert!(m.insert(k, self.value()).is_none(), "duplicate key");
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
                let start = self.i + 1;
                self.i = start;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected");
                    self.i += 1;
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
                let t = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t}")))
            }
        }
    }
}

fn config(kind: Kind, trace: bool) -> Config {
    Config {
        kind,
        seed: 5,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    }
}

/// Checks the result line of `out` against the metric list it must carry.
fn check_result(out: &Output, expected: &[(&str, &str)]) {
    let line = Json::parse(&out.json());
    assert_eq!(line.get("correct"), &Json::Bool(true), "{:?}", out.lines);
    assert_eq!(line.get("failed"), &Json::Num(0.0));
    assert!(matches!(line.get("attempted"), Json::Num(n) if *n >= 1.0));
    let Json::Obj(metrics) = line.get("metrics") else {
        panic!("metrics is not an object")
    };
    let names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(metrics.len(), names.len(), "{:?}", metrics.keys());
    for (name, unit) in expected {
        let m = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(m.get("unit").str(), *unit, "{name}");
        assert!(
            matches!(m.get("value"), Json::Num(v) if v.is_finite()),
            "{name}"
        );
    }
}

fn digest_lines(out: &Output) -> Vec<&String> {
    out.lines
        .iter()
        .filter(|l| l.starts_with("digest") || l.starts_with("ref_error_pct"))
        .collect()
}

#[test]
fn smoke_runs_print_every_metric_with_no_failures_and_one_digest() {
    for kind in [Kind::Sweep, Kind::Replay] {
        let plain = run(&config(kind, false), Instant::now());
        check_result(&plain, &END_TO_END);
        for (name, value) in [("wall_s", 0.0), ("setup_s", 0.0), ("peak_rss_mb", 0.0)] {
            let m = plain.metrics.iter().find(|m| m.name == name).unwrap();
            assert!(m.value > value, "{kind:?} {name} = {}", m.value);
        }
        let traced = run(&config(kind, true), Instant::now());
        check_result(&traced, &PER_LAYER);
        assert!(
            traced.lines.iter().any(|l| l.starts_with("top layers: ")),
            "{:?}",
            traced.lines
        );
        let digest = digest_lines(&plain);
        assert!(digest.len() >= 3, "{kind:?}: {digest:?}");
        assert_eq!(
            digest,
            digest_lines(&traced),
            "{kind:?}: tracing moved the digest"
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let listed = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_owned(),
                    m.get("unit").str().to_owned(),
                )
            })
            .collect()
    };
    let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["sweep", "replay"]);
    for w in workloads {
        assert!(Kind::parse(w).is_some(), "{w}");
    }
}

#[test]
fn replay_against_a_perturbed_cold_report_fails_the_pass() {
    let mut replay = Replay::new(9, Size::Smoke);
    replay.passes = 1;
    replay.setup();
    assert_eq!(replay.setup_tally(), (1, 0));
    let clean = replay.round(None);
    assert_eq!((clean.attempted, clean.failed), (1, 0));
    replay.cold.as_mut().expect("cold pass ran").total_cycles += 1;
    let perturbed = replay.round(None);
    assert_eq!((perturbed.attempted, perturbed.failed), (1, 1));
}

#[test]
fn an_erroring_sweep_point_fails_its_unit_without_aborting_the_run() {
    let n = points(4, Size::Smoke).len() as u64;
    for trace in [false, true] {
        let mut sweep = Sweep::with_extra(4, Size::Smoke, vec![failing_point("injected")]);
        sweep.setup();
        let tracer = std::sync::Arc::new(step_perfbench::spans::Tracer::new());
        let round = sweep.round(trace.then_some(&tracer));
        assert_eq!((round.attempted, round.failed), (n + 1, 1), "trace {trace}");
    }
    let mut sweep = Sweep::with_extra(4, Size::Smoke, vec![failing_point("injected")]);
    let out = run_workload(&config(Kind::Sweep, false), &mut sweep, Instant::now());
    assert!(!out.correct);
    assert_eq!(out.failed, MIN_ROUNDS as u64, "one failure per round");
    assert!(
        out.lines
            .iter()
            .any(|l| l == "digest point injected | failed")
    );
}

#[test]
fn the_command_rejects_bad_flags_without_printing_a_result() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let run = ["--seed", "1", "--seconds", "0", "--trace", "0"];
    for bad in [
        &["--workload", "nope"][..],
        &["--workload", "serve"],
        &["--workload", "replay", "--size", "smoke"],
        &["--workload", "replay", "--trace", "2"],
        &["--workload"],
        &[],
    ] {
        let out = Command::new(bin)
            .args(run)
            .args(bad)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?}");
    }
}
