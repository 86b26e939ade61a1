//! The repository benchmark: three seeded workloads (`web-read`,
//! `web-write`, `replicate`) against one on-disk deployment of the
//! Domino reproduction, measured from the client side over real sockets,
//! with a separately traced run that splits the time across layers.
//!
//! See `perfbench/README.md` for the workloads, the metrics and how to
//! read them.

pub mod client;
pub mod gen;
pub mod layers;
pub mod repl;
pub mod stats;
pub mod trace;
pub mod web;

use std::path::PathBuf;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if args.seconds.is_nan() || args.seconds <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }

    /// Scratch directory for this run's NSF files, inside the working
    /// directory; `main` removes it however the run ends.
    pub fn data_dir(&self) -> PathBuf {
        PathBuf::from(".bench_data").join(format!("{}-{}", self.workload, std::process::id()))
    }
}

pub const WORKLOADS: [&str; 3] = ["web-read", "web-write", "replicate"];

/// The gated end-to-end metrics, reported by every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_ops_per_s", "1/s"),
    ("disk_bytes_per_user_byte", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The result of one run.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The gated end-to-end metrics.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Every end-to-end figure under its own name, for the report.
    pub named: Vec<(String, Option<f64>, &'static str)>,
    /// Per-layer metrics of a traced run.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Free-form report lines.
    pub lines: Vec<String>,
    /// Set when the run could not complete.
    pub aborted: Option<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            e2e: Vec::new(),
            named: Vec::new(),
            layers: Vec::new(),
            lines: Vec::new(),
            aborted: None,
        }
    }

    pub fn abort(mut self, why: String) -> Outcome {
        self.aborted = Some(why);
        self
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    pub fn named(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push((name.into(), Some(value), unit));
    }

    /// A figure that is `None` when the sample cannot support it.
    pub fn named_opt(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        self.named.push((name.into(), value, unit));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    /// Correct: completed, nothing failed, and (for the untraced result
    /// line) every gated figure is a finite number.
    pub fn correct(&self, trace: bool) -> bool {
        self.aborted.is_none()
            && self.failed == 0
            && self.attempted > 0
            && (trace || self.e2e.iter().all(|(_, v, _)| v.is_finite()))
    }

    /// The result line: one JSON object.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = if trace {
            layers::PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    let v = self
                        .layers
                        .iter()
                        .find(|(n, _, _)| n == name)
                        .map_or(0.0, |(_, v, _)| *v);
                    metric(name, v, unit)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(name, unit)| {
                    let v = self
                        .e2e
                        .iter()
                        .find(|(n, _, _)| n == name)
                        .map_or(f64::NAN, |(_, v, _)| *v);
                    metric(name, v, unit)
                })
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(trace),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric(name: &str, v: f64, unit: &str) -> String {
    // JSON has no NaN: a missing figure is reported as null.
    let value = if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}
