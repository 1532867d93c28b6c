//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tree-expand|prodcons|keyed-zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the public pool API for `--seconds`, checks
//! its outputs, and prints one line per metric followed by a JSON result
//! line. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run is split into an untraced and a traced half and the
//! metrics are the per-layer ones, from spans around every public call the
//! traced half makes. See `README.md` beside this file.

mod affinity;
mod handoff;
mod keyed;
mod probe;
mod prodcons;
mod report;
mod tree;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use probe::{Counts, Tracer, Windows};
use report::{ratio, Metrics, END_TO_END, PER_LAYER};

/// The benchmark's command line, checked.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    workload: Workload,
    pub seed: u64,
    seconds: f64,
    pub traced: bool,
}

impl Config {
    /// Length of the untraced run: all of it, or half when traced.
    pub fn untraced_len(&self) -> Duration {
        Duration::from_secs_f64(if self.traced { self.seconds / 2.0 } else { self.seconds })
    }

    /// Length of the traced run.
    pub fn traced_len(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    TreeExpand,
    Prodcons,
    KeyedZipf,
}

impl Workload {
    const NAMES: [(&'static str, Workload); 3] = [
        ("tree-expand", Workload::TreeExpand),
        ("prodcons", Workload::Prodcons),
        ("keyed-zipf", Workload::KeyedZipf),
    ];

    fn name(self) -> &'static str {
        Self::NAMES.iter().find(|(_, w)| *w == self).expect("every workload is named").0
    }
}

/// What a workload run hands back for printing.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// What `attempted` counts.
    pub attempted_what: &'static str,
    pub tracer: Option<Tracer>,
}

const USAGE: &str = "usage: perfbench --workload <tree-expand|prodcons|keyed-zipf> \
                     --seed <u64> --seconds <positive number> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut args = args.skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                let found = Workload::NAMES.iter().find(|(name, _)| *name == value);
                workload = Some(found.ok_or_else(|| bad("unknown workload"))?.1);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Sets the end-to-end throughput and remove-side latency metrics from
/// the closed windows of a run in which `ops` operations took `elapsed`.
pub fn end_to_end(
    m: &mut Metrics,
    w: &Windows,
    window: &str,
    (ops, elapsed): (u64, Duration),
    ops_what: &str,
    call: &str,
) {
    m.set("ops_per_s", w.rate());
    m.note(
        "ops_per_s",
        format!(
            "over {} {window}s; whole run {ops} {ops_what} in {:.3} s",
            w.closed,
            elapsed.as_secs_f64()
        ),
    );
    let [p50, p99] = w.percentiles();
    m.set("remove_p50_ns", p50);
    m.set("remove_p99_ns", p99);
    let (timed, kept) = w.timed();
    let note = format!(
        "{call}: over {} {window}s; ~1 in {} timed, {timed} in all, {kept} kept",
        w.closed,
        probe::SAMPLE_EVERY,
    );
    m.note("remove_p50_ns", note.clone());
    m.note("remove_p99_ns", note);
}

/// Sets the search, transfer and gate metrics from counter deltas.
pub fn layer_counts(m: &mut Metrics, c: &Counts) {
    m.set("search.steals_per_1k_removes", 1000.0 * ratio(c.steals, c.removes));
    m.note("search.steals_per_1k_removes", format!("{} steals / {} removes", c.steals, c.removes));
    let searches = c.steals + c.aborted_removes;
    m.set("search.segments_per_steal", ratio(c.segments_examined, searches));
    m.note("search.segments_per_steal", format!("base: {searches} searches"));
    m.set("transfer.elements_per_steal", ratio(c.elements_stolen, c.steals));
    m.note("transfer.elements_per_steal", format!("base: {} steals", c.steals));
    m.set("gate.aborts_per_1k_removes", 1000.0 * ratio(c.aborted_removes, c.removes));
    m.note("gate.aborts_per_1k_removes", format!("{} aborted passes", c.aborted_removes));
}

/// Sets the share of throughput the traced run lost to tracing.
pub fn trace_overhead(m: &mut Metrics, untraced_rate: f64, traced_rate: f64) {
    m.set("bench.trace_overhead", 1.0 - traced_rate / untraced_rate);
    m.note("bench.trace_overhead", "base: untraced ops/s of the same run");
}

/// The process's peak resident set, in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repository root: the benchmark package sits one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the package has a parent").to_path_buf()
}

/// The checked-out commit, or `unknown` outside a git work tree.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest of the pool sources (`crates/`, `vendor/` and the root
/// manifest), identifying the code under test where git cannot.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let name = path.strip_prefix(&root).unwrap_or(&path).to_string_lossy().into_owned();
        let bytes = std::fs::read(&path).unwrap_or_default();
        for byte in name.bytes().chain(bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args()) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = cfg.workload.name();
    println!("perfbench {name} seed={} seconds={} trace={}", cfg.seed, cfg.seconds, cfg.traced);

    let mut out = match cfg.workload {
        Workload::TreeExpand => tree::run(&cfg),
        Workload::Prodcons => prodcons::run(&cfg),
        Workload::KeyedZipf => keyed::run(&cfg),
    };
    out.metrics.set("peak_rss_mb", peak_rss_mb());
    out.metrics.note("peak_rss_mb", "VmHWM of the whole process");

    println!(
        "host available_parallelism={} measured_parallel={} rustc=\"{}\" commit={} source_fnv64={:016x}",
        bench::host::available_cpus(),
        bench::host::measured_parallel(),
        env!("PERFBENCH_RUSTC"),
        commit(),
        source_digest(),
    );
    if let Some(tracer) = &out.tracer {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{name}-seed{}.spans.csv", cfg.seed));
        match tracer.write_spans(&path) {
            Ok(n) => println!("spans {n} written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "failed_frac {} ({} failed of {} {})",
        ratio(out.failed, out.attempted),
        out.failed,
        out.attempted,
        out.attempted_what
    );
    let names: &[(&str, &str)] = if cfg.traced { &PER_LAYER } else { &END_TO_END };
    out.metrics.print(names, out.attempted.max(1), out.failed);
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
