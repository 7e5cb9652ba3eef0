//! The repository benchmark: drives the shipped `gpd` binary from outside
//! on three seeded workloads and prints one JSON result line.
//!
//! ```text
//! gpd-perfbench --gpd PATH --root DIR --workload NAME --seed N --seconds S --trace 0|1 [--self-test]
//! ```
//!
//! `perfbench/run.py` builds both binaries and passes `--gpd`/`--root`.
//! See `perfbench/README.md` for the workloads and the metrics.

mod detect;
mod serve;
mod span;
mod util;

use std::path::PathBuf;

use span::Tracer;
use util::{json_num, json_str};

/// End-to-end metrics, in `BENCHMARK.json` order. Every workload reports
/// every one of them on an untraced run; the report also prints
/// `op_p90_ms`, which host drift moves too far between runs to hold to a
/// bound (see README.md).
const END_TO_END: &[&str] = &["setup_s", "batch_s", "op_p50_ms", "peak_rss_mb"];

/// Per-layer metrics, in `BENCHMARK.json` order. A traced run reports
/// every one; a layer the workload never reaches reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.read_ms", "ms"),
    ("builder.build_ms", "ms"),
    ("slice.build_ms", "ms"),
    ("slice.nodes_before", "count"),
    ("slice.nodes_after", "count"),
    ("singular.ms", "ms"),
    ("scan.runs", "count"),
    ("scan.pair_checks", "count"),
    ("scan.forces_evals", "count"),
    ("scan.par_work_ratio", "ratio"),
    ("relational.ms", "ms"),
    ("conjunctive.ms", "ms"),
    ("symmetric.ms", "ms"),
    ("enumerate.ms", "ms"),
    ("enumerate.cuts", "count"),
    ("enumerate.cuts_per_s", "1/s"),
    ("budget.overhead_ratio", "ratio"),
    ("kernel.clock_row_reads", "count"),
    ("kernel.dominance_batches", "count"),
    ("par.speedup", "ratio"),
    ("par.waves", "count"),
    ("par.steals", "count"),
    ("par.threads_spawned", "count"),
    ("cli.overhead_ms", "ms"),
    ("share.sweep_pct", "%"),
    ("share.load_slice_pct", "%"),
    ("protocol.decode_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("online.observe_ns", "ns"),
    ("online.queue_peak", "count"),
    ("wal.append_us", "us"),
    ("wal.sync_ms", "ms"),
    ("wal.bytes_per_event", "B"),
    ("recovery.open_ms", "ms"),
    ("recovery.records", "count"),
    ("server.cpu_us_per_event", "us"),
    ("server.rejected", "count"),
    ("server.duplicates", "count"),
    ("server.ingest_eps", "1/s"),
    ("ack.p50_ms", "ms"),
    ("ack.p90_ms", "ms"),
    ("ack.p99_ms", "ms"),
    ("gen.lag_ms_p99", "ms"),
    ("gen.invalid_rounds", "count"),
    ("client.send_us", "us"),
    ("tracing.batch_overhead_s", "s"),
];

const WORKLOADS: &[&str] = &["detect_lattice", "detect_polynomial", "serve_stream"];

/// One run's settings and directories.
pub struct Ctx {
    pub gpd: PathBuf,
    pub root: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub self_test: bool,
    /// Scratch for this run's traces and WAL; removed at the end.
    pub work: PathBuf,
    /// Reference answers, cached per seed.
    pub cache: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn push_e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn push_layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: 1,
        });
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

struct Args {
    gpd: PathBuf,
    root: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        gpd: PathBuf::new(),
        root: PathBuf::from("."),
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            a.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--gpd" => a.gpd = PathBuf::from(&value),
            "--root" => a.root = PathBuf::from(&value),
            "--workload" => a.workload = value,
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = number()?.max(1),
            "--trace" => a.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    if !a.gpd.is_file() {
        return Err(format!("gpd binary {:?} not found", a.gpd));
    }
    Ok(a)
}

fn run_workload(args: &Args, workload: &str) -> Result<Outcome, String> {
    let root = std::fs::canonicalize(&args.root).map_err(|e| format!("root: {e}"))?;
    let work =
        root.join(".bench_work")
            .join(format!("{workload}-{}-{}", args.seed, std::process::id()));
    let cache = root.join(".bench_cache");
    for dir in [&work, &cache] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let ctx = Ctx {
        gpd: std::fs::canonicalize(&args.gpd).map_err(|e| format!("gpd: {e}"))?,
        root,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        self_test: args.self_test,
        work: work.clone(),
        cache,
    };
    let result = match workload {
        "detect_lattice" => detect::run(&ctx, detect::Kind::Lattice),
        "detect_polynomial" => detect::run(&ctx, detect::Kind::Polynomial),
        "serve_stream" => serve::run(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut out = result?;
    if args.trace {
        for &(name, unit) in PER_LAYER {
            if !out.layers.iter().any(|m| m.name == name) {
                out.push_layer(name, 0.0, unit);
            }
        }
        if let Some(spans) = &out.spans {
            write_trace(&ctx, workload, spans)?;
        }
    }
    Ok(out)
}

/// Writes the traced run's spans and their per-layer reduction under
/// `.bench_out/`.
fn write_trace(ctx: &Ctx, workload: &str, spans: &Tracer) -> Result<(), String> {
    let dir = ctx.root.join(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let host: Vec<String> = util::host_facts(&ctx.root, ctx.seed)
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let header = format!(
        "\"workload\": {}, \"host\": {{{}}}",
        json_str(workload),
        host.join(", ")
    );
    let path = dir.join(format!("{workload}-seed{}.trace.json", ctx.seed));
    std::fs::write(&path, spans.to_json(&header))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

/// The human report on stderr: host, every metric with unit and sample
/// count, and the notes.
fn report(args: &Args, workload: &str, out: &Outcome) {
    let host: Vec<String> = util::host_facts(&args.root, args.seed)
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("== {workload} (trace {})", u8::from(args.trace));
    eprintln!("host: {}", host.join(" "));
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    for m in metrics {
        eprintln!(
            "  {:<26} {:>16.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    eprintln!(
        "  {:<26} {:>16.4} {:<6} ({} failed of {} attempted)",
        "failed_frac",
        out.failed_frac(),
        "frac",
        out.failed,
        out.attempted
    );
    for n in &out.notes {
        eprintln!("  note: {n}");
    }
}

/// The metrics a run must print: every per-layer metric when traced,
/// every end-to-end metric otherwise.
fn wanted(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    }
}

/// The result line's `metrics` entries, or the names the run missed.
fn metrics_json(
    out: &Outcome,
    trace: bool,
    prefix: &str,
) -> Result<Vec<String>, Vec<&'static str>> {
    let metrics = if trace { &out.layers } else { &out.e2e };
    let mut missing = Vec::new();
    let mut entries = Vec::new();
    for name in wanted(trace) {
        match metrics.iter().find(|m| m.name == name) {
            Some(m) => entries.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&format!("{prefix}{}", m.name)),
                json_num(m.value),
                json_str(m.unit)
            )),
            None => missing.push(name),
        }
    }
    if missing.is_empty() {
        Ok(entries)
    } else {
        Err(missing)
    }
}

fn real_main() -> Result<i32, String> {
    let args = parse_args()?;
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for name in &names {
        let out = run_workload(&args, name)?;
        report(&args, name, &out);
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        metrics.extend(
            metrics_json(&out, args.trace, &prefix)
                .map_err(|missing| format!("{name} did not measure {}", missing.join(", ")))?,
        );
        attempted += out.attempted.max(1);
        failed += out.failed;
        if args.self_test {
            if out.failed == 0 {
                eprintln!("self-test FAILED: a wrong reference left failed_frac at 0");
                return Ok(1);
            }
            eprintln!(
                "self-test passed: the wrong reference raised failed_frac to {}",
                out.failed_frac()
            );
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    Ok(0)
}

fn main() {
    let code = match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gpd-perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
