//! Shared plumbing: child processes with exact resource usage, order
//! statistics, a seeded generator, host facts and a small JSON writer.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// What one finished child process did.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    /// Spawn to reap.
    pub wall: Duration,
    /// Peak resident set of the child, in KiB (`ru_maxrss`).
    pub max_rss_kb: u64,
    /// User plus system CPU time of the child.
    pub cpu: Duration,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs,
/// of which `ru_maxrss` is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// A spawned child whose standard output is read as it goes; standard
/// error is read once standard output closes (`gpd` writes at most a few
/// lines there). Dropped without [`Running::wait`] (an error path), it
/// kills and reaps the child.
pub struct Running {
    child: Child,
    start: Instant,
    stdout: BufReader<ChildStdout>,
    reaped: bool,
}

impl Drop for Running {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

pub fn spawn(program: &Path, args: &[String]) -> std::io::Result<Running> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
    Ok(Running {
        child,
        start,
        stdout,
        reaped: false,
    })
}

impl Running {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// When the child was spawned.
    pub fn started(&self) -> Instant {
        self.start
    }

    /// Next line of standard output, without its newline.
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "child closed its standard output",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Reads the rest of the output and reaps the child with its own
    /// resource usage. The wall time spans spawn to reap.
    pub fn wait(mut self) -> std::io::Result<Finished> {
        let mut stdout = String::new();
        self.stdout.read_to_string(&mut stdout)?;
        let mut stderr = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            pipe.read_to_string(&mut stderr)?;
        }
        let pid = i32::try_from(self.child.id()).expect("pid fits in i32");
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C ABI expects; `pid` is our own unreaped child, so wait4
        // reaps exactly it and `Child` is never waited on afterwards.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc != pid {
            return Err(std::io::Error::last_os_error());
        }
        self.reaped = true;
        let wall = self.start.elapsed();
        let code = if status & 0x7f == 0 {
            Some((status >> 8) & 0xff)
        } else {
            None
        };
        let tv = |t: &Timeval| Duration::from_micros((t.sec * 1_000_000 + t.usec).max(0) as u64);
        Ok(Finished {
            code,
            stdout,
            stderr,
            wall,
            max_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
            cpu: tv(&usage.utime) + tv(&usage.stime),
        })
    }
}

/// Runs `program args…` to completion.
pub fn run(program: &Path, args: &[String]) -> std::io::Result<Finished> {
    spawn(program, args)?.wait()
}

/// Linear-interpolation quantile of an ascending slice (`q` in [0, 1]).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Runs a workload's set-up at least `min_reps` times and until it has
/// taken `min_total` in all (at most 200 times), so `setup_s` can be the
/// median of many samples. Every result but the last goes to `discard`,
/// outside the timing. Returns the times in seconds and the last result.
pub fn repeat_setup<T>(
    min_reps: usize,
    min_total: Duration,
    mut make: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    loop {
        let t = Instant::now();
        let made = make()?;
        let took = t.elapsed();
        times.push(took.as_secs_f64());
        total += took;
        if times.len() >= 200 || (times.len() >= min_reps && total >= min_total) {
            return Ok((times, made));
        }
        discard(made)?;
    }
}

/// splitmix64: the benchmark's own seeded stream, independent of the
/// program's generators.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The facts every result carries so a number never travels without its
/// host.
pub fn host_facts(root: &Path, seed: u64) -> BTreeMap<&'static str, String> {
    let mut facts = BTreeMap::new();
    facts.insert("nproc", threads().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    facts.insert("cpu", cpu);
    for (key, index) in [("l2", "index2"), ("l3", "index3")] {
        let size =
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/{index}/size"))
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into());
        facts.insert(key, size);
    }
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    facts.insert("rustc", rustc);
    facts.insert("profile", "release".into());
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    facts.insert("commit", commit);
    facts.insert("seed", seed.to_string());
    facts
}

/// Worker count the load may use: the host's parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite values with every digit Rust prints, `null`
/// otherwise.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
