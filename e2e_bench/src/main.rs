//! End-to-end campaign benchmark for DDT: time to verdict on whole
//! campaigns, with each sample in a fresh process.
//!
//! ```text
//! e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! e2e_bench record-census
//! ```
//!
//! A run takes samples of one workload until `--seconds` would be exceeded
//! (at least two, one with `--smoke`), checks every report against the
//! expected census in `census.json`, prints a table of medians on stderr,
//! and prints one JSON line as the last line of stdout:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end metrics; with `--trace
//! 1` they are the per-layer metrics, taken from traced samples that
//! alternate with untraced ones so the tracing overhead can be reported.
//! Working files go to `.bench_work/` under the current directory; each run
//! appends its summary and host context to `.bench_work/results.jsonl`.
//!
//! `record-census` runs every campaign's serial reference once and rewrites
//! `census.json`. `sample`, `resume-store` and `fleet-worker` are the
//! benchmark's own subprocesses.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ddt_e2e_bench::metrics::{self, Measured, Metrics, RunResult};
use ddt_e2e_bench::workloads::{self, Census, SampleOpts, SampleOut};
use serde::Serialize;

/// The census every campaign must reproduce, recorded from the serial
/// reference runs by `record-census`.
const CENSUS: &str = include_str!("../census.json");

/// Least rounds of the quick phases (set-up, resume, replay) in a sample.
const REPS: usize = 5;

/// A sample still running this long after the run started is killed and
/// counted as failed, so a run always ends within three minutes.
const RUN_LIMIT: Duration = Duration::from_secs(170);

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    let v = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    v.parse().map_err(|_| format!("bad {name} value {v:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sample") => sample_main(&args),
        Some("fleet-worker") => fleet_worker_main(&args),
        Some("resume-store") => resume_store_main(&args),
        Some("record-census") => record_census(),
        _ => run_main(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn sample_main(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let w = workloads::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let work = PathBuf::from(flag(args, "--work").ok_or("missing --work")?);
    fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let opts = SampleOpts {
        seed: number(args, "--seed")?,
        index: number(args, "--index")?,
        traced: number(args, "--trace")? == 1,
        reps: number(args, "--reps")? as usize,
        work: &work,
    };
    let out = workloads::run_sample(w, &opts).map_err(|e| e.to_string())?;
    let line = serde_json::to_string(&out).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(())
}

fn fleet_worker_main(args: &[String]) -> Result<(), String> {
    let campaign = flag(args, "--campaign").ok_or("missing --campaign")?;
    let id = number(args, "--worker-id")?;
    let peak_file = PathBuf::from(flag(args, "--peak-file").ok_or("missing --peak-file")?);
    workloads::fleet_worker(&campaign, id, &peak_file).map_err(|e| e.to_string())
}

fn resume_store_main(args: &[String]) -> Result<(), String> {
    let campaign = flag(args, "--campaign").ok_or("missing --campaign")?;
    let store = PathBuf::from(flag(args, "--store").ok_or("missing --store")?);
    let resumed = workloads::resume_store(&campaign, &store).map_err(|e| e.to_string())?;
    let line = serde_json::to_string(&resumed).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(())
}

fn record_census() -> Result<(), String> {
    let mut all = Vec::new();
    for c in workloads::WORKLOADS.iter().flat_map(|w| w.campaigns) {
        let census = workloads::reference_census(c);
        eprintln!(
            "{}: {} bug(s), {} paths, {} blocks",
            c.name,
            census.bugs.len(),
            census.paths,
            census.covered
        );
        all.push(census);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("census.json");
    let text = serde_json::to_string_pretty(&all).map_err(|e| e.to_string())?;
    fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// One finished sample process: its output, or why it failed.
type SampleResult = Result<SampleOut, String>;

/// Runs one sample in a fresh process and waits for it, killing it past
/// `deadline`.
fn spawn_sample(
    workload: &str,
    seed: u64,
    index: u64,
    traced: bool,
    reps: usize,
    work: &Path,
    deadline: Instant,
) -> SampleResult {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["sample", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--index", &index.to_string()])
        .args([
            "--trace",
            if traced { "1" } else { "0" },
            "--reps",
            &reps.to_string(),
        ])
        .arg("--work")
        .arg(work)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn sample: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("sample killed {RUN_LIMIT:?} into the run"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(e.to_string()),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "sample reader panicked".to_string())?;
    let status = status?;
    let text = text.map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("sample exited with {status}"));
    }
    let line = text.lines().last().ok_or("sample printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("sample output: {e}"))
}

/// Why a sample's census differs from the expected one, if it does. The
/// hybrid leg has no recorded census; it must match the run's first
/// sample, which ran it with the same seed.
fn census_mismatch(
    sample: &SampleOut,
    expected: &BTreeMap<String, Census>,
    hybrid_ref: &Option<Census>,
) -> Option<String> {
    for got in &sample.census {
        let key = got
            .campaign
            .strip_prefix("resume:")
            .unwrap_or(&got.campaign);
        let Some(want) = expected.get(key) else {
            return Some(format!("{}: no expected census", got.campaign));
        };
        let same = got.bugs == want.bugs
            && got.paths == want.paths
            && got.covered == want.covered
            && got.exhausted == want.exhausted;
        if !same {
            return Some(format!("{}: got {got:?}, expected {want:?}", got.campaign));
        }
    }
    if hybrid_ref.is_some() && &sample.hybrid != hybrid_ref {
        return Some("hybrid leg differs from the run's first sample at the same seed".into());
    }
    None
}

/// Host context recorded with every run.
#[derive(Serialize)]
struct Host {
    nproc: u64,
    rustc: String,
    git_rev: String,
    date: String,
}

/// One line of `.bench_work/results.jsonl`: a run, its host and its
/// samples' main times.
#[derive(Serialize)]
struct Record {
    workload: String,
    seed: u64,
    trace: u64,
    host: Host,
    samples_campaign_setup_resume_replay_s: Vec<[f64; 4]>,
    result: RunResult,
}

fn host_context() -> Host {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only `./.git` is consulted: the benchmark reads nothing outside the
    // directory it runs in. A checkout without git history has no rev.
    let rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    let unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Host {
        nproc: nproc as u64,
        rustc: env!("E2E_RUSTC_VERSION").to_string(),
        git_rev: rev,
        date: utc_date(unix),
    }
}

/// Formats a Unix time as an ISO-8601 UTC timestamp.
fn utc_date(unix: u64) -> String {
    let (days, secs) = (unix / 86_400, unix % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        secs / 60 % 60,
        secs % 60
    )
}

/// A value as reported: non-finite values (a ratio over an empty base)
/// read 0, which JSON can carry.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

fn run_main(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    workloads::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = number(args, "--seed")?;
    let seconds = number(args, "--seconds")?;
    let traced = match number(args, "--trace")? {
        0 => false,
        1 => true,
        n => return Err(format!("bad --trace value {n}")),
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let expected: Vec<Census> =
        serde_json::from_str(CENSUS).map_err(|e| format!("census.json: {e}"))?;
    let expected: BTreeMap<String, Census> = expected
        .into_iter()
        .map(|c| (c.campaign.clone(), c))
        .collect();

    let bench_dir = PathBuf::from(".bench_work");
    let work = bench_dir.join(format!("{name}-{seed}-{}", std::process::id()));
    let min_samples = if smoke { 1 } else { 2 };
    let reps = if smoke { 1 } else { REPS };

    // Closed loop: the next sample starts when the previous one ended, and
    // only while it is expected to finish within the run's time.
    let started = Instant::now();
    let budget = seconds as f64;
    let mut samples: Vec<SampleOut> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut hybrid_ref: Option<Census> = None;
    let mut index = 0u64;
    loop {
        let done = samples.len() + failures.len();
        if done >= min_samples {
            let mean = started.elapsed().as_secs_f64() / done as f64;
            if smoke || started.elapsed().as_secs_f64() + mean > budget {
                break;
            }
        }
        // In a traced run, samples alternate traced and untraced, starting
        // with a traced one.
        let sample_traced = traced && index.is_multiple_of(2);
        let dir = work.join(format!("sample-{index}"));
        let result = spawn_sample(
            &name,
            seed,
            index,
            sample_traced,
            reps,
            &dir,
            started + RUN_LIMIT,
        );
        let _ = fs::remove_dir_all(&dir);
        index += 1;
        match result {
            Ok(s) => {
                // A replay that does not reproduce is measured by
                // `replay_pass_rate`, not gated: the report itself is right.
                if let Some(why) = census_mismatch(&s, &expected, &hybrid_ref) {
                    failures.push(format!("sample {}: census mismatch: {why}", index - 1));
                } else {
                    if hybrid_ref.is_none() {
                        hybrid_ref = s.hybrid.clone();
                    }
                    samples.push(s);
                }
            }
            Err(e) => failures.push(format!("sample {}: {e}", index - 1)),
        }
        if failures.len() > 2 {
            break;
        }
    }
    let _ = fs::remove_dir_all(&work);
    for f in &failures {
        eprintln!("e2e_bench: {f}");
    }
    let mut not_reproduced: Vec<&String> = samples.iter().flat_map(|s| &s.not_reproduced).collect();
    not_reproduced.sort();
    not_reproduced.dedup();
    for bug in not_reproduced {
        eprintln!("e2e_bench: replay did not reproduce {bug}");
    }

    let attempted = samples.len() + failures.len();
    let replays: u64 = samples.iter().map(|s| s.replays).sum();
    let replay_failed: u64 = samples.iter().map(|s| s.replay_failed).sum();
    let mismatched = failures
        .iter()
        .filter(|f| f.contains("census mismatch"))
        .count();
    let untraced: Vec<&SampleOut> = samples.iter().filter(|s| !s.traced).collect();
    let traced_samples: Vec<&SampleOut> = samples.iter().filter(|s| s.traced).collect();

    let med = |xs: &[&SampleOut], f: &dyn Fn(&SampleOut) -> f64| {
        median(xs.iter().map(|s| f(s)).collect())
    };
    // The quick phases report the fastest repetition of the run: slow
    // spells on a shared host can outlast a sample's whole window.
    let fastest =
        |f: &dyn Fn(&SampleOut) -> f64| samples.iter().map(f).reduce(f64::min).unwrap_or(0.0);
    // Campaign wall times, from untraced samples. They are per-layer
    // metrics, reported without a bound (see the README).
    let all: Vec<&SampleOut> = samples.iter().collect();
    let campaign_s = med(&untraced, &|s| s.campaign_s);
    let insns_per_s = med(&untraced, &|s| s.insns as f64 / s.campaign_s);
    let resume_s = fastest(&|s| s.resume_s);

    let mut values: Vec<(&str, &str, f64)> = Vec::new();
    if traced {
        let traced_campaign_s = med(&traced_samples, &|s| s.campaign_s);
        for m in metrics::PER_LAYER {
            let v = match m.name {
                "campaign_s" => campaign_s,
                "insns_per_s" => insns_per_s,
                "resume_s" => resume_s,
                "bench.traced_campaign_s" => traced_campaign_s,
                "bench.trace_overhead_pct" if campaign_s > 0.0 => {
                    100.0 * (traced_campaign_s - campaign_s) / campaign_s
                }
                _ => med(&traced_samples, &|s| {
                    s.layers.get(m.name).copied().unwrap_or(0.0)
                }),
            };
            values.push((m.name, m.unit, v));
        }
    } else {
        for m in metrics::END_TO_END {
            let v = match m.name {
                "setup_s" => fastest(&|s| s.setup_s),
                "peak_rss_mb" => med(&all, &|s| s.peak_rss_mb),
                "replay_s" => fastest(&|s| s.replay_s),
                "bugs_found" => med(&all, &|s| s.bugs_found as f64),
                "coverage_pct" => med(&all, &|s| {
                    100.0 * s.covered_blocks as f64 / s.total_blocks as f64
                }),
                "census_match_rate" => (attempted - mismatched) as f64 / attempted.max(1) as f64,
                "replay_pass_rate" => (replays - replay_failed) as f64 / replays.max(1) as f64,
                other => unreachable!("undeclared end-to-end metric {other}"),
            };
            values.push((m.name, m.unit, v));
        }
    }

    // The human table: every metric with its unit, the ratios with their
    // bases, and the host context.
    let host = host_context();
    eprintln!(
        "workload {name}, seed {seed}, {} sample(s) over {:.1} s",
        attempted,
        started.elapsed().as_secs_f64()
    );
    eprintln!(
        "  nproc {}, {}, git rev {}, {}",
        host.nproc, host.rustc, host.git_rev, host.date
    );
    for (metric, unit, v) in &values {
        eprintln!("  {metric:<28} {v:>16.6} {unit}");
    }
    if !traced {
        eprintln!("  campaign_s (unbounded)      {campaign_s:>16.6} s");
        eprintln!("  insns_per_s (unbounded)     {insns_per_s:>16.6} 1/s");
        eprintln!("  resume_s (unbounded)        {resume_s:>16.6} s");
    }
    eprintln!("  census_mismatch_rate         {mismatched}/{attempted} samples");
    eprintln!("  replay_fail_rate             {replay_failed}/{replays} replays");

    let result = RunResult {
        correct: failures.is_empty() && !samples.is_empty(),
        attempted: attempted as u64,
        failed: failures.len() as u64,
        metrics: Metrics(
            values
                .iter()
                .map(|&(k, unit, v)| {
                    let m = Measured {
                        value: finite(v),
                        unit: unit.to_string(),
                    };
                    (k.to_string(), m)
                })
                .collect(),
        ),
    };
    let result_line = serde_json::to_string(&result).map_err(|e| e.to_string())?;

    // Keep the run and, in a traced run, its spans.
    let record = Record {
        workload: name.clone(),
        seed,
        trace: traced as u64,
        host,
        samples_campaign_setup_resume_replay_s: samples
            .iter()
            .map(|s| [s.campaign_s, s.setup_s, s.resume_s, s.replay_s])
            .collect(),
        result,
    };
    if fs::create_dir_all(&bench_dir).is_ok() {
        if let (Ok(mut f), Ok(line)) = (
            fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(bench_dir.join("results.jsonl")),
            serde_json::to_string(&record),
        ) {
            let _ = writeln!(f, "{line}");
        }
        if traced {
            let spans: Vec<_> = traced_samples.iter().map(|s| &s.spans).collect();
            if let Ok(text) = serde_json::to_string(&spans) {
                let _ = fs::write(bench_dir.join(format!("spans-{name}-{seed}.json")), text);
            }
        }
    }
    let mut stdout = io::stdout();
    writeln!(stdout, "{result_line}").map_err(|e| e.to_string())?;
    Ok(())
}
