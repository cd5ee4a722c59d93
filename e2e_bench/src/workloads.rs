//! The workloads and one sample of each. A sample runs in a fresh process
//! (the process-global expression interner starts cold, as it does for a
//! `ddt test` invocation) and goes through the library's public API only:
//! set-up, the workload's campaigns, recovering each checkpoint store from
//! a simulated crash, replaying every bug, and — for `durable_replay` — the
//! hybrid leg.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ddt_core::{
    load_latest, replay_artifact, replay_bug, resume_parallel, run_hybrid, serve, test_parallel,
    CheckpointPolicy, Ddt, DdtConfig, DriverUnderTest, FaultFamily, FaultPlan, FleetConfig,
    FleetEvent, FuzzConfig, ReplayOutcome, Report, WorkerHandle, WorkerLauncher, WorkerOpts,
};
use ddt_drivers::workload::{lifecycle_workload_for, workload_for};
use ddt_isa::image::DxeImage;
use ddt_trace::{triage, FleetFrame, TraceStore};
use serde::{Deserialize, Serialize};

/// Worker count of the parallel and fleet campaigns, sized for a 2-core host.
const WORKERS: usize = 2;

/// How a campaign is run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Ddt::test`.
    Serial,
    /// `test_parallel` with [`WORKERS`] threads.
    Parallel,
    /// `serve` with [`WORKERS`] worker processes.
    Fleet,
}

/// One campaign: a bundled driver under one configuration.
pub struct Campaign {
    /// Census key; also names the campaign to fleet worker processes.
    pub name: &'static str,
    pub driver: &'static str,
    pub faults: bool,
    pub lifecycle: bool,
    pub mode: Mode,
    /// Writes a checkpoint store, from which the sample then recovers.
    pub checkpoint: bool,
    /// Persists bugs to a trace store, from which the sample replays them.
    pub trace_store: bool,
}

pub struct Workload {
    pub name: &'static str,
    pub campaigns: &'static [Campaign],
    /// Ends with a seeded no-drain `run_hybrid` whose corpus is seeded from
    /// the first campaign's trace store.
    pub hybrid: bool,
}

const fn serial(
    name: &'static str,
    driver: &'static str,
    faults: bool,
    lifecycle: bool,
) -> Campaign {
    Campaign {
        name,
        driver,
        faults,
        lifecycle,
        mode: Mode::Serial,
        checkpoint: true,
        trace_store: false,
    }
}

/// Why each workload exists is recorded in this directory's README.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "solver_heavy",
        campaigns: &[serial("pro1000", "pro1000", false, false)],
        hybrid: false,
    },
    Workload {
        name: "fault_sweep",
        campaigns: &[
            serial("clean_nic-faults", "clean_nic", true, false),
            serial("pcnet-faults", "pcnet", true, false),
            serial("ensoniq-faults", "ensoniq", true, false),
            serial("ac97-faults", "ac97", true, false),
            serial("ac97-lifecycle", "ac97", false, true),
        ],
        hybrid: false,
    },
    Workload {
        name: "durable_replay",
        campaigns: &[Campaign {
            trace_store: true,
            ..serial("rtl8029-faults", "rtl8029", true, false)
        }],
        hybrid: true,
    },
    Workload {
        name: "scale_out",
        campaigns: &[
            Campaign {
                mode: Mode::Parallel,
                ..serial("pro100", "pro100", false, false)
            },
            Campaign {
                mode: Mode::Fleet,
                checkpoint: false,
                trace_store: true,
                ..serial("rtl8029", "rtl8029", false, false)
            },
        ],
        hybrid: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn campaign(name: &str) -> Option<&'static Campaign> {
    WORKLOADS
        .iter()
        .flat_map(|w| w.campaigns)
        .find(|c| c.name == name)
}

/// What a campaign's report must show: its bugs, path count, covered
/// blocks, and whether a budget ran out. Bugs are identified by their dedup
/// key, which every exploration mode agrees on; a bug's trace signature
/// depends on which path reached it first, which parallel exploration does
/// not fix.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Census {
    pub campaign: String,
    pub bugs: Vec<String>,
    pub paths: u64,
    pub covered: u64,
    pub exhausted: bool,
}

impl Census {
    pub fn of(campaign: &str, report: &Report) -> Census {
        let mut bugs: Vec<String> = report.bugs.iter().map(|b| b.key.clone()).collect();
        bugs.sort();
        Census {
            campaign: campaign.to_string(),
            bugs,
            paths: report.stats.paths_started,
            covered: report.covered_blocks as u64,
            exhausted: report.health.insn_budget_exhausted || report.health.wall_budget_exhausted,
        }
    }
}

/// One timed interval of the traced run, relative to the sample's start.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

/// Records spans in memory when tracing is on; a no-op otherwise.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &str, parent: Option<u64>) -> Option<u64> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u64;
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_s: now,
            end_s: now,
        });
        Some(id)
    }

    fn close(&mut self, id: Option<u64>) {
        if let Some(id) = id {
            self.spans[id as usize].end_s = self.epoch.elapsed().as_secs_f64();
        }
    }
}

/// Everything one sample measured. Times are in seconds.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct SampleOut {
    pub traced: bool,
    pub setup_s: f64,
    pub campaign_s: f64,
    pub insns: u64,
    pub resume_s: f64,
    pub replay_s: f64,
    pub replays: u64,
    pub replay_failed: u64,
    /// Bugs whose concrete replay did not reproduce them (deduplicated).
    pub not_reproduced: Vec<String>,
    pub bugs_found: u64,
    pub covered_blocks: u64,
    pub total_blocks: u64,
    pub peak_rss_mb: f64,
    /// One entry per campaign and one per distinct report of a recovered
    /// store (`resume:` prefix).
    pub census: Vec<Census>,
    /// The hybrid leg; every sample of a run must agree on it.
    pub hybrid: Option<Census>,
    pub layers: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

/// Sample options chosen by the orchestrator.
pub struct SampleOpts<'a> {
    pub seed: u64,
    pub index: u64,
    pub traced: bool,
    /// Least rounds of the quick phases (see [`more_rounds`]); 1 runs each
    /// phase exactly once.
    pub reps: usize,
    pub work: &'a Path,
}

/// The quick phases (set-up, resume, replay) take turns after the
/// campaigns: each runs for a slice of this many seconds (at least once),
/// round after round, so the repetitions of every phase spread over the
/// whole window.
const SLICE_SECONDS: f64 = 0.05;

/// Rounds continue until this many seconds have passed.
const WINDOW_SECONDS: f64 = 0.75;

/// True while another round should run: at least `min` rounds, then —
/// unless `min` is 1 — until [`WINDOW_SECONDS`] have passed.
fn more_rounds(min: usize, window: Instant, done: usize) -> bool {
    done < min.max(1) || (min > 1 && window.elapsed().as_secs_f64() < WINDOW_SECONDS)
}

/// Builds one campaign's driver under test the way a user's binary
/// arrives: assembled, encoded to `.dxe` bytes, and parsed back.
pub fn build_dut(c: &Campaign) -> DriverUnderTest {
    build_dut_timed(c).0
}

/// [`build_dut`], also returning the seconds spent in assembly, encoding
/// and parsing.
fn build_dut_timed(c: &Campaign) -> (DriverUnderTest, f64) {
    let spec = if c.driver == "clean_nic" {
        ddt_drivers::clean_driver()
    } else {
        ddt_drivers::driver_by_name(c.driver).expect("campaigns name bundled drivers")
    };
    let started = Instant::now();
    let bytes = spec.build().image.to_bytes();
    let image = DxeImage::from_bytes(&bytes).expect("a bundled driver's image parses");
    let isa_s = started.elapsed().as_secs_f64();
    let dut = DriverUnderTest {
        image,
        class: spec.class,
        registry: spec
            .registry
            .iter()
            .map(|&(k, v)| (k.to_string(), v))
            .collect(),
        descriptor: spec.descriptor.clone(),
        workload: if c.lifecycle {
            lifecycle_workload_for(spec.class)
        } else {
            workload_for(spec.class)
        },
    };
    (dut, isa_s)
}

/// The configuration `ddt test <driver> [--faults] [--lifecycle]` uses.
pub fn base_config(c: &Campaign) -> DdtConfig {
    let mut config = DdtConfig::default();
    if c.faults {
        config.fault_plan = FaultPlan::full();
    }
    if c.lifecycle {
        config.fault_plan.enabled = true;
        config.fault_plan.families.insert(FaultFamily::Lifecycle);
    }
    config
}

/// Runs the serial reference campaign of `c`: the census every mode of it
/// must reproduce.
pub fn reference_census(c: &Campaign) -> Census {
    Census::of(c.name, &Ddt::new(base_config(c)).test(&build_dut(c)))
}

/// The fastest of a quick phase's repetitions. On a shared host, slow
/// spells of a second or so double the cost of allocation-heavy code; the
/// minimum over a window of repetitions is the phase's cost outside them.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The checkpoint files of a store, oldest first (sequence numbers are
/// zero-padded, so names sort in sequence order).
fn checkpoint_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    files.retain(|p| {
        p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".ddtc"))
    });
    files.sort();
    Ok(files)
}

/// Makes `to` a copy of the store at `from` as a crash just before the
/// campaign's final checkpoint would leave it: the newest checkpoint is
/// gone, so a resume falls back to the previous, mid-campaign one, rebuilds
/// its frontier and explores on to the end.
fn crash_copy(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        fs::remove_dir_all(to)?;
    }
    copy_dir(from, to)?;
    let newest = checkpoint_files(to)?
        .pop()
        .ok_or_else(|| io::Error::other(format!("{}: no checkpoint", from.display())))?;
    fs::remove_file(newest)
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum of the peak resident sets the fleet workers recorded in `work` (see
/// [`fleet_worker`]), in MB; 0 when none ran.
fn workers_peak_rss_mb(work: &Path) -> io::Result<f64> {
    let mut sum = 0.0;
    for entry in fs::read_dir(work)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "peak_mb") {
            let text = fs::read_to_string(&path)?;
            sum += text.trim().parse::<f64>().map_err(io::Error::other)?;
        }
    }
    Ok(sum)
}

fn add(layers: &mut BTreeMap<String, f64>, name: &str, v: f64) {
    *layers.entry(name.to_string()).or_default() += v;
}

fn max(layers: &mut BTreeMap<String, f64>, name: &str, v: f64) {
    let e = layers.entry(name.to_string()).or_default();
    *e = e.max(v);
}

/// Folds one campaign report's counters into the per-layer sums.
fn absorb(layers: &mut BTreeMap<String, f64>, r: &Report) {
    let s = &r.stats;
    let h = &r.health;
    for (name, v) in [
        ("explore.paths", s.paths_started),
        ("explore.insns", s.insns),
        ("explore.quanta", s.quanta_executed),
        ("explore.states_pruned", s.states_pruned),
        ("explore.states_dropped", s.states_dropped),
        ("explore.quanta_to_first_bug", s.quanta_to_first_bug),
        ("explore.quanta_to_last_cover", s.quanta_to_last_cover),
        ("solver.queries", s.solver_queries),
        ("solver.full", s.solver_full),
        ("solver.fast_hits", s.solver_fast_hits),
        ("solver.cache_hits", s.solver_cache_hits),
        ("solver.model_reuse", s.solver_model_reuse),
        ("solver.unsat_subset", s.solver_unsat_subset),
        ("solver.sliced", s.solver_sliced),
        ("solver.slice_components", s.solver_slice_components),
        ("solver.session_probes", s.solver_session_probes),
        ("solver.session_resets", s.solver_session_resets),
        ("solver.batch_flushes", s.solver_batch_flushes),
        ("solver.batched_verdicts", s.solver_batched_verdicts),
        ("solver.witness_hits", s.solver_batch_witness_hits),
        ("solver.portfolio_races", s.solver_portfolio_races),
        ("solver.rewrite_reductions", s.solver_rewrite_reductions),
        ("solver.cache_evictions", s.cache_evictions),
        ("faults.injected", s.faults_total()),
        ("faults.lifecycle", s.faults_lifecycle),
        ("checkers.sightings", h.bug_occurrences),
        ("checkers.bugs_deduped", h.bugs_deduped),
        ("checkers.lifecycle_bugs", h.lifecycle_bugs),
        ("checkpoint.written", h.checkpoints_written),
        ("checkpoint.journal_records", h.journal_records),
        ("trace.persisted", h.traces_persisted),
        ("fleet.workers_spawned", h.fleet_workers_spawned),
        ("fleet.workers_lost", h.fleet_workers_lost),
        ("fleet.leases_reassigned", h.fleet_leases_reassigned),
        ("fleet.shards_stolen", h.fleet_shards_stolen),
        ("fleet.shards_quarantined", h.fleet_shards_quarantined),
        ("fuzz.execs", s.fuzz_execs),
        ("fuzz.insns", s.fuzz_insns),
        ("fuzz.escalations", s.escalations),
        ("fuzz.concrete_bugs", s.concrete_bugs),
    ] {
        add(layers, name, v as f64);
    }
    max(layers, "explore.peak_states", s.peak_states as f64);
    max(layers, "explore.max_cow_depth", s.max_cow_depth as f64);
    // The interner counters are cumulative for the process: the latest
    // report carries the sample's total.
    max(layers, "expr.interner_hits", s.interner_hits as f64);
    max(layers, "expr.interner_misses", s.interner_misses as f64);
}

/// Replaces the raw counters that only serve as numerators with the ratios
/// the metric table declares.
fn finish_ratios(layers: &mut BTreeMap<String, f64>) {
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let get = |layers: &BTreeMap<String, f64>, k: &str| layers.get(k).copied().unwrap_or(0.0);
    let queries = get(layers, "solver.queries");
    let flushes = get(layers, "solver.batch_flushes");
    let batched = get(layers, "solver.batched_verdicts");
    let witness = layers.remove("solver.witness_hits").unwrap_or(0.0);
    let hits = layers.remove("expr.interner_hits").unwrap_or(0.0);
    let misses = get(layers, "expr.interner_misses");
    layers.insert(
        "solver.cache_hit_ratio".into(),
        ratio(get(layers, "solver.cache_hits"), queries),
    );
    layers.insert("solver.verdicts_per_flush".into(), ratio(batched, flushes));
    layers.insert("solver.witness_hit_ratio".into(), ratio(witness, batched));
    layers.insert("expr.interner_lookups".into(), hits + misses);
    layers.insert("expr.interner_hit_ratio".into(), ratio(hits, hits + misses));
}

/// What a campaign left behind for the sample's later phases.
struct Ran<'a> {
    campaign: &'a Campaign,
    dut: DriverUnderTest,
    report: Report,
    checkpoint_dir: PathBuf,
    trace_dir: PathBuf,
}

/// Every repetition of the quick phases, in seconds.
#[derive(Default)]
struct Quick {
    setup: Vec<f64>,
    isa: Vec<f64>,
    resume: Vec<f64>,
    checkpoint_load: Vec<f64>,
    replay: Vec<f64>,
    triage: Vec<f64>,
    trace_load: Vec<f64>,
    replay_only: Vec<f64>,
}

/// Set-up: builds every campaign's driver under test.
fn setup_rep(order: &[&Campaign], q: &mut Quick) -> Vec<DriverUnderTest> {
    let started = Instant::now();
    let mut isa_s = 0.0;
    let duts = order
        .iter()
        .map(|c| {
            let (dut, s) = build_dut_timed(c);
            isa_s += s;
            dut
        })
        .collect();
    q.setup.push(started.elapsed().as_secs_f64());
    q.isa.push(isa_s);
    duts
}

/// Crash recovery: recovers every store from a fresh crash copy (see
/// [`crash_copy`]), each in a fresh process, as `ddt test --resume` after a
/// crash would. Only the resume calls are timed. A copy is never reused,
/// so the store being measured has never been written by a resume. A
/// traced sample also times loading the fallback checkpoint. Returns each
/// recovered report's census.
fn resume_rep(
    stores: &[&Ran],
    work: &Path,
    traced: bool,
    q: &mut Quick,
) -> io::Result<Vec<Census>> {
    let (mut resume_s, mut load_s) = (0.0, 0.0);
    let mut census = Vec::new();
    for r in stores {
        let copy = work.join(format!("{}.crash", r.campaign.name));
        crash_copy(&r.checkpoint_dir, &copy)?;
        if traced {
            let started = Instant::now();
            load_latest(&copy)
                .map_err(|e| io::Error::other(format!("{}: {e}", r.campaign.name)))?;
            load_s += started.elapsed().as_secs_f64();
        }
        let resumed = resume_in_child(r.campaign, &copy)?;
        resume_s += resumed.seconds;
        census.push(resumed.census);
    }
    q.resume.push(resume_s);
    if traced {
        q.checkpoint_load.push(load_s);
    }
    Ok(census)
}

/// What a resume process reports: how long its resume call took and the
/// census of the report it produced.
#[derive(Serialize, Deserialize)]
pub struct Resumed {
    pub seconds: f64,
    pub census: Census,
}

/// Runs [`resume_store`] in a fresh process of this binary.
fn resume_in_child(c: &Campaign, dir: &Path) -> io::Result<Resumed> {
    let out = Command::new(std::env::current_exe()?)
        .args(["resume-store", "--campaign", c.name, "--store"])
        .arg(dir)
        .stdin(Stdio::null())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.lines().last() {
        Some(line) if out.status.success() => serde_json::from_str(line)
            .map_err(|e| io::Error::other(format!("resume of {}: {e}", c.name))),
        _ => Err(io::Error::other(format!(
            "resume of {} exited with {}",
            c.name, out.status
        ))),
    }
}

/// The recovering end of a crash: resumes campaign `campaign_name` from the
/// store at `dir` to its report, in the calling process.
pub fn resume_store(campaign_name: &str, dir: &Path) -> io::Result<Resumed> {
    let c = campaign(campaign_name)
        .ok_or_else(|| io::Error::other(format!("unknown campaign {campaign_name:?}")))?;
    let dut = build_dut(c);
    let tool = Ddt::new(base_config(c));
    let started = Instant::now();
    let report = match c.mode {
        Mode::Parallel => resume_parallel(&tool, &dut, WORKERS, dir),
        _ => tool.resume(&dut, dir),
    }
    .map_err(|e| io::Error::other(format!("resume {}: {e}", c.name)))?;
    Ok(Resumed {
        seconds: started.elapsed().as_secs_f64(),
        census: Census::of(&format!("resume:{}", c.name), &report),
    })
}

/// Confirmation: replays every bug concretely — from the trace store when
/// the campaign wrote one (after triaging it), else from the report.
fn replay_rep(ran: &[Ran], out: &mut SampleOut, q: &mut Quick) -> io::Result<()> {
    let (mut triage_s, mut load_s, mut replay_s) = (0.0, 0.0, 0.0);
    let started = Instant::now();
    for r in ran {
        if r.campaign.trace_store {
            let t = Instant::now();
            let store = TraceStore::open(&r.trace_dir)?;
            let summary = triage(&store)?;
            triage_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let records = store.list()?;
            let mut artifacts = Vec::new();
            for record in &records {
                artifacts.push(store.load(&record.signature)?);
            }
            load_s += t.elapsed().as_secs_f64();
            if summary.distinct() != records.len() {
                return Err(io::Error::other("triage disagrees with the store listing"));
            }
            let t = Instant::now();
            for artifact in &artifacts {
                let label = &artifact.manifest.signature;
                count_replay(out, r.campaign, label, replay_artifact(&r.dut, artifact));
            }
            replay_s += t.elapsed().as_secs_f64();
        } else {
            let t = Instant::now();
            for bug in &r.report.bugs {
                count_replay(out, r.campaign, &bug.key, replay_bug(&r.dut, bug));
            }
            replay_s += t.elapsed().as_secs_f64();
        }
    }
    q.replay.push(started.elapsed().as_secs_f64());
    q.triage.push(triage_s);
    q.trace_load.push(load_s);
    q.replay_only.push(replay_s);
    Ok(())
}

/// Runs one sample of `w` and returns its measurements.
pub fn run_sample(w: &Workload, opts: &SampleOpts) -> io::Result<SampleOut> {
    let mut out = SampleOut {
        traced: opts.traced,
        ..SampleOut::default()
    };
    let mut tr = Tracer::new(opts.traced);
    let mut layers = BTreeMap::new();
    let mut q = Quick::default();

    // The campaign order rotates with the seed and the sample index, so no
    // campaign always runs first in a cold process.
    let n = w.campaigns.len();
    let first = ((opts.seed + opts.index) % n as u64) as usize;
    let order: Vec<&Campaign> = (0..n).map(|i| &w.campaigns[(first + i) % n]).collect();

    let span = tr.open("setup", None);
    let duts = setup_rep(&order, &mut q);
    tr.close(span);

    // Campaigns: time to verdict.
    let mut ran = Vec::new();
    let campaigns_span = tr.open("campaigns", None);
    for (c, dut) in order.iter().copied().zip(duts) {
        let checkpoint_dir = opts.work.join(format!("{}.ckpt", c.name));
        let trace_dir = opts.work.join(format!("{}.traces", c.name));
        let mut config = base_config(c);
        if c.checkpoint {
            config.checkpoint = Some(CheckpointPolicy::new(&checkpoint_dir));
        }
        if c.trace_store {
            config.trace_dir = Some(trace_dir.clone());
        }
        let tool = Ddt::new(config);
        let span = tr.open(c.name, campaigns_span);
        let started = Instant::now();
        let report = match c.mode {
            Mode::Serial => tool.test(&dut),
            Mode::Parallel => test_parallel(&tool, &dut, WORKERS),
            Mode::Fleet => {
                let fc = FleetConfig {
                    workers: WORKERS,
                    status_file: Some(opts.work.join(format!("{}.status.json", c.name))),
                    ..FleetConfig::default()
                };
                let mut launcher = SelfLauncher {
                    campaign: c.name,
                    work: opts.work,
                };
                serve(&tool, &dut, &mut launcher, &fc)
            }
        };
        let secs = started.elapsed().as_secs_f64();
        tr.close(span);
        match c.mode {
            Mode::Parallel => add(&mut layers, "parallel.s", secs),
            Mode::Fleet => add(&mut layers, "fleet.s", secs),
            Mode::Serial => {}
        }
        out.campaign_s += secs;
        out.insns += report.stats.insns;
        out.bugs_found += report.bugs.len() as u64;
        out.covered_blocks += report.covered_blocks as u64;
        out.total_blocks += report.total_blocks as u64;
        out.census.push(Census::of(c.name, &report));
        absorb(&mut layers, &report);
        if c.checkpoint {
            add(
                &mut layers,
                "checkpoint.bytes",
                dir_bytes(&checkpoint_dir) as f64,
            );
        }
        if c.trace_store {
            add(&mut layers, "trace.bytes", dir_bytes(&trace_dir) as f64);
        }
        ran.push(Ran {
            campaign: c,
            dut,
            report,
            checkpoint_dir,
            trace_dir,
        });
    }
    tr.close(campaigns_span);

    // The quick phases take turns in slices (see `SLICE_SECONDS`). A store
    // whose campaign ended before its first periodic checkpoint holds only
    // the final one: no crash leaves anything there to recover.
    let span = tr.open("setup_resume_replay", None);
    let mut stores = Vec::new();
    for r in ran.iter().filter(|r| r.campaign.checkpoint) {
        if checkpoint_files(&r.checkpoint_dir)?.len() >= 2 {
            stores.push(r);
        }
    }
    let window = Instant::now();
    let mut rounds = 0;
    while more_rounds(opts.reps, window, rounds) {
        for phase in 0..3 {
            let slice = Instant::now();
            loop {
                match phase {
                    0 => drop(setup_rep(&order, &mut q)),
                    1 => {
                        for census in resume_rep(&stores, opts.work, opts.traced, &mut q)? {
                            if !out.census.contains(&census) {
                                out.census.push(census);
                            }
                        }
                    }
                    _ => replay_rep(&ran, &mut out, &mut q)?,
                }
                if opts.reps <= 1 || slice.elapsed().as_secs_f64() >= SLICE_SECONDS {
                    break;
                }
            }
        }
        rounds += 1;
    }
    tr.close(span);
    out.setup_s = fastest(&q.setup);
    out.resume_s = fastest(&q.resume);
    out.replay_s = fastest(&q.replay);
    let per_rep = out.replays as f64 / q.replay.len() as f64;
    let per_bug_ms = if per_rep > 0.0 {
        1e3 * fastest(&q.replay_only) / per_rep
    } else {
        0.0
    };
    for (name, v) in [
        ("isa.load_s", fastest(&q.isa)),
        ("checkpoint.load_s", fastest(&q.checkpoint_load)),
        ("trace.triage_s", fastest(&q.triage)),
        ("trace.load_s", fastest(&q.trace_load)),
        ("replay.attempted", per_rep),
        ("replay.per_bug_ms", per_bug_ms),
    ] {
        add(&mut layers, name, v);
    }

    // Hybrid leg: a seeded, no-drain fuzz campaign whose corpus comes from
    // the trace store.
    if w.hybrid {
        let r = ran.first().expect("a hybrid workload has a campaign");
        let fz = FuzzConfig {
            seed: opts.seed,
            drain_frontier: false,
            ..FuzzConfig::default()
        };
        let mut config = base_config(r.campaign);
        config.trace_dir = Some(r.trace_dir.clone());
        let span = tr.open("hybrid", campaigns_span);
        let started = Instant::now();
        let report = run_hybrid(&Ddt::new(config), &r.dut, &fz);
        let secs = started.elapsed().as_secs_f64();
        tr.close(span);
        out.hybrid = Some(Census::of(&format!("hybrid:{}", r.campaign.name), &report));
        out.campaign_s += secs;
        out.insns += report.stats.insns;
        add(&mut layers, "hybrid.s", secs);
        absorb(&mut layers, &report);
    }

    // The fleet workers explore in their own processes. Their peaks add to
    // the sample's own: a bound on the host memory the sample held at once.
    out.peak_rss_mb = peak_rss_mb() + workers_peak_rss_mb(opts.work)?;
    if opts.traced {
        finish_ratios(&mut layers);
        out.layers = layers;
        out.spans = tr.spans;
    }
    Ok(out)
}

fn count_replay(out: &mut SampleOut, c: &Campaign, bug: &str, outcome: ReplayOutcome) {
    out.replays += 1;
    if let ReplayOutcome::NotReproduced { observed } = outcome {
        out.replay_failed += 1;
        let label = format!("{}: {bug} (observed {observed})", c.name);
        if !out.not_reproduced.contains(&label) {
            out.not_reproduced.push(label);
        }
    }
}

/// Spawns fleet workers as processes of this same binary, so the fleet's
/// wire, process supervision and merging run exactly as under `ddt serve`.
/// Each worker records its peak memory in `work`.
struct SelfLauncher<'a> {
    campaign: &'static str,
    work: &'a Path,
}

/// How long a worker whose stdin was closed may take to exit on its own
/// (recording its peak memory) before it is killed.
const WORKER_GRACE: Duration = Duration::from_secs(1);

struct WorkerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
}

impl WorkerHandle for WorkerProcess {
    fn send(&mut self, frame: &FleetFrame) -> io::Result<()> {
        let closed = || io::Error::new(io::ErrorKind::BrokenPipe, "worker stdin closed");
        let stdin = self.stdin.as_mut().ok_or_else(closed)?;
        stdin.write_all(&ddt_trace::encode_frame(frame))?;
        stdin.flush()
    }

    fn kill(&mut self) {
        // A closed stdin ends the worker's frame stream: a worker that is
        // done exits by itself. One that does not is killed.
        self.stdin = None;
        let deadline = Instant::now() + WORKER_GRACE;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                _ => return,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

impl WorkerLauncher for SelfLauncher<'_> {
    fn spawn(
        &mut self,
        worker: u64,
        events: mpsc::Sender<FleetEvent>,
    ) -> io::Result<Box<dyn WorkerHandle>> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["fleet-worker", "--campaign", self.campaign, "--worker-id"])
            .arg(worker.to_string())
            .arg("--peak-file")
            .arg(
                self.work
                    .join(format!("{}.worker-{worker}.peak_mb", self.campaign)),
            )
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        std::thread::spawn(move || ddt_core::pump_frames(worker, stdout, events));
        Ok(Box::new(WorkerProcess { child, stdin }))
    }
}

/// The worker end of a fleet campaign: frames in on stdin, frames out on
/// stdout. When the frame stream ends, it writes its peak resident set in
/// MB to `peak_file`.
pub fn fleet_worker(campaign_name: &str, worker_id: u64, peak_file: &Path) -> io::Result<()> {
    let c = campaign(campaign_name)
        .ok_or_else(|| io::Error::other(format!("unknown campaign {campaign_name:?}")))?;
    let tool = Ddt::new(base_config(c));
    let opts = WorkerOpts {
        worker_id,
        ..WorkerOpts::default()
    };
    let result = ddt_core::run_worker(&tool, &build_dut(c), io::stdin(), io::stdout(), opts);
    fs::write(peak_file, peak_rss_mb().to_string())?;
    result
}
