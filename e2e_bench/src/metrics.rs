//! The benchmark's metric declarations: one table per kind, read by the
//! reporter, the self-test and the documentation. `BENCHMARK.json` at the
//! repository root must list the same names, units and directions; the
//! self-test checks that it does.

use std::collections::BTreeMap;

use serde::{DeError, Deserialize, Serialize, Value};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of `ddt` sees: reported from untraced runs.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A count or time of one layer, measured from outside by a traced run.
/// `moves` names the metric the layer metric should move: an end-to-end
/// metric or a campaign wall time. The campaign wall times themselves
/// (`moves` is `None`) are what a user waits for, but the host's speed
/// drifts too far over minutes to bound them (see the README).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: Option<&'static str>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves: Some(moves),
    }
}

const fn wall(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves: None,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("replay_s", "s", Lower, 0.25),
    e2e("bugs_found", "count", Higher, 0.01),
    e2e("coverage_pct", "%", Higher, 0.01),
    e2e("census_match_rate", "ratio", Higher, 0.01),
    e2e("replay_pass_rate", "ratio", Higher, 0.01),
];

pub const PER_LAYER: &[PerLayer] = &[
    // Campaign wall times, from the untraced samples of a traced run.
    wall("campaign_s", "s", Lower),
    wall("insns_per_s", "1/s", Higher),
    wall("resume_s", "s", Lower),
    // isa / drivers: assembly, .dxe encoding and parsing.
    layer("isa.load_s", "s", Lower, "setup_s"),
    // symvm + core::exerciser + core::search.
    layer("explore.paths", "count", Higher, "campaign_s"),
    layer("explore.insns", "count", Higher, "insns_per_s"),
    layer("explore.quanta", "count", Lower, "campaign_s"),
    layer("explore.peak_states", "count", Lower, "peak_rss_mb"),
    layer("explore.max_cow_depth", "count", Lower, "campaign_s"),
    layer("explore.states_pruned", "count", Higher, "campaign_s"),
    layer("explore.states_dropped", "count", Lower, "campaign_s"),
    layer("explore.quanta_to_first_bug", "count", Lower, "campaign_s"),
    layer("explore.quanta_to_last_cover", "count", Lower, "campaign_s"),
    // solver + expr.
    layer("solver.queries", "count", Lower, "campaign_s"),
    layer("solver.full", "count", Lower, "campaign_s"),
    layer("solver.fast_hits", "count", Higher, "campaign_s"),
    layer("solver.cache_hits", "count", Higher, "campaign_s"),
    layer("solver.model_reuse", "count", Higher, "campaign_s"),
    layer("solver.unsat_subset", "count", Higher, "campaign_s"),
    layer("solver.cache_hit_ratio", "ratio", Higher, "campaign_s"),
    layer("solver.sliced", "count", Higher, "campaign_s"),
    layer("solver.slice_components", "count", Higher, "campaign_s"),
    layer("solver.session_probes", "count", Higher, "campaign_s"),
    layer("solver.session_resets", "count", Lower, "campaign_s"),
    layer("solver.batch_flushes", "count", Lower, "campaign_s"),
    layer("solver.batched_verdicts", "count", Higher, "campaign_s"),
    layer("solver.verdicts_per_flush", "ratio", Higher, "campaign_s"),
    layer("solver.witness_hit_ratio", "ratio", Higher, "campaign_s"),
    layer("solver.portfolio_races", "count", Higher, "campaign_s"),
    layer("solver.rewrite_reductions", "count", Higher, "campaign_s"),
    layer("solver.cache_evictions", "count", Lower, "campaign_s"),
    layer("expr.interner_lookups", "count", Lower, "peak_rss_mb"),
    layer("expr.interner_hit_ratio", "ratio", Higher, "peak_rss_mb"),
    layer("expr.interner_misses", "count", Lower, "peak_rss_mb"),
    // kernel + core::faults + core::checkers.
    layer("faults.injected", "count", Higher, "campaign_s"),
    layer("faults.lifecycle", "count", Higher, "campaign_s"),
    layer("checkers.sightings", "count", Higher, "campaign_s"),
    layer("checkers.bugs_deduped", "count", Higher, "bugs_found"),
    layer("checkers.lifecycle_bugs", "count", Higher, "bugs_found"),
    // core::checkpoint + trace.
    layer("checkpoint.written", "count", Lower, "campaign_s"),
    layer("checkpoint.journal_records", "count", Lower, "campaign_s"),
    layer("checkpoint.bytes", "bytes", Lower, "resume_s"),
    layer("checkpoint.load_s", "s", Lower, "resume_s"),
    layer("trace.persisted", "count", Higher, "replay_s"),
    layer("trace.bytes", "bytes", Lower, "replay_s"),
    layer("trace.load_s", "s", Lower, "replay_s"),
    layer("trace.triage_s", "s", Lower, "replay_s"),
    // core::replay + vm.
    layer("replay.attempted", "count", Higher, "replay_s"),
    layer("replay.per_bug_ms", "ms", Lower, "replay_s"),
    // fuzz + core::hybrid.
    layer("fuzz.execs", "count", Higher, "campaign_s"),
    layer("fuzz.insns", "count", Higher, "campaign_s"),
    layer("fuzz.escalations", "count", Higher, "campaign_s"),
    layer("fuzz.concrete_bugs", "count", Higher, "campaign_s"),
    layer("hybrid.s", "s", Lower, "campaign_s"),
    // core::parallel and core::fleet.
    layer("parallel.s", "s", Lower, "campaign_s"),
    layer("fleet.s", "s", Lower, "campaign_s"),
    layer("fleet.workers_spawned", "count", Lower, "campaign_s"),
    layer("fleet.workers_lost", "count", Lower, "campaign_s"),
    layer("fleet.leases_reassigned", "count", Lower, "campaign_s"),
    layer("fleet.shards_stolen", "count", Higher, "campaign_s"),
    layer("fleet.shards_quarantined", "count", Lower, "campaign_s"),
    // The benchmark's own tracing: traced against untraced samples.
    layer("bench.traced_campaign_s", "s", Lower, "campaign_s"),
    layer("bench.trace_overhead_pct", "%", Lower, "campaign_s"),
];

/// True when `name` is a legal metric name: a leading letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric value.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
}

/// The `metrics` object of a result: metric name to its value and unit.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Measured>);

impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for Metrics {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_map()
            .ok_or_else(|| DeError::expected("metrics object"))?;
        entries
            .iter()
            .map(|(k, v)| Ok((k.clone(), Measured::from_value(v)?)))
            .collect::<Result<_, _>>()
            .map(Metrics)
    }
}

/// The result line a run prints last on stdout.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}
