//! The per-bug trace artifact: manifest + event log.
//!
//! One artifact is everything a developer needs to understand and reproduce
//! one bug without re-running exploration (§3.5): the JSON manifest carries
//! the classification, signature, solved inputs, decision schedule, and
//! provenance chains; the binary event log carries the full instruction /
//! memory-access / fork-marker trace.

use ddt_expr::Assignment;
use serde::Serialize;

use crate::bug::{BugClass, BugOrigin, Decision};
use crate::provenance::ProvenanceChain;
use crate::TraceEvent;

/// Manifest format version, bumped together with any schema change.
/// Version history: 1 = initial; 2 = added `origin`.
pub const MANIFEST_VERSION: u32 = 2;

/// The JSON manifest of one stored bug (`manifest.json`).
///
/// `Deserialize` is hand-written (the vendored serde derive errors on
/// missing fields): version-1 manifests lack `origin` and read as
/// [`BugOrigin::Symbolic`].
#[derive(Clone, Debug, Serialize)]
pub struct BugRecord {
    /// Manifest schema version.
    pub version: u32,
    /// Stable trace signature (triage identity; also the directory name).
    pub signature: String,
    /// Driver under test.
    pub driver: String,
    /// Classification (Table 2 "Bug Type").
    pub class: BugClass,
    /// Which execution mode first found the bug (v2+; older manifests read
    /// as symbolic).
    pub origin: BugOrigin,
    /// One-line description.
    pub description: String,
    /// Driver instruction the failure is attributed to.
    pub pc: u32,
    /// The entry point whose invocation exposed the bug.
    pub entry: String,
    /// If the bug fired inside an injected interrupt handler: the entry
    /// point that was interrupted.
    pub interrupted_entry: Option<String>,
    /// The checker family that fired ("viol", "fault", "lockorder", ...).
    pub checker: String,
    /// Exploration-side dedup key (site-precise, kept for diagnostics).
    pub key: String,
    /// How many states/paths/runs reached this signature.
    pub occurrences: u64,
    /// Call-ish stack at the failure (outermost first).
    pub stack: Vec<String>,
    /// Solved concrete inputs that drive the driver down the failing path.
    pub inputs: Assignment,
    /// Scheduling decisions to re-apply during replay.
    pub decisions: Vec<Decision>,
    /// Minimized decision schedule, when the minimizer ran: the subset of
    /// `decisions` still sufficient to reproduce the verdict.
    pub minimized_decisions: Option<Vec<Decision>>,
    /// Provenance chain for every symbol the failing condition depended on.
    pub provenance: Vec<ProvenanceChain>,
    /// Number of events in the companion `trace.bin`.
    pub event_count: usize,
}

impl serde::Deserialize for BugRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let m = v.as_map().ok_or_else(|| serde::DeError::expected("map for BugRecord"))?;
        fn req<T: serde::Deserialize>(
            m: &[(String, serde::Value)],
            key: &str,
        ) -> Result<T, serde::DeError> {
            serde::Deserialize::from_value(serde::map_get(m, key)?)
        }
        Ok(BugRecord {
            version: req(m, "version")?,
            signature: req(m, "signature")?,
            driver: req(m, "driver")?,
            class: req(m, "class")?,
            // The one versioned field: absent in v1 manifests.
            origin: match serde::map_get(m, "origin") {
                Ok(v) => serde::Deserialize::from_value(v)?,
                Err(_) => BugOrigin::Symbolic,
            },
            description: req(m, "description")?,
            pc: req(m, "pc")?,
            entry: req(m, "entry")?,
            interrupted_entry: req(m, "interrupted_entry")?,
            checker: req(m, "checker")?,
            key: req(m, "key")?,
            occurrences: req(m, "occurrences")?,
            stack: req(m, "stack")?,
            inputs: req(m, "inputs")?,
            decisions: req(m, "decisions")?,
            minimized_decisions: req(m, "minimized_decisions")?,
            provenance: req(m, "provenance")?,
            event_count: req(m, "event_count")?,
        })
    }
}

impl BugRecord {
    /// The decisions replay should apply: the minimized schedule when
    /// available, the full schedule otherwise.
    pub fn replay_decisions(&self) -> &[Decision] {
        self.minimized_decisions.as_deref().unwrap_or(&self.decisions)
    }

    /// One summary line for listings.
    pub fn summary_line(&self) -> String {
        format!(
            "{}  {:<10} {:<18} {:<9} x{:<3} {}",
            self.signature,
            self.driver,
            self.class.to_string(),
            self.origin.to_string(),
            self.occurrences,
            self.description
        )
    }
}

/// A complete stored bug: manifest plus the decoded event log.
#[derive(Clone, Debug)]
pub struct TraceArtifact {
    /// The manifest.
    pub manifest: BugRecord,
    /// The full event log, in execution order.
    pub events: Vec<TraceEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::ProvenanceChain;

    fn record() -> BugRecord {
        BugRecord {
            version: MANIFEST_VERSION,
            signature: "00deadbeef00cafe".into(),
            driver: "rtl8029".into(),
            class: BugClass::SegFault,
            origin: BugOrigin::Symbolic,
            description: "wild store".into(),
            pc: 0x40_0010,
            entry: "Initialize".into(),
            interrupted_entry: None,
            checker: "viol".into(),
            key: "viol:0x400010:write".into(),
            occurrences: 3,
            stack: vec!["Initialize".into()],
            inputs: Assignment::new(),
            decisions: vec![Decision::InjectInterrupt { boundary: 2 }],
            minimized_decisions: None,
            provenance: vec![],
            event_count: 17,
        }
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let mut r = record();
        r.origin = BugOrigin::Escalated;
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: BugRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.signature, r.signature);
        assert_eq!(back.class, r.class);
        assert_eq!(back.origin, BugOrigin::Escalated);
        assert_eq!(back.occurrences, 3);
        assert_eq!(back.decisions, r.decisions);
    }

    #[test]
    fn version1_manifest_without_origin_reads_as_symbolic() {
        let r = record();
        let json = serde_json::to_string_pretty(&r).unwrap();
        // Strip the origin key to forge a pre-v2 manifest.
        let legacy: String = json
            .lines()
            .filter(|l| !l.contains("\"origin\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(legacy, json, "forgery actually removed the field");
        let back: BugRecord = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.origin, BugOrigin::Symbolic);
        assert_eq!(back.signature, r.signature);
    }

    #[test]
    fn summary_line_carries_the_origin() {
        let mut r = record();
        r.origin = BugOrigin::Concrete;
        assert!(r.summary_line().contains("concrete"));
    }

    #[test]
    fn replay_prefers_minimized_decisions() {
        let mut r = record();
        assert_eq!(r.replay_decisions(), &r.decisions[..]);
        r.minimized_decisions = Some(vec![]);
        assert!(r.replay_decisions().is_empty());
    }
    /// A manifest as a `--faults` rtl8029 campaign stores it: solved
    /// inputs, every decision kind, a minimized schedule and provenance.
    fn stored_record() -> BugRecord {
        use crate::bug::LifecycleEvent;
        use ddt_expr::SymId;
        use ddt_kernel::FaultFamily;
        use ddt_symvm::SymOrigin;

        let mut inputs = Assignment::new();
        inputs.set(SymId(3), 0x40);
        inputs.set(SymId(11), 0xffff_ffff);
        inputs.set(SymId(7), 0);
        let schedule = vec![
            Decision::InjectInterrupt { boundary: 2 },
            Decision::ForceAllocFail { kernel_call: 5 },
            Decision::ConcretizationBacktrack { kernel_call: 9 },
            Decision::InjectFault { site: 12, kind: FaultFamily::Registry },
            Decision::LifecycleEvent { boundary: 4, event: LifecycleEvent::SurpriseRemove },
        ];
        BugRecord {
            version: MANIFEST_VERSION,
            signature: "9c1f3e5a7b2d4068".into(),
            driver: "rtl8029".into(),
            class: BugClass::MemoryCorruption,
            origin: BugOrigin::Escalated,
            description: "write past \"MulticastList\" (64 bytes)\tat 0x400a90 — idx\\4".into(),
            pc: 0x40_0a90,
            entry: "Initialize".into(),
            interrupted_entry: Some("QueryInformation".into()),
            checker: "viol".into(),
            key: "viol:0x400a90:write".into(),
            occurrences: 12,
            stack: vec!["Initialize".into(), "HandleInterrupt".into()],
            inputs,
            decisions: schedule.clone(),
            minimized_decisions: Some(vec![schedule[3].clone()]),
            provenance: vec![
                ProvenanceChain {
                    sym: SymId(3),
                    label: "registry:MaximumMulticastList".into(),
                    origin: SymOrigin::Registry { name: "MaximumMulticastList".into() },
                    width: 32,
                    value: 0x40,
                    route: vec!["(ult s3 0x20)".into(), "s3".into()],
                },
                ProvenanceChain {
                    sym: SymId(11),
                    label: "hw:0x8000".into(),
                    origin: SymOrigin::HardwareRead { addr: 0x8000 },
                    width: 8,
                    value: 0xff,
                    route: vec![],
                },
                ProvenanceChain {
                    sym: SymId(7),
                    label: "arg:QueryInformation[1]".into(),
                    origin: SymOrigin::EntryArg { entry: "QueryInformation".into(), index: 1 },
                    width: 32,
                    value: 0,
                    route: vec![],
                },
            ],
            event_count: 1843,
        }
    }

    /// The bytes the store writes for [`stored_record`]. Manifests and
    /// checkpoints already on disk hold bytes like these, so they must not
    /// change.
    const PINNED_PRETTY: &str = include_str!("../tests/fixtures/manifest.pretty.json");
    const PINNED_COMPACT: &str = include_str!("../tests/fixtures/manifest.compact.json");

    #[test]
    fn manifest_bytes_are_pinned() {
        let r = stored_record();
        assert_eq!(serde_json::to_string_pretty(&r).unwrap(), PINNED_PRETTY);
        assert_eq!(serde_json::to_string(&r).unwrap(), PINNED_COMPACT);
    }

    #[test]
    fn pinned_manifests_load() {
        for pinned in [PINNED_PRETTY, PINNED_COMPACT] {
            let back: BugRecord = serde_json::from_str(pinned).unwrap();
            assert_eq!(serde_json::to_string_pretty(&back).unwrap(), PINNED_PRETTY);
        }
    }
}
