//! The on-disk trace store.
//!
//! Layout (one directory per store, one subdirectory per triaged bug):
//!
//! ```text
//! <store>/
//!   index.json            — store version + signature list (for listings)
//!   bug-<signature>/
//!     manifest.json       — BugRecord (JSON, human-inspectable)
//!     trace.bin           — binary event log (codec.rs)
//! ```
//!
//! Writes are atomic (temp file + rename) so a crashed run never leaves a
//! half-written manifest behind. Persisting a signature that already exists
//! merges: the occurrence count is bumped and the first-seen artifact is
//! kept (duplicate paths to one bug do not churn the stored trace).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::artifact::{BugRecord, TraceArtifact};
use crate::codec::{decode_events, encode_events};

/// Store format version (the `index.json` schema).
pub const STORE_VERSION: u32 = 1;

/// The `index.json` contents.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StoreIndex {
    /// Store schema version.
    pub version: u32,
    /// Signatures present, sorted.
    pub signatures: Vec<String>,
}

/// A directory of persisted trace artifacts.
#[derive(Clone, Debug)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    /// Opens (creating if needed) a store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<TraceStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(TraceStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn bug_dir(&self, signature: &str) -> PathBuf {
        self.dir.join(format!("bug-{signature}"))
    }

    /// Persists an artifact; returns the bug directory.
    ///
    /// If the signature is already stored, only the occurrence count is
    /// merged (existing + new) — cross-run triage: re-finding a known bug
    /// does not rewrite its trace.
    pub fn persist(&self, artifact: &TraceArtifact) -> io::Result<PathBuf> {
        let sig = &artifact.manifest.signature;
        let dir = self.bug_dir(sig);
        let manifest_path = dir.join("manifest.json");
        if manifest_path.exists() {
            let mut existing = read_manifest(&manifest_path)?;
            existing.occurrences += artifact.manifest.occurrences;
            write_atomic(&manifest_path, &to_json(&existing)?)?;
        } else {
            fs::create_dir_all(&dir)?;
            write_atomic(&dir.join("trace.bin"), &encode_events(&artifact.events))?;
            write_atomic(&manifest_path, &to_json(&artifact.manifest)?)?;
        }
        self.rebuild_index()?;
        Ok(dir)
    }

    /// Loads one artifact by signature.
    pub fn load(&self, signature: &str) -> io::Result<TraceArtifact> {
        load_artifact_dir(&self.bug_dir(signature))
    }

    /// All manifests in the store, sorted by signature.
    pub fn list(&self) -> io::Result<Vec<BugRecord>> {
        let mut out = Vec::new();
        for (_, path) in self.bug_entries()? {
            if path.is_dir() {
                out.push(read_manifest(&path.join("manifest.json"))?);
            }
        }
        out.sort_by(|a, b| a.signature.cmp(&b.signature));
        Ok(out)
    }

    /// The signature and path of every `bug-<signature>` entry, sorted.
    fn bug_entries(&self) -> io::Result<Vec<(String, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(sig) = name.to_str().and_then(|n| n.strip_prefix("bug-")) {
                out.push((sig.to_string(), entry.path()));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Rewrites `index.json` from the `bug-<signature>` directories that
    /// hold a manifest; the directory name is the signature, so no manifest
    /// is parsed.
    fn rebuild_index(&self) -> io::Result<()> {
        let signatures = self
            .bug_entries()?
            .into_iter()
            .filter(|(_, path)| path.join("manifest.json").is_file())
            .map(|(sig, _)| sig)
            .collect();
        let index = StoreIndex { version: STORE_VERSION, signatures };
        write_atomic(&self.dir.join("index.json"), &to_json(&index)?)
    }

    /// Reads the index (empty if none was written yet).
    pub fn index(&self) -> io::Result<StoreIndex> {
        let path = self.dir.join("index.json");
        if !path.exists() {
            return Ok(StoreIndex { version: STORE_VERSION, signatures: Vec::new() });
        }
        let bytes = fs::read(&path)?;
        serde_json::from_slice(&bytes).map_err(invalid_data)
    }
}

/// Loads an artifact from a user-supplied path: a bug directory, its
/// `manifest.json`, or its `trace.bin` (the `ddt replay --trace` argument
/// accepts any of the three).
pub fn load_artifact(path: impl AsRef<Path>) -> io::Result<TraceArtifact> {
    let path = path.as_ref();
    if path.is_dir() {
        return load_artifact_dir(path);
    }
    match path.parent() {
        Some(dir) => load_artifact_dir(dir),
        None => Err(invalid_data(format!("{} is not a trace artifact", path.display()))),
    }
}

fn load_artifact_dir(dir: &Path) -> io::Result<TraceArtifact> {
    let manifest = read_manifest(&dir.join("manifest.json"))?;
    let bytes = fs::read(dir.join("trace.bin"))?;
    let events = decode_events(&bytes).map_err(invalid_data)?;
    if events.len() != manifest.event_count {
        return Err(invalid_data(format!(
            "manifest promises {} events, trace.bin holds {}",
            manifest.event_count,
            events.len()
        )));
    }
    Ok(TraceArtifact { manifest, events })
}

fn read_manifest(path: &Path) -> io::Result<BugRecord> {
    let bytes = fs::read(path)?;
    serde_json::from_slice(&bytes).map_err(invalid_data)
}

fn to_json<T: Serialize>(v: &T) -> io::Result<Vec<u8>> {
    serde_json::to_vec_pretty(v).map_err(invalid_data)
}

fn invalid_data(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Writes `bytes` to `path` atomically (temp file in the same directory,
/// then rename).
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::MANIFEST_VERSION;
    use crate::bug::{BugClass, BugOrigin};
    use crate::TraceEvent;
    use ddt_expr::Assignment;

    fn tmp_store(tag: &str) -> TraceStore {
        let dir = std::env::temp_dir()
            .join(format!("ddt-trace-store-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TraceStore::open(dir).unwrap()
    }

    fn artifact(sig: &str) -> TraceArtifact {
        let events = vec![
            TraceEvent::EntryInvoke { name: "Initialize".into(), addr: 0x40_0000 },
            TraceEvent::Exec { pc: 0x40_0000 },
        ];
        TraceArtifact {
            manifest: BugRecord {
                version: MANIFEST_VERSION,
                signature: sig.into(),
                driver: "rtl8029".into(),
                class: BugClass::SegFault,
                origin: BugOrigin::Symbolic,
                description: "wild store".into(),
                pc: 0x40_0010,
                entry: "Initialize".into(),
                interrupted_entry: None,
                checker: "viol".into(),
                key: "viol:0x400010:write".into(),
                occurrences: 1,
                stack: vec!["Initialize".into()],
                inputs: Assignment::new(),
                decisions: vec![],
                minimized_decisions: None,
                provenance: vec![],
                event_count: events.len(),
            },
            events,
        }
    }

    #[test]
    fn persist_load_roundtrip() {
        let store = tmp_store("roundtrip");
        let a = artifact("aaaa000000000001");
        let dir = store.persist(&a).unwrap();
        assert!(dir.join("manifest.json").exists());
        assert!(dir.join("trace.bin").exists());
        let back = store.load("aaaa000000000001").unwrap();
        assert_eq!(back.manifest.signature, a.manifest.signature);
        assert_eq!(back.events, a.events);
        // The flexible loader accepts the dir, the manifest, and the bin.
        assert_eq!(load_artifact(&dir).unwrap().events, a.events);
        assert_eq!(load_artifact(dir.join("manifest.json")).unwrap().events, a.events);
        assert_eq!(load_artifact(dir.join("trace.bin")).unwrap().events, a.events);
    }

    #[test]
    fn duplicate_signature_merges_occurrences() {
        let store = tmp_store("dedup");
        let mut a = artifact("bbbb000000000002");
        store.persist(&a).unwrap();
        a.manifest.occurrences = 4;
        store.persist(&a).unwrap();
        let records = store.list().unwrap();
        assert_eq!(records.len(), 1, "one signature, one record");
        assert_eq!(records[0].occurrences, 5);
    }

    #[test]
    fn index_tracks_signatures() {
        let store = tmp_store("index");
        store.persist(&artifact("cccc000000000003")).unwrap();
        store.persist(&artifact("dddd000000000004")).unwrap();
        let idx = store.index().unwrap();
        assert_eq!(idx.version, STORE_VERSION);
        assert_eq!(idx.signatures, vec!["cccc000000000003", "dddd000000000004"]);
    }

    #[test]
    fn index_matches_listed_signatures() {
        let store = tmp_store("index-list");
        for sig in ["ffff000000000007", "0000000000000006", "aaaa000000000008"] {
            store.persist(&artifact(sig)).unwrap();
        }
        // A re-found bug and a stray file change nothing; a directory whose
        // persist stopped before its manifest is not indexed.
        store.persist(&artifact("0000000000000006")).unwrap();
        fs::write(store.dir().join("notes.txt"), "x").unwrap();
        let half = store.dir().join("bug-1111000000000009");
        fs::create_dir_all(&half).unwrap();
        store.persist(&artifact("bbbb00000000000a")).unwrap();
        let index = store.index().unwrap();
        fs::remove_dir(&half).unwrap();
        let listed: Vec<String> = store.list().unwrap().into_iter().map(|r| r.signature).collect();
        assert_eq!(index.signatures, listed);
        assert_eq!(
            listed,
            ["0000000000000006", "aaaa000000000008", "bbbb00000000000a", "ffff000000000007"]
        );
    }

    #[test]
    fn corrupt_trace_is_rejected() {
        let store = tmp_store("corrupt");
        let a = artifact("eeee000000000005");
        let dir = store.persist(&a).unwrap();
        fs::write(dir.join("trace.bin"), b"garbage").unwrap();
        assert!(store.load("eeee000000000005").is_err());
    }
}
