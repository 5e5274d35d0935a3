//! The coordinator's crash-safe status file.
//!
//! The chaos harness (and an operator's `watch cat`) observe the fleet
//! through one flat `key=value` file the coordinator rewrites every tick.
//! Writes go through a temp file + atomic rename, so a reader never sees
//! a torn snapshot — even if the coordinator is SIGKILLed mid-write. The
//! format is deliberately not JSON: it is greppable, diffable and
//! parseable in ten lines with zero dependencies.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Writer half: owned by the coordinator.
#[derive(Debug)]
pub(crate) struct StatusFile {
    path: PathBuf,
    tmp: PathBuf,
}

impl StatusFile {
    /// A status file at `path` (the temp sibling lives alongside it).
    pub(crate) fn new(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let mut tmp = path.clone();
        tmp.set_extension("tmp");
        StatusFile { path, tmp }
    }

    /// Atomically replaces the file with `entries` (sorted by key for
    /// stable diffs).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the coordinator logs and carries on;
    /// a missed tick is not fatal).
    pub(crate) fn write(&self, entries: &BTreeMap<String, String>) -> std::io::Result<()> {
        let mut out = String::with_capacity(entries.len() * 24);
        for (k, v) in entries {
            debug_assert!(!k.contains('\n') && !v.contains('\n'));
            out.push_str(k);
            out.push('=');
            out.push_str(v);
            out.push('\n');
        }
        {
            let mut f = std::fs::File::create(&self.tmp)?;
            f.write_all(out.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&self.tmp, &self.path)
    }
}

/// A parsed status snapshot.
#[derive(Debug, Clone, Default)]
pub struct StatusSnapshot {
    /// Raw key → value entries.
    pub entries: BTreeMap<String, String>,
}

impl StatusSnapshot {
    /// Reads and parses `path`. `None` when the file does not exist yet.
    ///
    /// # Errors
    ///
    /// Propagates read errors other than `NotFound`.
    pub(crate) fn read(path: &Path) -> std::io::Result<Option<Self>> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut entries = BTreeMap::new();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('=') {
                entries.insert(k.to_string(), v.to_string());
            }
        }
        Ok(Some(StatusSnapshot { entries }))
    }

    /// String value for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// `u64` value for `key` (0 when absent or malformed).
    pub fn u64(&self, key: &str) -> u64 {
        self.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
    }

    /// `f64` value for `key` (0.0 when absent or malformed).
    pub(crate) fn f64(&self, key: &str) -> f64 {
        self.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let dir = std::env::temp_dir().join(format!("vp-status-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("status");
        let file = StatusFile::new(&path);
        let mut entries = BTreeMap::new();
        entries.insert("nodes".to_string(), "3".to_string());
        entries.insert("mttr_ms".to_string(), "412.5".to_string());
        file.write(&entries).unwrap();
        let snap = StatusSnapshot::read(&path).unwrap().expect("exists");
        assert_eq!(snap.u64("nodes"), 3);
        assert!((snap.f64("mttr_ms") - 412.5).abs() < 1e-9);
        assert_eq!(snap.get("missing"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_none() {
        let p = std::env::temp_dir().join("vp-status-definitely-missing");
        assert!(StatusSnapshot::read(&p).unwrap().is_none());
    }
}
