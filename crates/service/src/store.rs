//! Disk-backed checkpoint persistence: one JSON file per job under a
//! state directory, written atomically (temp file + fsync + rename +
//! directory fsync) so a crash mid-write never corrupts the previous
//! durable checkpoint.
//!
//! File layout: `<dir>/job-<id>.ckpt.json` containing a versioned header
//! `{"format": "treechase-checkpoint", "version": 1, "job": <id>,
//! "checkpoint": {...}}`. Unreadable or version-mismatched files are
//! reported (not silently dropped, not fatal) so a service restart can
//! degrade gracefully.

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use chase_engine::FaultPlan;

use crate::checkpoint::{Checkpoint, DecodedCheckpoint};
use crate::job::JobId;
use crate::json::{parse_json, Json};

/// The `format` header value every store file carries.
const FORMAT: &str = "treechase-checkpoint";
/// The current store file version.
const VERSION: u64 = 1;

/// A directory of durable per-job checkpoints.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

/// What [`CheckpointStore::load_all`] returns: the recovered
/// `(job, checkpoint)` pairs in id order, each with its program parsed,
/// plus the files it rejected.
pub type LoadedCheckpoints = (Vec<(JobId, DecodedCheckpoint)>, Vec<CorruptEntry>);

/// One file the store could not recover on [`CheckpointStore::load_all`].
#[derive(Clone, Debug)]
pub struct CorruptEntry {
    /// The offending file.
    pub path: PathBuf,
    /// Why it was rejected.
    pub error: String,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| format!("state dir {}: {e}", dir.display()))?;
        Ok(CheckpointStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_path(&self, job: JobId) -> PathBuf {
        self.dir.join(format!("job-{job}.ckpt.json"))
    }

    /// Durably writes `ck` as job `job`'s checkpoint, replacing any
    /// previous one only after the new file is fully on disk. A fault
    /// plan with a pending `ckpt:` site makes the write fail before
    /// touching the old file (crash-injection for the supervision
    /// tests).
    pub fn save(
        &self,
        job: JobId,
        ck: &Checkpoint,
        fault: Option<&FaultPlan>,
    ) -> Result<(), String> {
        if let Some(n) = fault.and_then(FaultPlan::on_checkpoint_write) {
            return Err(format!("injected fault: checkpoint write #{n}"));
        }
        let body = Json::obj([
            ("format", Json::str(FORMAT)),
            ("version", Json::Int(VERSION as i64)),
            ("job", Json::Int(job as i64)),
            ("checkpoint", ck.to_json()),
        ])
        .to_string();
        let final_path = self.file_path(job);
        let tmp_path = self.dir.join(format!("job-{job}.ckpt.json.tmp"));
        let write = |p: &Path| -> std::io::Result<()> {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(p)?;
            f.write_all(body.as_bytes())?;
            // The rename below must only become durable after the data:
            // fsync the temp file first, then the directory entry.
            f.sync_all()
        };
        write(&tmp_path).map_err(|e| format!("write {}: {e}", tmp_path.display()))?;
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| format!("rename {}: {e}", final_path.display()))?;
        if let Ok(d) = File::open(&self.dir) {
            // Directory fsync is advisory on some platforms; a failure
            // here weakens durability but does not corrupt state.
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Removes job `job`'s checkpoint file (a job that terminated needs
    /// no recovery). Missing files are fine.
    pub fn remove(&self, job: JobId) -> Result<(), String> {
        match fs::remove_file(self.file_path(job)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(format!("remove job {job}: {e}")),
        }
    }

    /// Loads every recoverable checkpoint in the store, plus the list of
    /// files that failed to load (corrupt JSON, wrong version, a program
    /// that does not parse, torn non-atomic writes from other tools).
    /// Leftover `.tmp` files are ignored: by construction they were never
    /// the durable copy.
    pub fn load_all(&self) -> Result<LoadedCheckpoints, String> {
        let mut good = Vec::new();
        let mut bad = Vec::new();
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| format!("read state dir {}: {e}", self.dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read state dir: {e}"))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with("job-") || !name.ends_with(".ckpt.json") {
                continue;
            }
            match Self::load_file(&path) {
                Ok(pair) => good.push(pair),
                Err(error) => bad.push(CorruptEntry { path, error }),
            }
        }
        // Recover in original submission order.
        good.sort_by_key(|(id, _)| *id);
        Ok((good, bad))
    }

    fn load_file(path: &Path) -> Result<(JobId, DecodedCheckpoint), String> {
        let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
        let v = parse_json(&text)?;
        let format = v.require_str("format")?;
        if format != FORMAT {
            return Err(format!("unexpected format `{format}`"));
        }
        let version = v.require_u64("version")?;
        if version != VERSION {
            return Err(format!(
                "unsupported version {version} (expected {VERSION})"
            ));
        }
        let job = v.require_u64("job")?;
        let ck = Checkpoint::from_json(v.require("checkpoint")?)?;
        Ok((job, ck))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use chase_engine::{ChaseConfig, ChaseStats, ChaseVariant, FaultSite};

    fn sample_checkpoint(name: &str) -> Checkpoint {
        let spec = JobSpec::from_text(
            name,
            "r(a, b). T: r(X, Y), r(Y, Z) -> r(X, Z). Q: ?- r(a, a).",
            ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(7),
        )
        .unwrap();
        let stats = ChaseStats {
            applications: 3,
            wall_us: 1_234,
            ..ChaseStats::default()
        };
        Checkpoint::capture(&spec, &spec.kb.vocab, &spec.kb.facts, stats)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("treechase-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_remove_roundtrip() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(4, &sample_checkpoint("a"), None).unwrap();
        store.save(9, &sample_checkpoint("b"), None).unwrap();
        let (good, bad) = store.load_all().unwrap();
        assert!(bad.is_empty());
        assert_eq!(
            good.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![4, 9]
        );
        assert_eq!(good[0].1.checkpoint().name, "a");
        assert_eq!(good[0].1.checkpoint().stats.applications, 3);
        assert_eq!(good[0].1.checkpoint().stats.wall_us, 1_234);
        assert_eq!(good[0].1.checkpoint().config.max_applications, 7);
        store.remove(4).unwrap();
        store.remove(4).unwrap(); // idempotent
        let (good, _) = store.load_all().unwrap();
        assert_eq!(good.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_files_are_reported_not_fatal() {
        let dir = temp_dir("corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(1, &sample_checkpoint("ok"), None).unwrap();
        fs::write(dir.join("job-2.ckpt.json"), "{ torn writ").unwrap();
        fs::write(
            dir.join("job-3.ckpt.json"),
            r#"{"format": "treechase-checkpoint", "version": 99, "job": 3}"#,
        )
        .unwrap();
        // Stray temp files and unrelated names are skipped entirely.
        fs::write(dir.join("job-5.ckpt.json.tmp"), "half").unwrap();
        fs::write(dir.join("notes.txt"), "hi").unwrap();
        let (good, bad) = store.load_all().unwrap();
        assert_eq!(good.len(), 1);
        assert_eq!(good[0].0, 1);
        assert_eq!(bad.len(), 2);
        assert!(bad.iter().any(|c| c.error.contains("version")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_zero_byte_and_version_skew_files_degrade_gracefully() {
        let dir = temp_dir("degrade");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(1, &sample_checkpoint("ok"), None).unwrap();
        // A checkpoint cut mid-file (e.g. by a full disk on a tool that
        // did not write atomically): valid prefix, no closing braces.
        let full = fs::read_to_string(dir.join("job-1.ckpt.json")).unwrap();
        fs::write(dir.join("job-2.ckpt.json"), &full[..full.len() / 2]).unwrap();
        // A zero-byte file (open() landed, write never did).
        fs::write(dir.join("job-3.ckpt.json"), "").unwrap();
        // A version from the future.
        fs::write(
            dir.join("job-4.ckpt.json"),
            full.replace("\"version\":1", "\"version\":2"),
        )
        .unwrap();
        // A file with the right shape but the wrong format tag.
        fs::write(
            dir.join("job-5.ckpt.json"),
            full.replace(FORMAT, "someone-elses-checkpoint"),
        )
        .unwrap();
        let (good, bad) = store.load_all().unwrap();
        assert_eq!(good.len(), 1, "only the intact file recovers");
        assert_eq!(good[0].0, 1);
        assert_eq!(bad.len(), 4);
        let errors_for = |job: u64| {
            bad.iter()
                .find(|c| c.path.ends_with(format!("job-{job}.ckpt.json")))
                .unwrap_or_else(|| panic!("job-{job} should be reported"))
                .error
                .clone()
        };
        assert!(errors_for(4).contains("unsupported version 2"));
        assert!(errors_for(5).contains("unexpected format"));
        // Truncated and empty files fail at the JSON layer; the exact
        // message matters less than that they are reported, not fatal
        // and not half-recovered.
        assert!(!errors_for(2).is_empty());
        assert!(!errors_for(3).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_checkpoint_write_fault_fails_once_and_keeps_old_file() {
        let dir = temp_dir("fault");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(1, &sample_checkpoint("first"), None).unwrap();
        let plan = FaultPlan::new(vec![FaultSite::CheckpointWrite(1)]);
        let err = store
            .save(1, &sample_checkpoint("second"), Some(&plan))
            .unwrap_err();
        assert!(err.contains("injected fault"), "{err}");
        // The durable copy is untouched by the failed write...
        let (good, _) = store.load_all().unwrap();
        assert_eq!(good[0].1.checkpoint().name, "first");
        // ...and the site fires only once: the retry goes through.
        store
            .save(1, &sample_checkpoint("second"), Some(&plan))
            .unwrap();
        let (good, _) = store.load_all().unwrap();
        assert_eq!(good[0].1.checkpoint().name, "second");
        let _ = fs::remove_dir_all(&dir);
    }
}
