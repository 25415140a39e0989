//! Crash-safe file output: write-temp-then-rename.
//!
//! The observability sinks (`--ledger-out`, `--events-out`, trace
//! exports) are often the only record of a long run. A plain
//! `std::fs::write` that dies mid-call leaves a torn JSON/JSONL file
//! that silently poisons downstream tooling (`zenesis-obs-diff`, the CI
//! gates). [`write_atomic`] writes to a sibling temporary file, flushes
//! and fsyncs it, then renames it over the destination — on every
//! mainstream platform the rename is atomic, so readers observe either
//! the complete old content or the complete new content, never a prefix.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Atomically replace `path` with `contents`.
///
/// Writes `<path>.tmp.<pid>` in the same directory (same filesystem, so
/// the rename cannot degrade to a copy), fsyncs the data, then renames
/// it into place. The temporary file is removed on failure; a crash at
/// any point leaves either the old file or the new one, never a torn
/// mix.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".tmp.{}", std::process::id()));
        path.with_file_name(name)
    };
    let result = (|| {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(contents.as_ref())?;
        f.flush()?;
        f.sync_data()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// An append-only JSONL writer for journals that must survive `kill -9`,
/// with writing and making durable split apart.
///
/// Each [`write_line`](Self::write_line) is a single `write_all` of
/// `line + "\n"`: once it returns, the line is in the kernel's page
/// cache, so a killed process loses nothing and a restarted one reads it
/// back. A crash can tear at most the final line — which line-oriented
/// readers with a per-record checksum (the checkpoint journal) detect and
/// discard. Surviving a power loss takes a [`Syncer::sync`], which one
/// caller can run for many lines without holding the writer.
#[derive(Debug)]
pub struct AppendWriter {
    file: File,
}

/// Makes every line an [`AppendWriter`] has written durable; a second
/// handle to the same file, so a sync never waits for, or holds up, a
/// write.
#[derive(Debug)]
pub struct Syncer {
    file: File,
}

impl AppendWriter {
    /// Open `path` for appending, creating it (and missing parent
    /// directories) as needed.
    pub fn open(path: impl AsRef<Path>) -> io::Result<AppendWriter> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AppendWriter { file })
    }

    /// Append one line (`line` must not contain `\n`) with one write.
    /// The line is durable only after a later [`Syncer::sync`].
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "journal records are single lines");
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        // One write_all keeps the record contiguous: a concurrent reader
        // (or a crash) sees at most one torn line, at the tail.
        self.file.write_all(&buf)
    }

    /// A handle that makes this writer's lines durable.
    pub fn syncer(&self) -> io::Result<Syncer> {
        Ok(Syncer {
            file: self.file.try_clone()?,
        })
    }
}

impl Syncer {
    /// Make every line written before this call durable (`fsync` of the
    /// file's data).
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "zenesis-obs-output-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_atomic_replaces_content() {
        let d = tmp_dir("replace");
        let p = d.join("out.json");
        write_atomic(&p, b"{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"v\":1}");
        write_atomic(&p, b"{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"v\":2}");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&d)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn write_atomic_into_missing_dir_fails_cleanly() {
        let d = tmp_dir("missing");
        let p = d.join("no-such-subdir").join("out.json");
        assert!(write_atomic(&p, b"x").is_err());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn append_writer_accumulates_lines() {
        let d = tmp_dir("append");
        let p = d.join("sub").join("journal.jsonl");
        let mut w = AppendWriter::open(&p).unwrap();
        let syncer = w.syncer().unwrap();
        w.write_line("{\"a\":1}").unwrap();
        // A written line is in the file at once, synced or not.
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"a\":1}\n");
        w.write_line("{\"a\":2}").unwrap();
        syncer.sync().unwrap();
        drop(w);
        // Reopening appends, never truncates.
        let mut w = AppendWriter::open(&p).unwrap();
        w.write_line("{\"a\":3}").unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, ["{\"a\":1}", "{\"a\":2}", "{\"a\":3}"]);
        let _ = std::fs::remove_dir_all(&d);
    }
}
