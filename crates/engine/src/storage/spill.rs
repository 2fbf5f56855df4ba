//! Spill files for evicted pages and operator state.
//!
//! A [`SpillStore`] is one temporary file plus its free runs: a writer gets
//! back the `(offset, len)` location of its byte run, a reader fetches a
//! run by location, and [`SpillStore::free`] gives a run back. A write goes
//! to the smallest free run that holds it, else to the end of the file;
//! freed runs merge with their free neighbours, and a free run that reaches
//! the end of the file shortens it. So the file holds what is live plus
//! holes the next writes fill, not everything ever written. Every call
//! shares one mutex — spill traffic is page-sized, so lock hold times are
//! dominated by the I/O itself. The file is deleted when the store is
//! dropped.
//!
//! The spill directory is `MVDESIGN_SPILL_DIR` when set, otherwise the
//! workspace's `target/mvdesign-spill/` — spill never writes outside the
//! repository checkout by default.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Distinguishes spill files of concurrent stores within one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// The directory spill files are created in: `MVDESIGN_SPILL_DIR` when
/// set, otherwise `target/mvdesign-spill/` under the workspace root.
pub(crate) fn spill_dir() -> PathBuf {
    match std::env::var_os("MVDESIGN_SPILL_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/mvdesign-spill"
        )),
    }
}

/// A temporary file holding spilled byte runs.
///
/// Runs are addressed by the `(offset, len)` pair returned from
/// [`SpillStore::write`]; they are immutable until [`SpillStore::free`]
/// gives them back. The backing file is removed on drop.
#[derive(Debug)]
pub struct SpillStore {
    file: Mutex<Cursor>,
    path: PathBuf,
}

#[derive(Debug)]
struct Cursor {
    file: File,
    /// The file's length: where a run that fits no free one goes.
    len: u64,
    /// Free runs below `len`, offset → length; no two are adjacent.
    free: BTreeMap<u64, u64>,
}

impl Cursor {
    /// Where a run of `len` bytes goes: the smallest free run that holds
    /// it, whose remainder stays free, or the end of the file.
    fn place(&mut self, len: u64) -> u64 {
        let fit = self
            .free
            .iter()
            .filter(|&(_, &free)| free >= len)
            .min_by_key(|&(&offset, &free)| (free, offset))
            .map(|(&offset, &free)| (offset, free));
        match fit {
            Some((offset, free)) => {
                self.free.remove(&offset);
                if free > len {
                    self.free.insert(offset + len, free - len);
                }
                offset
            }
            None => {
                self.len += len;
                self.len - len
            }
        }
    }

    /// Gives the run back, merged with its free neighbours; a run that
    /// reaches the end of the file shortens it instead.
    fn release(&mut self, mut offset: u64, mut len: u64) {
        if len == 0 {
            return;
        }
        if let Some((&before, &n)) = self.free.range(..offset).next_back() {
            if before + n == offset {
                self.free.remove(&before);
                offset = before;
                len += n;
            }
        }
        if let Some(n) = self.free.remove(&(offset + len)) {
            len += n;
        }
        if offset + len == self.len {
            self.len = offset;
            // Only the file's size on disk; a failure leaves a longer file
            // whose tail the next writes overwrite.
            let _ = self.file.set_len(offset);
        } else {
            self.free.insert(offset, len);
        }
    }
}

impl SpillStore {
    /// Creates a fresh spill file (see the module docs for where).
    pub fn create() -> io::Result<Self> {
        let dir = spill_dir();
        fs::create_dir_all(&dir)?;
        let name = format!(
            "spill-{}-{}.bin",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = dir.join(name);
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        Ok(Self {
            file: Mutex::new(Cursor {
                file,
                len: 0,
                free: BTreeMap::new(),
            }),
            path,
        })
    }

    /// Writes `bytes` into a free run or at the end of the file and returns
    /// their `(offset, len)` location.
    pub fn write(&self, bytes: &[u8]) -> io::Result<(u64, u64)> {
        let mut cur = self.file.lock().expect("spill store poisoned");
        let len = bytes.len() as u64;
        let offset = cur.place(len);
        let written = cur
            .file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| cur.file.write_all(bytes));
        if let Err(e) = written {
            cur.release(offset, len);
            return Err(e);
        }
        Ok((offset, len))
    }

    /// Gives back the run at `(offset, len)`, a location
    /// [`SpillStore::write`] returned: a later write may reuse it.
    pub fn free(&self, offset: u64, len: u64) {
        self.file
            .lock()
            .expect("spill store poisoned")
            .release(offset, len);
    }

    /// Reads the `len` bytes starting at `offset` (a location previously
    /// returned by [`SpillStore::write`]).
    pub fn read(&self, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        let mut cur = self.file.lock().expect("spill store poisoned");
        cur.file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len as usize];
        cur.file.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// The file's length: live runs and the free holes between them.
    pub fn file_bytes(&self) -> u64 {
        self.file.lock().expect("spill store poisoned").len
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_round_trip_and_file_is_removed_on_drop() {
        let store = SpillStore::create().expect("create spill store");
        let path = store.path().to_path_buf();
        let a = store.write(b"hello").expect("write");
        let b = store.write(b"paged world").expect("write");
        assert_eq!(a, (0, 5));
        assert_eq!(b, (5, 11));
        assert_eq!(store.read(a.0, a.1).expect("read"), b"hello");
        assert_eq!(store.read(b.0, b.1).expect("read"), b"paged world");
        assert_eq!(store.file_bytes(), 16);
        assert!(path.exists());
        drop(store);
        assert!(!path.exists(), "spill file must be deleted on drop");
    }

    #[test]
    fn interleaved_reads_do_not_corrupt_appends() {
        let store = SpillStore::create().expect("create spill store");
        let first = store.write(&[1, 2, 3]).expect("write");
        let _ = store.read(first.0, first.1).expect("read");
        // The next write must land *after* the first run even though the
        // read moved the file cursor.
        let second = store.write(&[9, 9]).expect("write");
        assert_eq!(second.0, 3);
        assert_eq!(store.read(first.0, first.1).expect("read"), [1, 2, 3]);
        assert_eq!(store.read(second.0, second.1).expect("read"), [9, 9]);
    }

    #[test]
    fn freed_runs_are_reused_merged_and_trimmed_from_the_end() {
        let store = SpillStore::create().expect("create spill store");
        let runs: Vec<(u64, u64)> = (0..4u8)
            .map(|i| store.write(&[i; 10]).expect("write"))
            .collect();
        assert_eq!(store.file_bytes(), 40);
        // A freed run takes the next write that fits; its remainder stays
        // free for a smaller one.
        store.free(runs[1].0, runs[1].1);
        assert_eq!(store.write(&[7; 6]).expect("write"), (10, 6));
        assert_eq!(store.write(&[8; 4]).expect("write"), (16, 4));
        assert_eq!(store.write(&[9; 3]).expect("write"), (40, 3));
        assert_eq!(store.read(runs[2].0, runs[2].1).expect("read"), [2; 10]);
        // Neighbours merge: two freed 10-byte runs hold a 20-byte write.
        store.free(runs[0].0, runs[0].1);
        store.free(10, 6);
        store.free(16, 4);
        assert_eq!(store.write(&[5; 20]).expect("write"), (0, 20));
        // Freeing what reaches the end of the file shortens it.
        store.free(40, 3);
        store.free(runs[3].0, runs[3].1);
        assert_eq!(store.file_bytes(), 30);
        store.free(runs[2].0, runs[2].1);
        store.free(0, 20);
        assert_eq!(store.file_bytes(), 0);
    }
}
