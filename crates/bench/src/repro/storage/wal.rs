//! Physical write-ahead log.
//!
//! Before a transaction's dirty pages overwrite the main database file, their
//! full images are appended here and fsynced under a commit record. Recovery
//! replays every *committed* image in order; a torn tail (crash mid-append)
//! is detected by per-record CRCs and ignored, so a crash between WAL append
//! and checkpoint can never corrupt the database.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::page::{crc32, PageId, PAGE_SIZE};
use super::pager::Pager;
use super::{Result, StorageError};

const REC_PAGE: u8 = 1;
const REC_COMMIT: u8 = 2;

/// An append-only write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
}

impl Wal {
    /// Open (creating if necessary) the WAL at `path`, positioned for append.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false) // the log is append-only; existing records survive reopen
            .open(path.as_ref())?;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            path: path.as_ref().to_path_buf(),
        })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append_record(&mut self, kind: u8, page_id: PageId, payload: &[u8]) -> Result<()> {
        let mut rec = Vec::with_capacity(13 + payload.len());
        rec.push(kind);
        rec.extend_from_slice(&page_id.to_le_bytes());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        let crc = crc32(&rec);
        rec.extend_from_slice(&crc.to_le_bytes());
        self.file.write_all(&rec)?;
        Ok(())
    }

    /// Append a page image (not yet durable; see [`Wal::commit`]).
    pub fn log_page(&mut self, page_id: PageId, image: &[u8; PAGE_SIZE]) -> Result<()> {
        self.append_record(REC_PAGE, page_id, image)
    }

    /// Append a commit record and fsync: everything logged so far becomes
    /// durable and will be replayed after a crash.
    pub fn commit(&mut self) -> Result<()> {
        self.append_record(REC_COMMIT, 0, &[])?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Truncate the log after a checkpoint has written all pages to the
    /// main file.
    pub fn truncate(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Current log size in bytes.
    pub fn byte_size(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Read back every committed page image, in append order.
    ///
    /// Returns `(page_id, image)` pairs from committed transactions only.
    /// Records after the last commit — or any torn/corrupt record — are
    /// discarded, which is the correct crash-recovery semantics.
    pub fn replay<P: AsRef<Path>>(path: P) -> Result<Vec<(PageId, Vec<u8>)>> {
        let bytes = match std::fs::read(path.as_ref()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(vec![]),
            Err(e) => return Err(e.into()),
        };
        let mut committed = Vec::new();
        let mut pending = Vec::new();
        let mut pos = 0usize;
        while pos + 13 <= bytes.len() {
            let kind = bytes[pos];
            let page_id = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes"));
            let len =
                u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().expect("4 bytes")) as usize;
            let rec_end = pos + 9 + len;
            if rec_end + 4 > bytes.len() {
                break; // torn tail
            }
            let stored_crc =
                u32::from_le_bytes(bytes[rec_end..rec_end + 4].try_into().expect("4 bytes"));
            if crc32(&bytes[pos..rec_end]) != stored_crc {
                break; // corrupt record: stop replay here
            }
            match kind {
                REC_PAGE => {
                    if len != PAGE_SIZE {
                        return Err(StorageError::WalCorrupt(format!(
                            "page record of {len} bytes"
                        )));
                    }
                    pending.push((page_id, bytes[pos + 9..rec_end].to_vec()));
                }
                REC_COMMIT => committed.append(&mut pending),
                other => {
                    return Err(StorageError::WalCorrupt(format!(
                        "unknown record kind {other}"
                    )))
                }
            }
            pos = rec_end + 4;
        }
        Ok(committed)
    }

    /// Apply all committed images from the log at `wal_path` to `pager`,
    /// then sync. Returns the number of pages applied.
    pub fn recover_into<P: AsRef<Path>>(wal_path: P, pager: &mut Pager) -> Result<usize> {
        let images = Self::replay(wal_path)?;
        let n = images.len();
        for (page_id, image) in images {
            // Page images may reference pages allocated after the snapshot;
            // extend the file as needed.
            while page_id >= pager.page_count() {
                pager.allocate()?;
            }
            let arr: [u8; PAGE_SIZE] = image
                .as_slice()
                .try_into()
                .expect("replay validated length");
            let page = super::page::Page::from_bytes(arr, page_id)?;
            pager.write_page(page_id, &page)?;
        }
        pager.sync()?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::storage::page::Page;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("deeplens-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.wal", std::process::id()));
        std::fs::remove_file(&p).ok();
        p
    }

    fn page_image(tag: u32) -> [u8; PAGE_SIZE] {
        let mut p = Page::zeroed();
        p.put_u32(0, tag);
        p.to_bytes()
    }

    #[test]
    fn committed_records_replay() {
        let path = tmpfile("commit");
        let mut wal = Wal::open(&path).unwrap();
        wal.log_page(3, &page_image(30)).unwrap();
        wal.log_page(4, &page_image(40)).unwrap();
        wal.commit().unwrap();
        let images = Wal::replay(&path).unwrap();
        assert_eq!(images.len(), 2);
        assert_eq!(images[0].0, 3);
        assert_eq!(images[1].0, 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn uncommitted_records_discarded() {
        let path = tmpfile("uncommitted");
        let mut wal = Wal::open(&path).unwrap();
        wal.log_page(1, &page_image(10)).unwrap();
        wal.commit().unwrap();
        wal.log_page(2, &page_image(20)).unwrap(); // no commit
        let images = Wal::replay(&path).unwrap();
        assert_eq!(images.len(), 1);
        assert_eq!(images[0].0, 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_tail_ignored() {
        let path = tmpfile("torn");
        let mut wal = Wal::open(&path).unwrap();
        wal.log_page(1, &page_image(10)).unwrap();
        wal.commit().unwrap();
        wal.log_page(2, &page_image(20)).unwrap();
        wal.commit().unwrap();
        drop(wal);
        // Simulate a crash mid-append: chop bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let images = Wal::replay(&path).unwrap();
        assert_eq!(images.len(), 1, "second txn lost its commit record");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = tmpfile("corrupt");
        let mut wal = Wal::open(&path).unwrap();
        wal.log_page(1, &page_image(10)).unwrap();
        wal.commit().unwrap();
        wal.log_page(2, &page_image(20)).unwrap();
        wal.commit().unwrap();
        drop(wal);
        // Flip a byte inside the second transaction's page record.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2 + 200;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let images = Wal::replay(&path).unwrap();
        assert_eq!(images.len(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn recover_applies_images_to_pager() {
        let dir = std::env::temp_dir().join("deeplens-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join(format!("rec-{}.dlp", std::process::id()));
        let walp = tmpfile("recover");
        std::fs::remove_file(&db).ok();

        let mut pager = Pager::create(&db).unwrap();
        let pid = pager.allocate().unwrap();
        let mut wal = Wal::open(&walp).unwrap();
        let mut page = Page::zeroed();
        page.put_u32(0, 777);
        wal.log_page(pid, &page.to_bytes()).unwrap();
        wal.commit().unwrap();
        // Crash before writing the page to the main file; now recover.
        let applied = Wal::recover_into(&walp, &mut pager).unwrap();
        assert_eq!(applied, 1);
        assert_eq!(pager.read_page(pid).unwrap().get_u32(0), 777);
        std::fs::remove_file(db).ok();
        std::fs::remove_file(walp).ok();
    }

    #[test]
    fn truncate_resets_log() {
        let path = tmpfile("trunc");
        let mut wal = Wal::open(&path).unwrap();
        wal.log_page(1, &page_image(1)).unwrap();
        wal.commit().unwrap();
        assert!(wal.byte_size().unwrap() > 0);
        wal.truncate().unwrap();
        assert_eq!(wal.byte_size().unwrap(), 0);
        assert!(Wal::replay(&path).unwrap().is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let p = tmpfile("missing");
        std::fs::remove_file(&p).ok();
        assert!(Wal::replay(&p).unwrap().is_empty());
    }
}
