//! File-backed page allocation and I/O.
//!
//! A database file is `[header page 0][page 1][page 2]...`. The header keeps
//! a magic number, the page count, a free-list head, and two access-method
//! words that the B+Tree persists across opens (its root page and entry
//! count). Freed pages are chained through the first four bytes of their
//! payload.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::page::{Page, PageId, NO_PAGE, PAGE_SIZE};
use super::{Result, StorageError};

/// Magic number in the header page ("DLPG").
pub const FILE_MAGIC: u32 = 0x444C_5047;

// Header page layout (offsets into payload):
const H_MAGIC: usize = 0;
const H_PAGE_COUNT: usize = 4;
const H_FREE_HEAD: usize = 8;
const H_ROOT_A: usize = 12;
const H_ROOT_B: usize = 16;

/// Page allocator and raw page I/O over a single file.
#[derive(Debug)]
pub struct Pager {
    file: File,
    path: PathBuf,
    /// Total pages in the file, including the header page.
    page_count: u32,
    free_head: PageId,
    root_a: PageId,
    root_b: PageId,
    header_dirty: bool,
}

impl Pager {
    /// Create a fresh database file (truncating any existing one).
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        let mut pager = Pager {
            file,
            path: path.as_ref().to_path_buf(),
            page_count: 1,
            free_head: NO_PAGE,
            root_a: NO_PAGE,
            root_b: NO_PAGE,
            header_dirty: true,
        };
        pager.flush_header()?;
        Ok(pager)
    }

    /// Open an existing database file.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        let mut bytes = [0u8; PAGE_SIZE];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut bytes)?;
        let header = Page::from_bytes(bytes, 0)?;
        if header.get_u32(H_MAGIC) != FILE_MAGIC {
            return Err(StorageError::BadHeader(format!(
                "{} is not a DeepLens storage file",
                path.as_ref().display()
            )));
        }
        Ok(Pager {
            file,
            path: path.as_ref().to_path_buf(),
            page_count: header.get_u32(H_PAGE_COUNT),
            free_head: header.get_u32(H_FREE_HEAD),
            root_a: header.get_u32(H_ROOT_A),
            root_b: header.get_u32(H_ROOT_B),
            header_dirty: false,
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total pages in the file (including header and free pages).
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// File size in bytes implied by the page count.
    pub fn byte_size(&self) -> u64 {
        self.page_count as u64 * PAGE_SIZE as u64
    }

    /// Primary access-method root (used by the B+Tree).
    pub fn root_a(&self) -> PageId {
        self.root_a
    }

    /// Set the primary root pointer.
    pub fn set_root_a(&mut self, id: PageId) {
        self.root_a = id;
        self.header_dirty = true;
    }

    /// Secondary access-method word (the B+Tree's entry count, low 32 bits).
    pub fn root_b(&self) -> PageId {
        self.root_b
    }

    /// Set the secondary access-method word.
    pub fn set_root_b(&mut self, id: PageId) {
        self.root_b = id;
        self.header_dirty = true;
    }

    /// Read a page from disk, verifying its checksum.
    pub fn read_page(&mut self, id: PageId) -> Result<Page> {
        if id >= self.page_count {
            return Err(StorageError::PageOutOfBounds {
                page_id: id,
                page_count: self.page_count,
            });
        }
        let mut bytes = [0u8; PAGE_SIZE];
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        self.file.read_exact(&mut bytes)?;
        Page::from_bytes(bytes, id)
    }

    /// Write a page image to disk (checksum stamped automatically).
    pub fn write_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        if id >= self.page_count {
            return Err(StorageError::PageOutOfBounds {
                page_id: id,
                page_count: self.page_count,
            });
        }
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        self.file.write_all(&page.to_bytes())?;
        Ok(())
    }

    /// Allocate a page: pop the free list or extend the file.
    pub fn allocate(&mut self) -> Result<PageId> {
        if self.free_head != NO_PAGE {
            let id = self.free_head;
            let page = self.read_page(id)?;
            self.free_head = page.get_u32(0);
            self.header_dirty = true;
            return Ok(id);
        }
        let id = self.page_count;
        self.page_count += 1;
        self.header_dirty = true;
        // Extend the file with a zeroed page so subsequent reads succeed.
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        self.file.write_all(&Page::zeroed().to_bytes())?;
        Ok(id)
    }

    /// Return a page to the free list.
    pub fn free(&mut self, id: PageId) -> Result<()> {
        debug_assert_ne!(id, 0, "cannot free the header page");
        let mut page = Page::zeroed();
        page.put_u32(0, self.free_head);
        self.write_page(id, &page)?;
        self.free_head = id;
        self.header_dirty = true;
        Ok(())
    }

    /// Persist the header page if it changed.
    pub fn flush_header(&mut self) -> Result<()> {
        if !self.header_dirty {
            return Ok(());
        }
        let mut header = Page::zeroed();
        header.put_u32(H_MAGIC, FILE_MAGIC);
        header.put_u32(H_PAGE_COUNT, self.page_count);
        header.put_u32(H_FREE_HEAD, self.free_head);
        header.put_u32(H_ROOT_A, self.root_a);
        header.put_u32(H_ROOT_B, self.root_b);
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header.to_bytes())?;
        self.header_dirty = false;
        Ok(())
    }

    /// Flush the header and fsync the file.
    pub fn sync(&mut self) -> Result<()> {
        self.flush_header()?;
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("deeplens-pager-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.dlp", std::process::id()))
    }

    #[test]
    fn create_allocate_write_read() {
        let path = tmpfile("basic");
        let mut pager = Pager::create(&path).unwrap();
        let id = pager.allocate().unwrap();
        assert_eq!(id, 1);
        let mut page = Page::zeroed();
        page.put_slice(0, b"the quick brown fox");
        pager.write_page(id, &page).unwrap();
        let back = pager.read_page(id).unwrap();
        assert_eq!(back.get_slice(0, 19), b"the quick brown fox");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reopen_preserves_state() {
        let path = tmpfile("reopen");
        {
            let mut pager = Pager::create(&path).unwrap();
            let id = pager.allocate().unwrap();
            let mut page = Page::zeroed();
            page.put_u32(0, 4242);
            pager.write_page(id, &page).unwrap();
            pager.set_root_a(id);
            pager.sync().unwrap();
        }
        let mut pager = Pager::open(&path).unwrap();
        assert_eq!(pager.page_count(), 2);
        let root = pager.root_a();
        assert_eq!(root, 1);
        assert_eq!(pager.read_page(root).unwrap().get_u32(0), 4242);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn free_list_reuses_pages() {
        let path = tmpfile("freelist");
        let mut pager = Pager::create(&path).unwrap();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        assert_eq!((a, b), (1, 2));
        pager.free(a).unwrap();
        let c = pager.allocate().unwrap();
        assert_eq!(c, a, "freed page should be reused");
        let d = pager.allocate().unwrap();
        assert_eq!(d, 3, "exhausted free list extends the file");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let path = tmpfile("oob");
        let mut pager = Pager::create(&path).unwrap();
        assert!(matches!(
            pager.read_page(99),
            Err(StorageError::PageOutOfBounds { page_id: 99, .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_rejects_non_database() {
        let path = tmpfile("notdb");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        assert!(Pager::open(&path).is_err());
        std::fs::remove_file(path).ok();
    }
}
