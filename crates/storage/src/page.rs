//! Fixed-size checksummed pages.
//!
//! Every on-disk structure in the engine is built from [`PAGE_SIZE`] pages.
//! The last four bytes of each page hold a CRC32 over the rest, verified on
//! every read, so torn writes and bit rot surface as
//! [`crate::StorageError::ChecksumMismatch`] instead of silent corruption.

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Usable payload bytes per page (the tail stores the CRC32 checksum).
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - 4;

/// Identifier of a page within a database file. Page 0 is the file header.
pub type PageId = u32;

/// Sentinel page id meaning "no page" (null pointer in page link fields).
pub const NO_PAGE: PageId = u32::MAX;

/// CRC32 (IEEE 802.3, reflected) implemented from scratch with a lazily
/// built lookup table.
pub fn crc32(data: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// An in-memory page image.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page(crc={:#010x})", crc32(&self.data[..PAGE_PAYLOAD]))
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl Page {
    /// An all-zero page.
    pub fn zeroed() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Construct from a raw page image, verifying its checksum.
    pub fn from_bytes(bytes: [u8; PAGE_SIZE], page_id: PageId) -> crate::Result<Self> {
        let stored = u32::from_le_bytes(bytes[PAGE_PAYLOAD..].try_into().expect("4 bytes"));
        let computed = crc32(&bytes[..PAGE_PAYLOAD]);
        if stored != computed {
            return Err(crate::StorageError::ChecksumMismatch { page_id });
        }
        Ok(Page {
            data: Box::new(bytes),
        })
    }

    /// Serialize, stamping the checksum into the tail.
    pub fn to_bytes(&self) -> [u8; PAGE_SIZE] {
        let mut out = *self.data;
        let crc = crc32(&out[..PAGE_PAYLOAD]);
        out[PAGE_PAYLOAD..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Usable payload slice.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.data[..PAGE_PAYLOAD]
    }

    // ---- typed little-endian accessors into the payload ----

    /// Read a `u32` at byte offset `off`.
    #[inline]
    pub fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.data[off..off + 4].try_into().expect("in bounds"))
    }

    /// Write a `u32` at byte offset `off`.
    #[inline]
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a `u16` at byte offset `off`.
    #[inline]
    pub fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.data[off..off + 2].try_into().expect("in bounds"))
    }

    /// Write a `u16` at byte offset `off`.
    #[inline]
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read one byte at offset `off`.
    #[inline]
    pub fn get_u8(&self, off: usize) -> u8 {
        self.data[off]
    }

    /// Write one byte at offset `off`.
    #[inline]
    pub fn put_u8(&mut self, off: usize, v: u8) {
        self.data[off] = v;
    }

    /// Copy `src` into the payload at offset `off`.
    #[inline]
    pub fn put_slice(&mut self, off: usize, src: &[u8]) {
        self.data[off..off + src.len()].copy_from_slice(src);
    }

    /// Borrow `len` payload bytes at offset `off`.
    #[inline]
    pub fn get_slice(&self, off: usize, len: usize) -> &[u8] {
        &self.data[off..off + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_with_checksum() {
        let mut p = Page::zeroed();
        p.put_u32(0, 0xDEAD_BEEF);
        p.put_u16(100, 777);
        p.put_slice(200, b"hello");
        let bytes = p.to_bytes();
        let q = Page::from_bytes(bytes, 1).unwrap();
        assert_eq!(q.get_u32(0), 0xDEAD_BEEF);
        assert_eq!(q.get_u16(100), 777);
        assert_eq!(q.get_slice(200, 5), b"hello");
    }

    #[test]
    fn corruption_detected() {
        let p = Page::zeroed();
        let mut bytes = p.to_bytes();
        bytes[17] ^= 0x40;
        assert!(matches!(
            Page::from_bytes(bytes, 9),
            Err(crate::StorageError::ChecksumMismatch { page_id: 9 })
        ));
    }

    #[test]
    fn checksum_corruption_detected() {
        let p = Page::zeroed();
        let mut bytes = p.to_bytes();
        bytes[PAGE_SIZE - 1] ^= 0x01;
        assert!(Page::from_bytes(bytes, 0).is_err());
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let mut p = Page::zeroed();
        p.put_u8(50, 0xAB);
        assert_eq!(p.get_u8(50), 0xAB);
        p.put_u32(60, u32::MAX);
        assert_eq!(p.get_u32(60), u32::MAX);
    }
}
