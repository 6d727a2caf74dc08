//! On-disk B+Tree with variable-length byte keys and values.
//!
//! This is the workhorse access method of DeepLens storage: the Frame File
//! keeps frames sorted by frame number in one of these (enabling temporal
//! filter pushdown, paper §3.1), the Segmented File keys clips by start
//! frame, and all single-dimensional secondary indexes over patch metadata
//! are B+Trees as well.
//!
//! Layout
//! ------
//! * Leaf pages hold sorted `(key, value)` entries and a right-sibling
//!   pointer for range scans.
//! * Internal pages hold `n` separator keys and `n + 1` children.
//! * Values larger than [`MAX_INLINE_VALUE`] spill into chained overflow
//!   pages, so whole encoded frames (tens of KiB) store cleanly.
//! * Keys sort by raw byte order; [`keys::encode_u64`] provides an
//!   order-preserving encoding for numeric keys.
//!
//! Deletes are lazy (no rebalancing); pages only split. This matches the
//! append-mostly ingest patterns of visual analytics and keeps the structure
//! simple to verify.

use std::ops::Bound;
use std::path::Path;

use crate::buffer::BufferPool;
use crate::page::{Page, PageId, NO_PAGE, PAGE_PAYLOAD};
use crate::pager::Pager;
use crate::{Result, StorageError};

/// Maximum key length in bytes.
pub const MAX_KEY: usize = 512;
/// Values longer than this spill to overflow pages.
pub const MAX_INLINE_VALUE: usize = 480;

const T_INTERNAL: u8 = 2;
const T_LEAF: u8 = 1;
const T_OVERFLOW: u8 = 3;

/// Bytes of overflow payload per overflow page: type(1) + next(4) + len(2).
const OVERFLOW_CAP: usize = PAGE_PAYLOAD - 7;

/// Order-preserving key encodings for numeric keys.
pub mod keys {
    /// Encode a `u64` so byte order equals numeric order (big-endian).
    pub fn encode_u64(v: u64) -> [u8; 8] {
        v.to_be_bytes()
    }

    /// Decode a key produced by [`encode_u64`].
    pub fn decode_u64(b: &[u8]) -> u64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&b[..8]);
        u64::from_be_bytes(buf)
    }

    /// Encode an `i64` order-preservingly (offset-binary then big-endian).
    pub fn encode_i64(v: i64) -> [u8; 8] {
        ((v as u64) ^ (1u64 << 63)).to_be_bytes()
    }

    /// Encode an `f64` order-preservingly (IEEE 754 total-order trick).
    /// NaNs sort above all numbers.
    pub fn encode_f64(v: f64) -> [u8; 8] {
        let bits = v.to_bits();
        let flipped = if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1u64 << 63)
        };
        flipped.to_be_bytes()
    }
}

#[derive(Debug, Clone)]
enum ValRef {
    Inline(Vec<u8>),
    Overflow { head: PageId, len: u32 },
}

impl ValRef {
    fn entry_len(&self) -> usize {
        match self {
            ValRef::Inline(v) => v.len(),
            ValRef::Overflow { .. } => 8,
        }
    }
}

/// A node split: the separator key and the page id of the new right node.
type Split = (Vec<u8>, PageId);

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Vec<Vec<u8>>,
        vals: Vec<ValRef>,
        next: PageId,
    },
    Internal {
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { keys, vals, .. } => {
                7 + keys
                    .iter()
                    .zip(vals)
                    .map(|(k, v)| 4 + k.len() + v.entry_len())
                    .sum::<usize>()
            }
            Node::Internal { keys, .. } => 7 + keys.iter().map(|k| 6 + k.len()).sum::<usize>(),
        }
    }

    fn to_page(&self) -> Page {
        let mut page = Page::zeroed();
        match self {
            Node::Leaf { keys, vals, next } => {
                page.put_u8(0, T_LEAF);
                page.put_u16(1, keys.len() as u16);
                page.put_u32(3, *next);
                let mut off = 7;
                for (k, v) in keys.iter().zip(vals) {
                    page.put_u16(off, k.len() as u16);
                    match v {
                        ValRef::Inline(bytes) => {
                            page.put_u16(off + 2, bytes.len() as u16);
                            page.put_slice(off + 4, k);
                            page.put_slice(off + 4 + k.len(), bytes);
                            off += 4 + k.len() + bytes.len();
                        }
                        ValRef::Overflow { head, len } => {
                            page.put_u16(off + 2, 0x8000);
                            page.put_slice(off + 4, k);
                            page.put_u32(off + 4 + k.len(), *head);
                            page.put_u32(off + 8 + k.len(), *len);
                            off += 4 + k.len() + 8;
                        }
                    }
                }
            }
            Node::Internal { keys, children } => {
                page.put_u8(0, T_INTERNAL);
                page.put_u16(1, keys.len() as u16);
                page.put_u32(3, children[0]);
                let mut off = 7;
                for (k, child) in keys.iter().zip(&children[1..]) {
                    page.put_u16(off, k.len() as u16);
                    page.put_slice(off + 2, k);
                    page.put_u32(off + 2 + k.len(), *child);
                    off += 6 + k.len();
                }
            }
        }
        page
    }

    fn from_page(page: &Page) -> Result<Node> {
        match page.get_u8(0) {
            T_LEAF => {
                let n = page.get_u16(1) as usize;
                let next = page.get_u32(3);
                let mut keys = Vec::with_capacity(n);
                let mut vals = Vec::with_capacity(n);
                let mut off = 7;
                for _ in 0..n {
                    let klen = page.get_u16(off) as usize;
                    let vmark = page.get_u16(off + 2);
                    let key = page.get_slice(off + 4, klen).to_vec();
                    if vmark & 0x8000 != 0 {
                        let head = page.get_u32(off + 4 + klen);
                        let len = page.get_u32(off + 8 + klen);
                        vals.push(ValRef::Overflow { head, len });
                        off += 4 + klen + 8;
                    } else {
                        let vlen = vmark as usize;
                        vals.push(ValRef::Inline(
                            page.get_slice(off + 4 + klen, vlen).to_vec(),
                        ));
                        off += 4 + klen + vlen;
                    }
                    keys.push(key);
                }
                Ok(Node::Leaf { keys, vals, next })
            }
            T_INTERNAL => {
                let n = page.get_u16(1) as usize;
                let mut keys = Vec::with_capacity(n);
                let mut children = Vec::with_capacity(n + 1);
                children.push(page.get_u32(3));
                let mut off = 7;
                for _ in 0..n {
                    let klen = page.get_u16(off) as usize;
                    keys.push(page.get_slice(off + 2, klen).to_vec());
                    children.push(page.get_u32(off + 2 + klen));
                    off += 6 + klen;
                }
                Ok(Node::Internal { keys, children })
            }
            other => Err(StorageError::Corrupt(format!("unknown node type {other}"))),
        }
    }
}

/// An on-disk B+Tree over one database file.
#[derive(Debug)]
pub struct BTree {
    pool: BufferPool,
    root: PageId,
    count: u64,
}

impl BTree {
    /// Create a fresh tree, truncating any existing file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let pager = Pager::create(path)?;
        let pool = BufferPool::new(pager);
        let root = pool.allocate()?;
        let leaf = Node::Leaf {
            keys: vec![],
            vals: vec![],
            next: NO_PAGE,
        };
        pool.put(root, leaf.to_page())?;
        pool.with_pager(|p| {
            p.set_root_a(root);
            p.set_root_b(0); // entry count (low 32 bits)
        });
        Ok(BTree {
            pool,
            root,
            count: 0,
        })
    }

    /// Open an existing tree.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let pager = Pager::open(path)?;
        let pool = BufferPool::new(pager);
        let (root, count) = pool.with_pager(|p| (p.root_a(), p.root_b() as u64));
        if root == NO_PAGE {
            return Err(StorageError::BadHeader("file has no B+Tree root".into()));
        }
        Ok(BTree { pool, root, count })
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// On-disk footprint in bytes.
    pub fn byte_size(&self) -> u64 {
        self.pool.with_pager(|p| p.byte_size())
    }

    /// Flush dirty pages and the header, then fsync.
    pub fn flush(&mut self) -> Result<()> {
        let (root, count) = (self.root, self.count);
        self.pool.with_pager(|p| {
            p.set_root_a(root);
            p.set_root_b(count as u32);
        });
        self.pool.flush()
    }

    fn load(&self, id: PageId) -> Result<Node> {
        Node::from_page(&self.pool.get(id)?)
    }

    fn store(&self, id: PageId, node: &Node) -> Result<()> {
        self.pool.put(id, node.to_page())
    }

    // ---- overflow chains ----

    fn write_overflow(&self, value: &[u8]) -> Result<(PageId, u32)> {
        let mut chunks: Vec<&[u8]> = value.chunks(OVERFLOW_CAP).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        let mut next = NO_PAGE;
        // Write back-to-front so each page can point at its successor.
        for chunk in chunks.iter().rev() {
            let id = self.pool.allocate()?;
            let mut page = Page::zeroed();
            page.put_u8(0, T_OVERFLOW);
            page.put_u32(1, next);
            page.put_u16(5, chunk.len() as u16);
            page.put_slice(7, chunk);
            self.pool.put(id, page)?;
            next = id;
        }
        Ok((next, value.len() as u32))
    }

    fn read_overflow(&self, head: PageId, len: u32) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(len as usize);
        let mut cur = head;
        while cur != NO_PAGE {
            let page = self.pool.get(cur)?;
            if page.get_u8(0) != T_OVERFLOW {
                return Err(StorageError::Corrupt(
                    "overflow chain hit non-overflow page".into(),
                ));
            }
            let n = page.get_u16(5) as usize;
            out.extend_from_slice(page.get_slice(7, n));
            cur = page.get_u32(1);
        }
        if out.len() != len as usize {
            return Err(StorageError::Corrupt(format!(
                "overflow chain length {} != recorded {}",
                out.len(),
                len
            )));
        }
        Ok(out)
    }

    fn free_overflow(&self, head: PageId) -> Result<()> {
        let mut cur = head;
        while cur != NO_PAGE {
            let page = self.pool.get(cur)?;
            let next = page.get_u32(1);
            self.pool.free(cur)?;
            cur = next;
        }
        Ok(())
    }

    fn resolve(&self, v: &ValRef) -> Result<Vec<u8>> {
        match v {
            ValRef::Inline(bytes) => Ok(bytes.clone()),
            ValRef::Overflow { head, len } => self.read_overflow(*head, *len),
        }
    }

    fn make_valref(&self, value: &[u8]) -> Result<ValRef> {
        if value.len() <= MAX_INLINE_VALUE {
            Ok(ValRef::Inline(value.to_vec()))
        } else {
            let (head, len) = self.write_overflow(value)?;
            Ok(ValRef::Overflow { head, len })
        }
    }

    // ---- point operations ----

    /// Insert or replace the value for `key`. Returns `true` when the key
    /// was new.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        if key.len() > MAX_KEY {
            return Err(StorageError::EntryTooLarge {
                size: key.len(),
                max: MAX_KEY,
            });
        }
        let (inserted, split) = self.insert_rec(self.root, key, value)?;
        if let Some((sep, right)) = split {
            let new_root_id = self.pool.allocate()?;
            let new_root = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.store(new_root_id, &new_root)?;
            self.root = new_root_id;
        }
        if inserted {
            self.count += 1;
        }
        Ok(inserted)
    }

    /// Recursive insert; returns (was_new, optional split).
    fn insert_rec(
        &mut self,
        id: PageId,
        key: &[u8],
        value: &[u8],
    ) -> Result<(bool, Option<Split>)> {
        let mut node = self.load(id)?;
        match &mut node {
            Node::Leaf {
                keys,
                vals,
                next: _,
            } => {
                let val = self.make_valref(value)?;
                let was_new = match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                    Ok(pos) => {
                        // Replace: free any old overflow chain first.
                        if let ValRef::Overflow { head, .. } = vals[pos] {
                            self.free_overflow(head)?;
                        }
                        vals[pos] = val;
                        false
                    }
                    Err(pos) => {
                        keys.insert(pos, key.to_vec());
                        vals.insert(pos, val);
                        true
                    }
                };
                if node.serialized_size() <= PAGE_PAYLOAD {
                    self.store(id, &node)?;
                    return Ok((was_new, None));
                }
                // Split the leaf in half; right half moves to a new page.
                let (sep, right_id) = {
                    let Node::Leaf { keys, vals, next } = &mut node else {
                        unreachable!()
                    };
                    let mid = keys.len() / 2;
                    let right_keys = keys.split_off(mid);
                    let right_vals = vals.split_off(mid);
                    let sep = right_keys[0].clone();
                    let right_id = self.pool.allocate()?;
                    let right = Node::Leaf {
                        keys: right_keys,
                        vals: right_vals,
                        next: *next,
                    };
                    *next = right_id;
                    self.store(right_id, &right)?;
                    (sep, right_id)
                };
                self.store(id, &node)?;
                Ok((was_new, Some((sep, right_id))))
            }
            Node::Internal { keys, children } => {
                let child_idx = match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                    Ok(pos) => pos + 1,
                    Err(pos) => pos,
                };
                let child = children[child_idx];
                let (was_new, split) = self.insert_rec(child, key, value)?;
                if let Some((sep, right)) = split {
                    keys.insert(child_idx, sep);
                    children.insert(child_idx + 1, right);
                    if node.serialized_size() <= PAGE_PAYLOAD {
                        self.store(id, &node)?;
                        return Ok((was_new, None));
                    }
                    // Split the internal node; middle key is promoted.
                    let (sep, right_id) = {
                        let Node::Internal { keys, children } = &mut node else {
                            unreachable!()
                        };
                        let mid = keys.len() / 2;
                        let promoted = keys[mid].clone();
                        let right_keys = keys.split_off(mid + 1);
                        keys.pop(); // remove the promoted key from the left node
                        let right_children = children.split_off(mid + 1);
                        let right_id = self.pool.allocate()?;
                        let right = Node::Internal {
                            keys: right_keys,
                            children: right_children,
                        };
                        self.store(right_id, &right)?;
                        (promoted, right_id)
                    };
                    self.store(id, &node)?;
                    return Ok((was_new, Some((sep, right_id))));
                }
                self.store(id, &node)?;
                Ok((was_new, None))
            }
        }
    }

    /// Look up the value stored for `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut id = self.root;
        loop {
            match self.load(id)? {
                Node::Internal { keys, children } => {
                    let idx = match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                        Ok(pos) => pos + 1,
                        Err(pos) => pos,
                    };
                    id = children[idx];
                }
                Node::Leaf { keys, vals, .. } => {
                    return match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                        Ok(pos) => Ok(Some(self.resolve(&vals[pos])?)),
                        Err(_) => Ok(None),
                    };
                }
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Remove `key`. Returns `true` when it existed. Leaves may underflow
    /// (lazy deletion); space is reclaimed only for overflow chains.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let mut id = self.root;
        loop {
            let mut node = self.load(id)?;
            match &mut node {
                Node::Internal { keys, children } => {
                    let idx = match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                        Ok(pos) => pos + 1,
                        Err(pos) => pos,
                    };
                    id = children[idx];
                }
                Node::Leaf { keys, vals, .. } => {
                    match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                        Ok(pos) => {
                            keys.remove(pos);
                            if let ValRef::Overflow { head, .. } = vals.remove(pos) {
                                self.free_overflow(head)?;
                            }
                            self.store(id, &node)?;
                            self.count -= 1;
                            return Ok(true);
                        }
                        Err(_) => return Ok(false),
                    }
                }
            }
        }
    }

    // ---- range scans ----

    /// Find the leftmost leaf whose range may contain `start`.
    fn descend_to_leaf(&self, start: Bound<&[u8]>) -> Result<PageId> {
        let target: Option<&[u8]> = match start {
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
            Bound::Unbounded => None,
        };
        let mut id = self.root;
        loop {
            match self.load(id)? {
                Node::Internal { keys, children } => {
                    let idx = match target {
                        None => 0,
                        Some(k) => match keys.binary_search_by(|s| s.as_slice().cmp(k)) {
                            Ok(pos) => pos + 1,
                            Err(pos) => pos,
                        },
                    };
                    id = children[idx];
                }
                Node::Leaf { .. } => return Ok(id),
            }
        }
    }

    /// Ordered scan over `[start, end]` bounds. Entries stream leaf-by-leaf.
    pub fn scan(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<Scan<'_>> {
        let leaf = self.descend_to_leaf(start)?;
        let node = self.load(leaf)?;
        let (keys, vals, next) = match node {
            Node::Leaf { keys, vals, next } => (keys, vals, next),
            _ => {
                return Err(StorageError::Corrupt(
                    "descend ended on internal node".into(),
                ))
            }
        };
        let start_owned = match start {
            Bound::Included(k) => Bound::Included(k.to_vec()),
            Bound::Excluded(k) => Bound::Excluded(k.to_vec()),
            Bound::Unbounded => Bound::Unbounded,
        };
        let end_owned = match end {
            Bound::Included(k) => Bound::Included(k.to_vec()),
            Bound::Excluded(k) => Bound::Excluded(k.to_vec()),
            Bound::Unbounded => Bound::Unbounded,
        };
        let idx = match &start_owned {
            Bound::Unbounded => 0,
            Bound::Included(k) => keys.partition_point(|x| x.as_slice() < k.as_slice()),
            Bound::Excluded(k) => keys.partition_point(|x| x.as_slice() <= k.as_slice()),
        };
        Ok(Scan {
            tree: self,
            keys,
            vals,
            next,
            idx,
            end: end_owned,
            done: false,
        })
    }

    /// Scan every entry in key order.
    pub fn scan_all(&self) -> Result<Scan<'_>> {
        self.scan(Bound::Unbounded, Bound::Unbounded)
    }

    /// Tree height (number of levels), for diagnostics and cost models.
    pub fn height(&self) -> Result<u32> {
        let mut h = 1;
        let mut id = self.root;
        loop {
            match self.load(id)? {
                Node::Internal { children, .. } => {
                    id = children[0];
                    h += 1;
                }
                Node::Leaf { .. } => return Ok(h),
            }
        }
    }
}

/// Streaming ordered scan over a [`BTree`]. Yields owned `(key, value)` pairs.
pub struct Scan<'a> {
    tree: &'a BTree,
    keys: Vec<Vec<u8>>,
    vals: Vec<ValRef>,
    next: PageId,
    idx: usize,
    end: Bound<Vec<u8>>,
    done: bool,
}

impl Iterator for Scan<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            if self.idx >= self.keys.len() {
                if self.next == NO_PAGE {
                    self.done = true;
                    return None;
                }
                match self.tree.load(self.next) {
                    Ok(Node::Leaf { keys, vals, next }) => {
                        self.keys = keys;
                        self.vals = vals;
                        self.next = next;
                        self.idx = 0;
                        continue;
                    }
                    Ok(_) => {
                        self.done = true;
                        return Some(Err(StorageError::Corrupt(
                            "leaf sibling points at internal node".into(),
                        )));
                    }
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
            }
            let key = &self.keys[self.idx];
            let past_end = match &self.end {
                Bound::Unbounded => false,
                Bound::Included(e) => key.as_slice() > e.as_slice(),
                Bound::Excluded(e) => key.as_slice() >= e.as_slice(),
            };
            if past_end {
                self.done = true;
                return None;
            }
            let val = match self.tree.resolve(&self.vals[self.idx]) {
                Ok(v) => v,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            let key = key.clone();
            self.idx += 1;
            return Some(Ok((key, val)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Invert `keys::encode_i64`: the round trip proves the encoding is
    /// lossless as well as order-preserving.
    fn decode_i64(b: &[u8]) -> i64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&b[..8]);
        (u64::from_be_bytes(buf) ^ (1u64 << 63)) as i64
    }

    /// Invert `keys::encode_f64`.
    fn decode_f64(b: &[u8]) -> f64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&b[..8]);
        let flipped = u64::from_be_bytes(buf);
        let bits = if flipped >> 63 == 1 {
            flipped & !(1u64 << 63)
        } else {
            !flipped
        };
        f64::from_bits(bits)
    }

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("deeplens-btree-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.dlb", std::process::id()));
        std::fs::remove_file(&p).ok();
        p
    }

    #[test]
    fn insert_get_small() {
        let path = tmpfile("small");
        let mut t = BTree::create(&path).unwrap();
        assert!(t.insert(b"b", b"2").unwrap());
        assert!(t.insert(b"a", b"1").unwrap());
        assert!(t.insert(b"c", b"3").unwrap());
        assert!(!t.insert(b"b", b"2x").unwrap(), "replace is not an insert");
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"b").unwrap(), Some(b"2x".to_vec()));
        assert_eq!(t.get(b"zzz").unwrap(), None);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn thousands_of_keys_split_and_order() {
        let path = tmpfile("many");
        let mut t = BTree::create(&path).unwrap();
        let n = 5000u64;
        // Insert in a scrambled order.
        for i in 0..n {
            let k = (i * 2654435761) % n;
            t.insert(&keys::encode_u64(k), format!("val-{k}").as_bytes())
                .unwrap();
        }
        assert_eq!(t.len(), n);
        assert!(t.height().unwrap() >= 2, "tree should have split");
        // Every key resolves.
        for k in [0u64, 1, n / 2, n - 1] {
            assert_eq!(
                t.get(&keys::encode_u64(k)).unwrap(),
                Some(format!("val-{k}").into_bytes())
            );
        }
        // Full scan is ordered and complete.
        let all: Vec<_> = t.scan_all().unwrap().collect::<Result<_>>().unwrap();
        assert_eq!(all.len(), n as usize);
        for (i, (k, _)) in all.iter().enumerate() {
            assert_eq!(keys::decode_u64(k), i as u64);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn range_scan_bounds() {
        let path = tmpfile("range");
        let mut t = BTree::create(&path).unwrap();
        for i in 0..100u64 {
            t.insert(&keys::encode_u64(i), &[i as u8]).unwrap();
        }
        let lo = keys::encode_u64(10);
        let hi = keys::encode_u64(20);
        let r: Vec<_> = t
            .scan(Bound::Included(&lo), Bound::Excluded(&hi))
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(keys::decode_u64(&r[0].0), 10);
        assert_eq!(keys::decode_u64(&r[9].0), 19);

        let r2: Vec<_> = t
            .scan(Bound::Excluded(&lo), Bound::Included(&hi))
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(keys::decode_u64(&r2[0].0), 11);
        assert_eq!(keys::decode_u64(&r2.last().unwrap().0), 20);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn large_values_use_overflow() {
        let path = tmpfile("overflow");
        let mut t = BTree::create(&path).unwrap();
        let big: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
        t.insert(b"frame", &big).unwrap();
        t.insert(b"tiny", b"x").unwrap();
        assert_eq!(t.get(b"frame").unwrap(), Some(big.clone()));
        // Replacing a big value frees and rewrites the chain.
        let big2: Vec<u8> = (0..30_000).map(|i| (i % 13) as u8).collect();
        t.insert(b"frame", &big2).unwrap();
        assert_eq!(t.get(b"frame").unwrap(), Some(big2));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn delete_and_reinsert() {
        let path = tmpfile("delete");
        let mut t = BTree::create(&path).unwrap();
        for i in 0..500u64 {
            t.insert(&keys::encode_u64(i), b"v").unwrap();
        }
        for i in (0..500u64).step_by(2) {
            assert!(t.delete(&keys::encode_u64(i)).unwrap());
        }
        assert!(!t.delete(&keys::encode_u64(0)).unwrap(), "double delete");
        assert_eq!(t.len(), 250);
        assert_eq!(t.get(&keys::encode_u64(2)).unwrap(), None);
        assert!(t.get(&keys::encode_u64(3)).unwrap().is_some());
        // Reinsert over the holes.
        for i in (0..500u64).step_by(2) {
            assert!(t.insert(&keys::encode_u64(i), b"w").unwrap());
        }
        assert_eq!(t.len(), 500);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn persistence_across_reopen() {
        let path = tmpfile("persist");
        {
            let mut t = BTree::create(&path).unwrap();
            for i in 0..1000u64 {
                t.insert(&keys::encode_u64(i), format!("{i}").as_bytes())
                    .unwrap();
            }
            t.flush().unwrap();
        }
        let t = BTree::open(&path).unwrap();
        assert_eq!(t.len(), 1000);
        assert_eq!(
            t.get(&keys::encode_u64(999)).unwrap(),
            Some(b"999".to_vec())
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn oversize_key_rejected() {
        let path = tmpfile("bigkey");
        let mut t = BTree::create(&path).unwrap();
        let k = vec![0u8; MAX_KEY + 1];
        assert!(matches!(
            t.insert(&k, b"v"),
            Err(StorageError::EntryTooLarge { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_scan() {
        let path = tmpfile("empty");
        let t = BTree::create(&path).unwrap();
        assert_eq!(t.scan_all().unwrap().count(), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn key_codecs_preserve_order() {
        let us = [0u64, 1, 255, 256, u32::MAX as u64, u64::MAX];
        for w in us.windows(2) {
            assert!(keys::encode_u64(w[0]) < keys::encode_u64(w[1]));
            assert_eq!(keys::decode_u64(&keys::encode_u64(w[0])), w[0]);
        }
        let is = [i64::MIN, -5, -1, 0, 1, 5, i64::MAX];
        for w in is.windows(2) {
            assert!(keys::encode_i64(w[0]) < keys::encode_i64(w[1]));
            assert_eq!(decode_i64(&keys::encode_i64(w[0])), w[0]);
        }
        let fs = [-1e30f64, -1.0, -1e-10, 0.0, 1e-10, 1.0, 1e30];
        for w in fs.windows(2) {
            assert!(keys::encode_f64(w[0]) < keys::encode_f64(w[1]));
            assert_eq!(decode_f64(&keys::encode_f64(w[0])), w[0]);
        }
    }
}
