//! Bytes that carry their own digest, and files made of such pages.

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// The SipHash of one file's or one block's bytes: the word an
/// [`FsState`](crate::FsState) or [`BlockDev`](crate::BlockDev) digest
/// hashes in place of the bytes themselves.
pub fn payload_digest(bytes: &[u8]) -> u64 {
    stream_digest(bytes.len(), [bytes])
}

/// [`payload_digest`] of the bytes `parts` joined, `len` long, hashed
/// part by part: the hash is `<[u8] as Hash>`'s length prefix and then
/// the bytes, and SipHash's state does not depend on where its input is
/// split.
fn stream_digest<'a>(len: usize, parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    pc_rt::obs::count("digest.bytes", len as u64);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write_usize(len);
    for part in parts {
        h.write(part);
    }
    h.finish()
}

/// A file's content or a block's payload, with its [`payload_digest`]
/// worked out on first use and kept until the bytes change: every
/// mutable borrow ([`Data::bytes_mut`]) drops it. A copy-on-write fork
/// shares the node, and with it the digest, so a store digest re-hashes
/// only the files and blocks written since it was last taken.
#[derive(Default)]
pub struct Data {
    bytes: Vec<u8>,
    /// The digest, 0 until worked out: one word per node, and a payload
    /// whose digest is 0 is merely hashed on every ask. `Relaxed`
    /// suffices: the word publishes nothing else, and every thread that
    /// can see the bytes works out the same value from them.
    digest: AtomicU64,
}

impl Data {
    /// [`payload_digest`] of the bytes, cached.
    pub fn digest(&self) -> u64 {
        match self.digest.load(Relaxed) {
            0 => {
                let digest = payload_digest(&self.bytes);
                self.digest.store(digest, Relaxed);
                digest
            }
            digest => digest,
        }
    }

    /// The bytes, to change: the cached digest is dropped.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        *self.digest.get_mut() = 0;
        &mut self.bytes
    }
}

impl Clone for Data {
    fn clone(&self) -> Data {
        Data {
            bytes: self.bytes.clone(),
            digest: AtomicU64::new(self.digest.load(Relaxed)),
        }
    }
}

impl From<Vec<u8>> for Data {
    fn from(bytes: Vec<u8>) -> Data {
        Data {
            bytes,
            digest: AtomicU64::new(0),
        }
    }
}

impl Deref for Data {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// Equal bytes are equal data, whether or not either digest is cached.
impl PartialEq for Data {
    fn eq(&self, other: &Data) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Data {}

/// Hashes as the bytes' `Vec<u8>` does.
impl Hash for Data {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.bytes.hash(h);
    }
}

impl fmt::Debug for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.bytes, f)
    }
}

/// Bytes in one page of a [`Pages`] file: every page but the last holds
/// exactly this many.
pub const PAGE: usize = 16 * 1024;

/// A regular file's bytes, as pages of [`PAGE`] bytes each behind its
/// own `Arc`: the copy-on-write rule [`FsState`](crate::FsState) keeps
/// for inodes, one level down. Cloning shares every page, and a write
/// unshares only the pages it touches, so a fork that wrote one byte of
/// a large file holds one page of its own. A page's [`Data`] caches its
/// digest, which a mounted view folds; the file's own digest, the
/// [`payload_digest`] of all its bytes, is cached here until the next
/// write. Each page holds exactly its length, no spare capacity: a view
/// that shares a page keeps its whole allocation alive.
#[derive(Default)]
pub struct Pages {
    pages: Vec<Arc<Data>>,
    len: usize,
    /// The file's digest, 0 until worked out (as [`Data`]'s).
    digest: AtomicU64,
}

impl Pages {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for an empty file.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pages, in file order.
    pub fn pages(&self) -> &[Arc<Data>] {
        &self.pages
    }

    /// The bytes: the page itself when there is at most one, else a
    /// joined copy.
    pub fn read(&self) -> Cow<'_, [u8]> {
        match self.pages.as_slice() {
            [] => Cow::Borrowed(&[]),
            [page] => Cow::Borrowed(page),
            pages => Cow::Owned(pages.iter().flat_map(|p| p.iter().copied()).collect()),
        }
    }

    /// [`payload_digest`] of the bytes, streamed page by page, cached: a
    /// one-page file's is its page's, which a view's digest folds too.
    pub fn digest(&self) -> u64 {
        if let [page] = self.pages.as_slice() {
            return page.digest();
        }
        match self.digest.load(Relaxed) {
            0 => {
                let digest = stream_digest(self.len, self.pages.iter().map(|p| &p[..]));
                self.digest.store(digest, Relaxed);
                digest
            }
            digest => digest,
        }
    }

    /// Write `buf` at `offset`, zero-filling any hole before it.
    pub fn write(&mut self, offset: usize, buf: &[u8]) {
        let end = offset + buf.len();
        self.set_len(self.len.max(end));
        *self.digest.get_mut() = 0;
        let mut at = offset;
        while at < end {
            let (page, from) = (at / PAGE, at % PAGE);
            let n = (PAGE - from).min(end - at);
            let bytes = Arc::make_mut(&mut self.pages[page]).bytes_mut();
            bytes[from..from + n].copy_from_slice(&buf[at - offset..at - offset + n]);
            at += n;
        }
    }

    /// Cut the file to `len` bytes, or zero-extend it to them.
    pub fn set_len(&mut self, len: usize) {
        if len == self.len {
            return;
        }
        *self.digest.get_mut() = 0;
        let last = len.div_ceil(PAGE);
        if len < self.len {
            self.pages.truncate(last);
            if let Some(page) = self.pages.last_mut() {
                let keep = len - (last - 1) * PAGE;
                if page.len() > keep {
                    *page = Arc::new(Data::from(page[..keep].to_vec()));
                }
            }
        }
        while self.pages.len() < last {
            self.pages.push(Arc::default());
        }
        // Grow each page short of its share of `len`, reserving exactly.
        for (i, page) in self.pages.iter_mut().enumerate().skip(self.len / PAGE) {
            let want = (len - i * PAGE).min(PAGE);
            if page.len() < want {
                let bytes = Arc::make_mut(page).bytes_mut();
                bytes.reserve_exact(want - bytes.len());
                bytes.resize(want, 0);
            }
        }
        self.len = len;
    }
}

impl Clone for Pages {
    fn clone(&self) -> Pages {
        Pages {
            pages: self.pages.clone(),
            len: self.len,
            digest: AtomicU64::new(self.digest.load(Relaxed)),
        }
    }
}

/// Equal bytes are equal files: pages split them alike, and a page both
/// share is not read.
impl PartialEq for Pages {
    fn eq(&self, other: &Pages) -> bool {
        self.len == other.len
            && (self.pages.iter().zip(&other.pages)).all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for Pages {}

impl fmt::Debug for Pages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.read(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bytes` as a file, written in one call.
    fn file(bytes: &[u8]) -> Pages {
        let mut file = Pages::default();
        file.write(0, bytes);
        file
    }

    #[test]
    fn a_streamed_digest_is_the_payload_digest() {
        let bytes: Vec<u8> = (0..=255).cycle().take(3 * PAGE + 5).collect();
        for len in [0, 1, 7, PAGE - 1, PAGE, PAGE + 1, 2 * PAGE, bytes.len()] {
            let file = file(&bytes[..len]);
            assert_eq!(file.len(), len);
            assert_eq!(file.pages().len(), len.div_ceil(PAGE));
            assert_eq!(file.digest(), payload_digest(&bytes[..len]));
            assert_eq!(&file.read()[..], &bytes[..len]);
            let mut h = std::collections::hash_map::DefaultHasher::new();
            bytes[..len].hash(&mut h);
            assert_eq!(file.digest(), h.finish());
        }
    }

    #[test]
    fn a_write_to_a_copy_unshares_only_its_pages() {
        let n = 5;
        let base = file(&vec![7; n * PAGE - 3]);
        let mut copy = base.clone();
        copy.write(2 * PAGE + 1, b"x");
        let shared = (base.pages().iter().zip(copy.pages()))
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert_eq!(shared, n - 1);
        assert_ne!(base, copy);
        // Writing the old byte back makes the files equal, not shared.
        copy.write(2 * PAGE + 1, &[7]);
        assert_eq!(base, copy);
        assert_eq!(base.digest(), copy.digest());
        // A write that straddles a boundary touches both pages.
        let mut straddle = base.clone();
        straddle.write(PAGE - 1, b"ab");
        let unshared: Vec<usize> = (0..n)
            .filter(|&i| !Arc::ptr_eq(&base.pages()[i], &straddle.pages()[i]))
            .collect();
        assert_eq!(unshared, [0, 1]);
    }

    #[test]
    fn pages_hold_no_spare_capacity() {
        let mut file = file(b"ab");
        file.write(PAGE + 3, b"cd");
        file.set_len(PAGE + 4);
        file.write(file.len(), b"ef");
        file.set_len(3);
        let mut model = b"ab".to_vec();
        model.resize(PAGE + 3, 0);
        model.extend_from_slice(b"cd");
        model.truncate(PAGE + 4);
        model.extend_from_slice(b"ef");
        model.truncate(3);
        assert_eq!(&file.read()[..], &model[..]);
        for page in file.pages() {
            assert_eq!(page.len(), page.bytes.capacity());
        }
        file.set_len(2 * PAGE + 1);
        for page in file.pages() {
            assert_eq!(page.len(), page.bytes.capacity());
        }
        assert_eq!(file.digest(), payload_digest(&file.read()));
    }

    #[test]
    fn a_mutable_borrow_drops_the_cached_digest() {
        let mut data = Data::from(vec![1, 2, 3]);
        let d0 = data.digest();
        assert_eq!(d0, payload_digest(&[1, 2, 3]));
        let copy = data.clone();
        data.bytes_mut().push(4);
        assert_eq!(data.digest(), payload_digest(&[1, 2, 3, 4]));
        assert_eq!(copy.digest(), d0);
        data.bytes_mut().pop();
        assert_eq!(data, copy);
        assert_eq!(data.digest(), d0);
    }
}
