//! Bytes that carry their own digest.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The SipHash of one file's or one block's bytes: the word an
/// [`FsState`](crate::FsState) or [`BlockDev`](crate::BlockDev) digest
/// hashes in place of the bytes themselves.
pub fn payload_digest(bytes: &[u8]) -> u64 {
    pc_rt::obs::count("digest.bytes", bytes.len() as u64);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
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

#[cfg(test)]
mod tests {
    use super::*;

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
