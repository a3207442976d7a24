//! Stable human-readable labels for the on-disk structures of all five
//! PFS models — the vocabulary of Table 3's "Details" column and of the
//! explain bundles (`paracrash --explain-out`).
//!
//! Each model stores its state under a fixed server-local namespace, so
//! the path prefix identifies the structure kind:
//!
//! | model     | namespace                         | label         |
//! |-----------|-----------------------------------|---------------|
//! | BeeGFS    | `/chunks/<id>.<stripe>`           | `file chunk`  |
//! | BeeGFS    | `/idfiles/<id>`                   | `idfile`      |
//! | BeeGFS    | `/dentries/<dirkey>/<name>`       | `d_entry`     |
//! | BeeGFS    | `/inodes/<dirkey>`                | `dir_inode`   |
//! | OrangeFS  | `/db/keyval.db`                   | `keyval.db`   |
//! | OrangeFS  | `/db/attrs.db`                    | `attrs.db`    |
//! | OrangeFS  | `/bstreams/<handle>.<stripe>`     | `bstream`     |
//! | Lustre    | `/objects/<id>.<stripe>`          | `object`      |
//! | Lustre    | `/mdt/<path>`                     | `mdt entry`   |
//! | GlusterFS | `/data/<path>`                    | `brick entry` |
//! | GlusterFS | `/chunks/<gfid>.<stripe>`         | `file chunk`  |
//! | GPFS      | block-device writes (see below)   | per-tag       |
//!
//! GPFS is block-based, so its structures are identified by the
//! [`StructTag`] each block write carries rather than by a path;
//! [`block_structure`] maps those. Anything outside the known
//! namespaces (ext4 baseline runs, scratch files) is a plain `file`.
//!
//! These labels are **stable**: bug signatures, `canonical_report()`
//! witnesses and explain bundles all render through them, and golden
//! tests pin the exact strings — change them only with the goldens.

use simfs::StructTag;

/// Map a server-local path to the PFS structure kind it implements.
pub fn structure_kind(path: &str) -> &'static str {
    if path.starts_with("/chunks/") {
        "file chunk"
    } else if path.starts_with("/idfiles/") {
        "idfile"
    } else if path.starts_with("/dentries/") {
        "d_entry"
    } else if path.starts_with("/inodes/") {
        "dir_inode"
    } else if path.ends_with("keyval.db") {
        "keyval.db"
    } else if path.ends_with("attrs.db") {
        "attrs.db"
    } else if path.starts_with("/bstreams/") {
        "bstream"
    } else if path.starts_with("/objects/") {
        "object"
    } else if path.starts_with("/mdt") {
        "mdt entry"
    } else if path.starts_with("/data") {
        "brick entry"
    } else {
        "file"
    }
}

/// Map a block-store structure tag (GPFS) to its label.
pub fn block_structure(tag: &StructTag) -> String {
    match tag {
        StructTag::LogFile => "log file".to_string(),
        StructTag::Inode(_) => "inode".to_string(),
        StructTag::DirEntry(_) => "d_entry".to_string(),
        StructTag::AllocMap => "alloc map".to_string(),
        StructTag::FileContent(_) => "file content".to_string(),
        StructTag::Superblock => "superblock".to_string(),
        StructTag::Other(s) => s.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beegfs_namespaces() {
        assert_eq!(structure_kind("/chunks/f0.0"), "file chunk");
        assert_eq!(structure_kind("/idfiles/f0"), "idfile");
        assert_eq!(structure_kind("/dentries/root/foo"), "d_entry");
        assert_eq!(structure_kind("/inodes/root"), "dir_inode");
    }

    #[test]
    fn orangefs_namespaces() {
        assert_eq!(structure_kind("/db/keyval.db"), "keyval.db");
        assert_eq!(structure_kind("/db/attrs.db"), "attrs.db");
        assert_eq!(structure_kind("/bstreams/h0.0"), "bstream");
    }

    #[test]
    fn lustre_and_glusterfs_namespaces() {
        assert_eq!(structure_kind("/objects/o0.0"), "object");
        assert_eq!(structure_kind("/mdt/foo"), "mdt entry");
        assert_eq!(structure_kind("/data/foo"), "brick entry");
    }

    #[test]
    fn fallback_is_plain_file() {
        assert_eq!(structure_kind("/whatever"), "file");
        assert_eq!(structure_kind("/scratch/tmp"), "file");
    }

    #[test]
    fn gpfs_block_tags() {
        assert_eq!(block_structure(&StructTag::LogFile), "log file");
        assert_eq!(block_structure(&StructTag::AllocMap), "alloc map");
        assert_eq!(block_structure(&StructTag::Inode("f".into())), "inode");
        assert_eq!(block_structure(&StructTag::DirEntry("d".into())), "d_entry");
        assert_eq!(
            block_structure(&StructTag::FileContent("f".into())),
            "file content"
        );
        assert_eq!(block_structure(&StructTag::Superblock), "superblock");
        assert_eq!(
            block_structure(&StructTag::Other("recovery log".into())),
            "recovery log"
        );
    }
}
