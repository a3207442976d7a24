//! Table 3 ground truth: the 15 crash-consistency bugs the paper
//! discovered, encoded for comparison harnesses and regression tests.

/// Which layer Table 3 lists as inconsistent / root cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugLayer {
    /// Inconsistent at the PFS layer (bugs 1–8).
    Pfs,
    /// Inconsistent at the I/O-library layer, caused by the library
    /// (bugs 9, 11, 12, 14).
    IoLib,
    /// Inconsistent at the I/O-library layer, root-caused to the PFS
    /// (bugs 10, 13, 15).
    IoLibPfsRooted,
}

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct PaperBug {
    /// Row number (1–15).
    pub no: u8,
    /// Test program(s) exposing it.
    pub programs: &'static [&'static str],
    /// File systems affected (PFS rows) or underneath (I/O-library
    /// rows).
    pub file_systems: &'static [&'static str],
    /// Layer attribution.
    pub layer: BugLayer,
    /// The Details column, in the paper's notation.
    pub details: &'static str,
    /// The Consequence column.
    pub consequence: &'static str,
    /// The Sensitivity column.
    pub sensitivity: &'static str,
}

/// The 15 bugs of Table 3.
pub fn table3() -> Vec<PaperBug> {
    vec![
        PaperBug {
            no: 1,
            programs: &["ARVR"],
            file_systems: &["BeeGFS", "OrangeFS"],
            layer: BugLayer::Pfs,
            details: "append(file chunk of tmp)@storage -> rename(d_entry of tmp, d_entry of foo)@metadata",
            consequence: "Data loss",
            sensitivity: "N/A",
        },
        PaperBug {
            no: 2,
            programs: &["ARVR"],
            file_systems: &["BeeGFS"],
            layer: BugLayer::Pfs,
            details: "rename(d_entry of tmp, d_entry of foo)@metadata -> unlink(old file chunk of tmp)@storage",
            consequence: "Data loss",
            sensitivity: "N/A",
        },
        PaperBug {
            no: 3,
            programs: &["ARVR"],
            file_systems: &["GPFS"],
            layer: BugLayer::Pfs,
            details: "[write(log file)@server#2, write(parent_dir)@server#2, write(file inode)@server#1, write(parent_dir inode)@server#2]",
            consequence: "Data loss (accept all mmfsck fixes) / metadata loss (if inode entry not deleted)",
            sensitivity: "N/A",
        },
        PaperBug {
            no: 4,
            programs: &["CR"],
            file_systems: &["BeeGFS", "OrangeFS", "GPFS"],
            layer: BugLayer::Pfs,
            details: "link(idfile, d_entry of A/foo)@metadata -> unlink(d_entry of B/foo)@metadata (GPFS: write(inode of directory A/) -> write(inode of directory B/))",
            consequence: "File created in both directories",
            sensitivity: "N/A",
        },
        PaperBug {
            no: 5,
            programs: &["RC"],
            file_systems: &["BeeGFS", "GPFS"],
            layer: BugLayer::Pfs,
            details: "rename(d_entry of A, d_entry of B)@metadata#1 -> link(idfile, d_entry of B/foo)@metadata#2",
            consequence: "File created in a wrong directory",
            sensitivity: "file distrib.",
        },
        PaperBug {
            no: 6,
            programs: &["WAL"],
            file_systems: &["BeeGFS", "GlusterFS", "OrangeFS"],
            layer: BugLayer::Pfs,
            details: "append(file chunk of log)@storage#1 -> overwrite(file chunk of foo)@storage#2",
            consequence: "No logs written after file modification",
            sensitivity: "file distrib.",
        },
        PaperBug {
            no: 7,
            programs: &["WAL"],
            file_systems: &["BeeGFS"],
            layer: BugLayer::Pfs,
            details: "link(idfile, d_entry of log)@metadata -> overwrite(file chunk of foo)@storage",
            consequence: "No logs created after file modification",
            sensitivity: "N/A",
        },
        PaperBug {
            no: 8,
            programs: &["WAL"],
            file_systems: &["BeeGFS", "GlusterFS"],
            layer: BugLayer::Pfs,
            details: "overwrite(file chunk of foo)@storage -> unlink(d_entry of log)@metadata",
            consequence: "No logs created after file modification",
            sensitivity: "N/A",
        },
        PaperBug {
            no: 9,
            programs: &["H5-parallel-create"],
            file_systems: &["HDF5"],
            layer: BugLayer::IoLib,
            details: "Local heap -> B-tree nodes of the same group",
            consequence: "Cannot open an unmodified dataset",
            sensitivity: "# of clients",
        },
        PaperBug {
            no: 10,
            programs: &["H5-create"],
            file_systems: &["BeeGFS", "OrangeFS", "GlusterFS", "GPFS", "Lustre"],
            layer: BugLayer::IoLibPfsRooted,
            details: "B-tree nodes & local name heap -> symbol table node of the same group",
            consequence: "Cannot open an unmodified dataset",
            sensitivity: "N/A",
        },
        PaperBug {
            no: 11,
            programs: &["H5-delete"],
            file_systems: &["HDF5"],
            layer: BugLayer::IoLib,
            details: "Symbol table node -> B-tree nodes & local heap of the same group",
            consequence: "Cannot open an unmodified dataset",
            sensitivity: "N/A",
        },
        PaperBug {
            no: 12,
            programs: &["H5-rename"],
            file_systems: &["HDF5"],
            layer: BugLayer::IoLib,
            details: "[B-tree nodes, symbol table & local heap from both source and destination group]",
            consequence: "The renamed dataset is lost",
            sensitivity: "N/A",
        },
        PaperBug {
            no: 13,
            programs: &["H5-parallel-resize", "H5-resize"],
            file_systems: &["BeeGFS", "OrangeFS", "GlusterFS", "GPFS", "Lustre"],
            layer: BugLayer::IoLibPfsRooted,
            details: "Superblock -> B-tree node of the resized dataset",
            consequence: "Cannot read data from the resized dataset (addr overflow)",
            sensitivity: "h5clear options",
        },
        PaperBug {
            no: 14,
            programs: &["H5-resize"],
            file_systems: &["HDF5"],
            layer: BugLayer::IoLib,
            details: "Child B-tree node -> parent B-tree node",
            consequence: "Cannot read data from the resized dataset (wrong B-tree signature)",
            sensitivity: "dim. of dataset",
        },
        PaperBug {
            no: 15,
            programs: &["CDF-create"],
            file_systems: &["BeeGFS", "OrangeFS", "GlusterFS", "GPFS", "Lustre"],
            layer: BugLayer::IoLibPfsRooted,
            details: "Superblock -> object header",
            consequence: "Cannot open the file (NetCDF: HDF5 error [Errno -101])",
            sensitivity: "N/A",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_bugs_total() {
        let bugs = table3();
        assert_eq!(bugs.len(), 15);
        let nos: Vec<u8> = bugs.iter().map(|b| b.no).collect();
        assert_eq!(nos, (1..=15).collect::<Vec<u8>>());
    }

    #[test]
    fn layer_partition_matches_section_633() {
        // §6.3.3: H5-create, H5-resize, H5-parallel-resize, CDF-create
        // bugs are attributed to the PFS; other I/O-library bugs to HDF5.
        let bugs = table3();
        let pfs_rooted: Vec<u8> = bugs
            .iter()
            .filter(|b| b.layer == BugLayer::IoLibPfsRooted)
            .map(|b| b.no)
            .collect();
        assert_eq!(pfs_rooted, vec![10, 13, 15]);
        let iolib: Vec<u8> = bugs
            .iter()
            .filter(|b| b.layer == BugLayer::IoLib)
            .map(|b| b.no)
            .collect();
        assert_eq!(iolib, vec![9, 11, 12, 14]);
        assert_eq!(bugs.iter().filter(|b| b.layer == BugLayer::Pfs).count(), 8);
    }

    #[test]
    fn lustre_has_no_posix_rows() {
        for bug in table3() {
            if bug.layer == BugLayer::Pfs {
                assert!(!bug.file_systems.contains(&"Lustre"), "bug {}", bug.no);
            }
        }
    }
}
