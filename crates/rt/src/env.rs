//! `env` — every `PC_*` environment variable, named and read in one place.
//!
//! [`VARS`] is the table `paracrash --help` prints and verify gate 10
//! holds README.md to; [`get`] is the only `std::env::var` call in the
//! workspace. Reads stay lazy — each caller asks when it needs the
//! value. Every variable is a setting of a run: a test hook is a
//! [`crate::inject`] point a test arms in-process, never a variable,
//! and verify gate 3 fails on a `set_var` under `crates/` (a `setenv`
//! racing another test thread's `getenv`).

/// A width the wall-clock ledger (`benchmark/`) records; no check or
/// sweep reads it.
pub const THREADS: &str = "PC_THREADS";
/// Telemetry collection, and the run's one table at exit.
pub const TRACE: &str = "PC_TRACE";
/// Log threshold.
pub const LOG: &str = "PC_LOG";
/// Property-test run seed.
pub const PROPTEST_SEED: &str = "PC_PROPTEST_SEED";
/// Property-test case count.
pub const PROPTEST_CASES: &str = "PC_PROPTEST_CASES";

/// Every variable the workspace reads, with its one-line meaning.
pub const VARS: [(&str, &str); 5] = [
    (
        THREADS,
        "width the wall-clock ledger records; no check or sweep reads it (default: available parallelism)",
    ),
    (
        TRACE,
        "1 or summary: collect telemetry and print the run's table to stderr at exit",
    ),
    (
        LOG,
        "log threshold: off|error|warn|info|debug (default error; info adds sweep progress)",
    ),
    (
        PROPTEST_SEED,
        "replay a property-test run from its printed seed",
    ),
    (PROPTEST_CASES, "cases per property (default per test)"),
];

/// The value of `name` (one of [`VARS`]), if set to valid Unicode.
pub fn get(name: &str) -> Option<String> {
    debug_assert!(
        VARS.iter().any(|(n, _)| *n == name),
        "{name} is not in env::VARS"
    );
    std::env::var(name).ok()
}

/// `true` when `value` switches something on: anything but empty, `0`,
/// `off` and `false` (case-insensitive).
pub fn is_truthy(value: &str) -> bool {
    !matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "" | "0" | "off" | "false"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthy_spellings() {
        for off in ["", "0", "off", "OFF", " false "] {
            assert!(!is_truthy(off), "{off:?}");
        }
        for on in ["1", "on", "true", "summary", "yes"] {
            assert!(is_truthy(on), "{on:?}");
        }
    }

    #[test]
    fn table_names_are_unique_pc_names() {
        for (i, (name, meaning)) in VARS.iter().enumerate() {
            assert!(name.starts_with("PC_") && !meaning.is_empty());
            assert!(VARS[..i].iter().all(|(n, _)| n != name), "{name} twice");
        }
    }
}
