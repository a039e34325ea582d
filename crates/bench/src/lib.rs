//! Shared infrastructure for the EncDBDB benchmark harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md §3 for the index). This library provides the
//! common pieces: dataset preparation (the C1/C2 synthetic twins), building
//! all dictionary variants, simple CLI parsing, timing helpers and table
//! formatting.

#![forbid(unsafe_code)]

use colstore::column::Column;
use colstore::stats::ColumnStats;
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::{Key128, Pae};
use encdict::build::{build_encrypted, build_plain, BuildParams};
use encdict::{Dictionary, EdKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use workload::spec::{sorted_unique_values, ColumnSpec};

/// Deterministic master key used across the harness.
pub fn master_key() -> Key128 {
    Key128::from_bytes([0x42; 16])
}

/// The column key for the harness table/column naming convention.
pub fn column_pae(column_name: &str) -> Pae {
    Pae::new(&derive_column_key(&master_key(), "bw", column_name))
}

/// Build parameters for the harness.
pub fn build_params(column_name: &str, bs_max: usize) -> BuildParams {
    BuildParams {
        table_name: "bw".to_string(),
        col_name: column_name.to_string(),
        bs_max,
    }
}

/// Simple `--key value` / `--flag` CLI parsing (no external crates).
#[derive(Debug, Clone)]
pub struct CliArgs {
    args: Vec<String>,
}

impl CliArgs {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        CliArgs {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// Creates CLI args from a vector (tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        CliArgs { args }
    }

    /// Value of `--name <value>`, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.args
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// Parses `--name <n>` as usize with a default (underscores allowed).
    pub fn usize_of(&self, name: &str, default: usize) -> usize {
        self.value_of(name)
            .map(|v| v.replace('_', "").parse().unwrap_or(default))
            .unwrap_or(default)
    }

    /// Whether `--name` is present as a bare flag.
    pub fn has_flag(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.args.iter().any(|a| a == &flag)
    }
}

/// A prepared evaluation column: population spec, materialized data and the
/// sorted unique values (for RS query generation).
pub struct PreparedColumn {
    /// The population spec this column was drawn from.
    pub spec: ColumnSpec,
    /// The materialized plaintext column.
    pub column: Column,
    /// `sorted(un(C))`.
    pub sorted_uniques: Vec<String>,
    /// Occurrence statistics.
    pub stats: ColumnStats,
}

/// Generates the C1 twin scaled to `rows`.
pub fn prepare_c1(rows: usize, seed: u64) -> PreparedColumn {
    prepare(ColumnSpec::c1_full().scaled(rows), seed)
}

/// Generates the C2 twin scaled to `rows`.
pub fn prepare_c2(rows: usize, seed: u64) -> PreparedColumn {
    prepare(ColumnSpec::c2_full().scaled(rows), seed)
}

/// Generates a column for an arbitrary spec.
pub fn prepare(spec: ColumnSpec, seed: u64) -> PreparedColumn {
    let mut rng = StdRng::seed_from_u64(seed);
    let column = workload::generate(&spec, &mut rng);
    let sorted_uniques = sorted_unique_values(&spec);
    let stats = ColumnStats::of(&column);
    PreparedColumn {
        spec,
        column,
        sorted_uniques,
        stats,
    }
}

/// Builds the encrypted dictionary + attribute vector for one kind.
pub fn build_ed(
    prepared: &PreparedColumn,
    kind: EdKind,
    bs_max: usize,
    seed: u64,
) -> (Dictionary, colstore::dictionary::AttributeVector) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sk_d = derive_column_key(&master_key(), "bw", &prepared.spec.name);
    build_encrypted(
        &prepared.column,
        kind,
        &build_params(&prepared.spec.name, bs_max),
        &sk_d,
        &mut rng,
    )
    .expect("harness columns build cleanly")
}

/// Builds the PlainDBDB twin for one kind.
pub fn build_plain_ed(
    prepared: &PreparedColumn,
    kind: EdKind,
    bs_max: usize,
    seed: u64,
) -> (Dictionary, colstore::dictionary::AttributeVector) {
    let mut rng = StdRng::seed_from_u64(seed);
    build_plain(
        &prepared.column,
        kind,
        &build_params(&prepared.spec.name, bs_max),
        &mut rng,
    )
    .expect("harness columns build cleanly")
}

/// Latency summary over a batch of query runs.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean: Duration,
    /// Minimum latency.
    pub min: Duration,
    /// Maximum latency.
    pub max: Duration,
    /// Number of runs.
    pub runs: usize,
}

impl LatencySummary {
    /// Summarizes a batch of measured durations.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch.
    pub fn of(durations: &[Duration]) -> Self {
        assert!(!durations.is_empty(), "summary needs at least one run");
        let total: Duration = durations.iter().sum();
        LatencySummary {
            mean: total / durations.len() as u32,
            min: *durations.iter().min().expect("non-empty"),
            max: *durations.iter().max().expect("non-empty"),
            runs: durations.len(),
        }
    }
}

/// Times one closure invocation.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a byte count like the paper's tables (MB with one decimal).
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1_000_000 {
        format!("{:.1} MB", bytes as f64 / 1e6)
    } else if bytes >= 1_000 {
        format!("{:.1} kB", bytes as f64 / 1e3)
    } else {
        format!("{bytes} B")
    }
}

/// Formats a duration adaptively (ms below a second, s above).
pub fn fmt_duration(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1e3)
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.1} µs", ms * 1e3)
    }
}

/// Prints a markdown-style table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let row: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("| {} |", row.join(" | "));
}

/// Prints a table header with separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_column_is_consistent() {
        let p = prepare_c2(10_000, 1);
        assert_eq!(p.column.len(), 10_000);
        assert_eq!(p.stats.unique_count(), p.spec.unique_values);
        assert_eq!(p.sorted_uniques.len(), p.spec.unique_values);
    }

    #[test]
    fn build_ed_roundtrips() {
        let p = prepare_c2(2_000, 2);
        let (dict, av) = build_ed(&p, EdKind::Ed1, 10, 3);
        assert_eq!(av.len(), 2_000);
        assert_eq!(dict.len(), p.spec.unique_values);
    }

    #[test]
    fn latency_summary_math() {
        let s = LatencySummary::of(&[Duration::from_millis(1), Duration::from_millis(3)]);
        assert_eq!(s.mean, Duration::from_millis(2));
        assert_eq!(s.min, Duration::from_millis(1));
        assert_eq!(s.max, Duration::from_millis(3));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(22_000_000), "22.0 MB");
        assert_eq!(fmt_bytes(512), "512 B");
        assert!(fmt_duration(Duration::from_micros(500)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(12)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).contains("s"));
    }

    #[test]
    fn cli_parsing() {
        let cli = CliArgs::from_vec(vec!["--rows".into(), "1_000".into(), "--full".into()]);
        assert_eq!(cli.usize_of("rows", 5), 1000);
        assert_eq!(cli.usize_of("queries", 7), 7);
        assert!(cli.has_flag("full"));
        assert!(!cli.has_flag("quick"));
    }
}
