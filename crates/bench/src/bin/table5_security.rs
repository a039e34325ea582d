//! Regenerates **Table 5 / Figure 6** of the paper empirically: the
//! security classification of ED1–ED9 from the attacker's view.
//!
//! For each encrypted dictionary built over a skewed column, the binary
//! reports what an honest-but-curious server can measure:
//!
//! * the maximum ValueID frequency in the attribute vector (frequency
//!   leakage: exact histogram / bounded by bs_max / flat),
//! * the positional and modular order correlation of the dictionary
//!   plaintexts (order leakage: full / modular-only / none),
//!
//! and then checks the Figure 6 dominance relations on those measurements.
//!
//! Usage:
//! ```text
//! cargo run -p encdbdb-bench --release --bin table5_security -- [--rows N]
//! ```

use encdbdb_bench::*;
use encdict::leakage::{analyze, LeakageReport};
use encdict::EdKind;

fn dict_plaintexts(dict: &encdict::Dictionary) -> Vec<Vec<u8>> {
    (0..dict.len()).map(|i| dict.value(i).to_vec()).collect()
}

fn main() {
    let cli = CliArgs::from_env();
    let rows = cli.usize_of("rows", 20_000);
    let bs_max = 10usize;
    let prepared = prepare_c2(rows, 800);

    println!("# Table 5 / Figure 6: attacker-view measurements ({rows} rows, bs_max = {bs_max})\n");
    let widths = [6usize, 12, 12, 14, 12, 14];
    print_header(
        &[
            "ED",
            "freq class",
            "max AV freq",
            "order class",
            "order corr",
            "modular corr",
        ],
        &widths,
    );

    let mut reports: Vec<(EdKind, LeakageReport)> = Vec::new();
    for kind in EdKind::ALL {
        let (dict, av) = build_plain_ed(&prepared, kind, bs_max, 801 + kind.number() as u64);
        let report = analyze(&av, &dict_plaintexts(&dict));
        print_row(
            &[
                kind.to_string(),
                format!("{:?}", kind.frequency_leakage()),
                report.max_frequency.to_string(),
                format!("{:?}", kind.order_leakage()),
                format!("{:.3}", report.order_corr),
                format!("{:.3}", report.modular_order_corr),
            ],
            &widths,
        );
        reports.push((kind, report));
    }

    println!("\n## Figure 6 dominance checks (empirical)\n");
    let get = |k: EdKind| &reports.iter().find(|(kk, _)| *kk == k).unwrap().1;
    let mut ok = true;
    // Columns: frequency leakage weakly decreases down each column.
    for (a, b, c) in [
        (EdKind::Ed1, EdKind::Ed4, EdKind::Ed7),
        (EdKind::Ed2, EdKind::Ed5, EdKind::Ed8),
        (EdKind::Ed3, EdKind::Ed6, EdKind::Ed9),
    ] {
        let (ra, rb, rc) = (get(a), get(b), get(c));
        let holds = rb.max_frequency <= ra.max_frequency && rc.max_frequency <= rb.max_frequency;
        println!(
            "  freq({a}) >= freq({b}) >= freq({c}): {} ({} >= {} >= {})",
            if holds { "ok" } else { "VIOLATED" },
            ra.max_frequency,
            rb.max_frequency,
            rc.max_frequency
        );
        ok &= holds;
    }
    // Rows: order correlation weakly decreases left to right.
    for (a, b, c) in [
        (EdKind::Ed1, EdKind::Ed2, EdKind::Ed3),
        (EdKind::Ed4, EdKind::Ed5, EdKind::Ed6),
        (EdKind::Ed7, EdKind::Ed8, EdKind::Ed9),
    ] {
        let (ra, rb, rc) = (get(a), get(b), get(c));
        // Sorted: full order; rotated: only modular order (plain order may
        // drop); unsorted: neither.
        let holds = ra.order_corr >= 0.999
            && rb.modular_order_corr >= 0.999
            && rc.modular_order_corr < 0.95;
        println!(
            "  order({a}) full, order({b}) modular, order({c}) none: {}",
            if holds { "ok" } else { "VIOLATED" },
        );
        ok &= holds;
    }
    println!(
        "\nResult: {}",
        if ok {
            "all Figure 6 relations hold empirically"
        } else {
            "VIOLATIONS found (see above)"
        }
    );
    println!("\nClassification reference (Table 5): ED1 ≙ ideal determ. ORE,");
    println!("ED2 ≙ MOPE, ED3 ≙ DET, ED7 ≙ IND-FAOCPA, ED8 ≙ IND-CPA-DS, ED9 ≙ RPE.");
    std::process::exit(if ok { 0 } else { 1 });
}
