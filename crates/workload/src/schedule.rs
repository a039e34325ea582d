//! Interleaved read/write schedule generation for the dynamic-data
//! extension (paper §4.3) and its concurrency tests.
//!
//! The paper's evaluation is read-only; growing the reproduction into a
//! served system needs workloads that *interleave* inserts, deletes, range
//! reads, aggregates and compactions the way live traffic does. This
//! module draws such schedules from a weighted mix over a closed value
//! domain of fixed-width numeric strings (lexicographic order equals
//! numeric order, so range semantics match both the encrypted dictionaries
//! and a plaintext model).
//!
//! The same schedule drives the differential harness (each operation, in
//! every execution mode, checked against a plaintext MonetDB-style
//! baseline), the concurrency stress harness (operations split across
//! reader and writer threads) and `loadgen`'s batching gates.

use rand::Rng;

/// Every column protection a table can declare — the nine encrypted
/// dictionaries (paper Table 3) plus PLAIN — in the order the tests sweep
/// them.
pub const KINDS: [&str; 10] = [
    "ED1", "ED2", "ED3", "ED4", "ED5", "ED6", "ED7", "ED8", "ED9", "PLAIN",
];

/// One operation of an interleaved schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert one value.
    Insert {
        /// The inserted value (fixed-width numeric string).
        value: String,
    },
    /// Delete all rows in `[lo, hi]`.
    Delete {
        /// Inclusive lower bound.
        lo: String,
        /// Inclusive upper bound.
        hi: String,
    },
    /// Range select of all rows in `[lo, hi]`.
    RangeRead {
        /// Inclusive lower bound.
        lo: String,
        /// Inclusive upper bound.
        hi: String,
    },
    /// `COUNT(*)` + `SUM` aggregate over `[lo, hi]`.
    AggRead {
        /// Inclusive lower bound.
        lo: String,
        /// Inclusive upper bound.
        hi: String,
    },
    /// Merge the delta store into the main store.
    Compact,
}

impl Op {
    /// Renders the operation as SQL against `table`.`column`.
    pub fn render_sql(&self, table: &str, column: &str) -> Option<String> {
        match self {
            Op::Insert { value } => Some(format!("INSERT INTO {table} VALUES ('{value}')")),
            Op::Delete { lo, hi } => Some(format!(
                "DELETE FROM {table} WHERE {column} BETWEEN '{lo}' AND '{hi}'"
            )),
            Op::RangeRead { lo, hi } => Some(format!(
                "SELECT {column} FROM {table} WHERE {column} BETWEEN '{lo}' AND '{hi}'"
            )),
            Op::AggRead { lo, hi } => Some(format!(
                "SELECT COUNT(*), SUM({column}) FROM {table} \
                 WHERE {column} BETWEEN '{lo}' AND '{hi}'"
            )),
            // Compaction is an API call (`merge_table`), not SQL.
            Op::Compact => None,
        }
    }

    /// Whether the operation only reads.
    pub fn is_read(&self) -> bool {
        matches!(self, Op::RangeRead { .. } | Op::AggRead { .. })
    }
}

/// The operation mix of a schedule: relative weights plus the value
/// domain.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleSpec {
    /// Number of operations to draw.
    pub ops: usize,
    /// Relative weight of inserts.
    pub insert_weight: u32,
    /// Relative weight of range deletes.
    pub delete_weight: u32,
    /// Relative weight of range reads.
    pub read_weight: u32,
    /// Relative weight of aggregate reads.
    pub agg_weight: u32,
    /// Relative weight of compactions.
    pub compact_weight: u32,
    /// Values are drawn from `0..domain`, rendered as 4-digit strings.
    pub domain: u32,
}

impl Default for ScheduleSpec {
    fn default() -> Self {
        ScheduleSpec {
            ops: 64,
            insert_weight: 6,
            delete_weight: 1,
            read_weight: 4,
            agg_weight: 2,
            compact_weight: 1,
            domain: 100,
        }
    }
}

/// Write skew for range-partitioned stress runs: a *hot shard* — a value
/// sub-range that attracts a disproportionate share of inserts — while
/// reads stay uniform over the whole domain.
///
/// This is the workload shape that makes per-partition compaction earn
/// its keep: the hot shard's delta crosses the merge threshold over and
/// over while the cold shards' deltas barely grow, so a table-wide
/// compaction would constantly punish readers of cold data for the hot
/// shard's churn.
#[derive(Debug, Clone, Copy)]
pub struct HotShardSpec {
    /// Inclusive lower bound of the hot value range (within the domain).
    pub hot_lo: u32,
    /// Inclusive upper bound of the hot value range.
    pub hot_hi: u32,
    /// Percentage (0..=100) of inserts drawn from the hot range; the rest
    /// stay uniform over the full domain.
    pub hot_insert_pct: u32,
}

/// Draws interleaved schedules from a [`ScheduleSpec`], optionally with a
/// [`HotShardSpec`] insert skew.
#[derive(Debug, Clone)]
pub struct ScheduleGen {
    spec: ScheduleSpec,
    skew: Option<HotShardSpec>,
}

impl ScheduleGen {
    /// Creates a generator for the given mix.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero, or if the domain is empty or
    /// exceeds the 4-digit value width (which would break the
    /// lexicographic-equals-numeric-order invariant).
    pub fn new(spec: ScheduleSpec) -> Self {
        let total = spec.insert_weight
            + spec.delete_weight
            + spec.read_weight
            + spec.agg_weight
            + spec.compact_weight;
        assert!(total > 0, "at least one weight must be positive");
        assert!(spec.domain > 0, "value domain must be non-empty");
        assert!(
            spec.domain <= 10_000,
            "domain {} overflows the 4-digit value width",
            spec.domain
        );
        ScheduleGen { spec, skew: None }
    }

    /// Adds a hot-shard insert skew: `skew.hot_insert_pct` percent of
    /// inserts land in `[hot_lo, hot_hi]`; reads, deletes and aggregates
    /// keep drawing uniform bounds over the full domain.
    ///
    /// # Panics
    ///
    /// Panics if the hot range is empty, leaves the domain, or the
    /// percentage exceeds 100.
    pub fn with_hot_shard(mut self, skew: HotShardSpec) -> Self {
        assert!(skew.hot_lo <= skew.hot_hi, "hot range must be non-empty");
        assert!(
            skew.hot_hi < self.spec.domain,
            "hot range {}..={} leaves the domain {}",
            skew.hot_lo,
            skew.hot_hi,
            self.spec.domain
        );
        assert!(skew.hot_insert_pct <= 100, "percentage over 100");
        self.skew = Some(skew);
        self
    }

    /// The configured mix.
    pub fn spec(&self) -> &ScheduleSpec {
        &self.spec
    }

    fn value<R: Rng + ?Sized>(&self, rng: &mut R) -> String {
        if let Some(skew) = &self.skew {
            if rng.gen_range(0u32..100) < skew.hot_insert_pct {
                return format!("{:04}", rng.gen_range(skew.hot_lo..=skew.hot_hi));
            }
        }
        format!("{:04}", rng.gen_range(0..self.spec.domain))
    }

    fn bounds<R: Rng + ?Sized>(&self, rng: &mut R) -> (String, String) {
        let a = rng.gen_range(0..self.spec.domain);
        let b = rng.gen_range(0..self.spec.domain);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        (format!("{lo:04}"), format!("{hi:04}"))
    }

    /// Draws one operation.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Op {
        let s = &self.spec;
        let total =
            s.insert_weight + s.delete_weight + s.read_weight + s.agg_weight + s.compact_weight;
        let mut pick = rng.gen_range(0..total);
        if pick < s.insert_weight {
            return Op::Insert {
                value: self.value(rng),
            };
        }
        pick -= s.insert_weight;
        if pick < s.delete_weight {
            let (lo, hi) = self.bounds(rng);
            return Op::Delete { lo, hi };
        }
        pick -= s.delete_weight;
        if pick < s.read_weight {
            let (lo, hi) = self.bounds(rng);
            return Op::RangeRead { lo, hi };
        }
        pick -= s.read_weight;
        if pick < s.agg_weight {
            let (lo, hi) = self.bounds(rng);
            return Op::AggRead { lo, hi };
        }
        Op::Compact
    }

    /// Draws a full interleaved schedule of `spec.ops` operations.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Op> {
        (0..self.spec.ops).map(|_| self.draw(rng)).collect()
    }

    /// Draws a read-only schedule of `n` operations (the reader-thread
    /// slice of a concurrent workload).
    ///
    /// # Panics
    ///
    /// Panics if the spec draws no read operations at all (the rejection
    /// loop could never terminate).
    pub fn generate_reads<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Op> {
        assert!(
            self.spec.read_weight + self.spec.agg_weight > 0,
            "read-only schedule from a write-only mix"
        );
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let op = self.draw(rng);
            if op.is_read() {
                out.push(op);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schedules_honor_the_mix() {
        let gen = ScheduleGen::new(ScheduleSpec {
            ops: 500,
            ..ScheduleSpec::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let ops = gen.generate(&mut rng);
        assert_eq!(ops.len(), 500);
        let inserts = ops
            .iter()
            .filter(|o| matches!(o, Op::Insert { .. }))
            .count();
        let reads = ops.iter().filter(|o| o.is_read()).count();
        let compacts = ops.iter().filter(|o| matches!(o, Op::Compact)).count();
        // 6/14 inserts, 6/14 reads (range + agg), 1/14 compactions.
        assert!(inserts > 150, "{inserts} inserts");
        assert!(reads > 150, "{reads} reads");
        assert!(compacts > 5 && compacts < 100, "{compacts} compactions");
    }

    /// The default stream — the one `loadgen`'s batching gates,
    /// `concurrent_stress` and the differential harness's generator draw
    /// from — pinned by an FNV-1a digest of its ops for three seeds. A
    /// moved digest means every consumer's workload moved.
    #[test]
    fn default_stream_is_pinned() {
        let gen = ScheduleGen::new(ScheduleSpec::default());
        for (seed, want) in [
            (1, 0xb77d_8977_a425_5746),
            (7, 0x5422_39b3_9edb_1ae7),
            (42, 0xda9d_1aac_527d_03e3),
        ] {
            let ops = gen.generate(&mut StdRng::seed_from_u64(seed));
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in format!("{ops:?}").bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            assert_eq!(h, want, "seed {seed}: the default stream moved");
        }
    }

    #[test]
    fn bounds_are_ordered_and_fixed_width() {
        let gen = ScheduleGen::new(ScheduleSpec::default());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            if let Op::RangeRead { lo, hi } = gen.draw(&mut rng) {
                assert!(lo <= hi);
                assert_eq!(lo.len(), 4);
                assert_eq!(hi.len(), 4);
            }
        }
    }

    #[test]
    fn sql_rendering() {
        let op = Op::Insert {
            value: "0042".into(),
        };
        assert_eq!(
            op.render_sql("t", "v").unwrap(),
            "INSERT INTO t VALUES ('0042')"
        );
        let op = Op::AggRead {
            lo: "0001".into(),
            hi: "0099".into(),
        };
        assert!(op
            .render_sql("t", "v")
            .unwrap()
            .contains("COUNT(*), SUM(v)"));
        assert!(Op::Compact.render_sql("t", "v").is_none());
        assert!(!Op::Compact.is_read());
    }

    #[test]
    fn hot_shard_skews_inserts_but_not_reads() {
        let gen = ScheduleGen::new(ScheduleSpec {
            ops: 2000,
            ..ScheduleSpec::default()
        })
        .with_hot_shard(HotShardSpec {
            hot_lo: 80,
            hot_hi: 99,
            hot_insert_pct: 90,
        });
        let mut rng = StdRng::seed_from_u64(4);
        let ops = gen.generate(&mut rng);
        let inserts: Vec<u32> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Insert { value } => Some(value.parse().unwrap()),
                _ => None,
            })
            .collect();
        let hot = inserts.iter().filter(|&&v| (80..=99).contains(&v)).count();
        // ~90% of inserts in a 20% slice of the domain (uniform would put
        // ~20% there).
        assert!(
            hot * 100 >= inserts.len() * 80,
            "{hot}/{} hot inserts",
            inserts.len()
        );
        // Reads stay uniform: their bounds regularly leave the hot range.
        let cold_reads = ops
            .iter()
            .filter(|o| match o {
                Op::RangeRead { lo, .. } | Op::AggRead { lo, .. } => {
                    lo.parse::<u32>().unwrap() < 80
                }
                _ => false,
            })
            .count();
        assert!(cold_reads > 0, "uniform reads must touch cold shards");
    }

    #[test]
    #[should_panic(expected = "leaves the domain")]
    fn hot_shard_outside_domain_panics() {
        let _ = ScheduleGen::new(ScheduleSpec::default()).with_hot_shard(HotShardSpec {
            hot_lo: 0,
            hot_hi: 100,
            hot_insert_pct: 50,
        });
    }

    #[test]
    fn read_only_slices_contain_only_reads() {
        let gen = ScheduleGen::new(ScheduleSpec::default());
        let mut rng = StdRng::seed_from_u64(3);
        let reads = gen.generate_reads(&mut rng, 50);
        assert_eq!(reads.len(), 50);
        assert!(reads.iter().all(Op::is_read));
    }
}
