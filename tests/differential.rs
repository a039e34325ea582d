//! The durable quadrants of the differential harness (`tests/harness`):
//! every {front} × {exec} × kind cell over WAL-backed storage, restarted
//! with `Session::open` mid-stream and once more at the end. The volatile
//! quadrants' streams run from the suites whose pairs of modes they
//! replaced — see the harness's module docs.

mod harness;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn durable_single_shard_cells_survive_restarts(seed in any::<u64>()) {
        harness::check_modes(true, false, seed)?;
    }

    #[test]
    fn durable_four_shard_cells_survive_restarts(seed in any::<u64>()) {
        harness::check_modes(true, true, seed)?;
    }
}
