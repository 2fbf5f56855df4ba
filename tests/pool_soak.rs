//! A budgeted warehouse that keeps appending and refreshing holds what is
//! live, not everything it ever wrote.
//!
//! An append copies at most each column's tail page and a refresh writes
//! the views it rebuilds into the pool; the pages they replace leave the
//! pool once nothing holds them, and their spill runs are reused. So the
//! pool's live frames and the spill file's length track the data, which
//! here grows by a few percent, and must not grow with the number of
//! rounds: after 200 rounds of appends to `Lineitem` and `Orders` plus a
//! refresh, both are within twice their round-20 values.

use mvdesign::algebra::Value;
use mvdesign::engine::{batch_bytes, Database, Generator, GeneratorConfig, PoolStats};
use mvdesign::prelude::Designer;
use mvdesign::warehouse::Warehouse;
use mvdesign::workload::tpch_lite;

const ROUNDS: usize = 200;
/// Rows appended to each relation per round.
const ROWS: usize = 10;
const RELATIONS: [&str; 2] = ["Lineitem", "Orders"];

fn data(seed: u64, max_rows: usize) -> Database {
    Generator::with_config(GeneratorConfig {
        seed,
        scale: 0.004,
        max_rows,
    })
    .database(&tpch_lite().catalog)
}

#[test]
fn appends_and_refreshes_hold_live_frames_and_spill_steady() {
    let scenario = tpch_lite();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("tpch-lite designs");
    let base = data(0x5eed, usize::MAX);
    let base_bytes: usize = base.iter().map(|(_, t)| batch_bytes(t.batch())).sum();
    let mut warehouse = Warehouse::new(scenario.catalog, base, &design)
        .expect("warehouse builds")
        .with_mem_budget(Some(base_bytes / 4));
    let twin = data(0x5eed ^ 0x50A4, ROUNDS * ROWS);
    let twin_rows: Vec<&[Vec<Value>]> = RELATIONS
        .iter()
        .map(|r| twin.table(r).expect("twin relation").rows())
        .collect();

    let stats = |w: &Warehouse| -> PoolStats { w.buffer_pool().expect("budgeted").stats() };
    let mut at_20 = None;
    for round in 0..ROUNDS {
        for (relation, rows) in RELATIONS.iter().zip(&twin_rows) {
            let rows = rows[round * ROWS..(round + 1) * ROWS].to_vec();
            warehouse.append(*relation, rows).expect("append is valid");
        }
        warehouse.refresh().expect("refresh succeeds");
        if round + 1 == 20 {
            at_20 = Some(stats(&warehouse));
        }
    }
    let (early, late) = (at_20.expect("round 20 ran"), stats(&warehouse));
    assert!(late.spill_bytes > 0, "a quarter of the data must spill");
    assert!(
        late.pages <= 2 * early.pages,
        "live frames grew from {} at round 20 to {} at round {ROUNDS}",
        early.pages,
        late.pages
    );
    assert!(
        late.spill_file_bytes <= 2 * early.spill_file_bytes,
        "the spill file grew from {} B at round 20 to {} B at round {ROUNDS}",
        early.spill_file_bytes,
        late.spill_file_bytes
    );
}
