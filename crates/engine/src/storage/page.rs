//! The page codec: exact binary round-trips for column chunks.
//!
//! A page is one [`Column`] holding up to a fixed number of consecutive
//! rows of one attribute. The codec here is what makes eviction safe: for
//! every representation, `decode(encode(page)) == page` — same variant,
//! same values — so a page that leaves the pool and comes back is
//! indistinguishable from one that never left. Dictionary pages encode
//! **codes only**; the shared value table stays resident in the pool's
//! frame metadata and is re-attached on decode, which both keeps spilled
//! dictionary pages small and preserves the `Arc` pointer identity that
//! the dict-aware kernels (and the warehouse's table-sharing tests) rely
//! on.

use std::sync::Arc;

use mvdesign_algebra::Value;

use crate::batch::{Batch, Column};

/// Default rows per page: the unit a streaming kernel pins and releases.
pub const DEFAULT_PAGE_ROWS: usize = 4096;

const TAG_INT: u8 = 0;
const TAG_TEXT: u8 = 1;
const TAG_DATE: u8 = 2;
const TAG_DICT: u8 = 3;
const TAG_MIXED: u8 = 4;

const VTAG_INT: u8 = 0;
const VTAG_TEXT: u8 = 1;
const VTAG_DATE: u8 = 2;

/// Estimated resident bytes of a column chunk — the budget currency of the
/// buffer pool. Deterministic (a pure function of the data), so pool
/// behaviour is reproducible for a given budget.
pub(crate) fn column_bytes(col: &Column) -> usize {
    match col {
        Column::Int(v) | Column::Date(v) => v.len() * 8,
        Column::Text(v) => v.iter().map(|s| s.len() + 16).sum(),
        // Codes only: the value table is shared, not owned by the page.
        Column::Dict { codes, .. } => codes.len() * 4,
        Column::Mixed(v) => v.iter().map(value_bytes).sum(),
    }
}

fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Int(_) | Value::Date(_) => 9,
        Value::Text(s) => s.len() + 17,
    }
}

/// Estimated resident bytes of a whole batch (every column summed) — the
/// helper callers use to size pool budgets relative to their data
/// ("half-data", "data/8", …).
pub fn batch_bytes(batch: &Batch) -> usize {
    batch.columns().iter().map(|c| column_bytes(c)).sum()
}

/// Serialises a page. The inverse of [`decode_page`].
pub(crate) fn encode_page(col: &Column) -> Vec<u8> {
    let mut buf = Vec::with_capacity(column_bytes(col) + 16);
    match col {
        Column::Int(v) | Column::Date(v) => {
            buf.push(if matches!(col, Column::Int(_)) {
                TAG_INT
            } else {
                TAG_DATE
            });
            put_u64(&mut buf, v.len() as u64);
            for x in v {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        Column::Text(v) => {
            buf.push(TAG_TEXT);
            put_u64(&mut buf, v.len() as u64);
            for s in v {
                put_str(&mut buf, s);
            }
        }
        Column::Dict { codes, .. } => {
            buf.push(TAG_DICT);
            put_u64(&mut buf, codes.len() as u64);
            for c in codes {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
        Column::Mixed(v) => {
            buf.push(TAG_MIXED);
            put_u64(&mut buf, v.len() as u64);
            for val in v {
                match val {
                    Value::Int(x) => {
                        buf.push(VTAG_INT);
                        buf.extend_from_slice(&x.to_le_bytes());
                    }
                    Value::Date(x) => {
                        buf.push(VTAG_DATE);
                        buf.extend_from_slice(&x.to_le_bytes());
                    }
                    Value::Text(s) => {
                        buf.push(VTAG_TEXT);
                        put_str(&mut buf, s);
                    }
                }
            }
        }
    }
    buf
}

/// Deserialises a page encoded by [`encode_page`], re-attaching `dict` as
/// the value table of a dictionary page.
///
/// # Panics
///
/// Panics on malformed bytes or a missing dictionary — spill pages are
/// written and read only by the pool, so corruption is an internal bug.
pub(crate) fn decode_page(bytes: &[u8], dict: Option<&Arc<[Arc<str>]>>) -> Column {
    let mut r = Reader { bytes, pos: 0 };
    let tag = r.u8();
    let n = r.u64() as usize;
    let col = match tag {
        TAG_INT => Column::Int((0..n).map(|_| r.i64()).collect()),
        TAG_DATE => Column::Date((0..n).map(|_| r.i64()).collect()),
        TAG_TEXT => Column::Text((0..n).map(|_| r.str()).collect()),
        TAG_DICT => Column::Dict {
            codes: (0..n).map(|_| r.u32()).collect(),
            values: Arc::clone(dict.expect("dictionary page decoded without its value table")),
        },
        TAG_MIXED => Column::Mixed(
            (0..n)
                .map(|_| match r.u8() {
                    VTAG_INT => Value::Int(r.i64()),
                    VTAG_DATE => Value::Date(r.i64()),
                    VTAG_TEXT => Value::Text(r.str()),
                    t => panic!("unknown value tag {t} in spilled page"),
                })
                .collect(),
        ),
        t => panic!("unknown page tag {t} in spilled page"),
    };
    assert_eq!(r.pos, bytes.len(), "trailing bytes in spilled page");
    col
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> &[u8] {
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        out
    }

    fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    fn i64(&mut self) -> i64 {
        i64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    fn str(&mut self) -> Arc<str> {
        let n = self.u32() as usize;
        let s = std::str::from_utf8(self.take(n)).expect("spilled strings are UTF-8");
        Arc::from(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(col: &Column, dict: Option<&Arc<[Arc<str>]>>) {
        let bytes = encode_page(col);
        let back = decode_page(&bytes, dict);
        assert_eq!(&back, col, "page codec must round-trip exactly");
    }

    #[test]
    fn every_representation_round_trips_exactly() {
        round_trip(&Column::Int(vec![1, -7, i64::MAX, i64::MIN]), None);
        round_trip(&Column::Date(vec![0, 20260807]), None);
        round_trip(
            &Column::Text(vec![Arc::from("a"), Arc::from(""), Arc::from("héllo")]),
            None,
        );
        round_trip(&Column::Int(vec![]), None);
        round_trip(
            &Column::Mixed(vec![
                Value::Int(3),
                Value::text("x"),
                Value::Date(11),
                Value::text(""),
            ]),
            None,
        );
    }

    #[test]
    fn dict_pages_reattach_the_shared_table() {
        let table: Arc<[Arc<str>]> = vec![Arc::from("a"), Arc::from("b")].into();
        let col = Column::dict(vec![0, 1, 1, 0], Arc::clone(&table));
        let bytes = encode_page(&col);
        // Codes only: 1 tag + 8 len + 4 codes * 4 bytes.
        assert_eq!(bytes.len(), 1 + 8 + 16);
        let back = decode_page(&bytes, Some(&table));
        assert_eq!(back, col);
        assert!(
            Arc::ptr_eq(back.dict_values().unwrap(), &table),
            "decoded dictionary pages must share the original value table"
        );
    }

    #[test]
    fn byte_estimates_are_deterministic_and_nonzero_for_data() {
        let c = Column::Int(vec![1, 2, 3]);
        assert_eq!(column_bytes(&c), 24);
        assert_eq!(column_bytes(&Column::Text(vec![Arc::from("abc")])), 3 + 16);
        let b = Batch::new(
            vec![mvdesign_algebra::AttrRef::new("R", "a")],
            vec![Arc::new(c)],
        );
        assert_eq!(batch_bytes(&b), 24);
    }
}
