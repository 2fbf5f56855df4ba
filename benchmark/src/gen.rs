//! The load generator's planning half: everything a run will send is drawn
//! here, up front, from `--seed`. The program under test receives only the
//! operations; no random draw happens while the clock runs.

use std::time::Duration;

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How a read reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// The designer's merged plan for the class, as an expression.
    Merged,
    /// The class's SQL text.
    Sql,
}

/// One read request: which query class, in which form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Read {
    pub class: u8,
    pub form: Form,
}

/// The seeded stream of reads a workload sends, in order.
///
/// Classes are drawn by their weights — the workload's `fq` column —
/// without replacement from blocks: a block holds each class exactly `fq`
/// times, in an order the seed shuffles. Every seed therefore sends the
/// same mix and only the order differs, which keeps the share of heavy
/// queries, and with it every timing, from moving with the seed. Within a
/// class every `1 / sql_share`-th read goes as SQL text.
///
/// Phases consume consecutive stretches of the stream; a phase that
/// outruns it wraps around, which a closed loop on a fast host may do.
#[derive(Debug, Clone)]
pub struct ReadStream {
    reads: Vec<Read>,
    block: usize,
    next: usize,
}

impl ReadStream {
    pub fn new(seed: u64, weights: &[usize], sql_share: f64, blocks: usize) -> Self {
        let mut rng = Rng::new(seed);
        let sql_every = (sql_share > 0.0).then(|| (1.0 / sql_share).round().max(1.0) as usize);
        // Where in its cycle each class starts, so that the seed also moves
        // which reads go as SQL.
        let mut since_sql: Vec<usize> = weights
            .iter()
            .map(|_| sql_every.map_or(0, |every| rng.next_u64() as usize % every))
            .collect();
        let block: Vec<u8> = weights
            .iter()
            .enumerate()
            .flat_map(|(class, count)| std::iter::repeat_n(class as u8, *count))
            .collect();
        let mut reads = Vec::with_capacity(block.len() * blocks);
        for _ in 0..blocks {
            let mut order = block.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.next_u64() as usize % (i + 1));
            }
            for class in order {
                let since = &mut since_sql[usize::from(class)];
                *since += 1;
                let form = match sql_every {
                    Some(every) if *since >= every => {
                        *since = 0;
                        Form::Sql
                    }
                    _ => Form::Merged,
                };
                reads.push(Read { class, form });
            }
        }
        Self {
            reads,
            block: block.len(),
            next: 0,
        }
    }

    pub fn take(&mut self) -> Read {
        let read = self.reads[self.next % self.reads.len()];
        self.next += 1;
        read
    }

    /// Reads per block: the sum of the weights.
    pub fn block_len(&self) -> usize {
        self.block
    }

    /// Whether the reads taken so far make up whole blocks.
    #[cfg(test)]
    pub fn at_block_boundary(&self) -> bool {
        self.next.is_multiple_of(self.block)
    }

    /// Skips to the start of the next block.
    pub fn finish_block(&mut self) {
        self.next = self.next.next_multiple_of(self.block);
    }

    /// The first `n` reads of the stream, whatever has been taken since.
    pub fn head(&self, n: usize) -> &[Read] {
        &self.reads[..n.min(self.reads.len())]
    }
}

/// Due times of an open-loop phase: `rate` per second, evenly spaced, the
/// first one a full gap after the phase starts.
pub fn due_times(rate: f64, length: Duration) -> Vec<Duration> {
    let gap = 1.0 / rate;
    let count = (length.as_secs_f64() * rate).floor() as usize;
    (1..=count)
        .map(|i| Duration::from_secs_f64(i as f64 * gap))
        .collect()
}

/// One scheduled write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Append rows `[from, from + rows)` of relation `relation`'s twin
    /// table (an index into the workload's append relations).
    Append {
        relation: usize,
        from: usize,
        rows: usize,
    },
    Refresh,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Write {
    pub due: Duration,
    pub kind: WriteKind,
}

/// The maintenance traffic of a mixed workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritePlan {
    /// Relations appended to, in turn.
    pub relations: usize,
    pub rows_per_append: usize,
    pub append_every: Duration,
    pub refresh_every: Duration,
}

impl WritePlan {
    /// The writes due within `length`, in due order. `cursors` holds, per
    /// relation, the next unused twin row; it advances so that consecutive
    /// phases never append the same rows twice.
    pub fn schedule(&self, length: Duration, cursors: &mut [usize]) -> Vec<Write> {
        let mut writes = Vec::new();
        let appends = (length.as_secs_f64() / self.append_every.as_secs_f64()).floor() as u32;
        for i in 1..=appends {
            let relation = (i as usize - 1) % self.relations;
            writes.push(Write {
                due: self.append_every * i,
                kind: WriteKind::Append {
                    relation,
                    from: cursors[relation],
                    rows: self.rows_per_append,
                },
            });
            cursors[relation] += self.rows_per_append;
        }
        let refreshes = (length.as_secs_f64() / self.refresh_every.as_secs_f64()).floor() as u32;
        // Half an append gap after the second boundary, so that a refresh
        // and an append are never due at the same instant.
        let offset = self.append_every / 2;
        for i in 1..=refreshes {
            let due = self.refresh_every * i + offset;
            if due <= length {
                writes.push(Write {
                    due,
                    kind: WriteKind::Refresh,
                });
            }
        }
        writes.sort_by_key(|w| w.due);
        writes
    }

    /// Twin rows per relation that `length` of traffic consumes.
    pub fn rows_needed(&self, length: Duration) -> usize {
        let appends = (length.as_secs_f64() / self.append_every.as_secs_f64()).ceil() as usize;
        appends.div_ceil(self.relations) * self.rows_per_append
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FQ: [usize; 6] = [80, 50, 30, 10, 5, 2];

    fn classes(stream: &ReadStream, n: usize) -> Vec<u8> {
        stream.head(n).iter().map(|r| r.class).collect()
    }

    #[test]
    fn the_class_draw_reproduces_the_fq_shares() {
        let total: usize = FQ.iter().sum();
        let mut stream = ReadStream::new(11, &FQ, 0.0, 100);
        // Any whole number of blocks holds each class exactly fq times.
        for blocks in [1, 7] {
            let mut counts = [0usize; 6];
            for _ in 0..blocks * total {
                counts[usize::from(stream.take().class)] += 1;
            }
            assert!(stream.at_block_boundary());
            assert_eq!(counts, FQ.map(|fq| fq * blocks));
        }
        // A stretch that ends inside a block is off by less than one block.
        let mut counts = [0usize; 6];
        for _ in 0..1000 {
            counts[usize::from(stream.take().class)] += 1;
        }
        assert!(!stream.at_block_boundary());
        for (count, fq) in counts.iter().zip(FQ) {
            let want = 1000.0 * fq as f64 / total as f64;
            assert!(
                (*count as f64 - want).abs() <= fq as f64,
                "class with fq {fq}: {count} of 1000, want about {want:.0}"
            );
        }
        stream.finish_block();
        assert!(stream.at_block_boundary());
    }

    #[test]
    fn the_seed_alone_decides_the_order() {
        let a = ReadStream::new(11, &FQ, 0.0, 4);
        assert_eq!(
            classes(&a, 400),
            classes(&ReadStream::new(11, &FQ, 0.0, 4), 400)
        );
        assert_ne!(
            classes(&a, 400),
            classes(&ReadStream::new(12, &FQ, 0.0, 4), 400)
        );
        // Blocks of one stream are shuffled apart from each other.
        let head = classes(&a, 354);
        assert_ne!(head[..177], head[177..]);
    }

    #[test]
    fn the_sql_share_is_honoured() {
        let stream = ReadStream::new(3, &FQ, 0.1, 100);
        let n = 177 * 100;
        let sql = stream
            .head(n)
            .iter()
            .filter(|r| r.form == Form::Sql)
            .count();
        let share = sql as f64 / n as f64;
        assert!((share - 0.1).abs() < 0.002, "sql share {share}");
        // Every class sends its share as SQL, the rare ones too.
        for class in 0..6u8 {
            let of_class = stream.head(n).iter().filter(|r| r.class == class);
            let sql = of_class.clone().filter(|r| r.form == Form::Sql).count();
            let share = sql as f64 / of_class.count() as f64;
            assert!(
                (share - 0.1).abs() < 0.01,
                "class {class}: sql share {share}"
            );
        }
        assert!(ReadStream::new(3, &FQ, 1.0, 1)
            .head(177)
            .iter()
            .all(|r| r.form == Form::Sql));
        assert!(ReadStream::new(3, &FQ, 0.0, 1)
            .head(177)
            .iter()
            .all(|r| r.form == Form::Merged));
    }

    #[test]
    fn due_times_are_evenly_spaced() {
        let due = due_times(50.0, Duration::from_secs(2));
        assert_eq!(due.len(), 100);
        assert_eq!(due[0], Duration::from_millis(20));
        assert_eq!(due[99], Duration::from_secs(2));
    }

    #[test]
    fn writes_alternate_relations_and_never_reuse_rows() {
        let plan = WritePlan {
            relations: 2,
            rows_per_append: 50,
            append_every: Duration::from_millis(100),
            refresh_every: Duration::from_secs(1),
        };
        let mut cursors = [0, 0];
        let first = plan.schedule(Duration::from_secs(2), &mut cursors);
        let appends: Vec<_> = first
            .iter()
            .filter_map(|w| match w.kind {
                WriteKind::Append { relation, from, .. } => Some((relation, from)),
                WriteKind::Refresh => None,
            })
            .collect();
        assert_eq!(appends.len(), 20);
        assert_eq!(&appends[..4], &[(0, 0), (1, 0), (0, 50), (1, 50)]);
        assert_eq!(cursors, [500, 500]);
        assert!(plan.rows_needed(Duration::from_secs(2)) >= 500);
        let refreshes: Vec<_> = first
            .iter()
            .filter(|w| w.kind == WriteKind::Refresh)
            .map(|w| w.due)
            .collect();
        assert_eq!(refreshes, [Duration::from_millis(1050)]);
        assert!(first.windows(2).all(|w| w[0].due <= w[1].due));
        // The next phase carries on where this one stopped.
        let second = plan.schedule(Duration::from_secs(1), &mut cursors);
        assert!(matches!(
            second[0].kind,
            WriteKind::Append {
                relation: 0,
                from: 500,
                ..
            }
        ));
    }
}
