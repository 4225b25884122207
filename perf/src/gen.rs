//! Seeded input generators. The benchmark owns them (nothing here comes
//! from `pf-trees`, `pf-rt-algs` or `pf-bench`, which ROADMAP slates for
//! removal): the same seed gives the same inputs, and the program under
//! test only ever sees what these functions return.

use std::collections::BTreeSet;

use pf_algs::plain::Entry;
use pf_service::{OpKind, Request};
use rand::prelude::*;

/// Keys the service workloads draw from.
pub const KEYSPACE: i64 = 4_000_000;

fn with_prios(keys: &[i64], rng: &mut SmallRng) -> Vec<Entry<i64>> {
    keys.iter().map(|&k| (k, rng.gen())).collect()
}

/// `n + m` distinct keys from a universe twice that size, dealt at random
/// into a sorted `n`-set and a sorted `m`-set, so the two interleave.
fn disjoint_sets(n: usize, m: usize, rng: &mut SmallRng) -> (Vec<i64>, Vec<i64>) {
    let mut universe: Vec<i64> = (0..(2 * (n + m)) as i64).collect();
    universe.shuffle(rng);
    let mut a = universe[..n].to_vec();
    let mut b = universe[n..n + m].to_vec();
    a.sort_unstable();
    b.sort_unstable();
    (a, b)
}

/// Inputs of the four §3 algorithms and the key sequence each must
/// produce, worked out on `BTreeSet`.
pub struct AlgInputs {
    /// Treap union: two interleaving treaps of `n` and `n` entries.
    pub union: (Vec<Entry<i64>>, Vec<Entry<i64>>),
    /// Treap difference: `n` entries minus a random `n/4`-subset of them.
    pub diff: (Vec<Entry<i64>>, Vec<Entry<i64>>),
    /// 2-6 tree: `n` sorted keys, and `n/8` sorted new keys to insert.
    pub insert26: (Vec<i64>, Vec<i64>),
    /// BST merge: two disjoint sorted key sets of `n` and `n` keys.
    pub merge: (Vec<i64>, Vec<i64>),
    /// Sorted result keys, in [`crate::algs::ALGS`] order.
    pub expected: [Vec<i64>; 4],
}

impl AlgInputs {
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (ua, ub) = disjoint_sets(n, n, &mut rng);
        let union = (with_prios(&ua, &mut rng), with_prios(&ub, &mut rng));

        let (da, _) = disjoint_sets(n, n, &mut rng);
        let mut picks = da.clone();
        picks.shuffle(&mut rng);
        let mut db = picks[..n / 4].to_vec();
        db.sort_unstable();
        let diff = (with_prios(&da, &mut rng), with_prios(&db, &mut rng));

        let insert26 = disjoint_sets(n, n / 8, &mut rng);
        let merge = disjoint_sets(n, n, &mut rng);

        let set = |v: &[i64]| v.iter().copied().collect::<BTreeSet<i64>>();
        let both = |a: &[i64], b: &[i64]| set(a).union(&set(b)).copied().collect::<Vec<i64>>();
        let expected = [
            both(&ua, &ub),
            set(&da).difference(&set(&db)).copied().collect(),
            both(&insert26.0, &insert26.1),
            both(&merge.0, &merge.1),
        ];
        AlgInputs {
            union,
            diff,
            insert26,
            merge,
            expected,
        }
    }

    /// Keys going into each algorithm (both operands).
    pub fn input_keys(&self) -> [usize; 4] {
        [
            self.union.0.len() + self.union.1.len(),
            self.diff.0.len() + self.diff.1.len(),
            self.insert26.0.len() + self.insert26.1.len(),
            self.merge.0.len() + self.merge.1.len(),
        ]
    }
}

fn request(
    rng: &mut SmallRng,
    tag: u64,
    keys: usize,
    draw: impl Fn(&mut SmallRng) -> i64,
) -> Request<i64> {
    let entries = (0..keys).map(|_| (draw(rng), rng.gen())).collect();
    let req = if rng.gen_bool(0.3) {
        Request::delete(entries)
    } else {
        Request::insert(entries)
    };
    req.tagged(tag)
}

/// The PR 6/9 bulk-ingest shape: 75 % requests of 1–31 keys, 25 % of
/// 64–255, 70/30 insert/delete, keys uniform over the key space.
pub fn bulk_trace(requests: usize, seed: u64) -> Vec<Request<i64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..requests)
        .map(|i| {
            let keys = if rng.gen_bool(0.75) {
                rng.gen_range(1..32)
            } else {
                rng.gen_range(64..256)
            };
            request(&mut rng, i as u64, keys, |r| r.gen_range(0..KEYSPACE))
        })
        .collect()
}

/// Key classes of the preloaded service workloads. Writers only ever
/// touch `WRITER` keys, so a reader's answers about `STATIC` keys (always
/// present once preloaded) and `ABSENT` keys (never present) are exact
/// even while writes commit beside it.
pub const STATIC: i64 = 0;
pub const WRITER: i64 = 2;

fn of_class(rng: &mut SmallRng, class: i64) -> i64 {
    rng.gen_range(0..KEYSPACE / 4) * 4 + class
}

/// An odd key: in neither class, so never in the set.
pub fn absent_key(rng: &mut SmallRng) -> i64 {
    rng.gen_range(0..KEYSPACE / 2) * 2 + 1
}

/// `n` preload entries, half of each class (duplicates are possible and
/// harmless), and the sorted distinct `STATIC` keys among them.
pub fn preload(n: usize, seed: u64) -> (Vec<Entry<i64>>, Vec<i64>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0001);
    let entries: Vec<Entry<i64>> = (0..n)
        .map(|i| {
            (
                of_class(&mut rng, if i % 2 == 0 { STATIC } else { WRITER }),
                rng.gen(),
            )
        })
        .collect();
    let statics: BTreeSet<i64> = entries
        .iter()
        .map(|e| e.0)
        .filter(|k| k % 4 == STATIC)
        .collect();
    (entries, statics.into_iter().collect())
}

/// The paced write mix: requests of 1–8 `WRITER` keys, 70/30 insert/delete.
pub fn paced_trace(requests: usize, seed: u64) -> Vec<Request<i64>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0002);
    (0..requests)
        .map(|i| {
            let keys = rng.gen_range(1..9);
            request(&mut rng, i as u64, keys, |r| of_class(r, WRITER))
        })
        .collect()
}

/// Replay requests on a `BTreeSet` in submission order — the oracle every
/// service run's final key set must equal.
pub fn replay<'a>(set: &mut BTreeSet<i64>, requests: impl IntoIterator<Item = &'a Request<i64>>) {
    for r in requests {
        for (k, _) in &r.entries {
            match r.kind {
                OpKind::Insert => set.insert(*k),
                OpKind::Delete => set.remove(k),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (AlgInputs::generate(256, 9), AlgInputs::generate(256, 9));
        assert_eq!(a.union, b.union);
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.union, AlgInputs::generate(256, 10).union);
        let keys = |t: Vec<Request<i64>>| t.into_iter().map(|r| r.entries).collect::<Vec<_>>();
        assert_eq!(keys(bulk_trace(50, 3)), keys(bulk_trace(50, 3)));
        assert_eq!(keys(paced_trace(50, 3)), keys(paced_trace(50, 3)));
    }

    #[test]
    fn key_classes_do_not_overlap() {
        let (entries, statics) = preload(1000, 1);
        assert!(statics.iter().all(|k| k % 4 == STATIC));
        assert!(entries.iter().any(|e| e.0 % 4 == WRITER));
        let writes = paced_trace(200, 1);
        assert!(writes
            .iter()
            .flat_map(|r| &r.entries)
            .all(|e| e.0 % 4 == WRITER));
        let mut rng = SmallRng::seed_from_u64(1);
        assert!((0..100).all(|_| absent_key(&mut rng) % 2 == 1));
    }
}
