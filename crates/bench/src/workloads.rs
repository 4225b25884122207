//! Workload generators shared by the tests, integration tests, and the
//! experiment binaries. All generators are deterministic given a seed.

use rand::prelude::*;
use rand::rngs::SmallRng;

use pf_algs::plain::Entry;

/// `n` sorted distinct keys spread over `0 .. n * stride`.
pub fn sorted_keys(n: usize, stride: i64) -> Vec<i64> {
    assert!(stride >= 1);
    (0..n as i64).map(|i| i * stride).collect()
}

/// Two disjoint sorted key sets that interleave perfectly (evens/odds
/// pattern scaled) — the adversarial case for merge pipelining.
pub fn interleaved_pair(n: usize, m: usize) -> (Vec<i64>, Vec<i64>) {
    let a = (0..n as i64).map(|i| 2 * i).collect();
    let b = (0..m as i64).map(|i| 2 * i + 1).collect();
    (a, b)
}

/// Two disjoint sorted key sets where the `m` keys of the second are
/// spread **uniformly across the whole range** of the first — the workload
/// under which merge work is Θ(m·lg(n/m)) (clustered keys would only
/// touch a corner of the big tree).
pub fn spread_pair(n: usize, m: usize) -> (Vec<i64>, Vec<i64>) {
    let a: Vec<i64> = (0..n as i64).map(|i| 2 * i).collect();
    let b: Vec<i64> = (0..m as i64)
        .map(|i| 2 * ((i * n as i64) / m as i64) + 1)
        .collect();
    (a, b)
}

/// Random distinct keys in random order (for quicksort / mergesort).
pub fn shuffled_keys(n: usize, seed: u64) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n as i64).collect();
    v.shuffle(&mut SmallRng::seed_from_u64(seed));
    v
}

/// Attach independent random priorities to keys (treap entries).
pub fn entries_with_random_prios(keys: &[i64], seed: u64) -> Vec<Entry<i64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    keys.iter().map(|&k| (k, rng.gen::<u64>())).collect()
}

/// Treap inputs for a union experiment: sizes n and m, keys drawn from a
/// shared universe so the treaps interleave.
pub fn union_entries(n: usize, m: usize, seed: u64) -> (Vec<Entry<i64>>, Vec<Entry<i64>>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut universe: Vec<i64> = (0..(2 * (n + m)) as i64).collect();
    universe.shuffle(&mut rng);
    let a_keys = &universe[..n];
    let b_keys = &universe[n..n + m];
    let mut a: Vec<Entry<i64>> = a_keys.iter().map(|&k| (k, rng.gen())).collect();
    let mut b: Vec<Entry<i64>> = b_keys.iter().map(|&k| (k, rng.gen())).collect();
    a.sort_unstable();
    b.sort_unstable();
    (a, b)
}

/// Treap inputs for a difference experiment: `b` is a random subset of
/// `a`'s keys of size `m` (the keys actually removed) — maximal join
/// pressure.
pub fn diff_entries(n: usize, m: usize, seed: u64) -> (Vec<Entry<i64>>, Vec<Entry<i64>>) {
    assert!(m <= n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let a_keys: Vec<i64> = (0..n as i64).collect();
    let mut picks = a_keys.clone();
    picks.shuffle(&mut rng);
    let mut b_keys: Vec<i64> = picks[..m].to_vec();
    b_keys.sort_unstable();
    let a = a_keys.iter().map(|&k| (k, rng.gen())).collect();
    let b = b_keys.iter().map(|&k| (k, rng.gen())).collect();
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_disjoint() {
        let (a, b) = interleaved_pair(10, 10);
        assert!(a.iter().all(|k| !b.contains(k)));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut v = shuffled_keys(100, 3);
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn union_entries_sizes_and_disjoint() {
        let (a, b) = union_entries(50, 20, 7);
        assert_eq!(a.len(), 50);
        assert_eq!(b.len(), 20);
        let ak: std::collections::BTreeSet<_> = a.iter().map(|e| e.0).collect();
        assert!(b.iter().all(|e| !ak.contains(&e.0)));
    }

    #[test]
    fn diff_entries_subset() {
        let (a, b) = diff_entries(50, 20, 7);
        let ak: std::collections::BTreeSet<_> = a.iter().map(|e| e.0).collect();
        assert!(b.iter().all(|e| ak.contains(&e.0)));
        assert_eq!(b.len(), 20);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(shuffled_keys(64, 9), shuffled_keys(64, 9));
        assert_eq!(union_entries(30, 10, 2), union_entries(30, 10, 2));
    }
}
