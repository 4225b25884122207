//! Lists with **future tails**: the Figure 1 producer/consumer pipeline
//! and Halstead's Figure 2 quicksort, written once against the
//! [`PipeBackend`] surface.
//!
//! The producer/consumer pair is the paper's opening example of implicit
//! pipelining: `consume(produce(n))` runs in O(n) total time because the
//! consumer chases the producer cell by cell, rather than waiting for the
//! whole list.
//!
//! Quicksort is the *negative* example: the algorithm pipelines (partial
//! partition output feeds the recursive calls), yet its expected depth
//! stays Θ(n) — pipelining buys only a constant factor here, which the
//! simulator's depth tests verify against this very text.

use std::sync::Arc;

use crate::{fork_call, Key, Mode, PipeBackend, Val};

/// Shorthand for the future of a list tail on engine `B`.
pub type ListFut<B, K> = <B as PipeBackend>::Fut<List<B, K>>;
/// Shorthand for the write pointer of a list cell on engine `B`.
pub type ListWr<B, K> = <B as PipeBackend>::Wr<List<B, K>>;

/// A list whose tail is a future cell of engine `B`.
pub enum List<B: PipeBackend, K: Val> {
    /// The empty list.
    Nil,
    /// A cons cell: head value, future tail.
    Cons(Arc<(K, ListFut<B, K>)>),
}

impl<B: PipeBackend, K: Val> Clone for List<B, K> {
    fn clone(&self) -> Self {
        match self {
            List::Nil => List::Nil,
            List::Cons(rc) => List::Cons(Arc::clone(rc)),
        }
    }
}

impl<B: PipeBackend, K: Key> List<B, K> {
    /// The empty list.
    pub fn nil() -> Self {
        List::Nil
    }

    /// Cons constructor.
    pub fn cons(head: K, tail: ListFut<B, K>) -> Self {
        List::Cons(Arc::new((head, tail)))
    }

    /// Build from a slice with **free** pre-written tails
    /// ([`PipeBackend::input`] — input construction).
    pub fn from_slice(bk: &B, keys: &[K]) -> List<B, K> {
        let mut cur = List::Nil;
        for k in keys.iter().rev() {
            let f = bk.input(cur);
            cur = List::cons(k.clone(), f);
        }
        cur
    }

    /// Post-run inspection: collect the elements into a `Vec`.
    ///
    /// # Panics
    /// If any tail cell is still unwritten.
    pub fn collect_vec(&self) -> Vec<K> {
        let mut out = Vec::new();
        let mut cur = self.clone();
        while let List::Cons(rc) = cur {
            out.push(rc.0.clone());
            cur = B::peek(&rc.1).expect("list cell not written: the run has not quiesced");
        }
        out
    }
}

/// Figure 1's `produce(n)`: build the list `n, n−1, …, 1`, one future per
/// tail, writing each cons as soon as its head is known.
pub fn produce<B: PipeBackend>(bk: &B, n: u64, out: ListWr<B, u64>) {
    bk.tick(1);
    if n == 0 {
        bk.fulfill(out, List::Nil);
    } else {
        let (tp, tf) = bk.cell();
        bk.fork(move |bk| produce(bk, n - 1, tp));
        bk.fulfill(out, List::cons(n, tf));
    }
}

/// Figure 1's `consume`: fold the list with `+`, chasing the producer
/// tail by tail. The sum is written to `out` when the list ends.
pub fn consume<B: PipeBackend>(bk: &B, l: List<B, u64>, acc: u64, out: B::Wr<u64>) {
    bk.tick(1);
    match l {
        List::Nil => bk.fulfill(out, acc),
        List::Cons(rc) => {
            let h = rc.0;
            let t = rc.1.clone();
            bk.touch(&t, move |bk, tail| consume(bk, tail, acc + h, out));
        }
    }
}

/// `partition(pivot, l)`: stream `l` into elements `< pivot` (`lout`) and
/// elements `>= pivot` (`gout`). Each output element is written as soon as
/// it is classified — the pipelined producer for the recursive sorts.
pub fn partition<B: PipeBackend, K: Key>(
    bk: &B,
    pivot: K,
    l: List<B, K>,
    lout: ListWr<B, K>,
    gout: ListWr<B, K>,
) {
    bk.tick(1);
    match l {
        List::Nil => {
            bk.fulfill(lout, List::Nil);
            bk.fulfill(gout, List::Nil);
        }
        List::Cons(rc) => {
            let h = rc.0.clone();
            let t = rc.1.clone();
            bk.touch(&t, move |bk, tail| {
                if h < pivot {
                    let (np, nf) = bk.cell();
                    bk.fulfill(lout, List::cons(h, nf));
                    partition(bk, pivot, tail, np, gout);
                } else {
                    let (np, nf) = bk.cell();
                    bk.fulfill(gout, List::cons(h, nf));
                    partition(bk, pivot, tail, lout, np);
                }
            });
        }
    }
}

/// `qs(l, rest)`: sort `l` and append `rest` (Figure 2, with the standard
/// accumulator formulation). The `< pivot` side is consumed by the
/// continuing recursion; the `>= pivot` side is sorted by a forked future
/// whose result becomes the tail of `pivot :: …`.
pub fn qs<B: PipeBackend, K: Key>(
    bk: &B,
    l: List<B, K>,
    rest: List<B, K>,
    out: ListWr<B, K>,
    mode: Mode,
) {
    bk.tick(1);
    match l {
        List::Nil => bk.fulfill(out, rest),
        List::Cons(rc) => {
            let h = rc.0.clone();
            let t = rc.1.clone();
            bk.touch(&t, move |bk, tail| {
                // let (less, greater) = ?partition(h, tail)
                let (lp, lf) = bk.cell();
                let (gp, gf) = bk.cell();
                let pivot = h.clone();
                fork_call(bk, mode, move |bk| partition(bk, pivot, tail, lp, gp));
                // qs(less) ++ (h :: ?qs(greater, rest))
                let (gout_p, gout_f) = bk.cell();
                bk.fork(move |bk| {
                    bk.touch(&gf, move |bk, g| qs(bk, g, rest, gout_p, mode));
                });
                let mid = List::cons(h, gout_f);
                bk.touch(&lf, move |bk, lv| qs(bk, lv, mid, out, mode));
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seq;

    #[test]
    fn build_and_collect() {
        let keys = Seq::run(|bk| List::from_slice(bk, &[3i64, 2, 1]).collect_vec());
        assert_eq!(keys, [3, 2, 1]);
    }

    #[test]
    fn nil_properties() {
        let nil = List::<Seq, i64>::nil();
        assert!(nil.collect_vec().is_empty());
    }
}
