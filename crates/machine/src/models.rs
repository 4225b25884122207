//! The machine cost models of §1 and §4: given a computation's work `w`,
//! depth `d`, and a processor count `p`, each model predicts the running
//! time of the §4 implementation (all scheduling and future-management
//! costs included). Experiment E10 tabulates these against the
//! hand-pipelined PVW 2-3 tree bound.

/// The machine models the paper maps its implementation onto.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Machine {
    /// EREW PRAM + unit-time plus-scan: O(w/p + d) (Lemma 4.1).
    ErewScan,
    /// Plain EREW PRAM: the scan costs Θ(lg p) ⇒ O(w/p + d·lg p).
    Erew,
    /// Asynchronous EREW PRAM (Cole–Zajicek): O(w/p + d·lg p).
    AsyncErew,
    /// BSP with gap `g` and periodicity `l`: O(g·w/p + d·(Ts(p) + l)),
    /// Ts(p) = lg p.
    Bsp {
        /// BSP gap parameter (inverse bandwidth).
        g: f64,
        /// BSP periodicity / latency parameter.
        l: f64,
    },
    /// CRCW PRAM with work-efficient fetch-and-add (the earlier result the
    /// paper improves on): O(w/p + d·Tf(p)), Tf(p) = lg p.
    CrcwFetchAdd,
}

fn lg(p: usize) -> f64 {
    (p.max(2) as f64).log2()
}

/// Predicted time (in abstract machine steps) of a computation with work
/// `w` and depth `d` on `p` processors under the given model. Constants of
/// the O(·) are taken as 1, so the values are comparable *shapes*, not
/// cycle counts.
pub fn predicted_time(machine: Machine, w: u64, d: u64, p: usize) -> f64 {
    assert!(p >= 1);
    let wp = w as f64 / p as f64;
    let d = d as f64;
    match machine {
        Machine::ErewScan => wp + d,
        Machine::Erew => wp + d * lg(p),
        Machine::AsyncErew => wp + d * lg(p),
        Machine::Bsp { g, l } => g * wp + d * (lg(p) + l),
        Machine::CrcwFetchAdd => wp + d * lg(p),
    }
}

/// The PVW hand-pipelined 2-3 tree reference: inserting m keys into a tree
/// of n keys in O(m·lg n / p + lg n) time on an EREW PRAM. The paper
/// notes its futures version pays an extra Ts(p) factor on the depth term
/// when mapped to the plain PRAM, but matches PVW on the network/
/// asynchronous models.
pub fn pvw_time(n: usize, m: usize, p: usize) -> f64 {
    assert!(n >= 2 && p >= 1);
    let lgn = (n as f64).log2();
    (m as f64) * lgn / p as f64 + lgn
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_model_is_brent() {
        assert_eq!(predicted_time(Machine::ErewScan, 1000, 10, 10), 110.0);
        assert_eq!(predicted_time(Machine::ErewScan, 1000, 10, 1), 1010.0);
    }

    #[test]
    fn erew_pays_log_factor_on_depth() {
        let scan = predicted_time(Machine::ErewScan, 1 << 20, 20, 256);
        let erew = predicted_time(Machine::Erew, 1 << 20, 20, 256);
        assert!(erew > scan);
        assert!((erew - scan - 20.0 * 8.0 + 20.0).abs() < 1e-9); // d(lg p - 1)
    }

    #[test]
    fn bsp_parameters_scale() {
        let cheap = predicted_time(Machine::Bsp { g: 1.0, l: 0.0 }, 1000, 10, 10);
        let costly = predicted_time(Machine::Bsp { g: 4.0, l: 100.0 }, 1000, 10, 10);
        assert!(costly > cheap);
    }

    #[test]
    fn speedup_grows_until_depth_dominates() {
        let w = 1 << 20;
        let d = 20;
        // Self-speedup: time at p = 1 over time at p.
        let speedup = |p| {
            predicted_time(Machine::ErewScan, w, d, 1) / predicted_time(Machine::ErewScan, w, d, p)
        };
        let s16 = speedup(16);
        let s256 = speedup(256);
        assert!(s16 > 10.0);
        assert!(s256 > s16);
        // Perfect scaling impossible once w/p ~ d.
        let s_huge = speedup(1 << 19);
        assert!(s_huge < (1 << 19) as f64 / 8.0);
    }

    #[test]
    fn pvw_shape() {
        // Fixed n: time falls with p toward the lg n floor.
        let t1 = pvw_time(1 << 20, 1 << 10, 1);
        let tp = pvw_time(1 << 20, 1 << 10, 1 << 10);
        assert!(t1 > tp);
        assert!(tp >= 20.0);
    }
}
