//! DDR3 timing parameters and the primitive latencies derived from them.
//!
//! The paper evaluates everything on DDR3-1600 (JEDEC JESD79-3D). Table 1
//! lists the latency of each ELP2IM primitive; this module derives those
//! numbers from the underlying DDR3 timing constraints so the relationship
//! is explicit:
//!
//! * `AP  = tRAS + tRP                      ≈ 49 ns`
//! * `AAP = 2·tRAS + tRP                    ≈ 84 ns`
//! * `oAAP = AP + tOverlapPenalty (4 ns)    ≈ 53 ns`  (dual row decoder)
//! * `APP = tRAS + tPP + tRP                ≈ 67 ns`  (tPP = 1.3 × tRP)
//! * `oAPP = tRAS + tPP                     ≈ 53 ns`  (row-buffer decoupling)
//! * `tAPP = APP − tRestoreTrim             ≈ 46 ns`  (restore truncation)
//! * `otAPP = APP − overlap − trim          ≈ 32 ns`  (both optimizations;
//!   needed by the Fig. 8 sequences 5 and 6 — see DESIGN.md §3.2)

use crate::units::Ns;

/// DDR3 timing parameter set.
///
/// Construct with [`Ddr3Timing::ddr3_1600`] for the paper's configuration,
/// or build a custom set for sensitivity studies.
///
/// ```
/// use elp2im_dram::timing::Ddr3Timing;
/// let t = Ddr3Timing::ddr3_1600();
/// assert!((t.app().as_f64() - 66.6).abs() < 1.0); // Table 1: ~67 ns
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ddr3Timing {
    /// Clock period (DDR3-1600: 1.25 ns).
    pub t_ck: Ns,
    /// Activate-to-precharge minimum (row active time).
    pub t_ras: Ns,
    /// Precharge time.
    pub t_rp: Ns,
    /// Activate-to-read/write delay.
    pub t_rcd: Ns,
    /// Activate-to-activate delay, different banks.
    pub t_rrd: Ns,
    /// Four-activate window.
    pub t_faw: Ns,
    /// Pseudo-precharge time as a multiple of `t_rp`.
    ///
    /// §6.1.1: pseudo-precharge is 20–30 % longer than precharge; the paper
    /// (and this default) takes the conservative 30 %, i.e. `1.3`.
    pub pseudo_precharge_factor: f64,
    /// Extra latency of an overlapped double activation (oAAP) over AP.
    ///
    /// §2.2.1: oAAP is "only 4 ns longer than AP".
    pub overlap_penalty: Ns,
    /// Latency saved by truncating the restore phase (tAPP vs APP).
    ///
    /// §4.2.2: ~31 % saved vs a regular APP ⇒ ≈21 ns for DDR3-1600.
    pub restore_trim: Ns,
    /// Average refresh interval (DDR3: 7.8 µs).
    pub t_refi: Ns,
    /// Refresh cycle time (DDR3 4 Gb-class: 260 ns).
    pub t_rfc: Ns,
}

impl Ddr3Timing {
    /// A DDR4-2400 parameter set (§6.2: "DDR3-1600 is just an example,
    /// other type of DRAM is also compatible with the aforementioned
    /// designs"). The pseudo-precharge and overlap/trim relations carry
    /// over unchanged; only the base constraints differ.
    pub fn ddr4_2400() -> Self {
        Ddr3Timing {
            t_ck: Ns(0.833),
            t_ras: Ns(32.0),
            t_rp: Ns(13.32),
            t_rcd: Ns(13.32),
            t_rrd: Ns(3.3),
            t_faw: Ns(21.0),
            pseudo_precharge_factor: 1.3,
            overlap_penalty: Ns(4.0),
            restore_trim: Ns(19.0),
            t_refi: Ns(7800.0),
            t_rfc: Ns(350.0),
        }
    }

    /// The DDR3-1600 parameter set used throughout the paper.
    pub fn ddr3_1600() -> Self {
        Ddr3Timing {
            t_ck: Ns(1.25),
            t_ras: Ns(35.0),
            t_rp: Ns(13.75),
            t_rcd: Ns(13.75),
            t_rrd: Ns(6.0),
            t_faw: Ns(40.0),
            pseudo_precharge_factor: 1.3,
            overlap_penalty: Ns(4.0),
            restore_trim: Ns(21.0),
            t_refi: Ns(7800.0),
            t_rfc: Ns(260.0),
        }
    }

    /// Pseudo-precharge duration (`tPP = factor × tRP`).
    pub fn t_pp(&self) -> Ns {
        self.t_rp * self.pseudo_precharge_factor
    }

    /// Regular Activate-Precharge cycle: `tRAS + tRP` (~49 ns).
    pub fn ap(&self) -> Ns {
        self.t_ras + self.t_rp
    }

    /// Back-to-back Activate-Activate-Precharge (RowClone copy, ~84 ns).
    pub fn aap(&self) -> Ns {
        self.t_ras + self.t_ras + self.t_rp
    }

    /// Overlapped AAP using a separate row decoder (~53 ns).
    pub fn o_aap(&self) -> Ns {
        self.ap() + self.overlap_penalty
    }

    /// Activate-PseudoPrecharge-Precharge (~67 ns).
    pub fn app(&self) -> Ns {
        self.t_ras + self.t_pp() + self.t_rp
    }

    /// Overlapped APP: the final precharge overlaps the pseudo-precharge via
    /// row-buffer decoupling (~53 ns).
    pub fn o_app(&self) -> Ns {
        self.t_ras + self.t_pp()
    }

    /// Trimmed APP: the restore phase is truncated (~46 ns).
    pub fn t_app(&self) -> Ns {
        self.app() - self.restore_trim
    }

    /// Overlapped **and** trimmed APP (~32 ns).
    ///
    /// Not listed in Table 1 (see DESIGN.md §3.2) but required to reproduce
    /// the Fig. 8 sequence-5/6 latency totals of 346 ns and 297 ns.
    pub fn ot_app(&self) -> Ns {
        self.app() - (self.app() - self.o_app()) - self.restore_trim
    }

    /// The latency saved by overlapping an APP (APP − oAPP), ~14 ns.
    pub fn overlap_saving(&self) -> Ns {
        self.app() - self.o_app()
    }

    /// Fraction of time the rank is unavailable due to refresh
    /// (`tRFC / tREFI`, ~3.3 % for DDR3). The paper's evaluation ignores
    /// refresh; this is exposed for sensitivity studies.
    pub fn refresh_overhead(&self) -> f64 {
        self.t_rfc / self.t_refi
    }
}

impl Default for Ddr3Timing {
    fn default() -> Self {
        Ddr3Timing::ddr3_1600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Ns, b: f64, tol: f64) -> bool {
        (a.as_f64() - b).abs() <= tol
    }

    /// Table 1 of the paper, reproduced to within a nanosecond.
    #[test]
    fn table1_latencies() {
        let t = Ddr3Timing::ddr3_1600();
        assert!(close(t.ap(), 49.0, 0.5), "AP = {}", t.ap());
        assert!(close(t.aap(), 84.0, 0.5), "AAP = {}", t.aap());
        assert!(close(t.o_aap(), 53.0, 0.5), "oAAP = {}", t.o_aap());
        assert!(close(t.app(), 67.0, 0.5), "APP = {}", t.app());
        assert!(close(t.o_app(), 53.0, 0.5), "oAPP = {}", t.o_app());
        assert!(close(t.t_app(), 46.0, 0.5), "tAPP = {}", t.t_app());
        assert!(close(t.ot_app(), 32.0, 0.5), "otAPP = {}", t.ot_app());
    }

    /// §6.1.1: pseudo-precharge is 20–30 % longer than a precharge.
    #[test]
    fn pseudo_precharge_is_longer_than_precharge() {
        let t = Ddr3Timing::ddr3_1600();
        let ratio = t.t_pp() / t.t_rp;
        assert!((1.2..=1.3001).contains(&ratio), "ratio = {ratio}");
    }

    /// §3.3: APP-AP is ~18 % longer than AP-AP.
    #[test]
    fn two_cycle_access_overhead() {
        let t = Ddr3Timing::ddr3_1600();
        let app_ap = t.app() + t.ap();
        let ap_ap = t.ap() + t.ap();
        let overhead = app_ap / ap_ap - 1.0;
        assert!((0.15..=0.20).contains(&overhead), "APP-AP overhead = {overhead:.3}");
    }

    /// §4.2.1: oAPP saves ~21 % vs APP; §4.2.2: tAPP saves ~31 %.
    #[test]
    fn optimization_savings() {
        let t = Ddr3Timing::ddr3_1600();
        let o_saving = 1.0 - t.o_app() / t.app();
        let trim_saving = 1.0 - t.t_app() / t.app();
        assert!((0.18..=0.24).contains(&o_saving), "oAPP saving {o_saving}");
        assert!((0.28..=0.34).contains(&trim_saving), "tAPP saving {trim_saving}");
    }

    #[test]
    fn default_is_ddr3_1600() {
        assert_eq!(Ddr3Timing::default(), Ddr3Timing::ddr3_1600());
    }

    /// The design's structural relations (APP-AP overhead, optimization
    /// savings) transfer to DDR4 timing unchanged — §6.2's compatibility
    /// remark.
    #[test]
    fn relations_hold_on_ddr4() {
        let t = Ddr3Timing::ddr4_2400();
        assert!(t.ap() < t.app() && t.app() < t.aap());
        assert!(t.o_app() < t.app());
        assert!(t.t_app() < t.app());
        assert!(t.ot_app() < t.o_app());
        let overhead = (t.app() + t.ap()) / (t.ap() + t.ap()) - 1.0;
        assert!((0.12..=0.25).contains(&overhead), "APP-AP overhead {overhead}");
        let pp_ratio = t.t_pp() / t.t_rp;
        assert!((1.2..=1.31).contains(&pp_ratio));
    }

    #[test]
    fn refresh_overhead_is_a_few_percent() {
        let t = Ddr3Timing::ddr3_1600();
        let oh = t.refresh_overhead();
        assert!((0.02..=0.05).contains(&oh), "refresh overhead {oh}");
    }
}
