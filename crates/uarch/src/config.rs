//! Per-microarchitecture configuration: execution-port layout, functional-unit
//! to port mapping, front-end and memory parameters.
//!
//! The configuration captures the *publicly documented* high-level structure
//! of each microarchitecture (the kind of information shown in Figure 1 of
//! the paper and in Intel's optimization manual): how many ports there are and
//! which functional-unit classes are attached to which ports. The inference
//! algorithms in `uops-core` may use this structural information (the paper's
//! algorithms likewise know the set of port combinations to probe), but they
//! never see the per-instruction ground truth.

use crate::arch::MicroArch;
use crate::port::PortSet;

/// Configuration of one microarchitecture.
#[derive(Debug, Clone, PartialEq)]
pub struct UarchConfig {
    /// The microarchitecture this configuration describes.
    pub arch: MicroArch,
    /// Number of execution ports.
    pub port_count: u8,
    /// Maximum µops issued from the front end per cycle.
    pub issue_width: u32,
    /// Reorder-buffer size (µops).
    pub rob_size: u32,
    /// Scheduler (reservation-station) size (µops).
    pub scheduler_size: u32,
    /// L1 data-cache load-to-use latency in cycles.
    pub load_latency: u32,
    /// Store-to-load forwarding latency in cycles.
    pub store_forward_latency: u32,
    /// Extra cycles when a value crosses between the vector-integer and
    /// floating-point bypass domains.
    pub bypass_delay: u32,
    /// Fraction of dependent register-to-register moves that the renamer
    /// manages to eliminate (the paper observed roughly one third for GPR
    /// moves in a dependent chain).
    pub mov_elimination_rate: f64,

    /// Ports with a simple integer ALU.
    pub int_alu: PortSet,
    /// Ports with an integer shift unit.
    pub int_shift: PortSet,
    /// Ports with the integer multiplier.
    pub int_mul: PortSet,
    /// Ports with the divider unit.
    pub divider: PortSet,
    /// Ports that can execute LEA.
    pub lea: PortSet,
    /// Ports with a branch unit.
    pub branch: PortSet,
    /// Ports with the "slow int" unit (bit scans, CRC32, ...).
    pub slow_int: PortSet,
    /// Ports with a load unit / load AGU.
    pub load: PortSet,
    /// Ports with a store-address AGU.
    pub store_addr: PortSet,
    /// Ports with the store-data unit.
    pub store_data: PortSet,
    /// Ports with a vector integer ALU.
    pub vec_alu: PortSet,
    /// Ports with the vector integer multiplier.
    pub vec_mul: PortSet,
    /// Ports with the vector shuffle unit.
    pub vec_shuffle: PortSet,
    /// Ports with the vector blend unit.
    pub vec_blend: PortSet,
    /// Ports with the vector FP adder.
    pub fp_add: PortSet,
    /// Ports with the vector FP multiplier.
    pub fp_mul: PortSet,
    /// Ports with the FP divider/square-root unit.
    pub fp_div: PortSet,
    /// Ports with the AES unit.
    pub aes: PortSet,
}

fn p(ports: &[u8]) -> PortSet {
    PortSet::of(ports)
}

impl UarchConfig {
    /// The configuration of the given microarchitecture.
    #[must_use]
    pub fn for_arch(arch: MicroArch) -> UarchConfig {
        use MicroArch as M;
        match arch {
            // --- 6-port machines -------------------------------------------------
            M::Nehalem | M::Westmere => UarchConfig {
                arch,
                port_count: 6,
                issue_width: 4,
                rob_size: 128,
                scheduler_size: 36,
                load_latency: 4,
                store_forward_latency: 5,
                bypass_delay: 2,
                mov_elimination_rate: 0.0,
                int_alu: p(&[0, 1, 5]),
                int_shift: p(&[0, 5]),
                int_mul: p(&[1]),
                divider: p(&[0]),
                lea: p(&[0, 1]),
                branch: p(&[5]),
                slow_int: p(&[1]),
                load: p(&[2]),
                store_addr: p(&[3]),
                store_data: p(&[4]),
                vec_alu: p(&[0, 1, 5]),
                vec_mul: p(&[0]),
                vec_shuffle: p(&[5]),
                vec_blend: p(&[0, 5]),
                fp_add: p(&[1]),
                fp_mul: p(&[0]),
                fp_div: p(&[0]),
                aes: p(&[0, 1, 5]),
            },
            M::SandyBridge | M::IvyBridge => UarchConfig {
                arch,
                port_count: 6,
                issue_width: 4,
                rob_size: 168,
                scheduler_size: 54,
                load_latency: 5,
                store_forward_latency: 5,
                bypass_delay: 1,
                mov_elimination_rate: if arch == M::IvyBridge { 0.33 } else { 0.0 },
                int_alu: p(&[0, 1, 5]),
                int_shift: p(&[0, 5]),
                int_mul: p(&[1]),
                divider: p(&[0]),
                lea: p(&[0, 1]),
                branch: p(&[5]),
                slow_int: p(&[1]),
                load: p(&[2, 3]),
                store_addr: p(&[2, 3]),
                store_data: p(&[4]),
                vec_alu: p(&[1, 5]),
                vec_mul: p(&[0]),
                vec_shuffle: p(&[5]),
                vec_blend: p(&[0, 1, 5]),
                fp_add: p(&[1]),
                fp_mul: p(&[0]),
                fp_div: p(&[0]),
                aes: p(&[0]),
            },
            // --- 8-port machines -------------------------------------------------
            M::Haswell | M::Broadwell => UarchConfig {
                arch,
                port_count: 8,
                issue_width: 4,
                rob_size: 192,
                scheduler_size: 60,
                load_latency: 5,
                store_forward_latency: 5,
                bypass_delay: 1,
                mov_elimination_rate: 0.33,
                int_alu: p(&[0, 1, 5, 6]),
                int_shift: p(&[0, 6]),
                int_mul: p(&[1]),
                divider: p(&[0]),
                lea: p(&[1, 5]),
                branch: p(&[0, 6]),
                slow_int: p(&[1]),
                load: p(&[2, 3]),
                store_addr: p(&[2, 3, 7]),
                store_data: p(&[4]),
                vec_alu: p(&[0, 1, 5]),
                vec_mul: p(&[0]),
                vec_shuffle: p(&[5]),
                vec_blend: p(&[5]),
                fp_add: p(&[1]),
                fp_mul: p(&[0, 1]),
                fp_div: p(&[0]),
                aes: p(&[5]),
            },
            M::Skylake | M::KabyLake | M::CoffeeLake => UarchConfig {
                arch,
                port_count: 8,
                issue_width: 4,
                rob_size: 224,
                scheduler_size: 97,
                load_latency: 5,
                store_forward_latency: 5,
                bypass_delay: 1,
                mov_elimination_rate: 0.33,
                int_alu: p(&[0, 1, 5, 6]),
                int_shift: p(&[0, 6]),
                int_mul: p(&[1]),
                divider: p(&[0]),
                lea: p(&[1, 5]),
                branch: p(&[0, 6]),
                slow_int: p(&[1]),
                load: p(&[2, 3]),
                store_addr: p(&[2, 3, 7]),
                store_data: p(&[4]),
                vec_alu: p(&[0, 1, 5]),
                vec_mul: p(&[0, 1]),
                vec_shuffle: p(&[5]),
                vec_blend: p(&[0, 1, 5]),
                fp_add: p(&[0, 1]),
                fp_mul: p(&[0, 1]),
                fp_div: p(&[0]),
                aes: p(&[0]),
            },
        }
    }

    /// All port combinations at which functional units sit on this
    /// microarchitecture — the set `{ports(fu) | fu ∈ FU}` of §5.1.1, which
    /// is what Algorithm 1 iterates over.
    #[must_use]
    pub fn port_combinations(&self) -> Vec<PortSet> {
        let mut sets = vec![
            self.int_alu,
            self.int_shift,
            self.int_mul,
            self.divider,
            self.lea,
            self.branch,
            self.slow_int,
            self.load,
            self.store_addr,
            self.store_data,
            self.vec_alu,
            self.vec_mul,
            self.vec_shuffle,
            self.vec_blend,
            self.fp_add,
            self.fp_mul,
            self.fp_div,
            self.aes,
        ];
        sets.sort();
        sets.dedup();
        sets
    }

    /// The port combinations attached to the store units (store data and
    /// store address). These have no 1-µop blocking instruction; the blocking
    /// instruction for them is a `MOV` to memory (§5.1.1).
    #[must_use]
    pub fn store_port_combinations(&self) -> Vec<PortSet> {
        let mut v = vec![self.store_addr, self.store_data];
        v.sort();
        v.dedup();
        v
    }

    /// The set of all ports as a [`PortSet`].
    #[must_use]
    pub fn all_ports(&self) -> PortSet {
        (0..self.port_count).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_architectures_have_configs() {
        for arch in MicroArch::ALL {
            let cfg = UarchConfig::for_arch(arch);
            assert_eq!(cfg.arch, arch);
            assert_eq!(cfg.port_count, arch.port_count());
            assert!(cfg.issue_width >= 4);
            assert!(cfg.load_latency >= 4);
        }
    }

    #[test]
    fn port_sets_fit_within_port_count() {
        for arch in MicroArch::ALL {
            let cfg = UarchConfig::for_arch(arch);
            let all = cfg.all_ports();
            for combo in cfg.port_combinations() {
                assert!(
                    combo.is_subset_of(all),
                    "{arch:?}: combination {combo} exceeds the {} ports",
                    cfg.port_count
                );
                assert!(!combo.is_empty());
            }
        }
    }

    #[test]
    fn store_ports_are_separate_from_compute_ports() {
        for arch in MicroArch::ALL {
            let cfg = UarchConfig::for_arch(arch);
            assert!(!cfg.store_data.intersects(cfg.int_alu));
            assert!(!cfg.load.intersects(cfg.int_alu));
        }
    }

    #[test]
    fn haswell_has_eight_ports_and_dedicated_store_agu() {
        let cfg = UarchConfig::for_arch(MicroArch::Haswell);
        assert_eq!(cfg.port_count, 8);
        assert!(cfg.store_addr.contains(7));
        assert_eq!(cfg.int_alu, PortSet::of(&[0, 1, 5, 6]));
    }

    #[test]
    fn nehalem_has_single_load_port() {
        let cfg = UarchConfig::for_arch(MicroArch::Nehalem);
        assert_eq!(cfg.load, PortSet::of(&[2]));
        assert_eq!(cfg.store_addr, PortSet::of(&[3]));
        assert_eq!(cfg.store_data, PortSet::of(&[4]));
    }

    #[test]
    fn skylake_widens_vector_ports() {
        let cfg = UarchConfig::for_arch(MicroArch::Skylake);
        assert_eq!(cfg.vec_mul, PortSet::of(&[0, 1]));
        assert_eq!(cfg.fp_add, PortSet::of(&[0, 1]));
        assert_eq!(cfg.aes, PortSet::of(&[0]));
        let hsw = UarchConfig::for_arch(MicroArch::Haswell);
        assert_eq!(hsw.aes, PortSet::of(&[5]));
    }

    #[test]
    fn port_combinations_are_deduplicated_and_sorted() {
        for arch in MicroArch::ALL {
            let cfg = UarchConfig::for_arch(arch);
            let combos = cfg.port_combinations();
            for w in combos.windows(2) {
                assert!(w[0] < w[1], "{arch:?}: combinations not strictly ascending");
            }
        }
    }

    #[test]
    fn kaby_and_coffee_lake_match_skylake() {
        // The paper notes these are the same core microarchitecture.
        let skl = UarchConfig::for_arch(MicroArch::Skylake);
        for arch in [MicroArch::KabyLake, MicroArch::CoffeeLake] {
            let cfg = UarchConfig::for_arch(arch);
            assert_eq!(cfg.int_alu, skl.int_alu);
            assert_eq!(cfg.vec_mul, skl.vec_mul);
            assert_eq!(cfg.rob_size, skl.rob_size);
        }
    }
}
