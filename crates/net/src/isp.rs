//! ISP identities, AS numbers and the IP→ASN mapping oracle.
//!
//! The paper mapped every observed peer IP to its ISP using Team Cymru's
//! IP-to-ASN service. Since this reproduction allocates all addresses itself,
//! the mapping is an authoritative prefix table: each [`Isp`] owns a fixed set
//! of synthetic first-octet blocks loosely modeled on the real 2008-era
//! allocations (Chinanet, CNCGROUP, CERNET, China Railway, and a grab-bag of
//! foreign carriers).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// The ISP categories used throughout the paper.
///
/// `TELE` is ChinaTelecom, `CNC` is ChinaNetcom, `CER` is CERNET (the China
/// Education and Research Network), `OtherCN` covers smaller Chinese carriers
/// (China Unicom, China Railway Internet, …) and `Foreign` covers every ISP
/// outside China.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Isp {
    /// ChinaTelecom (Chinanet backbone, AS4134).
    Tele,
    /// ChinaNetcom (CNCGROUP backbone, AS4837).
    Cnc,
    /// CERNET, the China Education and Research Network (AS4538).
    Cer,
    /// Smaller Chinese ISPs (China Railway Internet et al.).
    OtherCn,
    /// ISPs outside China.
    Foreign,
}

impl Isp {
    /// All five categories, in the order the paper's figures use.
    pub const ALL: [Isp; 5] = [Isp::Tele, Isp::Cnc, Isp::Cer, Isp::OtherCn, Isp::Foreign];

    /// The paper's display label for the category.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Isp::Tele => "TELE",
            Isp::Cnc => "CNC",
            Isp::Cer => "CER",
            Isp::OtherCn => "OtherCN",
            Isp::Foreign => "Foreign",
        }
    }

    /// Whether the ISP is inside China.
    #[must_use]
    pub const fn is_chinese(self) -> bool {
        !matches!(self, Isp::Foreign)
    }

    /// The three-way grouping (TELE / CNC / OTHER) used by the response-time
    /// analysis in §3.3 of the paper, where CER, OtherCN and Foreign are
    /// merged into OTHER.
    #[must_use]
    pub const fn group(self) -> IspGroup {
        match self {
            Isp::Tele => IspGroup::Tele,
            Isp::Cnc => IspGroup::Cnc,
            Isp::Cer | Isp::OtherCn | Isp::Foreign => IspGroup::Other,
        }
    }
}

impl fmt::Display for Isp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Coarse grouping used by the latency analysis: TELE, CNC, everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IspGroup {
    /// ChinaTelecom peers.
    Tele,
    /// ChinaNetcom peers.
    Cnc,
    /// CER + OtherCN + Foreign combined, as in Figures 7–10.
    Other,
}

impl IspGroup {
    /// All three groups in figure order.
    pub const ALL: [IspGroup; 3] = [IspGroup::Tele, IspGroup::Cnc, IspGroup::Other];

    /// Display label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            IspGroup::Tele => "TELE",
            IspGroup::Cnc => "CNC",
            IspGroup::Other => "OTHER",
        }
    }
}

impl fmt::Display for IspGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An autonomous-system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// One row of the IP→ASN oracle: the AS number, its name, and the ISP
/// category the analysis buckets it into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsnRecord {
    /// The autonomous system number.
    pub asn: Asn,
    /// The registry name of the AS.
    pub name: &'static str,
    /// The paper-level ISP bucket.
    pub isp: Isp,
}

/// First-octet blocks owned by each ISP in this synthetic address plan.
///
/// The blocks are disjoint by construction (verified by tests), so a first
/// octet uniquely identifies the ISP.
const PREFIX_PLAN: &[(u8, AsnRecord)] = &[
    // ChinaTelecom / Chinanet.
    (
        58,
        AsnRecord {
            asn: Asn(4134),
            name: "CHINANET-BACKBONE",
            isp: Isp::Tele,
        },
    ),
    (
        61,
        AsnRecord {
            asn: Asn(4134),
            name: "CHINANET-BACKBONE",
            isp: Isp::Tele,
        },
    ),
    (
        202,
        AsnRecord {
            asn: Asn(4134),
            name: "CHINANET-BACKBONE",
            isp: Isp::Tele,
        },
    ),
    // ChinaNetcom / CNCGROUP.
    (
        60,
        AsnRecord {
            asn: Asn(4837),
            name: "CNCGROUP-BACKBONE",
            isp: Isp::Cnc,
        },
    ),
    (
        218,
        AsnRecord {
            asn: Asn(4837),
            name: "CNCGROUP-BACKBONE",
            isp: Isp::Cnc,
        },
    ),
    (
        221,
        AsnRecord {
            asn: Asn(4837),
            name: "CNCGROUP-BACKBONE",
            isp: Isp::Cnc,
        },
    ),
    // CERNET.
    (
        166,
        AsnRecord {
            asn: Asn(4538),
            name: "ERX-CERNET-BKB",
            isp: Isp::Cer,
        },
    ),
    (
        211,
        AsnRecord {
            asn: Asn(4538),
            name: "ERX-CERNET-BKB",
            isp: Isp::Cer,
        },
    ),
    // Smaller Chinese carriers.
    (
        210,
        AsnRecord {
            asn: Asn(9394),
            name: "CRNET-CN",
            isp: Isp::OtherCn,
        },
    ),
    (
        220,
        AsnRecord {
            asn: Asn(9929),
            name: "CNCNET-CN",
            isp: Isp::OtherCn,
        },
    ),
    // Foreign carriers.
    (
        24,
        AsnRecord {
            asn: Asn(7922),
            name: "COMCAST-7922",
            isp: Isp::Foreign,
        },
    ),
    (
        85,
        AsnRecord {
            asn: Asn(3320),
            name: "DTAG",
            isp: Isp::Foreign,
        },
    ),
    (
        128,
        AsnRecord {
            asn: Asn(1747),
            name: "GMU-EDU",
            isp: Isp::Foreign,
        },
    ),
    (
        130,
        AsnRecord {
            asn: Asn(701),
            name: "UUNET",
            isp: Isp::Foreign,
        },
    ),
];

/// [`PREFIX_PLAN`] indexed by first octet, built at compile time: a lookup
/// is one load, whatever the plan's length.
static BY_FIRST_OCTET: [Option<AsnRecord>; 256] = {
    let mut table = [None; 256];
    let mut i = 0;
    while i < PREFIX_PLAN.len() {
        let (octet, rec) = PREFIX_PLAN[i];
        table[octet as usize] = Some(rec);
        i += 1;
    }
    table
};

/// The IP→ASN mapping oracle, standing in for the Team Cymru service the
/// paper used to classify peers.
///
/// # Examples
///
/// ```
/// use plsim_net::{AsnDirectory, Isp};
/// use std::net::Ipv4Addr;
///
/// let dir = AsnDirectory::new();
/// let rec = dir.lookup(Ipv4Addr::new(58, 0, 1, 2)).unwrap();
/// assert_eq!(rec.isp, Isp::Tele);
/// assert_eq!(rec.asn.0, 4134);
/// assert!(dir.lookup(Ipv4Addr::new(10, 0, 0, 1)).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AsnDirectory {
    _priv: (),
}

impl AsnDirectory {
    /// Creates the directory over the built-in synthetic address plan.
    #[must_use]
    pub fn new() -> Self {
        AsnDirectory { _priv: () }
    }

    /// Maps an address to its AS record, or `None` if the address does not
    /// belong to any planned block (unroutable / bogon).
    #[must_use]
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<AsnRecord> {
        BY_FIRST_OCTET[usize::from(ip.octets()[0])]
    }

    /// Convenience: maps an address directly to its ISP bucket.
    #[must_use]
    pub fn isp_of(&self, ip: Ipv4Addr) -> Option<Isp> {
        self.lookup(ip).map(|r| r.isp)
    }

    /// The first-octet blocks assigned to `isp`, in allocation order.
    #[must_use]
    pub fn blocks_of(&self, isp: Isp) -> Vec<u8> {
        PREFIX_PLAN
            .iter()
            .filter(|(_, rec)| rec.isp == isp)
            .map(|&(first, _)| first)
            .collect()
    }
}

/// Deterministic per-ISP address allocator.
///
/// Hands out unique addresses round-robin across the ISP's first-octet
/// blocks. At most `blocks * 2^24` hosts per ISP, far beyond any scenario.
#[derive(Debug, Clone, Default)]
pub struct IpAllocator {
    counters: [u32; 5],
    directory: AsnDirectory,
}

impl IpAllocator {
    /// Creates a fresh allocator (no addresses handed out yet).
    #[must_use]
    pub fn new() -> Self {
        IpAllocator::default()
    }

    /// Allocates the next unique address for `isp`.
    ///
    /// # Panics
    ///
    /// Panics if the ISP's address space is exhausted (>2^24 hosts per
    /// block), which no realistic scenario approaches.
    pub fn allocate(&mut self, isp: Isp) -> Ipv4Addr {
        let slot = Isp::ALL.iter().position(|&i| i == isp).expect("known isp");
        let n = self.counters[slot];
        self.counters[slot] += 1;
        let blocks = self.directory.blocks_of(isp);
        assert!(!blocks.is_empty(), "no blocks for {isp}");
        let block = blocks[(n as usize) % blocks.len()];
        let host = n / blocks.len() as u32;
        assert!(host < (1 << 24), "address space exhausted for {isp}");
        // Skip .0.0.0 so no address looks like a network identifier.
        let host = host + 1;
        Ipv4Addr::new(
            block,
            ((host >> 16) & 0xff) as u8,
            ((host >> 8) & 0xff) as u8,
            (host & 0xff) as u8,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn prefix_plan_blocks_are_disjoint() {
        let mut seen = HashSet::new();
        for (first, _) in PREFIX_PLAN {
            assert!(seen.insert(*first), "octet {first} assigned twice");
        }
    }

    #[test]
    fn octet_table_equals_a_scan_of_the_plan() {
        let dir = AsnDirectory::new();
        for octet in 0..=255u8 {
            let scan = PREFIX_PLAN
                .iter()
                .find(|(first, _)| *first == octet)
                .map(|&(_, rec)| rec);
            assert_eq!(
                dir.lookup(Ipv4Addr::new(octet, 1, 2, 3)),
                scan,
                "octet {octet}"
            );
        }
    }

    #[test]
    fn every_isp_has_at_least_one_block() {
        let dir = AsnDirectory::new();
        for isp in Isp::ALL {
            assert!(!dir.blocks_of(isp).is_empty(), "{isp} has no blocks");
        }
    }

    #[test]
    fn allocator_produces_unique_addresses_in_the_right_isp() {
        let mut alloc = IpAllocator::new();
        let dir = AsnDirectory::new();
        let mut seen = HashSet::new();
        for isp in Isp::ALL {
            for _ in 0..1000 {
                let ip = alloc.allocate(isp);
                assert!(seen.insert(ip), "duplicate address {ip}");
                assert_eq!(dir.isp_of(ip), Some(isp));
            }
        }
    }

    #[test]
    fn group_mapping_matches_the_paper() {
        assert_eq!(Isp::Tele.group(), IspGroup::Tele);
        assert_eq!(Isp::Cnc.group(), IspGroup::Cnc);
        assert_eq!(Isp::Cer.group(), IspGroup::Other);
        assert_eq!(Isp::OtherCn.group(), IspGroup::Other);
        assert_eq!(Isp::Foreign.group(), IspGroup::Other);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(Isp::Tele.to_string(), "TELE");
        assert_eq!(Isp::OtherCn.to_string(), "OtherCN");
        assert_eq!(IspGroup::Other.to_string(), "OTHER");
    }

    #[test]
    fn chinese_isps_are_flagged() {
        assert!(Isp::Tele.is_chinese());
        assert!(Isp::Cer.is_chinese());
        assert!(!Isp::Foreign.is_chinese());
    }
}
