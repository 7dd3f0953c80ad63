//! The three coding schemes and their coefficient supports.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::priority::PriorityProfile;

/// Which linear code generates a coded block (Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Random linear codes: every coded block combines all `N` source
    /// blocks. Decoding is all-or-nothing.
    Rlc,
    /// Stacked linear codes: a level-`k` coded block combines only the
    /// source blocks in level `k` (block-diagonal coefficient matrix).
    Slc,
    /// Progressive linear codes: a level-`k` coded block combines the
    /// source blocks of levels `0..=k` (block-lower-triangular matrix).
    Plc,
}

impl Scheme {
    /// The source-block index range a coded block of `level` may combine.
    ///
    /// # Panics
    ///
    /// Panics if `level >= profile.num_levels()`.
    pub fn support(self, profile: &PriorityProfile, level: usize) -> Range<usize> {
        assert!(
            level < profile.num_levels(),
            "level {level} out of range ({})",
            profile.num_levels()
        );
        match self {
            Scheme::Rlc => 0..profile.total_blocks(),
            Scheme::Slc => profile.blocks_of(level),
            Scheme::Plc => 0..profile.bound(level + 1),
        }
    }

    /// All scheme variants, for sweeps.
    pub const ALL: [Scheme; 3] = [Scheme::Rlc, Scheme::Slc, Scheme::Plc];
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Scheme::Rlc => "RLC",
            Scheme::Slc => "SLC",
            Scheme::Plc => "PLC",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supports_match_fig1() {
        // Fig. 1: three source blocks, level 1 = {x1}, level 2 = {x2, x3}.
        let p = PriorityProfile::new(vec![1, 2]).unwrap();
        // (a) RLC: all rows span everything.
        assert_eq!(Scheme::Rlc.support(&p, 0), 0..3);
        assert_eq!(Scheme::Rlc.support(&p, 1), 0..3);
        // (b) SLC: block-diagonal.
        assert_eq!(Scheme::Slc.support(&p, 0), 0..1);
        assert_eq!(Scheme::Slc.support(&p, 1), 1..3);
        // (c) PLC: progressive prefixes.
        assert_eq!(Scheme::Plc.support(&p, 0), 0..1);
        assert_eq!(Scheme::Plc.support(&p, 1), 0..3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn support_rejects_bad_level() {
        let p = PriorityProfile::new(vec![1, 2]).unwrap();
        Scheme::Plc.support(&p, 2);
    }

    #[test]
    fn display_names() {
        assert_eq!(Scheme::Rlc.to_string(), "RLC");
        assert_eq!(Scheme::Slc.to_string(), "SLC");
        assert_eq!(Scheme::Plc.to_string(), "PLC");
        assert_eq!(Scheme::ALL.len(), 3);
    }
}
