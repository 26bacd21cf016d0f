//! Seeded input generation, owned by the benchmark.
//!
//! [`uniform`] draws the same stream as
//! `genoc_sim::workload::uniform_random` (SplitMix64 with modulo
//! reduction), so seed-for-seed the inputs equal that generator's, but a
//! change to the program's generator cannot change what the benchmark
//! measures. The program only ever sees the generated message list.

use genoc_core::spec::MessageSpec;
use genoc_core::NodeId;
use std::ops::RangeInclusive;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` by modulo reduction.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `count` messages with uniformly random distinct source and destination
/// among `nodes`, and a uniformly random flit count in `flits`.
pub fn uniform(
    nodes: usize,
    count: usize,
    flits: RangeInclusive<usize>,
    seed: u64,
) -> Vec<MessageSpec> {
    assert!(nodes >= 2 && !flits.is_empty());
    let mut rng = SplitMix64(seed);
    let (lo, hi) = (*flits.start(), *flits.end());
    (0..count)
        .map(|_| {
            let source = rng.below(nodes);
            let mut dest = rng.below(nodes - 1);
            if dest >= source {
                dest += 1;
            }
            let n = lo + rng.below(hi - lo + 1);
            MessageSpec::new(NodeId::from_index(source), NodeId::from_index(dest), n)
        })
        .collect()
}
