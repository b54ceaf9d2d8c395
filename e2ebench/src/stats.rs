//! Order statistics for latency samples.

/// The median of `samples` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The arithmetic mean of `samples`; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile: fewer and the percentile is one or two outliers.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in `(0, 100)`: the share of samples at or below
    /// `value`.
    pub percentile: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond `value` in sorted order.
    pub beyond: usize,
}

/// The highest percentile of `samples` with at least [`TAIL_BEYOND`]
/// samples beyond it: in ascending order, the sample at index
/// `n - TAIL_BEYOND - 1`. With too few samples for any such percentile
/// the median sample is returned instead, and `beyond` says how many
/// samples lie past it. `None` for an empty slice.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = if n > TAIL_BEYOND {
        n - TAIL_BEYOND - 1
    } else {
        (n - 1) / 2
    };
    Some(Tail {
        value: sorted[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        samples: n,
        beyond: n - k - 1,
    })
}

/// Jobs per block when a long run is summarised block by block.
pub const BLOCK: usize = 1000;

/// A tail taken block by block over a long run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockedTail {
    /// The median over blocks of each block's [`tail`] (all of them
    /// share `tail.percentile`, `tail.samples` and `tail.beyond`).
    pub tail: Tail,
    /// Full blocks the median was taken over; 1 when the run was too
    /// short to split and the tail covers every sample.
    pub blocks: usize,
}

/// The [`tail`] of `samples` (in arrival order), taken per full block
/// of `block` consecutive samples with the median over blocks reported,
/// once the run holds at least two full blocks; a shorter run gives the
/// tail of all its samples. Blocking keeps the percentile at a fixed
/// depth (p99 for blocks of 1000) however long the run, so a handful
/// of host stalls cannot set the figure. `None` for an empty slice.
pub fn blocked_tail(samples: &[f64], block: usize) -> Option<BlockedTail> {
    let full = samples.len() / block.max(1);
    if full < 2 {
        return tail(samples).map(|tail| BlockedTail { tail, blocks: 1 });
    }
    let tails: Vec<Tail> = samples
        .chunks_exact(block)
        .map(|c| tail(c).expect("non-empty block"))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(BlockedTail {
        tail: Tail {
            value: median(&values),
            ..tails[0]
        },
        blocks: full,
    })
}

/// The mean over groups of each group's median: `group[i]` names the
/// group of `samples[i]`. A workload that mixes jobs of different cost
/// has one latency cluster per kind of job; a plain median of the mix
/// can fall in the valley between two clusters and jump from run to
/// run, while each group's median stays put. Empty groups are skipped.
pub fn mean_of_medians(samples: &[f64], group: &[u8]) -> f64 {
    let mut by_group: Vec<Vec<f64>> = Vec::new();
    for (&x, &g) in samples.iter().zip(group) {
        let g = usize::from(g);
        if by_group.len() <= g {
            by_group.resize_with(g + 1, Vec::new);
        }
        by_group[g].push(x);
    }
    let medians: Vec<f64> = by_group
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .collect();
    mean(&medians)
}
