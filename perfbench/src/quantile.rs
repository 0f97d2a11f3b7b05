//! Latency quantiles read between the edges of a histogram bucket.
//!
//! [`Histogram::quantile`] answers with a bucket midpoint, so a median
//! moves in steps of about 6 % and reads the same for most seeds. The
//! benchmark wants a figure that moves with the data, so it recovers
//! the bucket's edges and the ranks it holds, and interpolates linearly
//! inside it (the estimator Prometheus uses for histogram quantiles).

use bpfstor_sim::Histogram;

/// The `[lo, hi)` nanosecond range of the [`Histogram`] bucket that
/// holds `v`: values below 16 have buckets of their own, larger values
/// split each power-of-two octave into 16 equal sub-buckets.
fn bucket_range(v: u64) -> (u64, u64) {
    if v < 16 {
        return (v, v + 1);
    }
    let octave = 63 - v.leading_zeros();
    let width = 1u64 << (octave - 4);
    let lo = v & !(width - 1);
    (lo, lo + width)
}

/// Quantile `q` (in `[0, 1]`) of `h` in nanoseconds, interpolated
/// inside its bucket; 0 for an empty histogram.
pub fn quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    // The bucket value of the k-th smallest sample (1-based).
    let at = |k: u64| h.quantile((k as f64 - 0.5) / n as f64);
    // How many ranks hold samples below `bound`.
    let ranks_below = |bound: u64| {
        let (mut lo, mut hi) = (0u64, n);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if at(mid) < bound {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    };
    let (lo, hi) = bucket_range(at(rank));
    let below = ranks_below(lo);
    let inside = ranks_below(hi) - below;
    let frac = (rank - below) as f64 - 0.5;
    let v = lo as f64 + frac / inside as f64 * (hi - lo) as f64;
    v.clamp(h.min() as f64, h.max() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_inside_the_bucket() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 37);
        }
        for (q, exact) in [
            (0.5, 500.0 * 37.0),
            (0.99, 990.0 * 37.0),
            (0.1, 100.0 * 37.0),
        ] {
            let got = quantile(&h, q);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q={q}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn tracks_the_data_where_the_midpoint_does_not() {
        let fill = |below: u64| {
            let mut h = Histogram::new();
            for i in 0..100u64 {
                h.record(if i < below { 39_000 } else { 45_000 });
            }
            h
        };
        let (a, b) = (fill(60), fill(70));
        assert_eq!(a.quantile(0.5), b.quantile(0.5), "same bucket midpoint");
        assert!(quantile(&b, 0.5) < quantile(&a, 0.5));
    }

    #[test]
    fn edges() {
        assert_eq!(quantile(&Histogram::new(), 0.5), 0.0);
        let mut h = Histogram::new();
        h.record(12_345);
        assert_eq!(quantile(&h, 0.5), 12_345.0);
        assert_eq!(bucket_range(7), (7, 8));
        assert_eq!(bucket_range(16), (16, 17));
        assert_eq!(bucket_range(40_000), (38_912, 40_960));
    }
}
